// Multi-site assessment: the workflow the paper's conclusion motivates —
// "For scientists who do not have much experience, time, or support to
// explore new computing sites ... FEAM provides an efficient automated
// solution for quickly assessing many new computing sites."
//
// Given a binary (and optionally its source-phase bundle), runs the target
// phase at every candidate site and ranks the verdicts: ready sites first
// (fewest resolved copies first — less to ship), then not-ready sites
// grouped by the determinant that blocked them.
//
// Sites are independent, so the assessments fan out through
// site::parallel_for over `SurveyOptions::jobs` workers. At every job
// count, each assessment leases its probe subtrees (the binary path and
// the default resolution root) and runs in a private shell session;
// results land in input-order slots, so the report is identical at any
// job count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "feam/phases.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"
#include "support/byte_io.hpp"

namespace feam {

struct SurveyEntry {
  std::string site_name;
  bool ready = false;
  std::string blocking_determinant;  // empty when ready
  std::string reason;
  std::size_t resolved_copies = 0;   // libraries resolution had to install
  Prediction prediction;
};

struct SurveyReport {
  std::vector<SurveyEntry> entries;  // ranked best-first
  std::size_t ready_count() const;
  std::string render() const;
};

struct SurveyOptions {
  // Worker threads assessing sites concurrently; 1 = inline sequential.
  int jobs = 1;
  // Optional memoization bundle (caches.hpp); nullptr = uncached.
  MigrationCaches* caches = nullptr;
};

// Surveys `sites` for the binary `binary_bytes` (written to each site as
// /home/user/<binary_name>; every site shares the one buffer). `source`
// enables the extended prediction and resolution. Sites are evaluated
// independently; each is left exactly as found — migrated binary and
// resolution directories removed, module load state never touched (the
// assessment runs in a private shell session) — even when the target
// phase errors.
SurveyReport survey_sites(std::span<site::Site* const> sites,
                          std::string_view binary_name,
                          const support::Blob& binary_bytes,
                          const SourcePhaseOutput* source = nullptr,
                          const FeamConfig& config = {},
                          const SurveyOptions& options = {});
// The same, wrapping `binary_bytes` in one Blob for the whole survey.
SurveyReport survey_sites(std::span<site::Site* const> sites,
                          std::string_view binary_name,
                          const support::Bytes& binary_bytes,
                          const SourcePhaseOutput* source = nullptr,
                          const FeamConfig& config = {},
                          const SurveyOptions& options = {});

}  // namespace feam
