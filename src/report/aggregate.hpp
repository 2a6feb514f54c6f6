// Fleet-level aggregation over RunRecords and JSONL event logs: the
// readiness matrix (binaries × target sites with per-determinant failure
// attribution), merged histogram summaries with cross-run percentiles,
// counter roll-ups, and event statistics. Pure data-in/data-out — the CLI
// layer owns all file I/O.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "report/run_record.hpp"

namespace feam::report {

struct MatrixCell {
  bool ready = false;
  std::string blocking_determinant;  // "" when ready
  std::string detail;                // blocking determinant's detail line
  std::uint64_t resolved_libraries = 0;
  std::size_t runs = 0;  // records that landed on this (binary, site) cell
};

// Roll-up of ingested JSONL event-log lines.
struct EventRollup {
  std::uint64_t total = 0;
  std::map<std::string, std::uint64_t> by_level;
  std::map<std::string, std::uint64_t> by_name;
  std::uint64_t malformed_lines = 0;
};

struct Aggregate {
  std::vector<RunRecord> records;

  // binary → target site → verdict. Only prediction-carrying records with
  // a target site land here; repeated runs of the same pair must agree on
  // readiness (disagreements are surfaced in `conflicts`).
  std::map<std::string, std::map<std::string, MatrixCell>> matrix;
  std::set<std::string> sites;
  std::vector<std::string> conflicts;

  std::size_t prediction_runs = 0;
  std::size_t ready_runs = 0;
  std::map<std::string, std::uint64_t> determinant_failures;  // key → count

  // Provenance roll-up (records carrying a feam.provenance/1 section).
  std::size_t provenance_records = 0;
  std::uint64_t evidence_items = 0;    // serialized items across records
  std::uint64_t evidence_dropped = 0;  // items beyond the per-record bound
  std::map<std::string, std::uint64_t> evidence_by_stage;  // stage → items

  std::map<std::string, std::uint64_t> counters;               // summed
  std::map<std::string, obs::HistogramSnapshot> histograms;    // merged

  // Merged self-time/critical-path profile over every record that carries
  // spans (rebuilt per record with obs::build_profile so the flame tree is
  // available, then merged — see obs::Profile::merge for the semantics).
  obs::Profile profile;
  std::size_t profiled_records = 0;

  EventRollup events;
};

// Folds `records` into an Aggregate (moves them in).
Aggregate aggregate_records(std::vector<RunRecord> records);

// Folds one record's matrix cell, attribution, provenance, counters,
// histograms and profile into `aggregate` without retaining the record:
// `aggregate.records` is left as it is. aggregate_records() is this fold
// over its records; callers that only render the matrix or roll-ups (the
// fleet runner) fold in place instead of copying every record.
void fold_record(Aggregate& aggregate, const RunRecord& record);

// Ingests one JSONL event-log document (one JSON object per line) into the
// aggregate's event roll-up. Blank lines are skipped; unparseable lines
// are counted, not fatal.
void ingest_event_jsonl(Aggregate& aggregate, std::string_view text);

// Flat metric name → value view of the aggregate, the regression gate's
// input: matrix.*, determinant.<key>.failures, counter.<name>, and
// hist.<name>.{count,mean,p50,p90,p99,max}.
std::map<std::string, double> flatten_metrics(const Aggregate& aggregate);

// Text renderings (support::TextTable based, CLI output).
std::string render_readiness_matrix(const Aggregate& aggregate);
std::string render_latency_table(const Aggregate& aggregate);
std::string render_counter_table(const Aggregate& aggregate);
std::string render_report_text(const Aggregate& aggregate);

}  // namespace feam::report
