// The fleet pipeline's determinism guarantee, with drift switched ON:
// the same (spec, seed) reproduces a byte-identical fleet manifest and a
// byte-identical readiness matrix at every job count. Drift rounds land
// at sequential barrier points between per-workload surveys, so the
// mutation schedule — and therefore every record — is independent of the
// survey's thread count. Registered in ctest next to the existing
// parallel-determinism suites.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/fleet.hpp"
#include "fleet/generate.hpp"
#include "fleet/manifest.hpp"
#include "fleet/spec.hpp"
#include "report/aggregate.hpp"
#include "support/strings.hpp"

namespace feam::fleet {
namespace {

struct FleetRun {
  std::string manifest;
  std::string records;
  std::string matrix;
  std::size_t drift_ops = 0;
};

FleetRun run_once(int jobs, bool use_caches) {
  FleetSpec spec;
  spec.name = "det";
  spec.sites = 10;
  spec.workloads = 4;
  spec.drift_rate = 1.0;  // every round mutates ~1 path per site
  spec.container_rate = 0.4;
  spec.broken_module_rate = 0.3;
  spec.symlink_farm_rate = 0.4;

  Fleet fleet = generate_fleet(spec, 20130613);
  FleetRun out;
  out.manifest = fleet_manifest(fleet).dump(2);

  eval::FleetRunOptions options;
  options.jobs = jobs;
  options.use_caches = use_caches;
  const auto result = eval::run_fleet(fleet, options);
  out.records = result.records_jsonl();
  out.matrix = result.readiness_matrix();
  out.drift_ops = result.drift_log.size();
  return out;
}

TEST(FleetDeterminism, ManifestAndMatrixIdenticalAtEveryJobCount) {
  const FleetRun jobs1 = run_once(1, true);
  ASSERT_FALSE(jobs1.records.empty());
  ASSERT_GT(jobs1.drift_ops, 0u) << "drift must actually fire in this test";

  for (const int jobs : {4, 8}) {
    const FleetRun pooled = run_once(jobs, true);
    EXPECT_EQ(pooled.manifest, jobs1.manifest) << "jobs=" << jobs;
    EXPECT_EQ(pooled.records, jobs1.records) << "jobs=" << jobs;
    EXPECT_EQ(pooled.matrix, jobs1.matrix) << "jobs=" << jobs;
    EXPECT_EQ(pooled.drift_ops, jobs1.drift_ops) << "jobs=" << jobs;
  }

  // The memoization layer is transparent even while sites drift under
  // it: a drifted site's fingerprint moves, the EDC memo re-verifies,
  // and the uncached run agrees record for record — stale scans are
  // never served.
  const FleetRun uncached = run_once(1, false);
  EXPECT_EQ(uncached.records, jobs1.records);
  EXPECT_EQ(uncached.matrix, jobs1.matrix);
}

// The fleet writes its record stream straight to bytes and folds its
// matrix in place; both must equal the reference paths at every job
// count: each record's to_json() tree dump, and aggregate_records() over
// a copy of the records.
TEST(RecordBytes, FleetStreamAndMatrixMatchTheReferencePaths) {
  FleetSpec spec;
  spec.name = "bytes";
  spec.sites = 10;
  spec.workloads = 4;
  spec.drift_rate = 0.25;

  for (const int jobs : {1, 4}) {
    Fleet fleet = generate_fleet(spec, 42);
    eval::FleetRunOptions options;
    options.jobs = jobs;
    const auto result = eval::run_fleet(fleet, options);
    ASSERT_EQ(result.pairs(), 40u) << "jobs=" << jobs;
    ASSERT_GT(result.ready_pairs, 0u);
    ASSERT_LT(result.ready_pairs, result.pairs());

    const std::string jsonl = result.records_jsonl();
    ASSERT_FALSE(jsonl.empty());
    ASSERT_EQ(jsonl.back(), '\n');
    const std::vector<std::string> lines =
        support::split(jsonl.substr(0, jsonl.size() - 1), '\n');
    ASSERT_EQ(lines.size(), result.records.size()) << "jobs=" << jobs;
    std::size_t with_provenance = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i], result.records[i].to_json().dump())
          << "jobs=" << jobs << " record " << i;
      if (!result.records[i].provenance.empty()) ++with_provenance;
    }
    EXPECT_GT(with_provenance, 0u);

    std::vector<report::RunRecord> copy = result.records;
    EXPECT_EQ(result.readiness_matrix(),
              report::render_readiness_matrix(
                  report::aggregate_records(std::move(copy))))
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace feam::fleet
