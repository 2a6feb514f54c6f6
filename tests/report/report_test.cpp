// The aggregation layer, regression gate, bench record, HTML dashboard,
// and the eval-harness bridge.
#include "report/aggregate.hpp"

#include <gtest/gtest.h>

#include "eval/run_records.hpp"
#include "report/gate.hpp"
#include "report/html.hpp"
#include "report/run_record.hpp"
#include "support/json.hpp"

namespace feam::report {
namespace {

RunRecord make_record(const std::string& binary, const std::string& site,
                      bool ready, const std::string& blocking = "") {
  RunRecord r;
  r.command = "target";
  r.binary = binary;
  r.source_site = "india";
  r.target_site = site;
  r.mode = "extended";
  r.has_prediction = true;
  r.ready = ready;
  r.exit_code = ready ? 0 : 2;
  r.determinants = {{"isa", true, true, "ok"},
                    {"c_library", true, blocking != "c_library", "glibc"},
                    {"mpi_stack", blocking != "c_library",
                     blocking.empty(), "stack"},
                    {"shared_libraries", blocking.empty(), blocking.empty(),
                     "libs"}};
  r.counters["tec.determinant_checks"] = 4;
  obs::Histogram h;
  h.record(1000);
  h.record(2000);
  r.histograms["phase.target_ns"] = h.snapshot();
  return r;
}

TEST(AggregateTest, BuildsTheReadinessMatrixWithAttribution) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  records.push_back(make_record("cg.B", "ranger", false, "c_library"));
  records.push_back(make_record("milc", "fir", false, "mpi_stack"));
  records.back().resolved_libraries = 2;

  const Aggregate a = aggregate_records(std::move(records));
  EXPECT_EQ(a.prediction_runs, 3u);
  EXPECT_EQ(a.ready_runs, 1u);
  EXPECT_EQ(a.sites.size(), 2u);
  EXPECT_TRUE(a.matrix.at("cg.B").at("fir").ready);
  EXPECT_EQ(a.matrix.at("cg.B").at("ranger").blocking_determinant,
            "c_library");
  EXPECT_EQ(a.matrix.at("milc").at("fir").blocking_determinant, "mpi_stack");
  EXPECT_EQ(a.determinant_failures.at("c_library"), 1u);
  EXPECT_EQ(a.determinant_failures.at("mpi_stack"), 1u);
  // Counters summed, histograms merged across records.
  EXPECT_EQ(a.counters.at("tec.determinant_checks"), 12u);
  EXPECT_EQ(a.histograms.at("phase.target_ns").count, 6u);
  EXPECT_TRUE(a.conflicts.empty());

  const std::string matrix = render_readiness_matrix(a);
  EXPECT_NE(matrix.find("READY"), std::string::npos);
  EXPECT_NE(matrix.find("c_library"), std::string::npos);
}

TEST(AggregateTest, DisagreeingRepeatRunsAreConflicts) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  records.push_back(make_record("cg.B", "fir", false, "c_library"));
  const Aggregate a = aggregate_records(std::move(records));
  ASSERT_EQ(a.conflicts.size(), 1u);
  EXPECT_NE(a.conflicts[0].find("cg.B @ fir"), std::string::npos);
}

TEST(AggregateTest, IngestsEventJsonlAndCountsMalformedLines) {
  Aggregate a;
  ingest_event_jsonl(a,
                     "{\"level\":\"info\",\"name\":\"tec.verdict\"}\n"
                     "\n"
                     "not json at all\n"
                     "{\"level\":\"debug\",\"name\":\"launcher.run\"}\n");
  EXPECT_EQ(a.events.total, 2u);
  EXPECT_EQ(a.events.malformed_lines, 1u);
  EXPECT_EQ(a.events.by_level.at("info"), 1u);
  EXPECT_EQ(a.events.by_name.at("launcher.run"), 1u);
}

TEST(AggregateTest, FlattenMetricsExposesTheGateSurface) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  // 130 evidence items over three stages; the roll-up counts the 128 that
  // serialize (sorted order: every bdc and edc item, 28 of the 30 tec).
  for (int i = 0; i < 130; ++i) {
    obs::Evidence e;
    e.stage = i < 60 ? "bdc" : (i < 100 ? "edc" : "tec");
    e.kind = "file";
    e.subject = "/lib/" + std::to_string(1000 + i);
    records.back().provenance.add(std::move(e));
  }
  const auto metrics = flatten_metrics(aggregate_records(std::move(records)));
  EXPECT_EQ(metrics.at("matrix.records"), 1.0);
  EXPECT_EQ(metrics.at("matrix.ready"), 1.0);
  EXPECT_EQ(metrics.at("counter.tec.determinant_checks"), 4.0);
  EXPECT_EQ(metrics.at("hist.phase.target_ns.count"), 2.0);
  EXPECT_GT(metrics.at("hist.phase.target_ns.p99"), 0.0);
  EXPECT_EQ(metrics.at("provenance.records"), 1.0);
  EXPECT_EQ(metrics.at("provenance.items"), 128.0);
  EXPECT_EQ(metrics.at("provenance.dropped"), 2.0);
  EXPECT_EQ(metrics.at("provenance.stage.bdc"), 60.0);
  EXPECT_EQ(metrics.at("provenance.stage.edc"), 40.0);
  EXPECT_EQ(metrics.at("provenance.stage.tec"), 28.0);
}

TEST(AggregateTest, MergesProfilesAcrossRecordsWithSpans) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  records.back().spans = {{1, 0, "feam.target_phase", 0, 4000, 0},
                          {2, 1, "tec.isa", 0, 1000, 0}};
  records.push_back(make_record("milc", "fir", true));
  records.back().spans = {{1, 0, "feam.target_phase", 0, 6000, 0}};
  records.push_back(make_record("ep.A", "ranger", true));  // no spans

  const Aggregate a = aggregate_records(std::move(records));
  EXPECT_EQ(a.profiled_records, 2u);
  EXPECT_EQ(a.profile.span_count, 3u);
  // Wall extents add across records (they never share a clock), and the
  // longest single record's critical path wins.
  EXPECT_EQ(a.profile.wall_ns, 10000u);
  EXPECT_EQ(a.profile.critical_path_ns(), 6000u);

  const auto metrics = flatten_metrics(a);
  EXPECT_EQ(metrics.at("profile.records"), 2.0);
  EXPECT_EQ(metrics.at("profile.spans"), 3.0);
  EXPECT_EQ(metrics.at("profile.wall_ns"), 10000.0);
  EXPECT_EQ(metrics.at("profile.critical_path_ns"), 6000.0);

  const std::string text = render_report_text(a);
  EXPECT_NE(text.find("Profile (2 records with spans"), std::string::npos);
  EXPECT_NE(text.find("feam.target_phase"), std::string::npos);
}

TEST(AggregateTest, NoSpansMeansNoProfileSection) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  const Aggregate a = aggregate_records(std::move(records));
  EXPECT_EQ(a.profiled_records, 0u);
  EXPECT_TRUE(a.profile.empty());
  EXPECT_EQ(render_report_text(a).find("Profile ("), std::string::npos);
}

support::Json baseline_doc(const char* metrics_json) {
  const auto parsed = support::Json::parse(
      std::string("{\"schema\":\"feam.report_baseline/1\",\"metrics\":") +
      metrics_json + "}");
  EXPECT_TRUE(parsed.has_value());
  return *parsed;
}

TEST(GateTest, PassesWithinToleranceFailsOutside) {
  const std::map<std::string, double> measured = {
      {"matrix.ready", 38.0}, {"hist.phase.target_ns.p99", 1.5e6}};
  auto ok = run_gate(measured, baseline_doc(
      "{\"matrix.ready\":{\"value\":38,\"rel_tol\":0},"
      "\"hist.phase.target_ns.p99\":{\"max\":2000000000}}"));
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_TRUE(ok.value().pass);
  EXPECT_EQ(ok.value().failures(), 0u);

  auto regressed = run_gate(measured, baseline_doc(
      "{\"matrix.ready\":{\"value\":40,\"rel_tol\":0}}"));
  ASSERT_TRUE(regressed.ok());
  EXPECT_FALSE(regressed.value().pass);
  EXPECT_EQ(regressed.value().failures(), 1u);
  EXPECT_NE(regressed.value().render().find("GATE FAIL"), std::string::npos);

  // A metric the baseline pins but the run no longer produces is itself a
  // regression, not a silent pass.
  auto missing = run_gate(measured, baseline_doc(
      "{\"counter.vanished\":{\"value\":1,\"rel_tol\":0}}"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().pass);
}

TEST(GateTest, ToleranceArithmetic) {
  const std::map<std::string, double> measured = {{"m", 104.0}};
  // rel_tol 0.05 of 100 allows ±5.
  EXPECT_TRUE(run_gate(measured, baseline_doc(
      "{\"m\":{\"value\":100,\"rel_tol\":0.05}}")).value().pass);
  EXPECT_FALSE(run_gate(measured, baseline_doc(
      "{\"m\":{\"value\":100,\"rel_tol\":0.01}}")).value().pass);
  // abs_tol wins when larger.
  EXPECT_TRUE(run_gate(measured, baseline_doc(
      "{\"m\":{\"value\":100,\"rel_tol\":0.01,\"abs_tol\":4}}")).value().pass);
  // min bound.
  EXPECT_FALSE(run_gate(measured, baseline_doc(
      "{\"m\":{\"min\":105}}")).value().pass);
}

TEST(GateTest, MalformedBaselinesAreErrorsNotPasses) {
  const std::map<std::string, double> measured = {{"m", 1.0}};
  support::Json not_baseline;
  not_baseline.set("schema", "something/else");
  EXPECT_FALSE(run_gate(measured, not_baseline).ok());

  auto no_spec = baseline_doc("{\"m\":{}}");
  EXPECT_FALSE(run_gate(measured, no_spec).ok());
}

TEST(GateTest, BenchRecordCarriesMetricsAndGateOutcome) {
  const std::map<std::string, double> measured = {{"matrix.ready", 3.0}};
  auto gated = run_gate(measured, baseline_doc(
      "{\"matrix.ready\":{\"value\":4,\"rel_tol\":0}}"));
  ASSERT_TRUE(gated.ok());
  const auto bench = bench_record(measured, &gated.value(), 2);
  EXPECT_EQ(bench.get_string("schema"), "feam.bench/1");
  EXPECT_EQ(bench.get_int("pr"), 2);
  EXPECT_EQ(bench["metrics"]["matrix.ready"].as_number(), 3.0);
  EXPECT_FALSE(bench["gate"].get_bool("pass", true));
  ASSERT_EQ(bench["gate"]["failures"].as_array().size(), 1u);
  EXPECT_EQ(bench["gate"]["failures"].as_array()[0].get_string("name"),
            "matrix.ready");
}

TEST(HtmlTest, DashboardIsSelfContainedAndEscaped) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  records.push_back(make_record("milc", "ranger", false, "c_library"));
  // A hostile span name must not terminate the embedded data island.
  records[0].spans = {{1, 0, "feam.target_phase", 0, 5000},
                      {2, 1, "x</script><script>alert(1)", 100, 200}};
  const Aggregate a = aggregate_records(std::move(records));
  const std::string html = render_html_dashboard(a);

  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("FEAM readiness report"), std::string::npos);
  EXPECT_NE(html.find("cg.B"), std::string::npos);
  EXPECT_NE(html.find("c_library"), std::string::npos);
  // Self-contained: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);
  // The hostile name is split as <\/ inside the data island.
  EXPECT_EQ(html.find("x</script>"), std::string::npos);
  EXPECT_NE(html.find("x<\\/script>"), std::string::npos);

  // Records carry spans, so the profile panel renders with its embedded
  // flamegraph — still with zero external references.
  EXPECT_NE(html.find("Profile &amp; contention"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

TEST(HtmlTest, NoSpansMeansNoProfilePanel) {
  std::vector<RunRecord> records;
  records.push_back(make_record("cg.B", "fir", true));
  const std::string html =
      render_html_dashboard(aggregate_records(std::move(records)));
  EXPECT_EQ(html.find("Profile &amp; contention"), std::string::npos);
}

TEST(EvalBridgeTest, MigrationResultsBecomeRunRecords) {
  eval::MigrationResult m;
  m.binary_name = "cg.B";
  m.suite = "NAS";
  m.home_site = "india";
  m.target_site = "ranger";
  m.extended_ready = false;
  m.missing_library_count = 3;
  m.resolved_library_count = 1;
  m.extended_prediction.ready = false;
  m.extended_prediction.determinants = {
      {DeterminantKind::kIsa, true, true, "ok"},
      {DeterminantKind::kCLibrary, true, false, "needs glibc 2.12"}};

  const RunRecord r = eval::to_run_record(m);
  EXPECT_TRUE(r.validate().empty());
  EXPECT_EQ(r.command, "experiment");
  EXPECT_EQ(r.source_site, "india");
  EXPECT_EQ(r.target_site, "ranger");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.blocking_determinant(), "c_library");
  EXPECT_EQ(r.missing_libraries, 3u);
  EXPECT_EQ(r.resolved_libraries, 1u);
  EXPECT_EQ(r.unresolved_libraries, 2u);

  const auto many = eval::to_run_records({m, m});
  EXPECT_EQ(many.size(), 2u);

  // Records from the bridge aggregate exactly like CLI-written ones.
  const Aggregate a = aggregate_records(eval::to_run_records({m}));
  EXPECT_EQ(a.matrix.at("cg.B").at("ranger").blocking_determinant,
            "c_library");
}

}  // namespace
}  // namespace feam::report
