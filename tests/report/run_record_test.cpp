// RunRecord end-to-end: assemble a record from a live target phase run
// with the obs collector enabled, round-trip it through JSON, and check
// the invariants `feam report` relies on.
#include "report/run_record.hpp"

#include <gtest/gtest.h>

#include "feam/phases.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam::report {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

class RunRecordLive : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::collector().clear();
    obs::collector().set_enabled(true);
  }
  void TearDown() override {
    obs::collector().set_enabled(false);
    obs::collector().clear();
  }
};

TEST_F(RunRecordLive, TargetPhaseAssemblesAValidRecord) {
  // Compile at india, source phase there, migrate the binary to fir.
  auto home = toolchain::make_site("india");
  const auto* stack =
      home->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  toolchain::ProgramSource p;
  p.name = "app";
  p.language = toolchain::Language::kC;
  p.libc_features = {"base", "stdio", "math"};
  const auto compiled =
      toolchain::compile_mpi_program(*home, p, *stack, "/home/user/app");
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  ASSERT_TRUE(home->load_module("openmpi/" + stack->version.str() + "-gnu"));
  const auto source = run_source_phase(*home, compiled.value());
  ASSERT_TRUE(source.ok()) << source.error();

  auto target = toolchain::make_site("fir");
  target->vfs.write_file("/home/user/migrated/app",
                         *home->vfs.read(compiled.value()));
  obs::collector().clear();  // record only the target phase
  const auto result =
      run_target_phase(*target, "/home/user/migrated/app", &source.value());
  ASSERT_TRUE(result.ok()) << result.error();

  RunContext ctx;
  ctx.command = "target";
  ctx.binary = "app";
  ctx.source_site = "india";
  ctx.target_site = "fir";
  ctx.mode = "extended";
  ctx.bundle_bytes = 4096;
  ctx.prediction = result.value().prediction;
  const RunRecord record = assemble_run_record(
      ctx, obs::collector().spans(), obs::metrics(),
      result.value().prediction.ready ? 0 : 2);

  // Internally consistent straight out of assembly.
  const auto issues = record.validate();
  EXPECT_TRUE(issues.empty()) << issues.front();

  // The site pair and verdicts survive as recorded.
  EXPECT_EQ(record.source_site, "india");
  EXPECT_EQ(record.target_site, "fir");
  EXPECT_EQ(record.mode, "extended");
  EXPECT_TRUE(record.has_prediction);
  ASSERT_EQ(record.determinants.size(), 4u);
  EXPECT_EQ(record.determinants[0].key, "isa");
  EXPECT_EQ(record.determinants[1].key, "c_library");
  EXPECT_EQ(record.determinants[2].key, "mpi_stack");
  EXPECT_EQ(record.determinants[3].key, "shared_libraries");
  EXPECT_EQ(record.ready, result.value().prediction.ready);
  EXPECT_EQ(record.blocking_determinant(), record.ready ? "" : "c_library");

  // Phase timing: the target-phase span exists and covers the sum of its
  // direct children (validate() checks all parents; pin the root here).
  const std::uint64_t phase_ns = record.span_duration_ns("feam.target_phase");
  EXPECT_GT(phase_ns, 0u);
  std::uint64_t direct_children = 0;
  std::uint64_t phase_id = 0;
  for (const auto& span : record.spans) {
    if (span.name == "feam.target_phase") phase_id = span.id;
  }
  ASSERT_NE(phase_id, 0u);
  for (const auto& span : record.spans) {
    if (span.parent_id == phase_id) direct_children += span.duration_ns;
  }
  EXPECT_GE(phase_ns, direct_children);

  // Counters and histograms come from the live registry.
  EXPECT_GE(record.counters.at("tec.determinant_checks"), 4u);
  EXPECT_FALSE(record.histograms.empty());

  // JSON round trip through the real writer/parser.
  const auto parsed = support::Json::parse(record.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  const auto back = RunRecord::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->validate().empty());
  EXPECT_EQ(back->source_site, record.source_site);
  EXPECT_EQ(back->target_site, record.target_site);
  EXPECT_EQ(back->ready, record.ready);
  EXPECT_EQ(back->determinants.size(), record.determinants.size());
  EXPECT_EQ(back->spans.size(), record.spans.size());
  EXPECT_EQ(back->counters, record.counters);
  EXPECT_EQ(back->histograms.size(), record.histograms.size());
  EXPECT_EQ(back->span_duration_ns("feam.target_phase"), phase_ns);
  EXPECT_EQ(back->bundle_bytes, 4096u);
}

TEST(RunRecordTest, BlockingDeterminantNamesTheFirstIncompatible) {
  RunRecord r;
  r.command = "target";
  r.has_prediction = true;
  r.ready = false;
  r.determinants = {{"isa", true, true, ""},
                    {"c_library", true, false, "needs glibc 2.12"},
                    {"mpi_stack", false, false, ""}};
  EXPECT_EQ(r.blocking_determinant(), "c_library");
  r.ready = true;
  EXPECT_EQ(r.blocking_determinant(), "");
}

TEST(RunRecordTest, ValidateFlagsBrokenSpanTrees) {
  RunRecord r;
  r.command = "target";
  r.spans = {{1, 0, "root", 0, 100}, {2, 7, "orphan", 10, 20}};
  auto issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("unknown parent"), std::string::npos);

  r.spans = {{1, 0, "root", 0, 50},
             {2, 1, "a", 0, 40},
             {3, 1, "b", 40, 30}};  // 40 + 30 > 50
  issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("less than its children"), std::string::npos);
}

TEST(RunRecordTest, SpanTidAndProfileSurviveJsonRoundTrip) {
  RunRecord r;
  r.command = "target";
  r.spans = {{1, 0, "root", 0, 1000, 0},
             {2, 1, "child", 100, 300, 0},
             {3, 0, "worker", 200, 500, 3}};
  r.profile = obs::build_profile(to_profile_spans(r));
  ASSERT_TRUE(r.validate().empty());

  const auto parsed = support::Json::parse(r.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  const auto back = RunRecord::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->validate().empty());
  ASSERT_EQ(back->spans.size(), 3u);
  EXPECT_EQ(back->spans[2].tid, 3);

  ASSERT_TRUE(back->profile.has_value());
  EXPECT_EQ(back->profile->span_count, 3u);
  EXPECT_EQ(back->profile->wall_ns, r.profile->wall_ns);
  ASSERT_EQ(back->profile->threads.size(), 2u);
  EXPECT_EQ(back->profile->threads[1].tid, 3);
  EXPECT_EQ(back->profile->threads[1].busy_ns, 500u);
  // The flame tree is deliberately not serialized; rebuilding the profile
  // from the record's own spans restores it along with everything else.
  const auto rebuilt = obs::build_profile(to_profile_spans(*back));
  EXPECT_EQ(rebuilt.span_count, back->profile->span_count);
  EXPECT_FALSE(rebuilt.flame.children.empty());
}

TEST(RunRecordTest, ValidateCatchesProfileDisagreements) {
  RunRecord r;
  r.command = "target";
  r.spans = {{1, 0, "root", 0, 1000, 0}};
  r.profile = obs::build_profile(to_profile_spans(r));
  ASSERT_TRUE(r.validate().empty());

  r.profile->span_count = 7;  // no longer covers the record's span list
  auto issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("profile covers 7 spans"), std::string::npos);

  r.profile = obs::build_profile(to_profile_spans(r));
  ASSERT_FALSE(r.profile->threads.empty());
  r.profile->threads[0].self_ns += 1;  // breaks the partition invariant
  issues = r.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("!= busy"), std::string::npos);
}

TEST(RunRecordTest, FromJsonRejectsUnknownSchemaAndKeys) {
  support::Json j;
  j.set("schema", "feam.run_record/999");
  j.set("command", "target");
  EXPECT_FALSE(RunRecord::from_json(j).has_value());

  RunRecord r;
  r.command = "target";
  r.determinants = {{"isa", true, true, ""}};
  auto json = r.to_json();
  json.as_object().at("determinants").as_array()[0].set("key", "quantum");
  EXPECT_FALSE(RunRecord::from_json(json).has_value());
}

// A record that sets every field, with the string and number shapes the
// direct writer must escape and format exactly as the tree does.
RunRecord every_field_record() {
  RunRecord r;
  r.command = "target";
  r.binary = "app\x93\xff\xc0\xaf";         // invalid UTF-8
  r.source_site = "in\x01" "di\ta\n\r\x1f";  // control characters
  r.target_site = "fir\xf0\x9d\x84\x9e \xc3\xa9\xe2\x82\xac";  // non-BMP
  r.mode = "extended \"quoted\" c:\\path\x7f";
  r.exit_code = -2;
  r.has_prediction = true;
  r.ready = false;
  r.determinants = {{"isa", true, true, ""},
                    {"c_library", true, false, "needs GLIBC_2.12 \xed\xa0\x80"},
                    {"mpi_stack", false, false, "skipped"},
                    {"shared_libraries", false, false, "truncated \xe2\x82"}};
  r.missing_libraries = 1'234'567'890'123'456;     // >= 1e15: %.17g path
  r.resolved_libraries = (std::uint64_t{1} << 53) + 1;  // > 2^53
  r.unresolved_libraries = 999'999'999'999'999;     // just under 1e15
  r.bundle_bytes = 4096;

  r.spans = {{1, 0, "feam.target_phase", 100, 10'000, 0, 4096, 12},
             {2, 1, "tec.determinant.isa", 200, 3'000, 0},
             {3, 0, "worker \"pool\"", 300, 5'000, 2, 64, 1}};
  r.profile = obs::build_profile(to_profile_spans(r));
  r.counters = {{"tec.determinant_checks", 4},
                {"cache.hits{cache=bdc}", std::uint64_t{1} << 60},
                {"zero", 0}};
  obs::Histogram latency;
  for (const std::uint64_t v :
       {1ULL, 7ULL, 1000ULL, 123456ULL, 9'000'000'000ULL}) {
    latency.record(v);
  }
  r.histograms = {{"phase.target_ns", latency.snapshot()},
                  {"empty", obs::HistogramSnapshot{}}};

  // Past the 128-item serialization cap, with over-long details.
  for (int i = 0; i < 140; ++i) {
    obs::Evidence e;
    e.stage = i % 3 == 0 ? "bdc" : (i % 3 == 1 ? "resolver" : "tec.isa");
    e.kind = "search";
    e.site = "fir\xf0\x9f\x98\x80";
    e.subject = "lib" + std::to_string(i) + ".so\x80";
    e.detail = std::string(static_cast<std::size_t>(150 + i % 20), 'd') + "\"";
    e.stamp = 0x0123456789abcdefULL * static_cast<std::uint64_t>(i + 1);
    r.provenance.add(std::move(e));
  }
  return r;
}

TEST(RecordBytes, AppendJsonlIsTheTreeDumpForEveryField) {
  const RunRecord full = every_field_record();
  ASSERT_GT(full.provenance.distinct(), obs::EvidenceSet::kMaxItems);
  ASSERT_TRUE(full.profile.has_value());

  RunRecord sparse = full;  // no profile, provenance, counters, histograms
  sparse.profile.reset();
  sparse.provenance.clear();
  sparse.counters.clear();
  sparse.histograms.clear();
  sparse.spans.clear();
  sparse.determinants.clear();

  const RunRecord empty;
  const RunRecord* const records[] = {&full, &sparse, &empty};
  for (const RunRecord* record : records) {
    std::string line;
    record->append_jsonl(line);
    EXPECT_EQ(line, record->to_json().dump() + "\n");
    const auto parsed = support::Json::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_TRUE(RunRecord::from_json(*parsed).has_value());
  }

  // Appending continues the buffer: two records make two lines.
  std::string two = "prefix\n";
  full.append_jsonl(two);
  sparse.append_jsonl(two);
  EXPECT_EQ(two, "prefix\n" + full.to_json().dump() + "\n" +
                     sparse.to_json().dump() + "\n");

  std::string provenance;
  full.provenance.append_json(provenance);
  EXPECT_EQ(provenance, full.provenance.to_json().dump());
}

}  // namespace
}  // namespace feam::report
