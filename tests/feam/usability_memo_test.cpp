// The usability memo (feam/caches.hpp): hello-world launches replayed from
// a stored plan must give exactly the verdicts, logs and provenance of an
// uncached evaluation, follow site drift the way the uncached path does,
// and never store what depends on more than their key — a fill under
// injected faults, a search along a scratch LD_LIBRARY_PATH, or a hello
// run with a resolution directory. The launcher's replay entry point must
// draw the same faults as a fresh launch.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "feam/bdc.hpp"
#include "feam/caches.hpp"
#include "feam/phases.hpp"
#include "feam/tec.hpp"
#include "obs/metrics.hpp"
#include "site/fault.hpp"
#include "site/parallel_for.hpp"
#include "toolchain/launcher.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/provision.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

// A binary built and source-phased at `home_name`, copied to `target`.
struct Migration {
  std::unique_ptr<site::Site> home;
  std::unique_ptr<site::Site> target;
  std::string target_path;
  SourcePhaseOutput source;
  BinaryDescription app;
};

Migration migrate(const char* home_name, const char* target_name,
                  MpiImpl impl, CompilerFamily family,
                  toolchain::Language language) {
  Migration m;
  m.home = toolchain::make_site(home_name);
  m.target = toolchain::make_site(target_name);
  const auto* stack = m.home->find_stack(impl, family);
  EXPECT_NE(stack, nullptr);
  toolchain::ProgramSource program;
  program.name = language == toolchain::Language::kFortran ? "cg.B" : "is.B";
  program.language = language;
  program.libc_features = {"base", "stdio", "math"};
  const std::string home_path = "/home/user/apps/" + program.name;
  const auto compiled =
      toolchain::compile_mpi_program(*m.home, program, *stack, home_path);
  EXPECT_TRUE(compiled.ok()) << compiled.error();
  m.home->load_module(site::module_name(*stack));
  auto source = run_source_phase(*m.home, home_path);
  EXPECT_TRUE(source.ok()) << source.error();
  m.source = std::move(source).take();
  m.home->unload_all_modules();
  m.target_path = "/home/user/migrated/" + program.name;
  m.target->vfs.write_file(m.target_path, *m.home->vfs.read(home_path));
  const auto app = Bdc::describe(*m.target, m.target_path);
  EXPECT_TRUE(app.ok());
  m.app = app.value();
  return m;
}

Prediction evaluate(Migration& m, MigrationCaches* caches) {
  return Tec::evaluate(*m.target, m.app, m.target_path, &m.source.bundle, {},
                       caches);
}

void expect_same(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.ready, b.ready);
  EXPECT_EQ(a.selected_stack_id, b.selected_stack_id);
  ASSERT_EQ(a.determinants.size(), b.determinants.size());
  for (std::size_t i = 0; i < a.determinants.size(); ++i) {
    EXPECT_EQ(a.determinants[i].evaluated, b.determinants[i].evaluated);
    EXPECT_EQ(a.determinants[i].compatible, b.determinants[i].compatible);
    EXPECT_EQ(a.determinants[i].detail, b.determinants[i].detail);
  }
  EXPECT_EQ(a.resolution_dirs, b.resolution_dirs);
  EXPECT_EQ(a.log, b.log);
  EXPECT_TRUE(a.provenance == b.provenance);
  EXPECT_EQ(a.provenance.to_json().dump(), b.provenance.to_json().dump());
}

// A fill like native_hello_test's: compile the C hello world against
// `stack` at `path`, launch it with retries, remove it. Counts its calls.
UsabilityMemo::Fill native_fill(site::Site& s,
                                const site::MpiStackInstall& stack,
                                const std::string& path, int& calls) {
  return [&s, &stack, path, &calls](toolchain::LaunchPlan* plan)
             -> std::optional<toolchain::RunResult> {
    ++calls;
    const auto compiled = toolchain::compile_mpi_program(
        s, toolchain::mpi_hello_world(toolchain::Language::kC), stack, path);
    if (!compiled.ok()) return std::nullopt;
    auto run = toolchain::mpiexec_with_retries(s, path, 2, {}, 3, nullptr,
                                               plan);
    s.vfs.remove(path);
    return run;
  };
}

const UsabilityMemo::Hello kNativeHello{"native openmpi", {}};

TEST(UsabilityMemo, HitReplaysTheProvenanceAndLogOfAnUncachedEvaluation) {
  auto m = migrate("india", "fir", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                   toolchain::Language::kFortran);
  MigrationCaches caches;
  const Prediction fill = evaluate(m, &caches);
  ASSERT_GT(caches.usability.misses(), 0u);
  EXPECT_EQ(caches.usability.hits(), 0u);
  const Prediction hit = evaluate(m, &caches);
  EXPECT_GT(caches.usability.hits(), 0u);
  const Prediction uncached = evaluate(m, nullptr);

  EXPECT_TRUE(uncached.ready);
  expect_same(fill, uncached);
  expect_same(hit, uncached);
}

TEST(UsabilityMemo, BreakModuleFlipsTheVerdictExactlyAsUncached) {
  auto m = migrate("india", "fir", MpiImpl::kOpenMpi, CompilerFamily::kGnu,
                   toolchain::Language::kFortran);
  MigrationCaches caches;
  const Prediction before = evaluate(m, &caches);
  expect_same(evaluate(m, &caches), before);
  ASSERT_TRUE(before.ready);
  ASSERT_TRUE(before.selected_stack_id.has_value());
  const std::uint64_t hits_before = caches.usability.hits();
  ASSERT_GT(hits_before, 0u);

  // The drift op "break-module": the selected stack's database entry
  // vanishes, so discovery no longer offers it.
  m.target->vfs.remove(
      toolchain::module_database_path(*m.target, *before.selected_stack_id));
  const Prediction broken = evaluate(m, &caches);
  expect_same(broken, evaluate(m, nullptr));
  EXPECT_NE(broken.selected_stack_id, before.selected_stack_id);
  EXPECT_NE(broken.determinant(DeterminantKind::kMpiStack)->detail,
            before.determinant(DeterminantKind::kMpiStack)->detail);

  // "repair-modules" rewrites every entry: the original verdict returns.
  toolchain::write_module_database(*m.target);
  const Prediction repaired = evaluate(m, &caches);
  expect_same(repaired, evaluate(m, nullptr));
  EXPECT_EQ(repaired.ready, before.ready);
  EXPECT_EQ(repaired.selected_stack_id, before.selected_stack_id);
  EXPECT_EQ(repaired.log, before.log);
  // The repaired state is a new fingerprint; its plans are memoized in turn.
  const std::uint64_t hits_after_drift = caches.usability.hits();
  const Prediction again = evaluate(m, &caches);
  expect_same(again, repaired);
  EXPECT_GT(caches.usability.hits(), hits_after_drift);
}

TEST(UsabilityMemo, FillUnderAnEnabledFaultInjectorStoresNothing) {
  auto s = toolchain::make_site("india");
  const auto* stack = s->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  s->load_module(site::module_name(*stack));
  site::FaultInjector::Options options;
  options.seed = 20130613;
  options.rate = 1.0;
  auto injector = std::make_shared<site::FaultInjector>(options);
  s->vfs.set_fault_injector(injector);

  UsabilityMemo memo;
  int calls = 0;
  const auto fill = native_fill(*s, *stack, "/tmp/hw.fault", calls);
  injector->set_enabled(true);
  for (int round = 0; round < 3; ++round) {
    (void)memo.run(*s, kNativeHello, "/tmp/hw.fault", 2, 3, fill);
  }
  ASSERT_GT(injector->fault_count(), 0u);
  injector->set_enabled(false);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 3u);

  // Once clean, the first fill is stored and the next run replays it.
  const auto clean = memo.run(*s, kNativeHello, "/tmp/hw.fault", 2, 3, fill);
  const auto replayed = memo.run(*s, kNativeHello, "/tmp/hw.fault", 2, 3, fill);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(memo.hits(), 1u);
  ASSERT_TRUE(clean.has_value());
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->status, clean->status);
  EXPECT_EQ(replayed->detail, clean->detail);
}

TEST(UsabilityMemo, ScratchLdLibraryPathBypassesTheMemo) {
  auto s = toolchain::make_site("india");
  const auto* stack = s->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  s->load_module(site::module_name(*stack));
  s->env.prepend_to_list("LD_LIBRARY_PATH", "/home/user/lib");

  UsabilityMemo memo;
  int calls = 0;
  const auto fill = native_fill(*s, *stack, "/tmp/hw.scratch", calls);
  for (int round = 0; round < 3; ++round) {
    const auto run = memo.run(*s, kNativeHello, "/tmp/hw.scratch", 2, 3, fill);
    ASSERT_TRUE(run.has_value());
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 0u);
}

TEST(UsabilityMemo, ResolutionDirectoryHelloIsNeverStored) {
  // Ranger MVAPICH2 binaries need copies at Fir, so the bundle's hello
  // worlds run with the resolution directory in scope.
  auto m = migrate("ranger", "fir", MpiImpl::kMvapich2, CompilerFamily::kIntel,
                   toolchain::Language::kC);
  MigrationCaches caches;
  obs::Counter& tests = obs::counter("tec.usability_tests");
  const std::uint64_t tests_before = tests.value();
  const Prediction first = evaluate(m, &caches);
  const Prediction second = evaluate(m, &caches);
  const std::uint64_t tests_run = tests.value() - tests_before;
  ASSERT_TRUE(first.ready);
  ASSERT_FALSE(first.resolution_dirs.empty());
  expect_same(second, first);
  expect_same(second, evaluate(m, nullptr));

  // Each evaluation ran a native and a bundle test per tried stack; only
  // the native ones reached the memo, and the second evaluation's hit.
  const std::uint64_t lookups =
      caches.usability.hits() + caches.usability.misses();
  EXPECT_EQ(tests_run, 2 * lookups);
  EXPECT_EQ(caches.usability.hits(), lookups / 2);
}

TEST(UsabilityMemo, OutcomeNamingTheScratchPathIsNotStored) {
  auto s = toolchain::make_site("india");
  const auto* stack = s->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  s->load_module(site::module_name(*stack));

  // Not an ELF image: the loader's exec-format error names the path.
  UsabilityMemo memo;
  int calls = 0;
  const auto fill = [&](toolchain::LaunchPlan* plan)
      -> std::optional<toolchain::RunResult> {
    ++calls;
    s->vfs.write_file("/tmp/hw.text", "#!/bin/sh\n");
    auto run = toolchain::mpiexec_with_retries(*s, "/tmp/hw.text", 2, {}, 3,
                                               nullptr, plan);
    s->vfs.remove("/tmp/hw.text");
    return run;
  };
  for (int round = 0; round < 2; ++round) {
    const auto run = memo.run(*s, kNativeHello, "/tmp/hw.text", 2, 3, fill);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->status, toolchain::RunStatus::kExecFormatError);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(memo.hits(), 0u);
}

TEST(UsabilityMemo, ReplayDrawsTheSameFaultsAsAFreshLaunch) {
  auto s = toolchain::make_site("india");
  const auto* stack = s->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  ASSERT_NE(stack, nullptr);
  s->load_module(site::module_name(*stack));
  s->system_error_rate = 0.3;  // make the per-path draws visible

  const std::string built = "/tmp/hw.plan";
  ASSERT_TRUE(toolchain::compile_mpi_program(
                  *s, toolchain::mpi_hello_world(toolchain::Language::kC),
                  *stack, built)
                  .ok());
  toolchain::LaunchPlan plan;
  (void)toolchain::mpiexec_with_retries(*s, built, 2, {}, 3, nullptr, &plan);
  ASSERT_FALSE(plan.outcome.has_value());

  int failures = 0;
  for (int nonce = 0; nonce < 40; ++nonce) {
    const std::string path = "/tmp/hw.plan." + std::to_string(nonce);
    ASSERT_TRUE(s->vfs.write_file(path, *s->vfs.read(built)));
    const auto fresh = toolchain::mpiexec_with_retries(*s, path, 2, {}, 3);
    const auto replayed = toolchain::replay_with_retries(*s, path, 2, plan, 3);
    EXPECT_EQ(replayed.status, fresh.status) << path;
    EXPECT_EQ(replayed.detail, fresh.detail) << path;
    EXPECT_EQ(replayed.output, fresh.output) << path;
    if (!fresh.success()) ++failures;
  }
  EXPECT_GT(failures, 0) << "the fault model must fire for this to mean much";
}

TEST(UsabilityMemo, ConcurrentSitesFillAndHitIndependently) {
  constexpr int kSites = 4;
  std::vector<std::unique_ptr<site::Site>> sites;
  for (int i = 0; i < kSites; ++i) {
    sites.push_back(toolchain::make_site("india"));
    const auto* stack =
        sites.back()->find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
    ASSERT_NE(stack, nullptr);
    sites.back()->load_module(site::module_name(*stack));
  }
  UsabilityMemo memo;
  std::atomic<int> successes{0};
  // One worker per site: each holds its site exclusively, as a lease would.
  site::parallel_for(kSites, kSites, [&](std::size_t i) {
    site::Site& s = *sites[i];
    const auto* stack = s.find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
    int calls = 0;
    const auto fill = native_fill(s, *stack, "/tmp/hw.concurrent", calls);
    for (int round = 0; round < 3; ++round) {
      const auto run =
          memo.run(s, kNativeHello, "/tmp/hw.concurrent", 2, 3, fill);
      if (run && run->success()) ++successes;
    }
  });
  EXPECT_EQ(memo.misses(), static_cast<std::uint64_t>(kSites));
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(2 * kSites));
  EXPECT_EQ(successes.load(), 3 * kSites);
}

}  // namespace
}  // namespace feam
