// The migration-engine memoization layer: content-addressed BDC cache
// (including the injected-hash collision path and the write-stamp fast
// path), the fingerprint-keyed EDC memo, and the resolver cache's exact
// invalidation on site mutation — and, after a pooled evaluation run, the
// agreement of every memo's getters with its labeled metric series.
#include "feam/caches.hpp"

#include <gtest/gtest.h>

#include <map>

#include "binutils/ldd.hpp"
#include "binutils/resolver.hpp"
#include "binutils/resolver_cache.hpp"
#include "feam/bdc.hpp"
#include "feam/edc.hpp"
#include "eval/experiment.hpp"
#include "obs/metrics.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

std::string compile_app(site::Site& s, const char* name,
                        std::vector<std::string> libc_features) {
  const auto* stack = s.find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  EXPECT_NE(stack, nullptr);
  toolchain::ProgramSource p;
  p.name = name;
  p.language = toolchain::Language::kC;
  p.libc_features = std::move(libc_features);
  const auto r = toolchain::compile_mpi_program(
      s, p, *stack, std::string("/home/user/apps/") + name);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  return r.value();
}

// ------------------------------------------------------------- BdcCache

TEST(BdcCache, RepeatDescribeOfUnchangedFileHits) {
  auto s = toolchain::make_site("india");
  const std::string path = compile_app(*s, "probe", {"base", "stdio"});

  BdcCache cache;
  const auto first = cache.describe(*s, path);
  ASSERT_TRUE(first.ok()) << first.error();
  const auto second = cache.describe(*s, path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.value().file_format, second.value().file_format);
  EXPECT_EQ(first.value().required_libraries, second.value().required_libraries);
}

TEST(BdcCache, ByteIdenticalCopyAtAnotherPathHitsWithPathRewritten) {
  auto s = toolchain::make_site("india");
  const std::string path = compile_app(*s, "probe", {"base", "stdio"});
  const std::string copy_path = "/tmp/probe.copy";
  ASSERT_TRUE(s->vfs.write_file(copy_path, *s->vfs.read(path)));

  BdcCache cache;
  ASSERT_TRUE(cache.describe(*s, path).ok());
  const auto copied = cache.describe(*s, copy_path);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // The description is served from cache, but `path` names the copy.
  EXPECT_EQ(copied.value().path, copy_path);
}

TEST(BdcCache, DifferentBytesMiss) {
  auto s = toolchain::make_site("india");
  const std::string a = compile_app(*s, "alpha", {"base", "stdio"});
  const std::string b = compile_app(*s, "beta", {"base", "stdio", "math"});

  BdcCache cache;
  ASSERT_TRUE(cache.describe(*s, a).ok());
  ASSERT_TRUE(cache.describe(*s, b).ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(BdcCache, RebuildAtTheSamePathIsDescribedFresh) {
  auto s = toolchain::make_site("india");
  const std::string a = compile_app(*s, "alpha", {"base", "stdio"});
  const std::string b = compile_app(*s, "beta", {"base", "stdio", "math"});
  const support::Bytes b_bytes = *s->vfs.read(b);

  BdcCache cache;
  const auto before = cache.describe(*s, a);
  ASSERT_TRUE(before.ok());
  // Rebuild: byte-different content lands at the old path. The write stamp
  // changes, so the fast path must not serve the stale description.
  ASSERT_TRUE(s->vfs.write_file(a, b_bytes));
  const auto after = cache.describe(*s, a);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(cache.misses(), 2u);
  const auto direct = Bdc::describe(*s, a);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(after.value().required_libraries, direct.value().required_libraries);
  // And the fresh entry is served on the next lookup.
  ASSERT_TRUE(cache.describe(*s, a).ok());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BdcCache, InjectedWeakHashCollisionsDegradeToMissesNotWrongAnswers) {
  auto s = toolchain::make_site("india");
  const std::string a = compile_app(*s, "alpha", {"base", "stdio"});
  const std::string b = compile_app(*s, "beta", {"base", "stdio", "math"});

  // Every input hashes to 42: the two binaries collide, and only the
  // byte-compare chain keeps the answers apart.
  BdcCache cache([](const support::Bytes&) { return 42ull; });
  const auto first = cache.describe(*s, a);
  const auto second = cache.describe(*s, b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.misses(), 2u);

  const auto direct_a = Bdc::describe(*s, a);
  const auto direct_b = Bdc::describe(*s, b);
  EXPECT_EQ(first.value().required_libraries,
            direct_a.value().required_libraries);
  EXPECT_EQ(second.value().required_libraries,
            direct_b.value().required_libraries);

  // Both colliding entries are retrievable as hits afterwards.
  ASSERT_TRUE(cache.describe(*s, a).ok());
  ASSERT_TRUE(cache.describe(*s, b).ok());
  EXPECT_EQ(cache.hits(), 2u);
}

// -------------------------------------------------------------- EdcMemo

TEST(EdcMemo, HitsWhileTheSiteIsUnchanged) {
  auto s = toolchain::make_site("india");
  EdcMemo memo;
  const auto first = memo.discover(*s);
  const auto second = memo.discover(*s);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(first.site_name, second.site_name);
  EXPECT_EQ(first.isa, second.isa);
  EXPECT_EQ(first.stacks.size(), second.stacks.size());
}

TEST(EdcMemo, ModuleLoadInvalidatesAndRestoreRehits) {
  auto s = toolchain::make_site("india");
  EdcMemo memo;
  (void)memo.discover(*s);  // miss 1: cold

  const auto modules = s->available_modules();
  ASSERT_FALSE(modules.empty());
  s->load_module(modules.front());
  const auto loaded = memo.discover(*s);  // miss 2: module loaded
  EXPECT_EQ(memo.misses(), 2u);

  // Unloading restores the shell to its cold-scan content; the fingerprint
  // returns to its original value and the cold entry is served again.
  s->unload_all_modules();
  (void)memo.discover(*s);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 1u);

  // Both shell states stay memoized: re-loading the module hits too.
  s->load_module(modules.front());
  const auto reloaded = memo.discover(*s);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(loaded.stacks.size(), reloaded.stacks.size());
}

TEST(EdcMemo, ScratchWritesDoNotInvalidateButSystemWritesDo) {
  auto s = toolchain::make_site("india");
  EdcMemo memo;
  (void)memo.discover(*s);  // miss 1: cold

  // Migration scratch — binaries landing in the user's home, hello-world
  // probes in /tmp — is invisible to the discovery scan.
  s->vfs.write_file("/home/user/migrated/probe.x", "bits");
  s->vfs.write_file("/tmp/feam_hw_native_c.probe", "bits");
  s->vfs.remove("/tmp/feam_hw_native_c.probe");
  (void)memo.discover(*s);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 1u);

  // Installing software under a system prefix is a real site change.
  s->vfs.write_file("/usr/share/Modules/modulefiles/new/1.0", "#%Module1.0\n");
  (void)memo.discover(*s);
  EXPECT_EQ(memo.misses(), 2u);
}

// Regression for the 50% hit-rate plateau: every migration pair runs two
// discoveries back to back (basic then extended prediction), and the
// execution/cleanup that follows only touches scratch paths and
// save/restored shell state. Under generation keying the second pair's
// first discovery always missed; under fingerprint keying every discovery
// after the first hits.
TEST(EdcMemo, BackToBackPairsHitAcrossExecutionScratch) {
  auto s = toolchain::make_site("india");
  const auto modules = s->available_modules();
  ASSERT_FALSE(modules.empty());

  EdcMemo memo;
  for (int pair = 0; pair < 3; ++pair) {
    (void)memo.discover(*s);  // basic prediction
    (void)memo.discover(*s);  // extended prediction
    // Execution + cleanup: migrated binary, naive run with a module
    // loaded/unloaded, resolution copies written and removed.
    s->vfs.write_file("/home/user/migrated/app.x", "bits");
    s->load_module(modules.front());
    s->unload_all_modules();
    s->vfs.write_file("/home/user/feam_resolved/app.x/libm.so.6", "lib");
    s->vfs.remove("/home/user/feam_resolved");
    s->vfs.remove("/home/user/migrated/app.x");
  }
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 5u);
}

TEST(EdcMemo, DistinctSitesDoNotShareEntries) {
  auto india = toolchain::make_site("india");
  auto fir = toolchain::make_site("fir");
  EdcMemo memo;
  const auto a = memo.discover(*india);
  const auto b = memo.discover(*fir);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_NE(a.site_name, b.site_name);
}

// -------------------------------------------------------- ResolverCache

TEST(ResolverCache, SearchMemoServesRepeatsAndSeesAppearingFiles) {
  auto s = toolchain::make_site("india");
  binutils::ResolverCache cache;
  const std::vector<std::string> override_dir = {"/tmp/override"};

  const auto first = binutils::search_library(*s, "libc.so.6", 64, {},
                                              override_dir, &cache);
  ASSERT_TRUE(first.has_value());  // resolved from the default directories

  const std::uint64_t hits_before = cache.hits();
  const auto repeat = binutils::search_library(*s, "libc.so.6", 64, {},
                                               override_dir, &cache);
  EXPECT_EQ(repeat, first);
  EXPECT_GT(cache.hits(), hits_before);

  // A copy appearing in an earlier search directory MUST invalidate the
  // memo: the candidate path's write stamp changed from absent to present.
  ASSERT_TRUE(s->vfs.write_file("/tmp/override/libc.so.6", *s->vfs.read(*first)));
  const auto after = binutils::search_library(*s, "libc.so.6", 64, {},
                                              override_dir, &cache);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, "/tmp/override/libc.so.6");
}

TEST(ResolverCache, LddMemoInvalidatedByAnySiteMutation) {
  auto s = toolchain::make_site("india");
  const std::string path = compile_app(*s, "probe", {"base", "stdio"});
  s->load_module("openmpi/1.4-gnu");

  binutils::ResolverCache cache;
  const auto first = binutils::ldd(*s, path, false, &cache);
  ASSERT_TRUE(first.ok()) << first.error();

  const std::uint64_t hits_before = cache.hits();
  const auto repeat = binutils::ldd(*s, path, false, &cache);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value(), first.value());
  EXPECT_GT(cache.hits(), hits_before);

  // An environment edit bumps the env generation: recomputed, same text.
  const std::uint64_t misses_before = cache.misses();
  s->env.set("FEAM_PROBE", "1");
  const auto recomputed = binutils::ldd(*s, path, false, &cache);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_EQ(recomputed.value(), first.value());
  EXPECT_GT(cache.misses(), misses_before);
}

TEST(ResolverCache, ParseMemoKeyedOnWriteStamp) {
  auto s = toolchain::make_site("india");
  const std::string a = compile_app(*s, "alpha", {"base", "stdio"});
  const std::string b = compile_app(*s, "beta", {"base", "stdio", "math"});
  const support::Bytes b_bytes = *s->vfs.read(b);

  binutils::ResolverCache cache;
  const elf::ElfFile* first = cache.parsed_elf(*s, a, *s->vfs.read(a));
  ASSERT_NE(first, nullptr);
  // Unchanged file: the exact same entry is served again.
  EXPECT_EQ(cache.parsed_elf(*s, a, *s->vfs.read(a)), first);

  // Rewritten file: new write stamp, new parse reflecting the new bytes.
  ASSERT_TRUE(s->vfs.write_file(a, b_bytes));
  const elf::ElfFile* rewritten = cache.parsed_elf(*s, a, *s->vfs.read(a));
  ASSERT_NE(rewritten, nullptr);
  EXPECT_NE(rewritten, first);
  EXPECT_EQ(rewritten->file_size(), b_bytes.size());

  // Non-ELF content parses to nullptr, memoized the same way.
  ASSERT_TRUE(s->vfs.write_file("/tmp/script.sh", "#!/bin/sh\n"));
  EXPECT_EQ(cache.parsed_elf(*s, "/tmp/script.sh",
                             *s->vfs.read("/tmp/script.sh")),
            nullptr);
  EXPECT_EQ(cache.parsed_elf(*s, "/tmp/script.sh",
                             *s->vfs.read("/tmp/script.sh")),
            nullptr);
}

TEST(ResolverCache, CachedResolutionMatchesUncached) {
  auto s = toolchain::make_site("india");
  const std::string path = compile_app(*s, "probe", {"base", "stdio"});
  s->load_module("openmpi/1.4-gnu");

  binutils::ResolverCache cache;
  const auto uncached = binutils::resolve_libraries(*s, path);
  const auto cached_cold = binutils::resolve_libraries(*s, path, {}, &cache);
  const auto cached_warm = binutils::resolve_libraries(*s, path, {}, &cache);
  ASSERT_EQ(uncached.libs.size(), cached_cold.libs.size());
  ASSERT_EQ(uncached.libs.size(), cached_warm.libs.size());
  for (std::size_t i = 0; i < uncached.libs.size(); ++i) {
    EXPECT_EQ(uncached.libs[i].name, cached_warm.libs[i].name);
    EXPECT_EQ(uncached.libs[i].path, cached_warm.libs[i].path);
  }
  EXPECT_EQ(uncached.version_errors.size(), cached_warm.version_errors.size());
}

// ------------------------------------------------------- CacheMeter

// Per-family sums of the labeled `<name>{cache=F,site=*}` counters.
std::map<std::string, std::uint64_t> sum_over_sites(std::string_view name) {
  std::map<std::string, std::uint64_t> sums;
  for (const auto& [series, value] : obs::metrics().counter_values()) {
    const obs::SeriesKey key = obs::parse_series(series);
    if (key.name == name && !key.cache.empty()) sums[key.cache] += value;
  }
  return sums;
}

std::uint64_t at_or_zero(const std::map<std::string, std::uint64_t>& values,
                         const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> cache_bytes() {
  std::map<std::string, std::uint64_t> values;
  for (const auto& [series, gauge] : obs::metrics().gauge_values()) {
    const obs::SeriesKey key = obs::parse_series(series);
    if (key.name == "cache.bytes") values[key.cache] = gauge.value;
  }
  return values;
}

TEST(CacheMeterIntegration, LabeledSeriesMatchGettersAfterPooledRun) {
  const auto hits_before = sum_over_sites("cache.hits");
  const auto misses_before = sum_over_sites("cache.misses");
  const auto bytes_before = cache_bytes();
  {
    eval::ExperimentOptions options;
    options.jobs = 4;
    options.only_benchmarks = {"is.B", "104.milc"};
    eval::Experiment experiment(options);
    experiment.build_test_set();
    experiment.run();
    ASSERT_FALSE(experiment.results().empty());

    const MigrationCaches& caches = *experiment.caches();
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        getters = {
            {"bdc", {caches.bdc.hits(), caches.bdc.misses()}},
            {"edc", {caches.edc.hits(), caches.edc.misses()}},
            {"resolver.search",
             {caches.resolver.search_hits(), caches.resolver.search_misses()}},
            {"resolver.ldd",
             {caches.resolver.ldd_hits(), caches.resolver.ldd_misses()}},
            {"resolver.parse",
             {caches.resolver.parse_hits(), caches.resolver.parse_misses()}},
            {"source",
             {experiment.source_phase_hits(),
              experiment.source_phase_misses()}},
        };
    const auto hits_after = sum_over_sites("cache.hits");
    const auto misses_after = sum_over_sites("cache.misses");
    for (const auto& [family, counts] : getters) {
      EXPECT_GT(counts.first, 0u) << family;
      EXPECT_GT(counts.second, 0u) << family;
      EXPECT_EQ(at_or_zero(hits_after, family) -
                    at_or_zero(hits_before, family),
                counts.first)
          << family;
      EXPECT_EQ(at_or_zero(misses_after, family) -
                    at_or_zero(misses_before, family),
                counts.second)
          << family;
    }
  }
  // Every meter gave its footprint back with the run's caches.
  for (const auto& [family, value] : cache_bytes()) {
    EXPECT_EQ(value, at_or_zero(bytes_before, family)) << family;
  }
}

}  // namespace
}  // namespace feam
