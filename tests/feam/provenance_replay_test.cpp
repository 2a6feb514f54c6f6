// Memo replay: every memo stores the evidence its fill recorded and a hit
// replays it, so a cached evaluation records exactly what the uncached one
// does — when the entry was filled outside any provenance scope, when the
// search skipped a wrong-class candidate, when a faulted read kept the
// fill out of the memo, and when a description is hit at another path and
// site. Also pinned here: the bundle stamp a bundle carries is the same
// after its archive round trip, and a pooled cached survey records the
// uncached provenance at every site.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "binutils/ldd.hpp"
#include "binutils/resolver.hpp"
#include "binutils/resolver_cache.hpp"
#include "elf/builder.hpp"
#include "feam/bdc.hpp"
#include "feam/bundle_archive.hpp"
#include "feam/caches.hpp"
#include "feam/phases.hpp"
#include "feam/survey.hpp"
#include "obs/provenance.hpp"
#include "site/fault.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feam {
namespace {

using site::CompilerFamily;
using site::MpiImpl;

std::string compile_app(site::Site& s, const char* name) {
  const auto* stack = s.find_stack(MpiImpl::kOpenMpi, CompilerFamily::kGnu);
  EXPECT_NE(stack, nullptr);
  toolchain::ProgramSource p;
  p.name = name;
  p.language = toolchain::Language::kC;
  p.libc_features = {"base", "stdio", "math"};
  const auto r = toolchain::compile_mpi_program(
      s, p, *stack, std::string("/home/user/apps/") + name);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  return r.value();
}

// The evidence `fn` records, serialized.
template <typename Fn>
std::string recorded(Fn&& fn) {
  obs::EvidenceSet set;
  {
    obs::ProvenanceScope scope(set);
    fn();
  }
  return set.to_json().dump();
}

elf::ElfSpec shared_lib(const std::string& soname, elf::Isa isa) {
  elf::ElfSpec spec;
  spec.isa = isa;
  spec.kind = elf::FileKind::kSharedObject;
  spec.soname = soname;
  spec.needed = {"libc.so.6"};
  spec.text_size = 64;
  return spec;
}

// A 64-bit host whose LD_LIBRARY_PATH names a directory holding a 32-bit
// libmpi.so.0 before the directory holding the 64-bit one.
std::unique_ptr<site::Site> make_wrong_class_host() {
  auto s = std::make_unique<site::Site>();
  s->name = "host";
  s->isa = elf::Isa::kX86_64;
  elf::ElfSpec libc = shared_lib("libc.so.6", elf::Isa::kX86_64);
  libc.needed.clear();
  s->vfs.write_file("/lib64/libc.so.6", elf::build_image(libc));
  s->vfs.write_file("/opt/lib32/libmpi.so.0",
                    elf::build_image(shared_lib("libmpi.so.0", elf::Isa::kX86)));
  s->vfs.write_file("/opt/mpi/lib/libmpi.so.0",
                    elf::build_image(shared_lib("libmpi.so.0", elf::Isa::kX86_64)));
  s->env.set("LD_LIBRARY_PATH", "/opt/lib32:/opt/mpi/lib");
  elf::ElfSpec app;
  app.isa = elf::Isa::kX86_64;
  app.needed = {"libmpi.so.0", "libc.so.6"};
  app.text_size = 128;
  s->vfs.write_file("/apps/app", elf::build_image(app));
  return s;
}

TEST(ProvenanceReplay, ResolverEntryFilledWithoutAScopeReplaysInsideOne) {
  auto s = toolchain::make_site("india");
  const std::string path = compile_app(*s, "probe");
  s->load_module("openmpi/1.4-gnu");

  const std::string uncached = recorded(
      [&] { (void)binutils::resolve_libraries(*s, path); });
  ASSERT_NE(uncached.find("\"search\""), std::string::npos);

  // Fill every search entry with no scope active: nothing is recording,
  // yet each entry keeps its evidence item for later hits.
  binutils::ResolverCache cache;
  ASSERT_FALSE(obs::provenance_active());
  (void)binutils::resolve_libraries(*s, path, {}, &cache);
  const std::uint64_t misses = cache.search_misses();
  ASSERT_GT(misses, 0u);

  const std::string replayed = recorded(
      [&] { (void)binutils::resolve_libraries(*s, path, {}, &cache); });
  EXPECT_EQ(cache.search_misses(), misses) << "the second walk must only hit";
  EXPECT_GT(cache.search_hits(), 0u);
  EXPECT_EQ(replayed, uncached);

  // The ldd transcript memo follows the same rule.
  const std::string ldd_uncached =
      recorded([&] { (void)binutils::ldd(*s, path); });
  (void)binutils::ldd(*s, path, false, &cache);
  const std::uint64_t ldd_misses = cache.ldd_misses();
  EXPECT_EQ(recorded([&] { (void)binutils::ldd(*s, path, false, &cache); }),
            ldd_uncached);
  EXPECT_EQ(cache.ldd_misses(), ldd_misses);
  EXPECT_GT(cache.ldd_hits(), 0u);
}

TEST(ProvenanceReplay, WrongClassFirstCandidateIsSkippedAlikeCachedOrNot) {
  auto s = make_wrong_class_host();
  const auto search = [&](binutils::ResolverCache* cache) {
    return binutils::search_library(*s, "libmpi.so.0", 64, {}, {}, cache);
  };
  std::optional<std::string> uncached_path;
  const std::string uncached = recorded([&] { uncached_path = search(nullptr); });
  ASSERT_EQ(uncached_path, "/opt/mpi/lib/libmpi.so.0");

  binutils::ResolverCache cache;
  std::optional<std::string> fill_path;
  const std::string fill = recorded([&] { fill_path = search(&cache); });
  EXPECT_EQ(fill_path, uncached_path);
  EXPECT_EQ(fill, uncached);
  // The miss tested both candidates through the content memo.
  EXPECT_EQ(cache.parse_misses(), 2u);

  std::optional<std::string> hit_path;
  const std::string hit = recorded([&] { hit_path = search(&cache); });
  EXPECT_EQ(hit_path, uncached_path);
  EXPECT_EQ(hit, uncached);
  EXPECT_EQ(cache.search_hits(), 1u);
  EXPECT_EQ(cache.parse_misses(), 2u) << "a hit parses nothing";

  // The whole closure agrees too, the wrong-class copy skipped in both.
  const std::string closure_uncached = recorded(
      [&] { (void)binutils::resolve_libraries(*s, "/apps/app"); });
  binutils::Resolution cached;
  EXPECT_EQ(recorded([&] {
              cached = binutils::resolve_libraries(*s, "/apps/app", {}, &cache);
            }),
            closure_uncached);
  EXPECT_EQ(cached.path_of("libmpi.so.0"), uncached_path);
  EXPECT_TRUE(cached.complete());
}

TEST(ProvenanceReplay, FaultedShortReadOfACandidateStoresNothing) {
  auto s = make_wrong_class_host();
  const std::string clean = recorded([&] {
    (void)binutils::search_library(*s, "libmpi.so.0", 64, {}, {});
  });

  site::FaultInjector::Options options;
  options.seed = 11;
  options.rate = 1.0;  // every read is short
  options.enoent = false;
  options.eio = false;
  options.torn_write = false;
  auto injector = std::make_shared<site::FaultInjector>(options);
  s->vfs.set_fault_injector(injector);

  binutils::ResolverCache cache;
  injector->set_enabled(true);
  const auto faulted = binutils::search_library(*s, "libmpi.so.0", 64, {}, {},
                                                &cache);
  injector->set_enabled(false);
  ASSERT_GT(injector->fault_count(), 0u);
  EXPECT_FALSE(faulted.has_value()) << "truncated candidates are not ELF";

  // Nothing was stored: the first clean lookup misses and records the
  // clean evidence, and the hit after it replays exactly that.
  for (int round = 0; round < 2; ++round) {
    std::optional<std::string> found;
    EXPECT_EQ(recorded([&] {
                found = binutils::search_library(*s, "libmpi.so.0", 64, {},
                                                 {}, &cache);
              }),
              clean)
        << "round " << round;
    EXPECT_EQ(found, "/opt/mpi/lib/libmpi.so.0") << "round " << round;
  }
  EXPECT_EQ(cache.search_misses(), 2u);  // the faulted walk, the clean fill
  EXPECT_EQ(cache.search_hits(), 1u);
}

TEST(ProvenanceReplay, DescriptionHitAtASecondPathAndSite) {
  auto india = toolchain::make_site("india");
  auto fir = toolchain::make_site("fir");
  const std::string path = compile_app(*india, "probe");
  const std::string copy = "/tmp/elsewhere/probe.copy";
  ASSERT_TRUE(fir->vfs.write_file(copy, *india->vfs.read_blob(path)));

  const std::string uncached = recorded([&] {
    const auto d = Bdc::describe(*fir, copy);
    ASSERT_TRUE(d.ok()) << d.error();
  });
  ASSERT_NE(uncached.find(copy), std::string::npos);

  BdcCache cache;
  ASSERT_TRUE(cache.describe(*india, path).ok());  // fill, no scope
  support::Result<BinaryDescription> hit =
      support::Result<BinaryDescription>::failure("unset");
  const std::string replayed =
      recorded([&] { hit = cache.describe(*fir, copy); });
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(hit.value().path, copy);
  EXPECT_EQ(replayed, uncached);
}

TEST(ProvenanceReplay, BundleStampSurvivesTheArchiveRoundTrip) {
  auto home = toolchain::make_site("india");
  const std::string path = compile_app(*home, "probe");
  home->load_module("openmpi/1.4-gnu");
  const auto source = run_source_phase(*home, path);
  ASSERT_TRUE(source.ok()) << source.error();
  const Bundle& bundle = source.value().bundle;
  ASSERT_FALSE(bundle.libraries.empty());

  const auto reloaded = unpack_bundle(pack_bundle(bundle));
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  EXPECT_EQ(reloaded.value().stamp(), bundle.stamp());

  // A copy computes its own stamp; one that drops a library differs.
  Bundle copy = bundle;
  EXPECT_EQ(copy.stamp(), bundle.stamp());
  Bundle smaller = bundle;
  smaller.libraries.pop_back();
  EXPECT_NE(smaller.stamp(), bundle.stamp());

  // The target phase's bundle evidence carries the kept stamp, and a
  // travelled (reloaded) bundle records the same provenance.
  auto target = toolchain::make_site("fir");
  ASSERT_TRUE(target->vfs.write_file(path, *home->vfs.read_blob(path)));
  const auto evaluate = [&](const SourcePhaseOutput& src) {
    const auto out = run_target_phase(*target, path, &src);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error());
    return out.ok() ? out.value().prediction.provenance.to_json().dump()
                    : std::string();
  };
  SourcePhaseOutput travelled;
  travelled.application = source.value().application;
  travelled.bundle = reloaded.value();
  const std::string direct = evaluate(source.value());
  EXPECT_EQ(evaluate(travelled), direct);
  obs::Evidence bundle_item;
  bool found = false;
  for (const auto& e : obs::EvidenceSet::from_json(
                           *support::Json::parse(direct))
                           ->items()) {
    if (e.stage == "tec" && e.kind == "bundle") {
      bundle_item = e;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(bundle_item.stamp, bundle.stamp());
}

TEST(ProvenanceReplay, PooledCachedSurveyRecordsTheUncachedProvenance) {
  auto home = toolchain::make_site("india");
  const std::string path = compile_app(*home, "probe");
  const support::Blob binary = *home->vfs.read_blob(path);
  home->load_module("openmpi/1.4-gnu");
  const auto source = run_source_phase(*home, path);
  ASSERT_TRUE(source.ok()) << source.error();

  std::vector<std::unique_ptr<site::Site>> owned;
  std::vector<site::Site*> sites;
  for (const auto& name : toolchain::testbed_site_names()) {
    if (name == "india") continue;
    owned.push_back(toolchain::make_site(name));
    sites.push_back(owned.back().get());
  }
  const auto sequential =
      survey_sites(sites, "probe", binary, &source.value());

  MigrationCaches caches;
  SurveyOptions options;
  options.jobs = 4;
  options.caches = &caches;
  // Cold, then warm: the second pass runs on memo hits.
  for (int pass = 0; pass < 2; ++pass) {
    const auto pooled =
        survey_sites(sites, "probe", binary, &source.value(), {}, options);
    ASSERT_EQ(pooled.entries.size(), sequential.entries.size());
    for (std::size_t i = 0; i < pooled.entries.size(); ++i) {
      EXPECT_EQ(pooled.entries[i].site_name, sequential.entries[i].site_name);
      EXPECT_EQ(pooled.entries[i].prediction.provenance.to_json().dump(),
                sequential.entries[i].prediction.provenance.to_json().dump())
          << "pass " << pass << ", " << pooled.entries[i].site_name;
    }
  }
  EXPECT_GT(caches.resolver.search_hits(), 0u);
  EXPECT_GT(caches.bdc.hits(), 0u);
}

}  // namespace
}  // namespace feam
