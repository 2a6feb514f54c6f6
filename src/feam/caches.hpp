// Memoization layer for the parallel migration engine.
//
// The evaluation matrix re-describes the same binary bytes, re-scans
// unchanged site environments and re-runs the same hello-world usability
// tests on every one of its migrations. Each is a pure function of
// observable state (up to the launcher's per-attempt fault draw), so each
// memoizes:
//
//   * BdcCache — content-addressed: Blob::hash of the binary's bytes ->
//     BinaryDescription. A binary migrated to N targets is parsed once.
//     Entries hold the content's Blob (shared with the Vfs, not a copy)
//     and compare it on lookup, so a hash collision degrades to a cache
//     miss, never a wrong description. The hash function is injectable
//     for exactly that test.
//   * EdcMemo — per-site, keyed by Site::discovery_fingerprint(): the
//     system half of the VFS plus the *content* of the environment and
//     loaded-module list — exactly what the scan reads. Scratch writes
//     (/home, /tmp) and save/restore environment churn leave the
//     fingerprint unchanged, so back-to-back migrations keep hitting;
//     installing software or loading a module still invalidates.
//   * UsabilityMemo — per (site, discovery fingerprint, hello): the
//     launch plan of a hello world (toolchain::LaunchPlan: stack
//     selection, load, ABI check) plus the evidence its fill recorded.
//     A hit replays both and runs only the per-attempt fault draws.
//     Bound: one entry per distinct (site, fingerprint, stack prefix)
//     native hello and (site, fingerprint, hello content) bundle hello;
//     each entry is a plan plus an evidence vector. It copies no Blob:
//     a bundle hello's entry shares the bundle's buffer.
//
// All three sit on support::StripedMap: a hit costs one lock-free
// chain walk plus relaxed counter bumps — no mutex, so eight workers
// hitting the same cache never serialize. Writers stripe across shards.
// Every 64-bit map key is a fingerprint, and every lookup re-verifies
// the entry's stored identity (the content, the site and fingerprint),
// so a fingerprint collision degrades to a miss, never a wrong answer.
//
// Callers must still hold the site's lease while describing, discovering
// or testing (the underlying components read live site state); the shard
// mutexes nest strictly inside the lease and are never held across
// component calls, so no lock cycle involves them.
//
// The caches are opt-in: every component keeps its uncached entry point,
// and the sequential CLI flow is byte-for-byte unchanged (the regression
// gate pins its exact counter values).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "binutils/resolver_cache.hpp"
#include "feam/description.hpp"
#include "feam/edc.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"
#include "support/byte_io.hpp"
#include "support/result.hpp"
#include "support/striped_map.hpp"
#include "toolchain/launcher.hpp"

namespace feam {

class BdcCache {
 public:
  using HashFn = std::function<std::uint64_t(const support::Bytes&)>;

  BdcCache();
  // Injectable hash, for exercising the collision path with crafted inputs.
  explicit BdcCache(HashFn hash);

  // Describe the binary at `path` on `s`, memoized on its content. On a
  // hit the cached description is returned with `path` rewritten to the
  // requested location (the only path-dependent field), and the fill's
  // evidence item is replayed at (s, path). Failures are not cached. Unreadable paths fall through to Bdc::describe for its error
  // message. A hit costs one Blob::hash (cached in the buffer after the
  // first) and, for a buffer other than the entry's own, a byte compare.
  support::Result<BinaryDescription> describe(const site::Site& s,
                                              std::string_view path);

  std::uint64_t hits() const { return meter_.hits(); }
  std::uint64_t misses() const { return meter_.misses(); }

 private:
  struct ContentEntry {
    support::Blob blob;  // the content; compared on lookup
    BinaryDescription description;
    // The provenance item the fill recorded, with its site and path left
    // empty: a hit replays it at the hit's own site and path.
    obs::Evidence evidence;
  };

  HashFn hash_;  // empty: Blob::hash
  // Content-addressed store, keyed by the content hash; colliding
  // contents coexist as chain links, disambiguated by a byte compare.
  support::StripedMap<std::uint64_t, ContentEntry> entries_;
  obs::CacheMeter meter_{"bdc"};
  // Content has no home site: `cache.hits{cache=bdc}`, resolved once.
  obs::SeriesHandle hits_ = meter_.site_hits({});
};

class EdcMemo {
 public:
  // Discover `s`'s environment, memoized per (site, discovery
  // fingerprint). The caller must hold `s`'s lease (the scan runs shell
  // commands against live state); hits are lock-free, and a cold scan
  // runs outside any map lock, so distinct sites discover concurrently.
  // Entries for distinct fingerprints coexist, so a site that alternates
  // between two shell states (e.g. module loaded / unloaded) hits in
  // both.
  EnvironmentDescription discover(const site::Site& s);

  std::uint64_t hits() const { return meter_.hits(); }
  std::uint64_t misses() const { return meter_.misses(); }

 private:
  struct Entry {
    std::uint64_t lease_id = 0;  // identity re-verified on lookup
    std::uint64_t fingerprint = 0;
    EnvironmentDescription description;
    // Evidence the scan recorded at fill time, replayed verbatim on every
    // hit (a hit requires an identical discovery fingerprint, so a fresh
    // scan would record exactly these items). Entries filled under fault
    // injection are never stored, so this never carries torn-read views.
    std::vector<obs::Evidence> evidence;
    obs::SeriesHandle site_hits;  // cache.hits{cache=edc,site=...}
  };

  // key: fingerprint of (Site::lease_id(), Site::discovery_fingerprint())
  support::StripedMap<std::uint64_t, Entry> entries_;
  obs::CacheMeter meter_{"edc"};
};

class UsabilityMemo {
 public:
  // What a hello world's launch depends on beyond the site's observed
  // state. `name` identifies it: the stack prefix and program of a native
  // hello, the hello's name for a bundle hello. `content` holds a bundle
  // hello's bytes (compared by Blob ==); it is empty for a native hello,
  // which the site compiles.
  struct Hello {
    std::string name;
    support::Blob content;
  };
  // The full test (compile or write, mpiexec_with_retries, remove), which
  // hands its first plan back through `plan`: nullptr when the memo is
  // bypassed. nullopt when there was nothing to launch.
  using Fill = std::function<std::optional<toolchain::RunResult>(
      toolchain::LaunchPlan* plan)>;

  // Runs one hello-world test of `attempts` launches at `path`. A hit
  // replays the stored evidence and runs only the per-attempt fault draws
  // for `path`; a miss runs `fill`. The caller must hold `s`'s lease.
  // Bypassed (fill runs, nothing is looked up) when LD_LIBRARY_PATH names
  // a scratch directory. A fill is not stored when it saw Vfs faults,
  // searched a scratch directory, or its outcome's detail names `path`.
  std::optional<toolchain::RunResult> run(const site::Site& s,
                                          const Hello& hello,
                                          std::string_view path, int ranks,
                                          int attempts, const Fill& fill);

  std::uint64_t hits() const { return meter_.hits(); }
  std::uint64_t misses() const { return meter_.misses(); }

 private:
  struct Entry {
    std::uint64_t lease_id = 0;  // identity re-verified on lookup
    std::uint64_t fingerprint = 0;
    Hello hello;
    toolchain::LaunchPlan plan;
    // Evidence the fill recorded, replayed on every hit (EdcMemo's rule).
    std::vector<obs::Evidence> evidence;
    obs::SeriesHandle site_hits;  // cache.hits{cache=usability,site=...}
  };

  // key: fingerprint of (lease_id, discovery fingerprint, hello)
  support::StripedMap<std::uint64_t, Entry> entries_;
  obs::CacheMeter meter_{"usability"};
};

// The bundle a parallel run threads through phases/TEC. Passing nullptr
// anywhere a MigrationCaches* is accepted reproduces the uncached path.
struct MigrationCaches {
  BdcCache bdc;
  EdcMemo edc;
  // Memoizes the loader's per-site library searches and ldd transcripts,
  // validated against VFS write stamps (binutils/resolver_cache.hpp).
  binutils::ResolverCache resolver;
  UsabilityMemo usability;
};

}  // namespace feam
