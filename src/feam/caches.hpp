// Memoization layer for the parallel migration engine.
//
// The evaluation matrix re-describes the same binary bytes and re-scans
// unchanged site environments on every one of its ~70 migrations. Both
// operations are pure functions of observable state, so they memoize:
//
//   * BdcCache — content-addressed: hash of the binary's bytes ->
//     BinaryDescription. A binary migrated to N targets is parsed once.
//     Entries store the full bytes and are compared on lookup, so a hash
//     collision degrades to a cache miss, never a wrong description. The
//     hash function is injectable for exactly that test.
//   * EdcMemo — per-site, keyed by Site::discovery_fingerprint(): the
//     system half of the VFS plus the *content* of the environment and
//     loaded-module list — exactly what the scan reads. Scratch writes
//     (/home, /tmp) and save/restore environment churn leave the
//     fingerprint unchanged, so back-to-back migrations keep hitting;
//     installing software or loading a module still invalidates.
//
// Both caches sit on support::StripedMap: a hit costs one lock-free
// chain walk plus relaxed counter bumps — no mutex, so eight workers
// hitting the same cache never serialize. Writers stripe across shards.
// Every 64-bit map key is a fingerprint, and every lookup re-verifies
// the entry's stored identity (full bytes, path, sub-generation values),
// so a fingerprint collision degrades to a miss, never a wrong answer.
//
// Callers must still hold the site's lease while describing/discovering
// (the underlying components read live site state); the caches' shard
// mutexes nest strictly inside the lease and are never held across
// component calls, so no lock cycle involves them.
//
// The caches are opt-in: every component keeps its uncached entry point,
// and the sequential CLI flow is byte-for-byte unchanged (the regression
// gate pins its exact counter values).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "binutils/resolver_cache.hpp"
#include "feam/description.hpp"
#include "feam/edc.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "site/site.hpp"
#include "support/byte_io.hpp"
#include "support/result.hpp"
#include "support/striped_map.hpp"

namespace feam {

// FNV-1a (64-bit) over the byte content — the default content address.
std::uint64_t content_hash(const support::Bytes& bytes);

class BdcCache {
 public:
  using HashFn = std::function<std::uint64_t(const support::Bytes&)>;

  BdcCache();
  // Injectable hash, for exercising the collision path with crafted inputs.
  explicit BdcCache(HashFn hash);

  // Describe the binary at `path` on `s`, memoized on its content hash.
  // On a hit the cached description is returned with `path` rewritten to
  // the requested location (the only path-dependent field). Failures are
  // not cached. Unreadable paths fall through to Bdc::describe for its
  // error message.
  //
  // Repeat lookups of an unchanged file short-circuit on the VFS write
  // stamp — (site, path, Vfs::file_version) uniquely identifies content,
  // so the fast path answers lock-free without touching the bytes at
  // all. Only a stamp miss (new site, new path, rewritten file) pays the
  // sampled hash + byte-verify of the content-addressed lookup.
  support::Result<BinaryDescription> describe(const site::Site& s,
                                              std::string_view path);

  std::uint64_t hits() const { return meter_.hits(); }
  std::uint64_t misses() const { return meter_.misses(); }

 private:
  struct ContentEntry {
    support::Bytes bytes;  // kept for collision verification
    BinaryDescription description;
  };

  struct StampEntry {
    std::uint64_t lease_id = 0;  // identity re-verified on lookup
    std::string path;
    std::uint64_t version = 0;  // Vfs::file_version at memoization time
    BinaryDescription description;
    obs::SeriesHandle site_hits;  // cache.hits{cache=bdc,site=...}
  };

  void store_stamp(const site::Site& s, std::string_view path,
                   std::uint64_t version, const BinaryDescription& d);

  HashFn hash_;
  // Content-addressed store, keyed by hash_(bytes); colliding contents
  // coexist as chain links, disambiguated by full byte compare.
  support::StripedMap<std::uint64_t, ContentEntry> entries_;
  // Fast path: fingerprint of (lease_id, path) -> newest write stamp +
  // description. A rewritten file shadows its old stamp.
  support::StripedMap<std::uint64_t, StampEntry> by_file_;
  obs::CacheMeter meter_{"bdc"};
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

// The bundle a parallel run threads through phases/TEC. Passing nullptr
// anywhere a MigrationCaches* is accepted reproduces the uncached path.
struct MigrationCaches {
  BdcCache bdc;
  EdcMemo edc;
  // Memoizes the loader's per-site library searches and ldd transcripts,
  // validated against VFS write stamps (binutils/resolver_cache.hpp).
  binutils::ResolverCache resolver;
};

}  // namespace feam
