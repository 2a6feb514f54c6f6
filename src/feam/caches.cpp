#include "feam/caches.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "feam/bdc.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "support/rng.hpp"

namespace feam {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

// FNV-1a folding 64-bit words, then the tail byte-wise.
std::uint64_t fnv_region(std::uint64_t h, const std::uint8_t* p,
                         std::size_t n) {
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kFnvPrime;
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    h = (h ^ *p++) * kFnvPrime;
  }
  return h;
}

// Footprint estimates for the cache.bytes{cache=...} gauges: the payload
// bytes an entry retains (string/vector contents plus the fixed struct),
// not allocator-exact sizes — stable across allocators, cheap to compute,
// and honest about what dominates (the retained binary bytes and the
// per-stack strings).
std::uint64_t string_bytes(const std::string& s) {
  return sizeof(std::string) + s.size();
}

std::uint64_t description_bytes(const BinaryDescription& d) {
  std::uint64_t total = sizeof(BinaryDescription);
  total += d.path.size() + d.file_format.size() + d.architecture.size();
  if (d.soname) total += d.soname->size();
  for (const auto& lib : d.required_libraries) total += string_bytes(lib);
  for (const auto& ref : d.version_references) {
    total += string_bytes(ref.file) + sizeof(ref.versions);
    for (const auto& v : ref.versions) total += string_bytes(v);
  }
  if (d.build_compiler) total += d.build_compiler->size();
  if (d.build_os) total += d.build_os->size();
  return total;
}

std::uint64_t environment_bytes(const EnvironmentDescription& e) {
  std::uint64_t total = sizeof(EnvironmentDescription);
  total += e.site_name.size() + e.isa.size() + e.os_type.size() +
           e.distro.size() + e.clib_discovery_method.size();
  for (const auto& stack : e.stacks) {
    total += sizeof(DiscoveredStack) + stack.id.size() + stack.prefix.size();
  }
  return total;
}

}  // namespace

std::uint64_t content_hash(const support::Bytes& bytes) {
  // Constant-work sampled hash: the size plus the head, tail, and a few
  // evenly spaced interior windows. Multi-megabyte binaries hash in a
  // bounded ~10 KiB of reads, so a cache lookup costs the same for a
  // 100 KiB tool and a 50 MiB bundle library. The cache always verifies
  // candidate hits with a full byte compare, so the hash only has to
  // distribute well — sampling cannot cause a wrong answer, only a
  // (vanishingly rare) extra compare.
  constexpr std::size_t kWindow = 512;
  constexpr std::size_t kInteriorWindows = 14;
  constexpr std::size_t kSmall = 8 * 1024;

  std::uint64_t h = (kFnvBasis ^ bytes.size()) * kFnvPrime;
  const std::uint8_t* data = bytes.data();
  if (bytes.size() <= kSmall) {
    return fnv_region(h, data, bytes.size());
  }
  h = fnv_region(h, data, 2 * kWindow);                       // head
  h = fnv_region(h, data + bytes.size() - 2 * kWindow, 2 * kWindow);  // tail
  const std::size_t span = bytes.size() - kWindow;
  for (std::size_t i = 0; i < kInteriorWindows; ++i) {
    const std::size_t offset = (span * (i + 1)) / (kInteriorWindows + 1);
    h = fnv_region(h, data + offset, kWindow);
  }
  return h;
}

BdcCache::BdcCache() : hash_(content_hash) {}

BdcCache::BdcCache(HashFn hash) : hash_(std::move(hash)) {}

support::Result<BinaryDescription> BdcCache::describe(const site::Site& s,
                                                      std::string_view path) {
  const auto* injector = s.vfs.fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->fault_count() : 0;
  const support::Bytes* bytes = s.vfs.read(path);
  if (injector != nullptr && injector->fault_count() != faults_before) {
    // The read was touched by fault injection: the bytes (or their
    // absence) don't match the file's write stamp, so neither the fast
    // path nor the content-addressed store may see them. Fall through to
    // the uncached component, whose result the caller attributes.
    return Bdc::describe(s, path);
  }
  if (bytes == nullptr) {
    // Let the component produce its usual diagnostic for a missing file.
    return Bdc::describe(s, path);
  }
  const std::uint64_t version = s.vfs.file_version(path).value_or(0);
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t stamp_key =
      support::fnv1a_mix(support::fnv1a(path), lease_id);
  // Fast path, lock-free: the file has not been rewritten since we last
  // described it at this location — no hashing, no byte compare.
  if (const StampEntry* stamped = by_file_.find_if(
          stamp_key, [&](const StampEntry& e) {
            return e.lease_id == lease_id && e.version == version &&
                   e.path == path;
          })) {
    meter_.hit(stamped->site_hits);
    if (obs::provenance_active()) {
      obs::record_evidence(
          description_evidence(s.name, path, stamped->description));
    }
    return stamped->description;
  }
  const std::uint64_t key = hash_(*bytes);
  if (const ContentEntry* entry = entries_.find_if(
          key, [&](const ContentEntry& e) { return e.bytes == *bytes; })) {
    meter_.hit(s.name);
    BinaryDescription d = entry->description;
    d.path = std::string(path);
    if (obs::provenance_active()) {
      obs::record_evidence(description_evidence(s.name, path, d));
    }
    store_stamp(s, path, version, d);
    return d;
  }
  // Miss (or collision): parse with no lock held — the caller holds the
  // site lease, so the bytes cannot change underneath us.
  support::Result<BinaryDescription> described = Bdc::describe(s, path);
  // The component re-reads the file itself; if any of those reads were
  // faulted, the description doesn't correspond to `*bytes` and must not
  // be memoized under its hash.
  if (injector != nullptr && injector->fault_count() != faults_before) {
    return described;
  }
  meter_.miss(s.name);
  if (described.ok()) {
    const auto [entry, inserted] = entries_.get_or_insert_if(
        key, [&](const ContentEntry& e) { return e.bytes == *bytes; },
        [&] { return ContentEntry{*bytes, described.value()}; });
    if (inserted) {
      meter_.retain(sizeof(ContentEntry) + bytes->size() +
                    description_bytes(described.value()));
    }
    store_stamp(s, path, version, described.value());
  }
  return described;
}

void BdcCache::store_stamp(const site::Site& s, std::string_view path,
                           std::uint64_t version, const BinaryDescription& d) {
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t key =
      support::fnv1a_mix(support::fnv1a(path), lease_id);
  // insert() shadows any stale stamp for this (site, path); the shadowed
  // node stays allocated (readers may hold pointers into it), so the
  // footprint only ever grows — it reports retained bytes, honestly.
  by_file_.insert(key, StampEntry{lease_id, std::string(path), version, d,
                                  meter_.site_hits(s.name)});
  meter_.retain(sizeof(StampEntry) + path.size() + description_bytes(d));
}

EnvironmentDescription EdcMemo::discover(const site::Site& s) {
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t fingerprint = s.discovery_fingerprint();
  const std::uint64_t key =
      support::fnv1a_mix(support::fnv1a_mix(kFnvBasis, lease_id), fingerprint);
  const auto matches = [&](const Entry& e) {
    return e.lease_id == lease_id && e.fingerprint == fingerprint;
  };
  if (const Entry* entry = entries_.find_if(key, matches)) {
    meter_.hit(entry->site_hits);
    obs::replay_evidence(entry->evidence);
    return entry->description;
  }
  // Scan with no map lock held so other sites discover concurrently; the
  // caller's site lease guarantees no concurrent scan of *this* site.
  // The capture frame tees the scan's evidence for the entry while still
  // forwarding it to the enclosing evaluation's provenance scope.
  const auto* injector = s.vfs.fault_injector();
  const std::uint64_t faults_before =
      injector != nullptr ? injector->fault_count() : 0;
  obs::EvidenceCapture capture;
  EnvironmentDescription description = Edc::discover(s);
  std::vector<obs::Evidence> evidence = capture.take();
  // A scan that hit injected faults saw a degraded view of an unchanged
  // site; memoizing it (description *or* evidence) would serve that view
  // to every later migration.
  if (injector != nullptr && injector->fault_count() != faults_before) {
    return description;
  }
  meter_.miss(s.name);
  const auto [entry, inserted] = entries_.get_or_insert_if(key, matches, [&] {
    return Entry{lease_id, fingerprint, description, std::move(evidence),
                 meter_.site_hits(s.name)};
  });
  if (inserted) {
    meter_.retain(sizeof(Entry) + environment_bytes(entry->description) +
                  obs::evidence_bytes(entry->evidence));
  }
  return description;
}

}  // namespace feam
