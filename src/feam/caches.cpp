#include "feam/caches.hpp"

#include <algorithm>
#include <utility>

#include "feam/bdc.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace feam {

namespace {

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

BdcCache::BdcCache() = default;

BdcCache::BdcCache(HashFn hash) : hash_(std::move(hash)) {}

support::Result<BinaryDescription> BdcCache::describe(const site::Site& s,
                                                      std::string_view path) {
  const std::uint64_t faults_before = s.vfs.fault_count();
  const auto faulted = [&] { return s.vfs.fault_count() != faults_before; };
  const auto blob = s.vfs.read_blob(path);
  if (!blob || faulted()) {
    // The component gives its usual diagnostic for a missing file. After a
    // faulted read its own reads roll fresh faults, so its answer need not
    // match `blob`: it runs uncached, and the caller attributes the result.
    return Bdc::describe(s, path);
  }
  const std::uint64_t key = hash_ ? hash_(blob->bytes()) : blob->hash();
  const auto same_content = [&](const ContentEntry& e) { return e.blob == *blob; };
  if (const ContentEntry* entry = entries_.find_if(key, same_content)) {
    meter_.hit(hits_);
    BinaryDescription d = entry->description;
    d.path = std::string(path);
    if (obs::provenance_active()) {
      obs::Evidence evidence = entry->evidence;
      evidence.site = s.name;
      evidence.subject = d.path;
      obs::record_evidence(std::move(evidence));
    }
    return d;
  }
  // Miss (or collision): parse with no lock held — the caller holds the
  // site lease, so the bytes cannot change underneath us.
  support::Result<BinaryDescription> described = Bdc::describe(s, path);
  // The component re-reads the file itself; if any of those reads were
  // faulted, the description doesn't correspond to `*blob` and must not
  // be memoized under its content.
  if (faulted()) return described;
  meter_.miss({});
  if (described.ok()) {
    // The fill's evidence item, stamped once here; its site and path are
    // the only parts that depend on where the content was described.
    obs::Evidence evidence = description_evidence({}, {}, described.value());
    const auto [entry, inserted] = entries_.get_or_insert_if(
        key, same_content, [&] {
          return ContentEntry{*blob, described.value(), std::move(evidence)};
        });
    if (inserted) {
      meter_.retain(sizeof(ContentEntry) + blob->size() +
                    description_bytes(described.value()) +
                    obs::evidence_bytes(entry->evidence));
    }
  }
  return described;
}

EnvironmentDescription EdcMemo::discover(const site::Site& s) {
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t fingerprint = s.discovery_fingerprint();
  const std::uint64_t key =
      support::fnv1a_mix(support::fnv1a_mix(support::kFnvBasis, lease_id),
                         fingerprint);
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
  const std::uint64_t faults_before = s.vfs.fault_count();
  obs::EvidenceCapture capture;
  EnvironmentDescription description = Edc::discover(s);
  std::vector<obs::Evidence> evidence = capture.take();
  // A scan that hit injected faults saw a degraded view of an unchanged
  // site; memoizing it (description *or* evidence) would serve that view
  // to every later migration.
  if (s.vfs.fault_count() != faults_before) {
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

std::optional<toolchain::RunResult> UsabilityMemo::run(
    const site::Site& s, const Hello& hello, std::string_view path, int ranks,
    int attempts, const Fill& fill) {
  // The fingerprint does not see scratch writes, so a library search along
  // a scratch LD_LIBRARY_PATH entry is not keyed by anything here.
  const auto ld_path = s.env.ld_library_path();
  if (std::any_of(ld_path.begin(), ld_path.end(), site::Vfs::scratch_path)) {
    return fill(nullptr);
  }
  const std::uint64_t lease_id = s.lease_id();
  const std::uint64_t fingerprint = s.discovery_fingerprint();
  std::uint64_t key =
      support::fnv1a_mix(support::fnv1a_mix(support::kFnvBasis, lease_id),
                         fingerprint);
  key = support::fnv1a_mix(key, hello.name);
  if (!hello.content.empty()) key = support::fnv1a_mix(key, hello.content.hash());
  const auto matches = [&](const Entry& e) {
    return e.lease_id == lease_id && e.fingerprint == fingerprint &&
           e.hello.name == hello.name && e.hello.content == hello.content;
  };
  if (const Entry* entry = entries_.find_if(key, matches)) {
    meter_.hit(entry->site_hits);
    obs::replay_evidence(entry->evidence);
    return toolchain::replay_with_retries(s, path, ranks, entry->plan,
                                          attempts);
  }
  meter_.miss(s.name);
  const std::uint64_t faults_before = s.vfs.fault_count();
  obs::EvidenceCapture capture;
  toolchain::LaunchPlan plan;
  std::optional<toolchain::RunResult> result = fill(&plan);
  // A fill that saw injected faults planned against a degraded view; one
  // that searched scratch directories or whose answer names the scratch
  // path depends on more than the key.
  if (!result || s.vfs.fault_count() != faults_before ||
      plan.searched_scratch ||
      (plan.outcome && support::contains(plan.outcome->detail, path))) {
    return result;
  }
  const auto [entry, inserted] = entries_.get_or_insert_if(key, matches, [&] {
    return Entry{lease_id,        fingerprint,      hello,
                 std::move(plan), capture.take(), meter_.site_hits(s.name)};
  });
  if (inserted) {
    const auto& outcome = entry->plan.outcome;
    meter_.retain(sizeof(Entry) + entry->hello.name.size() +
                  (outcome ? outcome->detail.size() + outcome->output.size()
                           : 0) +
                  obs::evidence_bytes(entry->evidence));
  }
  return result;
}

}  // namespace feam
