#include "binutils/resolver_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "site/vfs.hpp"
#include "support/rng.hpp"

namespace feam::binutils {

namespace {

std::uint64_t order_hash(const std::vector<std::string>& dirs) {
  std::uint64_t h = support::kFnvBasis;
  for (const auto& dir : dirs) {
    h = support::fnv1a_mix(h, '\x1f');
    h = support::fnv1a_mix(h, dir);
  }
  return h;
}

std::uint64_t search_fingerprint(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const SearchOrder& order) {
  std::uint64_t h = support::fnv1a_mix(support::kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, static_cast<std::uint64_t>(bits));
  h = support::fnv1a_mix(h, soname);
  return support::fnv1a_mix(h, order.hash);
}

std::uint64_t ldd_fingerprint(const site::Site& host, std::string_view path,
                              bool verbose, std::uint64_t env_fingerprint) {
  std::uint64_t h = support::fnv1a_mix(support::kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, verbose ? 'v' : '-');
  h = support::fnv1a_mix(h, path);
  return support::fnv1a_mix(h, env_fingerprint);
}

// Whether the shell's library path reaches into scratch directories —
// the case where the system-generation stamp can't see invalidating
// writes and ldd validation must fall back to the whole-VFS generation.
bool ld_library_path_touches_scratch(const site::Site& host) {
  for (const auto& dir : host.env.ld_library_path()) {
    if (site::Vfs::scratch_path(dir)) return true;
  }
  return false;
}

// Estimated retained bytes of one memo entry (payload strings plus the
// fixed structs); allocator-exact sizes are not the point — trend and
// ceiling gates need a stable, monotone measure of what the memo holds.
std::uint64_t elf_bytes(const elf::ElfFile& file) {
  // A parsed file is views into its entry's Blob, so the string *content*
  // is counted once via the Blob's size by the caller; here only the view
  // tables.
  std::uint64_t total = sizeof(elf::ElfFile);
  total += (file.needed().size() + file.rpath().size() +
            file.version_definitions().size() + file.comments().size()) *
           sizeof(std::string_view);
  for (const auto& need : file.version_references()) {
    total += sizeof(need) + need.versions.size() * sizeof(std::string_view);
  }
  total += file.dynamic_symbols().size() * sizeof(elf::DynSymbol);
  return total;
}

std::uint64_t search_entry_bytes(const std::string& soname,
                                 const std::vector<std::string>& dirs,
                                 std::size_t candidates,
                                 const std::optional<std::string>& result) {
  std::uint64_t total = soname.size();
  for (const auto& dir : dirs) total += sizeof(std::string) + dir.size();
  total += candidates * sizeof(std::optional<std::uint64_t>);
  total += result ? result->size() : 0;
  return total;
}

}  // namespace

SearchOrder::SearchOrder(std::vector<std::string> search_dirs)
    : dirs(std::move(search_dirs)), hash(order_hash(dirs)) {}

const ResolverCache::SearchMemo* ResolverCache::search(
    const site::Site& host, std::string_view soname, int bits,
    const SearchOrder& order) {
  const std::uint64_t key = search_fingerprint(host, soname, bits, order);
  const std::uint64_t lease_id = host.lease_id();
  const SearchEntry* entry = search_.find_if(key, [&](const SearchEntry& e) {
    return e.lease_id == lease_id && e.bits == bits &&
           e.order_hash == order.hash && e.soname == soname &&
           e.dirs == order.dirs;
  });
  if (entry != nullptr &&
      entry->candidate_versions.size() == order.dirs.size()) {
    // Read the system generation *before* walking stamps: if the stamps
    // validate afterwards, they were provably valid at this generation,
    // so recording it as "checked" can never mask a later mutation.
    const std::uint64_t system_generation = host.vfs.system_generation();
    bool fresh =
        !entry->scratch_candidates &&
        entry->checked_system_generation.load(std::memory_order_acquire) ==
            system_generation;
    if (!fresh) {
      fresh = true;
      for (std::size_t i = 0; i < order.dirs.size(); ++i) {
        const auto version =
            host.vfs.file_version(site::Vfs::join(order.dirs[i], soname));
        if (version != entry->candidate_versions[i]) {
          fresh = false;
          break;
        }
      }
      if (fresh && !entry->scratch_candidates) {
        entry->checked_system_generation.store(system_generation,
                                               std::memory_order_release);
      }
    }
    if (fresh) {
      search_meter_.hit(entry->site_hits);
      return &entry->memo;
    }
  }
  search_meter_.miss(host.name);
  return nullptr;
}

const ResolverCache::SearchMemo& ResolverCache::store_search(
    const site::Site& host, std::string_view soname, int bits,
    const SearchOrder& order, SearchMemo memo) {
  const std::uint64_t system_generation = host.vfs.system_generation();
  SearchEntry entry(host.lease_id(), bits, order, std::string(soname),
                    std::move(memo), search_meter_.site_hits(host.name));
  entry.candidate_versions.reserve(order.dirs.size());
  for (const auto& dir : order.dirs) {
    const std::string candidate = site::Vfs::join(dir, soname);
    entry.candidate_versions.push_back(host.vfs.file_version(candidate));
    if (site::Vfs::scratch_path(candidate)) entry.scratch_candidates = true;
  }
  entry.checked_system_generation.store(system_generation,
                                        std::memory_order_relaxed);
  const std::uint64_t entry_bytes =
      sizeof(SearchEntry) +
      search_entry_bytes(entry.soname, entry.dirs,
                         entry.candidate_versions.size(), entry.memo.result) +
      obs::evidence_bytes(entry.memo.evidence);
  // insert() shadows any stale entry for this key; the shadowed node
  // stays retained, so the footprint only grows (honest retained bytes).
  const SearchEntry* stored = search_.insert(
      search_fingerprint(host, soname, bits, order), std::move(entry));
  search_meter_.retain(entry_bytes);
  return stored->memo;
}

support::Result<std::string> ResolverCache::LddMemo::text() const {
  if (ok) return support::Result<std::string>(payload);
  return support::Result<std::string>::failure(payload);
}

const ResolverCache::LddMemo* ResolverCache::ldd_text(const site::Site& host,
                                                      std::string_view path,
                                                      bool verbose) {
  const std::uint64_t env_fingerprint = host.env.fingerprint();
  const std::uint64_t key = ldd_fingerprint(host, path, verbose,
                                            env_fingerprint);
  const std::uint64_t lease_id = host.lease_id();
  const LddEntry* entry = ldd_.find_if(key, [&](const LddEntry& e) {
    return e.lease_id == lease_id && e.verbose == verbose &&
           e.env_fingerprint == env_fingerprint && e.path == path;
  });
  if (entry != nullptr && entry->file_version == host.vfs.file_version(path) &&
      (entry->strict
           ? entry->vfs_generation == host.vfs.generation()
           : entry->system_generation == host.vfs.system_generation())) {
    ldd_meter_.hit(entry->site_hits);
    return &entry->memo;
  }
  ldd_meter_.miss(host.name);
  return nullptr;
}

void ResolverCache::store_ldd(const site::Site& host, std::string_view path,
                              bool verbose, LddMemo memo) {
  LddEntry entry{host.lease_id(),
                 verbose,
                 std::string(path),
                 host.env.fingerprint(),
                 host.vfs.file_version(path),
                 host.vfs.system_generation(),
                 host.vfs.generation(),
                 ld_library_path_touches_scratch(host),
                 std::move(memo),
                 ldd_meter_.site_hits(host.name)};
  const std::uint64_t entry_bytes =
      sizeof(LddEntry) + entry.path.size() + entry.memo.payload.size() +
      obs::evidence_bytes(entry.memo.evidence);
  ldd_.insert(ldd_fingerprint(host, path, verbose, entry.env_fingerprint),
              std::move(entry));
  ldd_meter_.retain(entry_bytes);
}

const elf::ElfFile* ResolverCache::parsed_elf(const support::Blob& data) {
  const std::uint64_t key = data.hash();
  const auto view = [](const ParseEntry& e) -> const elf::ElfFile* {
    return e.parsed ? &*e.parsed : nullptr;
  };
  const auto same_content = [&](const ParseEntry& e) { return e.blob == data; };
  if (const ParseEntry* entry = parsed_.find_if(key, same_content)) {
    parse_meter_.hit(parse_hits_);
    return view(*entry);
  }
  // Parse with no lock held; a racing miss parses twice and the loser's
  // insert is dropped in favour of the winner's entry. The views borrow
  // the shared buffer, which the entry keeps alive.
  auto parsed = elf::ElfFile::parse(data.bytes());
  std::optional<elf::ElfFile> value;
  if (parsed.ok()) value = std::move(parsed).take();
  parse_meter_.miss({});
  const auto [entry, inserted] = parsed_.get_or_insert_if(
      key, same_content, [&] { return ParseEntry{data, std::move(value)}; });
  if (inserted) {
    parse_meter_.retain(sizeof(ParseEntry) + data.size() +
                        (entry->parsed ? elf_bytes(*entry->parsed) : 0));
  }
  return view(*entry);
}

const elf::ElfFile* parse_elf(const support::Blob& data, ResolverCache* cache,
                              std::optional<elf::ElfFile>& local) {
  if (cache != nullptr) return cache->parsed_elf(data);
  auto parsed = elf::ElfFile::parse(data.bytes());
  if (!parsed.ok()) return nullptr;
  return &local.emplace(std::move(parsed).take());
}

std::uint64_t ResolverCache::hits() const {
  return search_hits() + ldd_hits() + parse_hits();
}

std::uint64_t ResolverCache::misses() const {
  return search_misses() + ldd_misses() + parse_misses();
}

}  // namespace feam::binutils
