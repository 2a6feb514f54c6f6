#include "binutils/resolver_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "site/vfs.hpp"
#include "support/rng.hpp"

namespace feam::binutils {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t search_fingerprint(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const std::vector<std::string>& dirs) {
  std::uint64_t h = support::fnv1a_mix(kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, static_cast<std::uint64_t>(bits));
  h = support::fnv1a_mix(h, soname);
  for (const auto& dir : dirs) {
    h = support::fnv1a_mix(h, '\x1f');
    h = support::fnv1a_mix(h, dir);
  }
  return h;
}

std::uint64_t ldd_fingerprint(const site::Site& host, std::string_view path,
                              bool verbose, std::uint64_t env_fingerprint) {
  std::uint64_t h = support::fnv1a_mix(kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, verbose ? 'v' : '-');
  h = support::fnv1a_mix(h, path);
  return support::fnv1a_mix(h, env_fingerprint);
}

std::uint64_t parse_fingerprint(const site::Site& host, std::string_view path,
                                std::uint64_t version) {
  std::uint64_t h = support::fnv1a_mix(kFnvBasis, host.lease_id());
  h = support::fnv1a_mix(h, path);
  return support::fnv1a_mix(h, version);
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
  // A parsed file is views-into-arena, so the string *content* is counted
  // once via the arena's size by the caller; here only the view tables.
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

std::optional<std::optional<std::string>> ResolverCache::search(
    const site::Site& host, std::string_view soname, int bits,
    const std::vector<std::string>& dirs) {
  const std::uint64_t key = search_fingerprint(host, soname, bits, dirs);
  const std::uint64_t lease_id = host.lease_id();
  const SearchEntry* entry = search_.find_if(key, [&](const SearchEntry& e) {
    return e.lease_id == lease_id && e.bits == bits && e.soname == soname &&
           e.dirs == dirs;
  });
  if (entry != nullptr && entry->candidate_versions.size() == dirs.size()) {
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
      for (std::size_t i = 0; i < dirs.size(); ++i) {
        const auto version =
            host.vfs.file_version(site::Vfs::join(dirs[i], soname));
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
      return entry->result;
    }
  }
  search_meter_.miss(host.name);
  return std::nullopt;
}

void ResolverCache::store_search(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const std::vector<std::string>& dirs,
                                 std::optional<std::string> result) {
  const std::uint64_t system_generation = host.vfs.system_generation();
  SearchEntry entry(host.lease_id(), bits, std::string(soname), dirs,
                    search_meter_.site_hits(host.name));
  entry.candidate_versions.reserve(dirs.size());
  for (const auto& dir : dirs) {
    const std::string candidate = site::Vfs::join(dir, soname);
    entry.candidate_versions.push_back(host.vfs.file_version(candidate));
    if (site::Vfs::scratch_path(candidate)) entry.scratch_candidates = true;
  }
  entry.result = std::move(result);
  entry.checked_system_generation.store(system_generation,
                                        std::memory_order_relaxed);
  const std::uint64_t entry_bytes =
      sizeof(SearchEntry) +
      search_entry_bytes(entry.soname, entry.dirs,
                         entry.candidate_versions.size(), entry.result);
  // insert() shadows any stale entry for this key; the shadowed node
  // stays retained, so the footprint only grows (honest retained bytes).
  search_.insert(search_fingerprint(host, soname, bits, dirs),
                 std::move(entry));
  search_meter_.retain(entry_bytes);
}

std::optional<support::Result<std::string>> ResolverCache::ldd_text(
    const site::Site& host, std::string_view path, bool verbose) {
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
    if (entry->ok) return support::Result<std::string>(entry->payload);
    return support::Result<std::string>::failure(entry->payload);
  }
  ldd_meter_.miss(host.name);
  return std::nullopt;
}

void ResolverCache::store_ldd(const site::Site& host, std::string_view path,
                              bool verbose,
                              const support::Result<std::string>& text) {
  LddEntry entry{
      host.lease_id(),
      verbose,
      std::string(path),
      host.env.fingerprint(),
      host.vfs.file_version(path),
      host.vfs.system_generation(),
      host.vfs.generation(),
      ld_library_path_touches_scratch(host),
      text.ok(),
      text.ok() ? text.value() : text.error(),
      ldd_meter_.site_hits(host.name)};
  const std::uint64_t entry_bytes =
      sizeof(LddEntry) + entry.path.size() + entry.payload.size();
  ldd_.insert(ldd_fingerprint(host, path, verbose, entry.env_fingerprint),
              std::move(entry));
  ldd_meter_.retain(entry_bytes);
}

const elf::ElfFile* ResolverCache::parsed_elf(const site::Site& host,
                                              std::string_view path,
                                              const support::Bytes& data) {
  const std::uint64_t version = host.vfs.file_version(path).value_or(0);
  const std::uint64_t key = parse_fingerprint(host, path, version);
  const std::uint64_t lease_id = host.lease_id();
  const auto matches = [&](const ParseEntry& e) {
    return e.lease_id == lease_id && e.version == version && e.path == path;
  };
  if (const ParseEntry* entry = parsed_.find_if(key, matches)) {
    parse_meter_.hit(entry->site_hits);
    return entry->parsed ? &*entry->parsed : nullptr;
  }
  // Parse with no lock held; a racing miss parses twice and the loser's
  // insert is dropped in favour of the winner's entry. The parse runs
  // against the entry's own arena copy — never against `data`, whose
  // buffer dies with the VFS node on the next rewrite of this path.
  support::Bytes arena = data;
  auto parsed = elf::ElfFile::parse(arena);
  std::optional<elf::ElfFile> value;
  if (parsed.ok()) {
    value = std::move(parsed).take();
  } else {
    support::Bytes().swap(arena);  // failed parse retains no bytes
  }
  parse_meter_.miss(host.name);
  const auto [entry, inserted] = parsed_.get_or_insert_if(key, matches, [&] {
    return ParseEntry{
        lease_id, std::string(path), version, std::move(arena),
        std::move(value), parse_meter_.site_hits(host.name)};
  });
  if (inserted) {
    parse_meter_.retain(sizeof(ParseEntry) + entry->path.size() +
                        entry->arena.capacity() +
                        (entry->parsed ? elf_bytes(*entry->parsed) : 0));
  }
  return entry->parsed ? &*entry->parsed : nullptr;
}

std::uint64_t ResolverCache::hits() const {
  return search_hits() + ldd_hits() + parse_hits();
}

std::uint64_t ResolverCache::misses() const {
  return search_misses() + ldd_misses() + parse_misses();
}

}  // namespace feam::binutils
