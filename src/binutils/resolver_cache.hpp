// Memoization for the dynamic-loader search machinery (opt-in).
//
// The evaluation matrix replays the same library lookups thousands of
// times: every execution attempt, usability test, and resolution pass
// re-walks the candidate directories for libc/libm/libmpi…, and the
// source phase runs `ldd` on the same binary once per gathered library.
// System library directories never change during a run, so both lookups
// memoize — with exact invalidation, not heuristics:
//
//   * search memo — keyed (site, soname, bits, directory list). An entry
//     records the Vfs::file_version of every candidate path the original
//     walk inspected (including absent ones); it is served only while all
//     of them are unchanged. Entries whose candidates all sit outside the
//     scratch subtrees (/home, /tmp) carry a revalidation stamp — the
//     Vfs::system_generation at the last full stamp walk — so the common
//     hit (nothing installed since) costs one atomic compare instead of a
//     per-directory walk. Any write, remove, or symlink retarget that
//     could alter the outcome still misses, and a stamp mismatch can
//     never produce a wrong path — versions are globally unique per write.
//     The walk tests candidates through the parse memo below.
//   * ldd memo — keyed (site, path, verbose, environment fingerprint):
//     transcripts for distinct shell states coexist. Validated against
//     the binary's write stamp plus the system half of the VFS; when the
//     shell's LD_LIBRARY_PATH reached into scratch directories at record
//     time, validation falls back to the whole-VFS generation (exact,
//     strictly conservative).
//   * parse memo — keyed on content: the parsed ELF view of a byte
//     content, shared by every path and site that holds those bytes. The
//     parse is a pure function of the bytes, so equal bytes at a hundred
//     sites parse once. Lookups go by Blob::hash and confirm with
//     Blob::operator== (the same buffer, or else a byte compare), so a
//     hash collision is a miss, never a wrong answer.
//
// All three memos sit on support::StripedMap: hits are lock-free (a
// chain walk plus relaxed counter bumps), writers stripe across shards,
// and published entries never move — the pointers search, ldd_text and
// parsed_elf return stay valid for the cache's lifetime. Search and ldd
// entries keep the evidence their fill recorded (built whether or not a
// provenance scope was active) and a hit replays it, so cached and
// uncached runs record the same evidence. Each 64-bit map key is a
// fingerprint of the logical key; every lookup re-verifies the entry's
// stored identity, so fingerprint collisions degrade to misses, never
// wrong answers.
//
// Passing nullptr wherever a ResolverCache* is accepted reproduces the
// uncached behaviour exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "elf/file.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "site/site.hpp"
#include "support/blob.hpp"
#include "support/result.hpp"
#include "support/striped_map.hpp"

namespace feam::binutils {

// A loader search order — extra + rpath + LD_LIBRARY_PATH + defaults —
// with the hash of its directories, taken once per walk: every search
// along the order keys the memo on `hash` instead of rehashing them.
struct SearchOrder {
  explicit SearchOrder(std::vector<std::string> search_dirs);
  std::vector<std::string> dirs;
  std::uint64_t hash = 0;
};

class ResolverCache {
 public:
  // A memoized library search: where the walk found the soname (nullopt:
  // in none of the dirs) and the provenance item the walk recorded, which
  // every hit replays.
  struct SearchMemo {
    std::optional<std::string> result;
    obs::Evidence evidence;
  };
  // The memoized search along `order`, or nullptr when absent/stale. The
  // pointer stays valid for the cache's lifetime.
  const SearchMemo* search(const site::Site& host, std::string_view soname,
                           int bits, const SearchOrder& order);
  const SearchMemo& store_search(const site::Site& host,
                                 std::string_view soname, int bits,
                                 const SearchOrder& order, SearchMemo memo);

  // A memoized ldd transcript (or its failure message) and the evidence
  // the fill recorded (its search walks and the transcript's own item),
  // which every hit replays.
  struct LddMemo {
    bool ok = false;
    std::string payload;  // text when ok, error message otherwise
    std::vector<obs::Evidence> evidence;
    support::Result<std::string> text() const;
  };
  // The memoized ldd run, or nullptr when absent/stale. The pointer stays
  // valid for the cache's lifetime.
  const LddMemo* ldd_text(const site::Site& host, std::string_view path,
                          bool verbose);
  void store_ldd(const site::Site& host, std::string_view path, bool verbose,
                 LddMemo memo);

  // Parsed view of the ELF image `data`, memoized on its content. Returns
  // nullptr when the bytes are not valid ELF. The pointer stays valid for
  // the cache's lifetime: entries are never evicted. The ElfFile's views
  // borrow the Blob its entry holds (a shared buffer, not a copy), so the
  // view survives the VFS node being rewritten or removed. Faulted reads
  // need no special care: a short read is a different, shorter content.
  const elf::ElfFile* parsed_elf(const support::Blob& data);

  // Combined totals across the three memos (legacy view).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  // Per-memo splits: the search walk, the ldd transcript memo, and the
  // parsed-ELF memo hit very differently (a cold parse costs ~1000x a
  // cold search), so folding them into one number hides exactly the
  // attribution a hit-rate investigation needs.
  std::uint64_t search_hits() const { return search_meter_.hits(); }
  std::uint64_t search_misses() const { return search_meter_.misses(); }
  std::uint64_t ldd_hits() const { return ldd_meter_.hits(); }
  std::uint64_t ldd_misses() const { return ldd_meter_.misses(); }
  std::uint64_t parse_hits() const { return parse_meter_.hits(); }
  std::uint64_t parse_misses() const { return parse_meter_.misses(); }

 private:
  struct SearchEntry {
    // Identity, re-verified on lookup (the map key is a fingerprint).
    std::uint64_t lease_id = 0;
    int bits = 0;
    std::uint64_t order_hash = 0;
    std::string soname;
    std::vector<std::string> dirs;
    // file_version of join(dir, soname) per search dir, in order; nullopt
    // where no regular file existed.
    std::vector<std::optional<std::uint64_t>> candidate_versions;
    SearchMemo memo;
    // True when any candidate path sits under a scratch subtree — those
    // entries never take the system-generation fast path (scratch writes
    // don't bump it) and always pay the full stamp walk.
    bool scratch_candidates = false;
    // Vfs::system_generation as of the last full stamp validation; while
    // it still matches, no non-scratch path has changed, so the stamps
    // are provably still valid and the walk can be skipped. Mutable
    // atomic: revalidation updates it in place through the const entry.
    mutable std::atomic<std::uint64_t> checked_system_generation{0};
    obs::SeriesHandle site_hits;  // cache.hits{cache=resolver.search,...}

    // Atomics aren't movable; moves happen only pre-publication.
    SearchEntry(SearchEntry&& other) noexcept
        : lease_id(other.lease_id),
          bits(other.bits),
          order_hash(other.order_hash),
          soname(std::move(other.soname)),
          dirs(std::move(other.dirs)),
          candidate_versions(std::move(other.candidate_versions)),
          memo(std::move(other.memo)),
          scratch_candidates(other.scratch_candidates),
          checked_system_generation(other.checked_system_generation.load(
              std::memory_order_relaxed)),
          site_hits(other.site_hits) {}
    SearchEntry(std::uint64_t lease, int b, const SearchOrder& order,
                std::string so, SearchMemo m, obs::SeriesHandle hits)
        : lease_id(lease),
          bits(b),
          order_hash(order.hash),
          soname(std::move(so)),
          dirs(order.dirs),
          memo(std::move(m)),
          site_hits(hits) {}
  };

  struct LddEntry {
    std::uint64_t lease_id = 0;
    bool verbose = false;
    std::string path;
    std::uint64_t env_fingerprint = 0;  // part of the identity: shell state
    // Validation stamps: the binary's own write stamp plus the system
    // half of the VFS; `strict` entries (recorded while LD_LIBRARY_PATH
    // reached into scratch) validate on the whole-VFS generation instead.
    std::optional<std::uint64_t> file_version;
    std::uint64_t system_generation = 0;
    std::uint64_t vfs_generation = 0;
    bool strict = false;
    LddMemo memo;
    obs::SeriesHandle site_hits;  // cache.hits{cache=resolver.ldd,...}
  };

  struct ParseEntry {
    // The content this entry answers for; `parsed` borrows its buffer.
    support::Blob blob;
    std::optional<elf::ElfFile> parsed;  // nullopt caches a parse failure
  };

  support::StripedMap<std::uint64_t, SearchEntry> search_;
  support::StripedMap<std::uint64_t, LddEntry> ldd_;
  support::StripedMap<std::uint64_t, ParseEntry> parsed_;  // by Blob::hash
  // These paths hit hundreds of thousands of times per matrix run; search
  // and ldd entries carry their pre-resolved site hit series, so a hit
  // stays two relaxed atomics. Content has no home site: the parse memo
  // counts into `cache.hits|misses{cache=resolver.parse}` through
  // `parse_hits_`, resolved once. Shadowed (stale) entries stay retained,
  // so footprints only grow while the cache lives.
  obs::CacheMeter search_meter_{"resolver.search"};
  obs::CacheMeter ldd_meter_{"resolver.ldd"};
  obs::CacheMeter parse_meter_{"resolver.parse"};
  obs::SeriesHandle parse_hits_ = parse_meter_.site_hits({});
};

// Parsed view of `data`: through `cache`'s content memo when one is
// given, else parsed into `local`, which (like `data`) must outlive the
// view. nullptr when the bytes are not valid ELF.
const elf::ElfFile* parse_elf(const support::Blob& data, ResolverCache* cache,
                              std::optional<elf::ElfFile>& local);

}  // namespace feam::binutils
