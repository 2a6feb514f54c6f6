// Shared-library resolution: the dynamic-loader search algorithm over a
// site's virtual filesystem. This is the single source of truth used by
// three consumers:
//   * the `ldd` reimplementation (renders the familiar "=> path" text),
//   * the execution simulator (toolchain::DynamicLoader), and
//   * FEAM's EDC when it checks which libraries are missing at a target.
//
// Search order per object, following ld.so:
//   1. DT_RPATH of the root executable (inherited by dependencies),
//   2. LD_LIBRARY_PATH from the site environment,
//   3. the site's default library directories for the binary's bitness.
// A candidate that exists but has the wrong ELF class/machine is skipped
// and the search continues — exactly ld.so's behaviour, and the mechanism
// that makes 32-bit-vs-64-bit library directories work.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "elf/file.hpp"
#include "site/site.hpp"
#include "support/result.hpp"

namespace feam::binutils {

struct ResolvedLib {
  std::string name;                  // DT_NEEDED value ("libmpi.so.0")
  std::optional<std::string> path;   // resolved path, or nullopt if missing
  std::string requested_by;          // which object asked for it
};

// "version `GLIBC_2.12' not found (required by /x) in /lib64/libc.so.6".
struct VersionError {
  std::string version;
  std::string required_by;  // object that references the version
  std::string provider;     // resolved library that fails to define it
};

// DT_NEEDED chains deeper than this are cut off with kDepDepthExceeded;
// no real loader stack goes anywhere near 64 levels.
inline constexpr int kMaxDepDepth = 64;

struct Resolution {
  // Transitive closure in breadth-first order, deduplicated by name.
  std::vector<ResolvedLib> libs;
  std::vector<VersionError> version_errors;
  bool root_parsed = false;  // false when the root binary is not valid ELF
  std::string root_error;    // parse failure message when !root_parsed
  // Set when the NEEDED graph itself is malformed: kDepCycle when a
  // library transitively needs itself, kDepDepthExceeded past kMaxDepDepth.
  // Resolution of the rest of the closure still completes.
  std::optional<support::Error> dep_error;
  std::vector<std::string> dep_cycles;  // rendered "libA -> libB -> libA"
  // Some search directory (extra, rpath or LD_LIBRARY_PATH) sits under a
  // scratch prefix, whose writes Site::discovery_fingerprint() ignores.
  bool searched_scratch = false;

  bool complete() const;
  std::vector<std::string> missing() const;
  // Path a given NEEDED name resolved to, if any.
  std::optional<std::string> path_of(std::string_view needed_name) const;
};

class ResolverCache;

// Resolves the transitive shared-library closure of the binary at
// `binary_path` within `host`. `extra_search_dirs` are prepended to the
// search order (used by FEAM's resolution model to test library-copy
// directories before committing to them). A non-null `cache` memoizes the
// per-library search steps (see resolver_cache.hpp); nullptr reproduces
// the uncached walk exactly.
Resolution resolve_libraries(const site::Site& host, std::string_view binary_path,
                             const std::vector<std::string>& extra_search_dirs = {},
                             ResolverCache* cache = nullptr);

// The single-library search step, exposed for FEAM's fallback searches:
// finds `soname` for a binary of `bits` bitness, honoring skip-on-wrong-class.
std::optional<std::string> search_library(const site::Site& host,
                                          std::string_view soname, int bits,
                                          const std::vector<std::string>& rpath,
                                          const std::vector<std::string>& extra_dirs,
                                          ResolverCache* cache = nullptr);

}  // namespace feam::binutils
