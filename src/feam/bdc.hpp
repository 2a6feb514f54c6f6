// The Binary Description Component (BDC) of FEAM (paper Section V.A).
//
// Gathers everything in Figure 3 about an application binary or shared
// library by driving the (reimplemented) standard utilities and scraping
// their text output, exactly as the original tool did:
//   * `objdump -p`  - file format, ISA, bitness, Dynamic Section
//                     (NEEDED/SONAME), Version Definitions/References;
//   * `readelf -p .comment` - compiler/linker stamps -> build OS & glibc;
//   * `ldd`         - shared library locations (for source-phase copies),
//                     with locate/find/hello-world fallbacks when ldd is
//                     missing or does not recognize the binary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "feam/description.hpp"
#include "obs/provenance.hpp"
#include "site/site.hpp"
#include "support/result.hpp"

namespace feam::binutils {
class ResolverCache;
}  // namespace feam::binutils

namespace feam {

// Content-derived FNV-1a stamp over every description field except `path`
// (the one request-dependent field). The BDC's provenance evidence and the
// bundle's stamp (Bundle::stamp) carry it.
std::uint64_t description_stamp(const BinaryDescription& d);

// The canonical BDC evidence item for `d` described at (site, path). The
// component records it on a fresh parse; BdcCache stores it at fill time
// and replays it at each hit's site and path, so cached and uncached
// provenance are byte-identical.
obs::Evidence description_evidence(std::string_view site_name,
                                   std::string_view path,
                                   const BinaryDescription& d);

class Bdc {
 public:
  // Describes the binary at `path` on site `s` (target or guaranteed).
  static support::Result<BinaryDescription> describe(const site::Site& s,
                                                     std::string_view path);

  // Locates each of `needed` for the binary at `path` in `s`'s filesystem,
  // for source-phase copying. Tries ldd first, then `locate`, then `find`
  // over common library locations and LD_LIBRARY_PATH, then the ldd output
  // of a locally available "hello world" program (paper Section V.A).
  // Returns (name, path-or-nullopt) pairs in the order of `needed`. A
  // non-null `cache` memoizes the underlying ldd transcripts.
  static std::vector<std::pair<std::string, std::optional<std::string>>>
  locate_libraries(const site::Site& s, std::string_view path,
                   const std::vector<std::string>& needed,
                   std::string_view hello_world_path = "",
                   binutils::ResolverCache* cache = nullptr);
};

}  // namespace feam
