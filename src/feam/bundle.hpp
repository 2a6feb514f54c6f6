// The source-phase bundle (paper Sections IV, V): descriptions and copies
// of every shared library an application is linked against (except the C
// library), plus MPI "hello world" binaries compiled in the guaranteed
// execution environment with the application's own MPI stack. The bundle
// is what a user copies to each target site to enable FEAM's resolution
// model and extended compatibility tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "feam/description.hpp"
#include "feam/edc.hpp"
#include "support/blob.hpp"
#include "support/json.hpp"
#include "toolchain/compiler.hpp"

namespace feam {

struct LibraryCopy {
  std::string name;         // NEEDED name / soname ("libmpi.so.0")
  std::string origin_path;  // where it lived in the guaranteed environment
  support::Blob content;    // shares the guaranteed environment's buffer
  BinaryDescription description;
};

struct HelloWorldCopy {
  toolchain::Language language = toolchain::Language::kC;
  std::string name;  // "hello_mpi_c"
  support::Blob content;
};

class Bundle {
 public:
  BinaryDescription application;
  EnvironmentDescription source_environment;
  std::vector<LibraryCopy> libraries;
  std::vector<HelloWorldCopy> hello_worlds;

  const LibraryCopy* find_library(std::string_view name) const;

  // Total payload size — the paper reports ~45M for a bundle covering all
  // test binaries at a site (Section VI.C).
  std::size_t total_bytes() const;

  // Self-describing manifest (descriptions and sizes; contents travel as
  // separate files, as in the original tool's tarball).
  support::Json manifest() const;

  // Content stamp of the bundle's provenance item: the name, size and
  // description stamp of each library copy and the name and size of each
  // hello world, not where the bundle was assembled. Computed on the first
  // call and kept: a bundle is complete before it is evaluated, and a copy
  // computes its own.
  std::uint64_t stamp() const;

 private:
  // stamp()'s kept value. Copying starts the copy unset, so a bundle
  // assembled from another never inherits a stale stamp.
  struct StampMemo {
    StampMemo() = default;
    StampMemo(const StampMemo&) {}
    StampMemo& operator=(const StampMemo&) {
      known.store(false, std::memory_order_relaxed);
      return *this;
    }
    // Set after `value`; racing first calls store the same value.
    mutable std::atomic<bool> known{false};
    mutable std::atomic<std::uint64_t> value{0};
  };
  StampMemo stamp_;
};

}  // namespace feam
