// Immutable, shared file content: one byte buffer behind a reference
// count. Copying a Blob shares the buffer, so a file copied between paths
// or sites costs a reference, and a memo entry holding a Blob keeps views
// into it valid. same() means the very same buffer; == means equal bytes
// (same() short-circuits the compare). Content-keyed memos look up by
// hash() and confirm with ==, so a hash collision is a miss, never an
// alias.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/byte_io.hpp"

namespace feam::support {

class Blob {
 public:
  Blob() = default;  // empty content; allocates nothing
  explicit Blob(Bytes bytes);

  const Bytes& bytes() const;
  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }

  // Sampled content hash (the size plus a bounded set of windows, see
  // blob.cpp), computed on first use and cached in the shared buffer, so
  // every copy of this Blob pays for it at most once. Thread-safe.
  std::uint64_t hash() const;

  bool same(const Blob& other) const { return rep_ == other.rep_; }
  friend bool operator==(const Blob& a, const Blob& b) {
    return a.same(b) || a.bytes() == b.bytes();
  }

 private:
  struct Rep {
    explicit Rep(Bytes content) : bytes(std::move(content)) {}
    Bytes bytes;
    // 0 until first computed. A content whose hash really is 0 just
    // recomputes it on every call; the answer is the same.
    mutable std::atomic<std::uint64_t> hash{0};
  };
  std::shared_ptr<const Rep> rep_;  // null: empty content (also moved-from)
};

}  // namespace feam::support
