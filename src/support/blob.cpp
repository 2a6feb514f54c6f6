#include "support/blob.hpp"

#include <utility>

#include "support/rng.hpp"

namespace feam::support {

namespace {

// Constant-work sampled hash: the size plus the head, tail, and a few
// evenly spaced interior windows. Multi-megabyte binaries hash in a
// bounded ~10 KiB of reads, so a memo lookup costs the same for a 100 KiB
// tool and a 50 MiB bundle library. Memos confirm every candidate hit
// with a full byte compare, so the hash only has to distribute well:
// sampling cannot cause a wrong answer, only a (vanishingly rare) extra
// compare.
std::uint64_t sampled_hash(const Bytes& bytes) {
  constexpr std::size_t kWindow = 512;
  constexpr std::size_t kInteriorWindows = 14;
  constexpr std::size_t kSmall = 8 * 1024;

  std::uint64_t h = (kFnvBasis ^ bytes.size()) * kFnvPrime;
  const std::uint8_t* data = bytes.data();
  if (bytes.size() <= kSmall) return fnv1a_words(h, data, bytes.size());
  h = fnv1a_words(h, data, 2 * kWindow);                                // head
  h = fnv1a_words(h, data + bytes.size() - 2 * kWindow, 2 * kWindow);  // tail
  const std::size_t span = bytes.size() - kWindow;
  for (std::size_t i = 0; i < kInteriorWindows; ++i) {
    const std::size_t offset = (span * (i + 1)) / (kInteriorWindows + 1);
    h = fnv1a_words(h, data + offset, kWindow);
  }
  return h;
}

}  // namespace

Blob::Blob(Bytes bytes) : rep_(std::make_shared<const Rep>(std::move(bytes))) {}

const Bytes& Blob::bytes() const {
  static const Bytes kEmpty;
  return rep_ != nullptr ? rep_->bytes : kEmpty;
}

std::uint64_t Blob::hash() const {
  if (rep_ == nullptr) return sampled_hash(bytes());
  std::uint64_t h = rep_->hash.load(std::memory_order_relaxed);
  if (h == 0) {
    // Racing first calls compute the same value; either store wins.
    h = sampled_hash(rep_->bytes);
    rep_->hash.store(h, std::memory_order_relaxed);
  }
  return h;
}

}  // namespace feam::support
