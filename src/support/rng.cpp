#include "support/rng.hpp"

#include <cstring>

namespace feam::support {

std::uint64_t Rng::next_u64() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias; bound is always tiny here so
  // the loop almost never iterates.
  const std::uint64_t limit = bound * (~0ULL / bound);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % bound;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return next_double() < probability;
}

Rng Rng::fork(std::string_view label) const {
  return Rng(state_ ^ (fnv1a(label) | 1ULL));
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = kFnvBasis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_mix(std::uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_words(std::uint64_t hash, const std::uint8_t* data,
                          std::size_t size) {
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, 8);
    hash = (hash ^ word) * kFnvPrime;
    data += 8;
    size -= 8;
  }
  while (size-- > 0) hash = (hash ^ *data++) * kFnvPrime;
  return hash;
}

}  // namespace feam::support
