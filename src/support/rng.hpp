// Deterministic random number generation for the simulation layers.
//
// All stochastic behaviour in the reproduction (system errors, daemon spawn
// failures, timeouts) flows through SplitMix64 streams derived from a single
// experiment seed, so every table in EXPERIMENTS.md is bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace feam::support {

// SplitMix64: tiny, well-distributed, splittable. Not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64();

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [0.0, 1.0).
  double next_double();

  // True with the given probability.
  bool chance(double probability);

  // Derives an independent stream for a named purpose; equal (seed, label)
  // pairs always produce the same stream regardless of draw order elsewhere.
  Rng fork(std::string_view label) const;

 private:
  std::uint64_t state_;
};

// FNV-1a (64-bit) offset basis and prime: fnv1a_mix(kFnvBasis, lease_id).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Stable 64-bit FNV-1a hash of a string (used for stream derivation and for
// synthesizing deterministic per-binary content).
std::uint64_t fnv1a(std::string_view text);

// Continue an FNV-1a stream: fold a 64-bit value (byte-wise, little-endian
// order) or a string's bytes into an existing hash. Composable cache keys —
// fnv1a_mix(fnv1a(path), version) — without intermediate strings.
std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value);
std::uint64_t fnv1a_mix(std::uint64_t hash, std::string_view text);

// Fold a byte region into a stream a 64-bit word at a time, then the tail
// byte-wise (Blob's content hash). Values differ from byte-wise folding.
std::uint64_t fnv1a_words(std::uint64_t hash, const std::uint8_t* data,
                          std::size_t size);

}  // namespace feam::support
