// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (synthetic corpus generation,
// thread-interleaving draws, workload jitter) consumes randomness through
// this header so that every table and figure in the reproduction is
// bit-reproducible from a seed. We deliberately avoid std::mt19937 +
// std::uniform_int_distribution because the distribution implementations
// are not specified bit-exactly across standard libraries; the generators
// and the distribution mappings here are fully specified by this file.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

namespace faultstudy::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Passes BigCrush when used directly; here it is the seeding PRNG.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). The library's workhorse generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64, as the authors recommend.
  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls to next(); used to derive independent
  /// sub-streams from one seed (e.g. one stream per simulated application).
  constexpr void jump() noexcept {
    constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL,
                                       0xd5a61266f0c9392cULL,
                                       0xa9582618e03fc9aaULL,
                                       0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (jump & (1ULL << b)) {
          s0 ^= s_[0];
          s1 ^= s_[1];
          s2 ^= s_[2];
          s3 ^= s_[3];
        }
        next();
      }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// Convenience wrapper bundling a generator with bias-free distribution
/// mappings. All library code takes `Rng&` rather than a raw generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed) {}

  std::uint64_t next_u64() noexcept { return gen_.next(); }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Poisson-distributed count with the given mean (Knuth's algorithm for
  /// small means; normal approximation above 64 to bound the loop).
  int poisson(double mean) noexcept;

  /// Geometric: number of failures before first success, success prob p.
  int geometric(double p) noexcept;

  /// Uniformly picks one element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) noexcept {
    return items[static_cast<std::size_t>(below(items.size()))];
  }

  /// Derives an independent child stream (used to give each subsystem its
  /// own stream so adding draws in one place does not perturb another).
  Rng fork() noexcept {
    Rng child(*this);
    child.gen_.jump();
    gen_.next();  // decorrelate the parent as well
    return child;
  }

 private:
  Xoshiro256 gen_;
};

/// Stable 64-bit FNV-1a hash of a string; used to derive per-entity seeds
/// ("seed for bug #1234 of corpus apache") that do not depend on iteration
/// order.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace faultstudy::util
