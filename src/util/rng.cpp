#include "util/rng.hpp"

#include <cmath>

namespace faultstudy::util {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = next_u64();
      m = static_cast<unsigned __int128>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

int Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for the
    // corpus-size draws this library makes.
    const double u1 = uniform();
    const double u2 = uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(6.283185307179586 * u2);
    const double v = mean + std::sqrt(mean) * z + 0.5;
    return v < 0.0 ? 0 : static_cast<int>(v);
  }
  const double limit = std::exp(-mean);
  double prod = uniform();
  int n = 0;
  while (prod > limit) {
    prod *= uniform();
    ++n;
  }
  return n;
}

int Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return 0;
  int n = 0;
  while (!chance(p) && n < 1 << 20) ++n;
  return n;
}

}  // namespace faultstudy::util
