#include "stats/ci.hpp"

#include <algorithm>
#include <cmath>

namespace faultstudy::stats {

Interval wilson(std::size_t successes, std::size_t trials, double z) {
  Interval iv;
  if (trials == 0) return iv;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  iv.point = p;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  iv.lower = std::max(0.0, center - half);
  iv.upper = std::min(1.0, center + half);
  return iv;
}

}  // namespace faultstudy::stats
