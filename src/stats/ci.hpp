// Confidence intervals for proportions.
//
// The study's headline numbers are proportions over modest samples (e.g.
// 7/50 transient faults); Wilson intervals give honest uncertainty bands
// without the normal-approximation pathologies at small n.
#pragma once

#include <cstddef>

namespace faultstudy::stats {

struct Interval {
  double lower = 0.0;
  double point = 0.0;
  double upper = 0.0;
};

/// Wilson score interval for a binomial proportion. `z` defaults to the
/// 95% normal quantile.
Interval wilson(std::size_t successes, std::size_t trials, double z = 1.96);

}  // namespace faultstudy::stats
