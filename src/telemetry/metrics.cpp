#include "telemetry/metrics.hpp"

#include <algorithm>

#include "telemetry/counters.hpp"

namespace faultstudy::telemetry {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(std::int64_t value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  // Mismatched bucket layouts cannot be merged losslessly; fold the other
  // histogram's overflow-safe summary into ours instead of corrupting
  // buckets (callers register shared bounds, so this is a fallback).
  if (bounds_ == other.bounds_) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  } else {
    counts_.back() += other.count_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Histogram Histogram::from_buckets(std::vector<std::int64_t> bounds,
                                  std::vector<std::uint64_t> buckets,
                                  std::int64_t sum) {
  Histogram h(std::move(bounds));
  if (buckets.size() == h.counts_.size()) {
    h.counts_ = std::move(buckets);
    for (const std::uint64_t c : h.counts_) h.count_ += c;
    h.sum_ = sum;
  }
  return h;
}

void TickHistogram::observe(std::int64_t value) noexcept {
  const auto it = std::lower_bound(kTickBounds.begin(), kTickBounds.end(),
                                   value);
  ++counts_[static_cast<std::size_t>(it - kTickBounds.begin())];
  ++count_;
  sum_ += value;
}

void TickHistogram::merge(const TickHistogram& other) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Histogram TickHistogram::to_histogram() const {
  return Histogram::from_buckets(
      default_tick_bounds(),
      std::vector<std::uint64_t>(counts_.begin(), counts_.end()), sum_);
}

std::vector<std::int64_t> default_tick_bounds() {
  return {kTickBounds.begin(), kTickBounds.end()};
}

CounterId MetricsRegistry::counter(std::string_view name) {
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(counters_.size());
  counters_.push_back({std::string(name)});
  counter_ids_.emplace(counters_.back().name, index);
  return {index};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauge_ids_.find(name);
  if (it != gauge_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(gauges_.size());
  gauges_.push_back({std::string(name)});
  gauge_ids_.emplace(gauges_.back().name, index);
  return {index};
}

HistogramId MetricsRegistry::histogram(std::string_view name,
                                       std::span<const std::int64_t> bounds) {
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(histograms_.size());
  histograms_.push_back(
      {std::string(name),
       Histogram(std::vector<std::int64_t>(bounds.begin(), bounds.end()))});
  histogram_ids_.emplace(histograms_.back().name, index);
  return {index};
}

void MetricsRegistry::add(CounterId id, std::uint64_t n) noexcept {
  counters_[id.index].value += n;
}

void MetricsRegistry::peak(GaugeId id, std::int64_t value) noexcept {
  auto& gauge = gauges_[id.index];
  if (!gauge.set || value > gauge.high) {
    gauge.high = value;
    gauge.set = true;
  }
}

void MetricsRegistry::merge_histogram(HistogramId id, const Histogram& h) {
  histograms_[id.index].histogram.merge(h);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& m : counters_) snap.counters.push_back({m.name, m.value});
  snap.gauges.reserve(gauges_.size());
  for (const auto& m : gauges_) snap.gauges.push_back({m.name, m.high});
  snap.histograms.reserve(histograms_.size());
  for (const auto& m : histograms_) {
    const Histogram& h = m.histogram;
    snap.histograms.push_back(
        {m.name, h.bounds(), h.buckets(), h.count(), h.sum()});
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void merge(TrialCounters& into, const TrialCounters& from) noexcept {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    into[i] = kCounters[i].fold == Fold::kPeak ? std::max(into[i], from[i])
                                               : into[i] + from[i];
  }
}

}  // namespace faultstudy::telemetry
