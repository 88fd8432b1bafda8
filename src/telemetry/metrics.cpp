#include "telemetry/metrics.hpp"

#include <algorithm>

#include "telemetry/counters.hpp"

namespace faultstudy::telemetry {

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

HistogramId MetricsRegistry::histogram(std::string_view name) {
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(histograms_.size());
  histograms_.push_back({std::string(name), {}});
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

void MetricsRegistry::merge_histogram(HistogramId id,
                                      const TickHistogram& h) {
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
    const TickHistogram& h = m.histogram;
    snap.histograms.push_back(
        {m.name,
         {kTickBounds.begin(), kTickBounds.end()},
         {h.buckets().begin(), h.buckets().end()},
         h.count(),
         h.sum()});
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
