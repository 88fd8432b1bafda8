// MetricsRegistry: named counters, high-watermark gauges, and fixed-bucket
// histograms.
//
// Concurrency model (the executor's determinism contract, DESIGN.md §8,
// applied to metrics): a registry has one writer. Per-trial views are
// folded into the study registry serially, in index order, after the
// sweep drains. Registration (counter/gauge/histogram) interns a name into
// an id and is the only operation that allocates; looking up a name that
// is already registered allocates nothing. Counter and histogram
// merges are sums and gauge merges are maxima, so folded values are
// identical for every thread count.
//
// Every value is an integer (ticks, bytes, counts); there is no floating
// point anywhere in the registry, which is what makes snapshots comparable
// byte for byte across runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/strings.hpp"

namespace faultstudy::telemetry {

struct CounterId {
  std::uint32_t index = 0;
};
struct GaugeId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

/// Inclusive upper bucket edges for recovery/item latencies in simulated
/// ticks.
inline constexpr std::array<std::int64_t, 14> kTickBounds = {
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384};

/// A fixed-bucket histogram over kTickBounds: bounds are inclusive upper
/// edges and one overflow bucket catches the rest. Kept in fixed arrays, so
/// observing, merging and resetting never allocate. A trial records its
/// latencies here and the registry sums them when the trial is folded.
class TickHistogram {
 public:
  /// kTickBounds.size() + 1 entries; the last is the overflow bucket.
  using Buckets = std::array<std::uint64_t, kTickBounds.size() + 1>;

  void observe(std::int64_t value) noexcept;
  void merge(const TickHistogram& other) noexcept;
  void reset() noexcept { *this = TickHistogram{}; }

  const Buckets& buckets() const noexcept { return counts_; }
  std::uint64_t count() const noexcept { return count_; }
  std::int64_t sum() const noexcept { return sum_; }
  bool empty() const noexcept { return count_ == 0; }

  bool operator==(const TickHistogram&) const = default;

 private:
  Buckets counts_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// An immutable, name-sorted view of a registry — the unit of export and
/// of determinism comparisons (threads=1 and threads=N must produce equal
/// snapshots for sim-domain registries).
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const Counter&) const = default;
  };
  struct Gauge {
    std::string name;
    std::int64_t value = 0;  ///< high-watermark
    bool operator==(const Gauge&) const = default;
  };
  struct Hist {
    std::string name;
    std::vector<std::int64_t> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    bool operator==(const Hist&) const = default;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Hist> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  // --- registration (returns the existing id on re-use) ---
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name);

  // --- writers ---
  void add(CounterId id, std::uint64_t n = 1) noexcept;
  /// Raises the gauge's high-watermark.
  void peak(GaugeId id, std::int64_t value) noexcept;
  void merge_histogram(HistogramId id, const TickHistogram& h);

  // --- export ---
  /// Every metric, sorted by name.
  MetricsSnapshot snapshot() const;

 private:
  struct CounterMetric {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeMetric {
    std::string name;
    std::int64_t high = 0;
    bool set = false;
  };
  struct HistMetric {
    std::string name;
    TickHistogram histogram;
  };

  /// Name -> index, looked up by string_view without building a string.
  using IdMap = std::unordered_map<std::string, std::uint32_t,
                                   util::StringHash, std::equal_to<>>;

  std::vector<CounterMetric> counters_;
  std::vector<GaugeMetric> gauges_;
  std::vector<HistMetric> histograms_;
  IdMap counter_ids_;
  IdMap gauge_ids_;
  IdMap histogram_ids_;
};

}  // namespace faultstudy::telemetry
