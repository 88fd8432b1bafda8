#include "telemetry/trial.hpp"

namespace faultstudy::telemetry {

void TrialTelemetry::merge(const TrialTelemetry& other) noexcept {
  telemetry::merge(counters, other.counters);
  recovery_latency_ticks.merge(other.recovery_latency_ticks);
  item_latency_ticks.merge(other.item_latency_ticks);
}

void TrialTelemetry::reset() noexcept {
  counters.fill(0);
  recovery_latency_ticks.reset();
  item_latency_ticks.reset();
  spans.reset();
}

void fold_into(const TrialTelemetry& trial, std::string_view mechanism,
               MetricsRegistry& registry) {
  constexpr std::string_view kRecovery = "recovery/";
  const std::string mech(mechanism.empty() ? "trial" : mechanism);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const CounterDef& def = kCounters[i];
    const std::uint64_t value = trial.counters[i];
    if (def.fold == Fold::kSum && value == 0) continue;
    std::string name(def.name);
    if (name.starts_with(kRecovery)) {
      name.insert(kRecovery.size(), mech + '/');
    }
    if (def.fold == Fold::kPeak) {
      registry.peak(registry.gauge(name), static_cast<std::int64_t>(value));
    } else {
      registry.add(registry.counter(name), value);
    }
  }

  const auto fold_histogram = [&](const TickHistogram& h,
                                  std::string_view prefix,
                                  std::string_view suffix) {
    if (h.empty()) return;
    std::string name(prefix);
    name += mech;
    name += suffix;
    registry.merge_histogram(registry.histogram(name), h);
  };
  fold_histogram(trial.recovery_latency_ticks, "recovery/", "/latency_ticks");
  fold_histogram(trial.item_latency_ticks, "trial/", "/item_latency_ticks");
}

}  // namespace faultstudy::telemetry
