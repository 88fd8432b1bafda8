#include "env/signals.hpp"

#include <algorithm>

namespace faultstudy::env {

void SignalBus::raise(Signal signal, Tick at) {
  pending_.push_back({signal, at});
  obs::emit(sinks_, obs::Event::kSignalRaised,
            static_cast<std::uint64_t>(signal), at);
}

std::vector<Signal> SignalBus::deliver_due(Tick now) {
  auto it = std::stable_partition(
      pending_.begin(), pending_.end(),
      [now](const PendingSignal& p) { return p.deliver_at > now; });
  std::vector<Signal> due;
  due.reserve(static_cast<std::size_t>(pending_.end() - it));
  for (auto d = it; d != pending_.end(); ++d) due.push_back(d->signal);
  pending_.erase(it, pending_.end());
  return due;
}

}  // namespace faultstudy::env
