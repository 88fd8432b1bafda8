// Simulated Domain Name Service.
//
// DNS is the environment's most-cited transient actor in the study: lookups
// can error, respond slowly, or lack reverse records. Error and slow states
// heal after a deadline (someone restarts the name server or fixes the
// network) — the property that makes kDnsError/kDnsSlow transient. Missing
// reverse DNS, by contrast, is configuration: no retry brings it back.
#pragma once

#include <string_view>

#include "env/clock.hpp"
#include "obs/bus.hpp"

namespace faultstudy::env {

enum class DnsHealth { kHealthy, kErroring, kSlow };

struct DnsReply {
  bool ok = false;
  Tick latency = 0;
};

class DnsServer {
 public:
  DnsHealth health(Tick now) const noexcept;

  /// Puts the server into a failure state until `now + duration`.
  void break_until(DnsHealth state, Tick until) noexcept;

  /// Forward lookup. Errors while kErroring; while kSlow succeeds with a
  /// latency above any sane client timeout.
  DnsReply resolve(std::string_view host, Tick now) const;

  /// Reverse lookup of a client address. The simulated zone holds no PTR
  /// records, so every lookup misses.
  DnsReply reverse(std::string_view address) const;

  static constexpr Tick kNormalLatency = 2;
  static constexpr Tick kSlowLatency = 5000;

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  DnsHealth forced_ = DnsHealth::kHealthy;
  Tick forced_until_ = 0;
  // Lookups are logically const; the sink they record into is not.
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
