#include "env/dns.hpp"

namespace faultstudy::env {

DnsHealth DnsServer::health(Tick now) const noexcept {
  return now < forced_until_ ? forced_ : DnsHealth::kHealthy;
}

void DnsServer::break_until(DnsHealth state, Tick until) noexcept {
  forced_ = state;
  forced_until_ = until;
  if (state != DnsHealth::kHealthy) {
    obs::emit(sinks_, obs::Event::kDnsBroken,
              static_cast<std::uint64_t>(state), until);
  }
}

DnsReply DnsServer::resolve(std::string_view host, Tick now) const {
  (void)host;
  obs::emit(sinks_, obs::Event::kDnsLookup);
  switch (health(now)) {
    case DnsHealth::kErroring:
      obs::emit(sinks_, obs::Event::kDnsError);
      return {.ok = false, .latency = kNormalLatency};
    case DnsHealth::kSlow:
      obs::emit(sinks_, obs::Event::kDnsSlow);
      return {.ok = true, .latency = kSlowLatency};
    case DnsHealth::kHealthy:
      break;
  }
  return {.ok = true, .latency = kNormalLatency};
}

DnsReply DnsServer::reverse(std::string_view address) const {
  (void)address;
  obs::emit(sinks_, obs::Event::kDnsReverseMiss);
  return {.ok = false, .latency = kNormalLatency};
}

}  // namespace faultstudy::env
