#include "env/network.hpp"

namespace faultstudy::env {

LinkState Network::link(Tick now) const noexcept {
  return now < forced_until_ ? forced_ : LinkState::kNormal;
}

void Network::degrade_until(LinkState state, Tick until) noexcept {
  forced_ = state;
  forced_until_ = until;
  if (state != LinkState::kNormal) {
    obs::emit(sinks_, obs::Event::kLinkDegraded,
              static_cast<std::uint64_t>(state), until);
  }
}

bool Network::bind_port(int port, const std::string& owner) {
  auto [it, inserted] = ports_.emplace(port, owner);
  (void)it;
  if (inserted) {
    obs::emit(sinks_, obs::Event::kPortBound);
  } else {
    obs::emit(sinks_, obs::Event::kPortDenied,
              static_cast<std::uint64_t>(port));
  }
  return inserted;
}

void Network::release_port(int port, const std::string& owner) {
  auto it = ports_.find(port);
  if (it != ports_.end() && it->second == owner) {
    ports_.erase(it);
    obs::emit(sinks_, obs::Event::kPortReleased, 1);
  }
}

std::size_t Network::release_ports_of(const std::string& owner) {
  std::size_t released = 0;
  for (auto it = ports_.begin(); it != ports_.end();) {
    if (it->second == owner) {
      it = ports_.erase(it);
      ++released;
    } else {
      ++it;
    }
  }
  obs::emit(sinks_, obs::Event::kPortReleased, released);
  return released;
}

bool Network::port_bound(int port) const { return ports_.contains(port); }

std::string Network::port_owner(int port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? std::string() : it->second;
}

bool Network::consume_kernel_resource(std::size_t n) noexcept {
  if (kernel_resource_ < n) {
    obs::emit(sinks_, obs::Event::kKernelResourceDenied, n, kernel_resource_);
    return false;
  }
  kernel_resource_ -= n;
  return true;
}

}  // namespace faultstudy::env
