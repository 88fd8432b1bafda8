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

std::size_t Network::index_of(int port) const noexcept {
  std::size_t i = 0;
  while (i < ports_.size() && ports_[i].port != port) ++i;
  return i;
}

bool Network::bind_port(int port, std::string_view owner) {
  const std::size_t i = index_of(port);
  if (i < ports_.size() && ports_[i].bound) {
    obs::emit(sinks_, obs::Event::kPortDenied,
              static_cast<std::uint64_t>(port));
    return false;
  }
  if (i == ports_.size()) ports_.emplace_back().port = port;
  ports_[i].bound = true;
  ports_[i].owner = owner;
  obs::emit(sinks_, obs::Event::kPortBound);
  return true;
}

void Network::release_port(int port, std::string_view owner) {
  const std::size_t i = index_of(port);
  if (i < ports_.size() && ports_[i].bound && ports_[i].owner == owner) {
    ports_[i].bound = false;
    obs::emit(sinks_, obs::Event::kPortReleased, 1);
  }
}

std::size_t Network::release_ports_of(std::string_view owner) {
  std::size_t released = 0;
  for (Binding& b : ports_) {
    if (b.bound && b.owner == owner) {
      b.bound = false;
      ++released;
    }
  }
  obs::emit(sinks_, obs::Event::kPortReleased, released);
  return released;
}

bool Network::port_bound(int port) const {
  const std::size_t i = index_of(port);
  return i < ports_.size() && ports_[i].bound;
}

std::string_view Network::port_owner(int port) const {
  const std::size_t i = index_of(port);
  if (i == ports_.size() || !ports_[i].bound) return {};
  return ports_[i].owner;
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
