// Simulated network: link speed, port ownership, interface presence, and an
// opaque exhaustible kernel resource.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "env/clock.hpp"
#include "obs/bus.hpp"

namespace faultstudy::env {

enum class LinkState { kNormal, kSlow, kDown };

class Network {
 public:
  LinkState link(Tick now) const noexcept;
  void degrade_until(LinkState state, Tick until) noexcept;

  /// The physical interface (the PCMCIA card of apache-edn-07).
  bool card_present() const noexcept { return card_present_; }
  void remove_card() noexcept {
    card_present_ = false;
    obs::emit(sinks_, obs::Event::kCardRemoved);
  }

  /// Port binding. A port bound by one owner cannot be bound by another
  /// until released.
  bool bind_port(int port, std::string_view owner);
  void release_port(int port, std::string_view owner);
  std::size_t release_ports_of(std::string_view owner);
  bool port_bound(int port) const;
  /// Empty when the port is free; valid until the next bind or release.
  std::string_view port_owner(int port) const;

  /// The "unknown network resource" of apache-edn-06: an opaque kernel pool
  /// that only a machine reboot replenishes.
  std::size_t kernel_resource_available() const noexcept { return kernel_resource_; }
  bool consume_kernel_resource(std::size_t n) noexcept;
  void set_kernel_resource(std::size_t n) noexcept { kernel_resource_ = n; }

  static constexpr Tick kNormalLatency = 1;
  static constexpr Tick kSlowLatency = 3000;

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  LinkState forced_ = LinkState::kNormal;
  Tick forced_until_ = 0;
  bool card_present_ = true;
  /// One entry per port ever bound, kept (owner and all) when released,
  /// so rebinding a port allocates nothing.
  struct Binding {
    int port = 0;
    bool bound = false;
    std::string owner;
  };
  /// The position of `port`'s entry; ports_.size() when never bound.
  std::size_t index_of(int port) const noexcept;
  std::vector<Binding> ports_;
  std::size_t kernel_resource_ = 1u << 20;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
