// Unit tests for the simulated operating environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "telemetry/trial.hpp"
#include "util/rng.hpp"

namespace faultstudy::env {
namespace {

// ---------------------------------------------------------- process table

TEST(ProcessTable, SpawnUntilFull) {
  ProcessTable pt(3);
  EXPECT_TRUE(pt.spawn("a").has_value());
  EXPECT_TRUE(pt.spawn("a").has_value());
  EXPECT_TRUE(pt.spawn("b").has_value());
  EXPECT_TRUE(pt.full());
  EXPECT_FALSE(pt.spawn("a").has_value());
  EXPECT_EQ(pt.available(), 0u);
}

TEST(ProcessTable, KillFreesSlot) {
  ProcessTable pt(1);
  const auto pid = pt.spawn("a");
  ASSERT_TRUE(pid.has_value());
  EXPECT_TRUE(pt.kill(*pid));
  EXPECT_FALSE(pt.kill(*pid));  // already dead
  EXPECT_TRUE(pt.spawn("b").has_value());
}

TEST(ProcessTable, KillOwnedBySweepsAllOfOwner) {
  ProcessTable pt(10);
  pt.spawn("apache");
  pt.spawn("apache");
  pt.spawn("mysqld");
  EXPECT_EQ(pt.kill_owned_by("apache"), 2u);
  EXPECT_EQ(pt.count_owned_by("apache"), 0u);
  EXPECT_EQ(pt.count_owned_by("mysqld"), 1u);
}

TEST(ProcessTable, HungTracking) {
  ProcessTable pt(4);
  const auto p1 = pt.spawn("a");
  pt.spawn("a");
  EXPECT_TRUE(pt.mark_hung(*p1));
  EXPECT_EQ(pt.count_hung_owned_by("a"), 1u);
  EXPECT_FALSE(pt.mark_hung(9999));
}

TEST(ProcessTable, OwnedByLists) {
  ProcessTable pt(4);
  const auto p1 = pt.spawn("x");
  pt.spawn("y");
  const auto owned = pt.owned_by("x");
  ASSERT_EQ(owned.size(), 1u);
  EXPECT_EQ(owned[0], *p1);
  EXPECT_NE(pt.find(*p1), nullptr);
}

// -------------------------------------------------------------- fd table

TEST(FdTable, AcquireRelease) {
  FdTable fds(10);
  EXPECT_TRUE(fds.acquire("a", 6));
  EXPECT_EQ(fds.held_by("a"), 6u);
  EXPECT_EQ(fds.available(), 4u);
  EXPECT_FALSE(fds.acquire("b", 5));  // only 4 left, all-or-nothing
  EXPECT_EQ(fds.used(), 6u);
  fds.release("a", 2);
  EXPECT_EQ(fds.held_by("a"), 4u);
  EXPECT_TRUE(fds.acquire("b", 5));
}

TEST(FdTable, ReleaseMoreThanHeldClamps) {
  FdTable fds(10);
  fds.acquire("a", 3);
  fds.release("a", 100);
  EXPECT_EQ(fds.held_by("a"), 0u);
  EXPECT_EQ(fds.used(), 0u);
}

TEST(FdTable, ReleaseAll) {
  FdTable fds(10);
  fds.acquire("a", 3);
  fds.acquire("b", 2);
  EXPECT_EQ(fds.release_all("a"), 3u);
  EXPECT_EQ(fds.release_all("a"), 0u);
  EXPECT_EQ(fds.used(), 2u);
}

// ------------------------------------------------------------------ disk

TEST(Disk, AppendAndStat) {
  Disk disk(1000, 500);
  EXPECT_EQ(disk.append("/f", 100), Disk::WriteResult::kOk);
  EXPECT_EQ(disk.append("/f", 100), Disk::WriteResult::kOk);
  const auto info = disk.stat("/f");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 200u);
  EXPECT_EQ(disk.used(), 200u);
  EXPECT_FALSE(disk.stat("/missing").has_value());
}

TEST(Disk, FileSizeLimitEnforced) {
  Disk disk(10000, 300);
  EXPECT_EQ(disk.append("/log", 250), Disk::WriteResult::kOk);
  EXPECT_EQ(disk.append("/log", 100), Disk::WriteResult::kFileTooBig);
  EXPECT_EQ(disk.stat("/log")->size, 250u);  // failed write not applied
}

TEST(Disk, FullFileSystem) {
  Disk disk(100, 1000);
  EXPECT_EQ(disk.append("/a", 100), Disk::WriteResult::kOk);
  EXPECT_TRUE(disk.full());
  EXPECT_EQ(disk.append("/b", 1), Disk::WriteResult::kNoSpace);
}

TEST(Disk, TruncateReclaims) {
  Disk disk(100, 100);
  disk.append("/a", 80);
  disk.truncate("/a");
  EXPECT_EQ(disk.used(), 0u);
  EXPECT_EQ(disk.stat("/a")->size, 0u);
  disk.truncate("/missing");  // no-op
}

TEST(Disk, ConsumeExternal) {
  Disk disk(1000, 1000);
  disk.append("/mine", 100);
  disk.consume_external(900);
  EXPECT_EQ(disk.used(), 900u);
  disk.consume_external(500);  // already beyond; no shrink
  EXPECT_EQ(disk.used(), 900u);
}

TEST(Disk, PrefixQueries) {
  Disk disk(1000, 1000);
  disk.append("/cache/a", 10);
  disk.append("/cache/b", 20);
  disk.append("/log", 5);
  EXPECT_EQ(disk.used_under("/cache"), 30u);
  EXPECT_EQ(disk.list_prefix("/cache").size(), 2u);
  EXPECT_EQ(disk.used_under("/none"), 0u);
}

TEST(Disk, RemovePrefixKeepsOtherFiles) {
  Disk disk(1000, 1000);
  disk.append("/cache/a", 10);
  disk.append("/cache/b", 20);
  disk.append("/log", 5);
  disk.remove_prefix("/cache");
  EXPECT_EQ(disk.used(), 5u);
  EXPECT_EQ(disk.free_space(), 995u);
  EXPECT_TRUE(disk.list_prefix("/cache").empty());
  EXPECT_EQ(disk.stat("/log")->size, 5u);
}

TEST(Disk, RemovedPathsComeBackEmptyPastTheFirstTableSize) {
  // More paths than the file table first holds, half of them removed and
  // written again: each comes back as a fresh file, the others keep their
  // sizes, and listings keep creation order.
  Disk disk(1 << 20, 1 << 20);
  const auto path = [](const char* dir, int i) {
    std::string p = dir;
    p += "/file";
    p += std::to_string(i);
    return p;
  };
  for (int i = 0; i < 150; ++i) {
    disk.append(path(i % 2 == 0 ? "/cache" : "/keep", i), 10);
  }
  disk.set_owner(path("/cache", 0), -1);
  disk.remove_prefix("/cache");
  EXPECT_EQ(disk.used(), 750u);
  EXPECT_FALSE(disk.stat(path("/cache", 0)).has_value());
  for (int i = 0; i < 150; i += 2) disk.append(path("/cache", i), 3);
  EXPECT_EQ(disk.used(), 750u + 75u * 3u);
  EXPECT_EQ(disk.stat(path("/cache", 0))->size, 3u);
  EXPECT_EQ(disk.stat(path("/cache", 0))->owner_uid, 0);
  EXPECT_EQ(disk.stat(path("/keep", 149))->size, 10u);
  const auto cache = disk.list_prefix("/cache");
  ASSERT_EQ(cache.size(), 75u);
  EXPECT_EQ(cache.front(), path("/cache", 0));
  EXPECT_EQ(cache.back(), path("/cache", 148));
}

TEST(Disk, OwnerMetadata) {
  Disk disk(100, 100);
  disk.append("/f", 1);
  disk.set_owner("/f", -1);
  EXPECT_EQ(disk.stat("/f")->owner_uid, -1);
}

// ------------------------------------------------------------------- dns

TEST(Dns, HealthyByDefault) {
  DnsServer dns;
  const auto reply = dns.resolve("host", 0);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.latency, DnsServer::kNormalLatency);
}

TEST(Dns, ErrorStateHealsAtDeadline) {
  DnsServer dns;
  dns.break_until(DnsHealth::kErroring, 100);
  EXPECT_FALSE(dns.resolve("host", 50).ok);
  EXPECT_TRUE(dns.resolve("host", 100).ok);  // deadline reached -> healed
  EXPECT_TRUE(dns.resolve("host", 500).ok);
}

TEST(Dns, SlowStateHasHighLatency) {
  DnsServer dns;
  dns.break_until(DnsHealth::kSlow, 100);
  const auto reply = dns.resolve("host", 10);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.latency, DnsServer::kSlowLatency);
  EXPECT_EQ(dns.resolve("host", 200).latency, DnsServer::kNormalLatency);
}

TEST(Dns, ReverseNeedsConfiguredRecord) {
  // No PTR record is ever configured, so a reverse lookup misses even while
  // forward lookups succeed.
  DnsServer dns;
  EXPECT_TRUE(dns.resolve("10.0.0.9", 0).ok);
  EXPECT_FALSE(dns.reverse("10.0.0.9").ok);
}

// --------------------------------------------------------------- network

TEST(Network, LinkDegradationExpires) {
  Network net;
  EXPECT_EQ(net.link(0), LinkState::kNormal);
  net.degrade_until(LinkState::kSlow, 50);
  EXPECT_EQ(net.link(10), LinkState::kSlow);
  EXPECT_EQ(net.link(50), LinkState::kNormal);
}

TEST(Network, CardRemoval) {
  Network net;
  EXPECT_TRUE(net.card_present());
  net.remove_card();
  EXPECT_FALSE(net.card_present());
}

TEST(Network, PortOwnership) {
  Network net;
  EXPECT_TRUE(net.bind_port(80, "apache"));
  EXPECT_FALSE(net.bind_port(80, "other"));
  EXPECT_EQ(net.port_owner(80), "apache");
  net.release_port(80, "other");  // wrong owner: no-op
  EXPECT_TRUE(net.port_bound(80));
  net.release_port(80, "apache");
  EXPECT_FALSE(net.port_bound(80));
}

TEST(Network, ReleasePortsOfOwner) {
  Network net;
  net.bind_port(80, "apache");
  net.bind_port(8080, "apache-child");
  net.bind_port(3306, "mysqld");
  EXPECT_EQ(net.release_ports_of("apache-child"), 1u);
  EXPECT_FALSE(net.port_bound(8080));
  EXPECT_TRUE(net.port_bound(3306));
}

TEST(Network, KernelResourceExhaustion) {
  Network net;
  net.set_kernel_resource(3);
  EXPECT_TRUE(net.consume_kernel_resource(2));
  EXPECT_FALSE(net.consume_kernel_resource(2));
  EXPECT_TRUE(net.consume_kernel_resource(1));
  EXPECT_EQ(net.kernel_resource_available(), 0u);
}

// --------------------------------------------------------------- entropy

TEST(Entropy, TakeAndRefill) {
  EntropyPool pool(100, 10);
  EXPECT_TRUE(pool.take(100, 0));
  EXPECT_FALSE(pool.take(1, 0));
  // 20 ticks later: 200 bits refilled.
  EXPECT_TRUE(pool.take(200, 20));
}

TEST(Entropy, DrainArmsShortage) {
  EntropyPool pool(4096, 4);
  pool.drain_to(0, 0);
  EXPECT_FALSE(pool.take(256, 10));  // only 40 bits refilled
  EXPECT_TRUE(pool.take(256, 100));  // 400 bits by now
}

TEST(Entropy, PoolCapped) {
  EntropyPool pool(0, 1000);
  EXPECT_EQ(pool.bits(1000000), 4096u);
}

// --------------------------------------------------------------- signals

TEST(Signals, DeliverDueConsumes) {
  SignalBus bus;
  bus.raise(Signal::kHup, 10);
  bus.raise(Signal::kTerm, 20);
  EXPECT_TRUE(bus.deliver_due(5).empty());
  const auto due = bus.deliver_due(15);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], Signal::kHup);
  EXPECT_EQ(bus.pending(), 1u);
  EXPECT_EQ(bus.deliver_due(100).size(), 1u);
  EXPECT_EQ(bus.pending(), 0u);
}

// ------------------------------------------------------------- scheduler

TEST(Scheduler, DrawDeterministicPerSeed) {
  Scheduler a(5), b(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.draw().raw, b.draw().raw);
  }
}

TEST(Scheduler, PhaseInUnitInterval) {
  Scheduler s(6);
  for (int i = 0; i < 1000; ++i) {
    const auto d = s.draw();
    EXPECT_GE(d.phase, 0.0);
    EXPECT_LT(d.phase, 1.0);
  }
}

TEST(Scheduler, HazardWindowBasic) {
  Interleaving i;
  i.phase = 0.45;
  EXPECT_TRUE(Scheduler::in_hazard_window(i, 0.4, 0.1));
  EXPECT_FALSE(Scheduler::in_hazard_window(i, 0.5, 0.1));
  i.phase = 0.5;  // end-exclusive
  EXPECT_FALSE(Scheduler::in_hazard_window(i, 0.4, 0.1));
}

TEST(Scheduler, HazardWindowWraps) {
  Interleaving lo, hi;
  lo.phase = 0.02;
  hi.phase = 0.97;
  EXPECT_TRUE(Scheduler::in_hazard_window(lo, 0.95, 0.1));
  EXPECT_TRUE(Scheduler::in_hazard_window(hi, 0.95, 0.1));
  Interleaving mid;
  mid.phase = 0.5;
  EXPECT_FALSE(Scheduler::in_hazard_window(mid, 0.95, 0.1));
}

TEST(Scheduler, ReplayBiasReproducesLastDraw) {
  Scheduler s(7);
  s.set_replay_bias(1.0);
  const auto first = s.draw();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(s.draw().raw, first.raw);
  }
  s.set_replay_bias(0.0);
  EXPECT_NE(s.draw().raw, first.raw);
}

TEST(Scheduler, PartialBiasMixes) {
  Scheduler s(8);
  s.set_replay_bias(0.5);
  const auto first = s.draw();
  int repeats = 0;
  // Count immediate repeats of the previous draw.
  auto prev = first;
  for (int i = 0; i < 2000; ++i) {
    const auto d = s.draw();
    if (d.raw == prev.raw) ++repeats;
    prev = d;
  }
  EXPECT_NEAR(repeats / 2000.0, 0.5, 0.06);
}

// ------------------------------------------------------------ environment

TEST(Environment, ConfigApplied) {
  EnvironmentConfig config;
  config.process_slots = 5;
  config.fd_slots = 17;
  config.disk_capacity = 12345;
  Environment e(config);
  EXPECT_EQ(e.processes().capacity(), 5u);
  EXPECT_EQ(e.fds().capacity(), 17u);
  EXPECT_EQ(e.disk().capacity(), 12345u);
}

TEST(Environment, ClockAdvances) {
  Environment e;
  EXPECT_EQ(e.now(), 0);
  e.advance(10);
  e.advance(-5);  // negative advance ignored
  EXPECT_EQ(e.now(), 10);
}

TEST(Environment, Hostname) {
  Environment e;
  EXPECT_EQ(e.hostname(), "production-host");
  e.set_hostname("renamed");
  EXPECT_EQ(e.hostname(), "renamed");
}

// ------------------------------------------- env tables vs a reference model

/// The process, descriptor and port tables as plain ordered maps: the
/// behaviour the tables' own storage must reproduce, call for call,
/// including the counters each call's events add to a bound telemetry.
struct ReferenceTables {
  std::size_t proc_capacity = 0;
  std::map<Pid, std::pair<std::string, bool>> procs;  // owner, hung
  Pid next_pid = 100;
  std::size_t fd_capacity = 0;
  std::size_t fds_used = 0;
  std::map<std::string, std::size_t> fds;
  std::map<int, std::string> ports;
  telemetry::TrialCounters counters{};

  std::optional<Pid> spawn(const std::string& owner) {
    if (procs.size() >= proc_capacity) {
      ++counters[telemetry::counter_index("env/proc/spawn_failures")];
      return std::nullopt;
    }
    const Pid pid = next_pid++;
    procs[pid] = {owner, false};
    ++counters[telemetry::counter_index("env/proc/spawns")];
    auto& peak = counters[telemetry::counter_index("env/proc/peak")];
    peak = std::max<std::uint64_t>(peak, procs.size());
    return pid;
  }
  bool kill(Pid pid) {
    if (procs.erase(pid) == 0) return false;
    counters[telemetry::counter_index("env/proc/kills")] += 1;
    return true;
  }
  bool mark_hung(Pid pid) {
    auto it = procs.find(pid);
    if (it == procs.end()) return false;
    it->second.second = true;
    ++counters[telemetry::counter_index("env/proc/marked_hung")];
    return true;
  }
  std::size_t kill_owned_by(const std::string& owner) {
    const std::size_t killed = std::erase_if(
        procs, [&](const auto& entry) { return entry.second.first == owner; });
    counters[telemetry::counter_index("env/proc/kills")] += killed;
    return killed;
  }
  std::size_t count_owned_by(const std::string& owner, bool hung_only) const {
    std::size_t n = 0;
    for (const auto& [pid, p] : procs) {
      if (p.first == owner && (!hung_only || p.second)) ++n;
    }
    return n;
  }
  std::vector<Pid> owned_by(const std::string& owner) const {
    std::vector<Pid> out;
    for (const auto& [pid, p] : procs) {
      if (p.first == owner) out.push_back(pid);
    }
    return out;
  }

  bool acquire(const std::string& owner, std::size_t n) {
    if (fd_capacity - fds_used < n) {
      ++counters[telemetry::counter_index("env/fd/acquire_failures")];
      return false;
    }
    fds[owner] += n;
    fds_used += n;
    counters[telemetry::counter_index("env/fd/acquired")] += n;
    auto& peak = counters[telemetry::counter_index("env/fd/peak")];
    peak = std::max<std::uint64_t>(peak, fds_used);
    return true;
  }
  void release(const std::string& owner, std::size_t n) {
    auto it = fds.find(owner);
    if (it == fds.end()) return;
    const std::size_t freed = std::min(n, it->second);
    it->second -= freed;
    fds_used -= freed;
    counters[telemetry::counter_index("env/fd/released")] += freed;
  }
  std::size_t release_all(const std::string& owner) {
    auto it = fds.find(owner);
    if (it == fds.end()) return 0;
    const std::size_t freed = it->second;
    fds_used -= freed;
    it->second = 0;
    counters[telemetry::counter_index("env/fd/released")] += freed;
    return freed;
  }
  std::size_t held_by(const std::string& owner) const {
    auto it = fds.find(owner);
    return it == fds.end() ? 0 : it->second;
  }

  bool bind_port(int port, const std::string& owner) {
    const bool bound = ports.emplace(port, owner).second;
    ++counters[bound ? telemetry::counter_index("env/net/port_binds")
                     : telemetry::counter_index("env/net/port_bind_failures")];
    return bound;
  }
  void release_port(int port, const std::string& owner) {
    auto it = ports.find(port);
    if (it == ports.end() || it->second != owner) return;
    ports.erase(it);
    counters[telemetry::counter_index("env/net/ports_released")] += 1;
  }
  std::size_t release_ports_of(const std::string& owner) {
    const std::size_t released = std::erase_if(
        ports, [&](const auto& entry) { return entry.second == owner; });
    counters[telemetry::counter_index("env/net/ports_released")] += released;
    return released;
  }
  std::string port_owner(int port) const {
    auto it = ports.find(port);
    return it == ports.end() ? std::string() : it->second;
  }
};

TEST(EnvTables, FlatTablesMatchReferenceModel) {
  const std::vector<std::string> owners = {"apache", "mysqld", "gnome-session",
                                           "apache-child",
                                           "gnome-session-child"};
  const std::vector<int> ports = {80, 3306, 8080, 6000};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    const std::size_t proc_capacity = 1 + rng.below(12);
    const std::size_t fd_capacity = rng.below(40);
    ProcessTable procs(proc_capacity);
    FdTable fds(fd_capacity);
    Network net;
    telemetry::TrialTelemetry telemetry;
    obs::TrialSinks sinks;
    sinks.telemetry = &telemetry;
    procs.bind_sinks(&sinks);
    fds.bind_sinks(&sinks);
    net.bind_sinks(&sinks);
    ReferenceTables ref;
    ref.proc_capacity = proc_capacity;
    ref.fd_capacity = fd_capacity;

    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const std::string& owner =
          owners[static_cast<std::size_t>(rng.below(owners.size()))];
      // Mostly a live pid, sometimes a dead or never-issued one.
      Pid pid = ref.next_pid + static_cast<Pid>(rng.below(3));
      if (!ref.procs.empty() && rng.chance(0.8)) {
        auto it = ref.procs.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.below(ref.procs.size())));
        pid = it->first;
      } else if (rng.chance(0.5)) {
        pid = 100 + static_cast<Pid>(rng.below(ref.next_pid - 100 + 1));
      }
      const int port = ports[static_cast<std::size_t>(rng.below(ports.size()))];
      const std::size_t n = static_cast<std::size_t>(rng.below(9));
      switch (rng.below(13)) {
        case 0:
        case 1:
          ASSERT_EQ(procs.spawn(owner), ref.spawn(owner));
          break;
        case 2:
          ASSERT_EQ(procs.kill(pid), ref.kill(pid));
          break;
        case 3:
          ASSERT_EQ(procs.mark_hung(pid), ref.mark_hung(pid));
          break;
        case 4:
          ASSERT_EQ(procs.kill_owned_by(owner), ref.kill_owned_by(owner));
          break;
        case 5:
        case 6:
          ASSERT_EQ(fds.acquire(owner, n), ref.acquire(owner, n));
          break;
        case 7:
          fds.release(owner, n);
          ref.release(owner, n);
          break;
        case 8:
          ASSERT_EQ(fds.release_all(owner), ref.release_all(owner));
          break;
        case 9:
        case 10:
          ASSERT_EQ(net.bind_port(port, owner), ref.bind_port(port, owner));
          break;
        case 11:
          net.release_port(port, owner);
          ref.release_port(port, owner);
          break;
        default:
          ASSERT_EQ(net.release_ports_of(owner), ref.release_ports_of(owner));
          break;
      }

      // Every query, after every op.
      ASSERT_EQ(procs.used(), ref.procs.size());
      ASSERT_EQ(procs.available(), proc_capacity - ref.procs.size());
      ASSERT_EQ(procs.full(), ref.procs.size() >= proc_capacity);
      for (const std::string& o : owners) {
        ASSERT_EQ(procs.count_owned_by(o), ref.count_owned_by(o, false)) << o;
        ASSERT_EQ(procs.count_hung_owned_by(o), ref.count_owned_by(o, true))
            << o;
        // The reference walks a pid-ordered map, so this also pins
        // owned_by's ascending order.
        ASSERT_EQ(procs.owned_by(o), ref.owned_by(o)) << o;
        ASSERT_EQ(fds.held_by(o), ref.held_by(o)) << o;
      }
      const Process* found = procs.find(pid);
      const auto expected = ref.procs.find(pid);
      ASSERT_EQ(found != nullptr, expected != ref.procs.end());
      if (found != nullptr) {
        ASSERT_EQ(found->pid, pid);
        ASSERT_EQ(found->owner, expected->second.first);
        ASSERT_EQ(found->hung, expected->second.second);
      }
      ASSERT_EQ(fds.used(), ref.fds_used);
      ASSERT_EQ(fds.available(), fd_capacity - ref.fds_used);
      for (const int p : ports) {
        ASSERT_EQ(net.port_bound(p), ref.ports.contains(p)) << p;
        ASSERT_EQ(std::string(net.port_owner(p)), ref.port_owner(p)) << p;
      }
      ASSERT_EQ(telemetry.counters, ref.counters);
    }
  }
}

}  // namespace
}  // namespace faultstudy::env
