// Workloads for the simulated applications.
//
// Per Section 3 of the paper, the *sequence* of requested operations is part
// of the program, not of the operating environment: "we assume the user is
// not willing to aid recovery by avoiding certain input sequences". A
// workload is therefore a fixed list of items; what varies between execution
// attempts is only the environment (interleavings, timing phases, resource
// states). The `poison` flag marks the item that exercises a deterministic
// bug's killer input — on retry the same item must be re-executed.
//
// Lifetime rule. Every text a WorkItem or a WorkloadSpec holds is a view of
// static storage: the op templates below, one fixed table of client
// addresses, kRejectedOp, and the registry's poison ops (inject/registry.cpp).
// So items and specs copy without allocating, and no item can outlive its
// text. Code that sets `op` or `poison_op` must pass text with static
// storage too: a literal, or a string built once and kept for the life of
// the process.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/taxonomy.hpp"

namespace faultstudy::apps {

struct WorkItem {
  int id = 0;
  /// Operation label, e.g. "GET /index.html", "SELECT 1", "click:panel".
  std::string_view op;
  /// Killer input for environment-independent faults.
  bool poison = false;
  /// Part of a load burst (drives load-dependent leaks and child spawning).
  bool heavy = false;
  /// Involves concurrency (a race-prone code path draws an interleaving).
  bool racy = false;
  /// Requires a DNS lookup of this host (empty = no lookup).
  std::string_view lookup_host;
  /// Remote client address for connection-type items (empty = local).
  std::string_view client_address;
  /// Bytes this item appends to the app's on-disk artifacts.
  std::uint64_t write_bytes = 0;
  /// Entropy bits the item consumes (e.g. an SSL handshake).
  std::uint64_t entropy_bits = 0;
};

struct Workload {
  std::vector<WorkItem> items;
  std::size_t size() const noexcept { return items.size(); }
};

struct WorkloadSpec {
  std::size_t length = 40;
  std::uint64_t seed = 7;
  /// Index of the poison item (negative = none).
  int poison_at = 24;
  /// Concrete operation text for the poison item (empty = keep the drawn
  /// template). Faults with real engine-level implementations supply the
  /// actual killer input here — the long URL, the COUNT on the empty
  /// table.
  std::string_view poison_op;
  /// Fraction of items marked heavy / racy.
  double heavy_rate = 0.25;
  double racy_rate = 0.3;
};

/// Operation text a recovery wrapper substitutes when it rejects a killer
/// input up front: applications treat it as an already-answered request.
inline constexpr std::string_view kRejectedOp = "[rejected-by-wrapper]";

/// A realistic operation mix for the given application.
Workload make_workload(core::AppId app, const WorkloadSpec& spec = {});

}  // namespace faultstudy::apps
