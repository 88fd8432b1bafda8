#include "apps/workload.hpp"

#include <array>
#include <span>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace faultstudy::apps {

namespace {

struct OpTemplate {
  const char* op;
  bool dns = false;
  bool remote = false;
  std::uint64_t write_bytes = 0;
  std::uint64_t entropy_bits = 0;
};

constexpr OpTemplate kWebOps[] = {
    {"GET /index.html", false, true, 128, 0},
    {"GET /docs/manual.html", false, true, 128, 0},
    {"GET /cgi-bin/search", true, true, 256, 0},
    {"POST /cgi-bin/form", true, true, 512, 0},
    {"GET /images/logo.gif", false, true, 64, 0},
    {"GET https://secure/checkout", true, true, 256, 256},
    {"GET /status", false, false, 32, 0},
};

// Real SQL for the mini engine (apps/sql): the database application parses
// and executes these against its catalog.
constexpr OpTemplate kDbOps[] = {
    {"SELECT * FROM orders WHERE id < 50 ORDER BY id LIMIT 5", false, true, 0, 0},
    {"INSERT INTO orders VALUES (9001, 'new')", false, true, 512, 0},
    {"UPDATE orders SET state = 'done' WHERE id < 10", false, true, 256, 0},
    {"SELECT COUNT(*) FROM customers", false, true, 0, 0},
    {"DELETE FROM sessions WHERE id > 900", false, true, 128, 0},
    {"FLUSH TABLES", false, false, 64, 0},
    {"CONNECT new-client", true, true, 0, 0},
};

constexpr OpTemplate kDesktopOps[] = {
    {"click:panel-menu", false, false, 0, 0},
    {"open:file-manager /home/user", false, false, 32, 0},
    {"edit:spreadsheet-cell", false, false, 64, 0},
    {"drag:launcher-icon", false, false, 0, 0},
    {"open:calendar-view", false, false, 32, 0},
    {"play:notification-sound", false, false, 0, 0},
    {"save:document", false, false, 256, 0},
};

/// A remote item's client is 10.0.0.N, N drawn from [kFirstClient,
/// kLastClient].
constexpr std::int64_t kFirstClient = 2;
constexpr std::int64_t kLastClient = 250;

/// "10.0.0.N", from a table built once and kept for the life of the
/// process, so an item's address is a view of static storage.
std::string_view client_address(std::int64_t n) {
  static const auto table = [] {
    std::array<std::string, kLastClient - kFirstClient + 1> addresses;
    for (std::int64_t i = kFirstClient; i <= kLastClient; ++i) {
      std::string& address = addresses[static_cast<std::size_t>(i - kFirstClient)];
      address = "10.0.0.";
      address += std::to_string(i);
    }
    return addresses;
  }();
  return table.at(static_cast<std::size_t>(n - kFirstClient));
}

std::span<const OpTemplate> ops_for(core::AppId app) {
  switch (app) {
    case core::AppId::kApache:
      return kWebOps;
    case core::AppId::kMysql:
      return kDbOps;
    case core::AppId::kGnome:
      return kDesktopOps;
  }
  return kWebOps;
}

}  // namespace

Workload make_workload(core::AppId app, const WorkloadSpec& spec) {
  util::Rng rng(spec.seed ^ (static_cast<std::uint64_t>(app) << 32));
  const auto ops = ops_for(app);

  Workload w;
  w.items.reserve(spec.length);
  for (std::size_t i = 0; i < spec.length; ++i) {
    const OpTemplate& t = ops[static_cast<std::size_t>(rng.below(ops.size()))];
    WorkItem item;
    item.id = static_cast<int>(i);
    item.op = t.op;
    item.poison = spec.poison_at >= 0 && i == static_cast<std::size_t>(spec.poison_at);
    if (item.poison && !spec.poison_op.empty()) item.op = spec.poison_op;
    item.heavy = rng.chance(spec.heavy_rate);
    item.racy = rng.chance(spec.racy_rate);
    if (t.dns) item.lookup_host = "peer.example.net";
    if (t.remote) {
      item.client_address =
          client_address(rng.between(kFirstClient, kLastClient));
    }
    item.write_bytes = t.write_bytes;
    item.entropy_bits = t.entropy_bits;
    w.items.push_back(std::move(item));
  }
  return w;
}

}  // namespace faultstudy::apps
