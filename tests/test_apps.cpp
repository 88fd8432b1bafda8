// Tests for the simulated applications: lifecycle, resource footprints,
// checkpoint/restore semantics, rejuvenation, and per-trigger fault
// activation mechanics.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/database.hpp"
#include "apps/desktop.hpp"
#include "apps/webserver.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::apps {
namespace {

WorkItem item(std::string_view op, int id = 0) {
  WorkItem w;
  w.id = id;
  w.op = op;
  return w;
}

// ----------------------------------------------------------- lifecycle

TEST(WebServer, StartAcquiresFootprint) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  EXPECT_TRUE(server.running());
  EXPECT_EQ(e.fds().held_by("apache"), WebServerConfig{}.base_fds);
  EXPECT_EQ(e.processes().count_owned_by("apache"),
            WebServerConfig{}.worker_pool);
  EXPECT_TRUE(e.network().port_bound(80));
  EXPECT_EQ(e.network().port_owner(80), "apache");
}

TEST(WebServer, StopReleasesEverything) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  server.stop(e);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(e.fds().used(), 0u);
  EXPECT_EQ(e.processes().used(), 0u);
  EXPECT_FALSE(e.network().port_bound(80));
}

TEST(WebServer, StartFailsWithoutFds) {
  env::EnvironmentConfig config;
  config.fd_slots = 2;  // fewer than the server needs
  env::Environment e(config);
  WebServer server;
  EXPECT_FALSE(server.start(e));
  EXPECT_EQ(e.fds().used(), 0u);  // nothing half-acquired
}

TEST(WebServer, StartFailsWhenPortTaken) {
  env::Environment e;
  e.network().bind_port(80, "squatter");
  WebServer server;
  EXPECT_FALSE(server.start(e));
  EXPECT_EQ(e.fds().used(), 0u);
}

TEST(WebServer, HandlesWorkload) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  const auto w = make_workload(core::AppId::kApache, {});
  for (const auto& i : w.items) {
    const auto r = server.handle(i, e);
    EXPECT_FALSE(is_failure(r)) << r.detail;
  }
  EXPECT_EQ(server.requests_served(), w.size());
}

TEST(Database, LifecycleAndCatalog) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  EXPECT_TRUE(e.network().port_bound(3306));
  const auto before = db.rows("orders");
  EXPECT_FALSE(is_failure(
      db.handle(item("INSERT INTO orders VALUES (9001, 'new')"), e)));
  EXPECT_EQ(db.rows("orders"), before + 1);
  EXPECT_FALSE(
      is_failure(db.handle(item("DELETE FROM sessions WHERE id = 1"), e)));
  EXPECT_EQ(db.rows("sessions"), 19u);
  db.stop(e);
  EXPECT_EQ(e.fds().used(), 0u);
}

TEST(Desktop, LifecycleAndWindows) {
  env::Environment e;
  Desktop desktop;
  ASSERT_TRUE(desktop.start(e));
  EXPECT_EQ(desktop.open_windows(), 1u);
  EXPECT_FALSE(is_failure(desktop.handle(item("open:file-manager"), e)));
  EXPECT_EQ(desktop.open_windows(), 2u);
  EXPECT_FALSE(is_failure(desktop.handle(item("play:notification-sound"), e)));
  desktop.stop(e);
}

TEST(Apps, HandleWhenStoppedIsError) {
  env::Environment e;
  WebServer server;
  const auto r = server.handle(item("GET /"), e);
  EXPECT_EQ(r.status, StepStatus::kError);
}

// ------------------------------------------------- snapshot / restore

TEST(Snapshot, RestoresCountersAndFootprint) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  for (int i = 0; i < 5; ++i) server.handle(item("GET /", i), e);
  const auto snap = server.snapshot();
  for (int i = 5; i < 9; ++i) server.handle(item("GET /", i), e);
  EXPECT_EQ(server.requests_served(), 9u);

  ASSERT_TRUE(server.restore(snap, e));
  EXPECT_EQ(server.requests_served(), 5u);
  EXPECT_EQ(e.fds().held_by("apache"), WebServerConfig{}.base_fds);
  EXPECT_TRUE(e.network().port_bound(80));
  EXPECT_TRUE(server.running());
}

TEST(Snapshot, DatabaseTablesRestored) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  const auto snap = db.snapshot();
  db.handle(item("INSERT INTO orders VALUES (9001, 'a')"), e);
  db.handle(item("INSERT INTO orders VALUES (9002, 'b')"), e);
  const auto grown = db.rows("orders");
  EXPECT_EQ(grown, 202u);
  ASSERT_TRUE(db.restore(snap, e));
  EXPECT_EQ(db.rows("orders"), grown - 2);
}

TEST(Snapshot, WrongSnapshotTypeRejected) {
  env::Environment e;
  WebServer server;
  Database db;
  ASSERT_TRUE(server.start(e));
  ASSERT_TRUE(db.start(e));
  EXPECT_FALSE(server.restore(db.snapshot(), e));
}

TEST(Snapshot, RestorePreservesLeakedFootprint) {
  // The EDN crux: a truly generic restore brings leaked descriptors back.
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kFdExhaustion;
  fault.symptom = core::Symptom::kErrorReturn;
  fault.fds_per_leak = 4;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(is_failure(server.handle(item("GET /", i), e)));
  }
  const auto leaked_footprint = server.fd_footprint();
  EXPECT_EQ(leaked_footprint, WebServerConfig{}.base_fds + 12);

  const auto snap = server.snapshot();
  ASSERT_TRUE(server.restore(snap, e));
  EXPECT_EQ(server.fd_footprint(), leaked_footprint);
  EXPECT_EQ(e.fds().held_by("apache"), leaked_footprint);
}

TEST(Rejuvenate, DropsLeaksToBaseline) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kFdExhaustion;
  fault.symptom = core::Symptom::kErrorReturn;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  for (int i = 0; i < 3; ++i) server.handle(item("GET /", i), e);
  EXPECT_GT(server.fd_footprint(), WebServerConfig{}.base_fds);

  server.rejuvenate(e);
  EXPECT_EQ(server.fd_footprint(), WebServerConfig{}.base_fds);
  EXPECT_EQ(server.leaked_units(), 0u);
  EXPECT_TRUE(server.running());
}

TEST(Rejuvenate, WebServerPrunesCacheAndLog) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  WorkItem w = item("GET /big");
  w.write_bytes = 512;
  server.handle(w, e);
  EXPECT_GT(e.disk().used(), 0u);
  server.rejuvenate(e);
  EXPECT_EQ(e.disk().used_under("/var/cache/apache"), 0u);
  EXPECT_EQ(e.disk().stat("/var/log/apache/access_log")->size, 0u);
}

// ------------------------------------------------- fault mechanics

TEST(Fault, PoisonItemCrashesDeterministically) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  fault.symptom = core::Symptom::kCrash;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  WorkItem poison = item("GET /very-long-url");
  poison.poison = true;
  const auto r = server.handle(poison, e);
  EXPECT_EQ(r.status, StepStatus::kCrash);
  EXPECT_FALSE(server.running());
}

TEST(Fault, NonPoisonItemsUnaffected) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  EXPECT_FALSE(is_failure(server.handle(item("GET /normal"), e)));
}

TEST(Fault, SymptomControlsFailureKind) {
  env::Environment e;
  Desktop desktop;
  ActiveFault fault;
  fault.trigger = core::Trigger::kUiEventSequence;
  fault.symptom = core::Symptom::kHang;
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  WorkItem poison = item("click:panel-menu");
  poison.poison = true;
  EXPECT_EQ(desktop.handle(poison, e).status, StepStatus::kHang);
}

TEST(Fault, DeterministicLeakFailsAtLimit) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kDeterministicLeak;
  fault.symptom = core::Symptom::kCrash;
  fault.leak_limit = 5;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    if (is_failure(server.handle(item("GET /", i), e))) ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(server.leaked_units(), 5u);
}

TEST(Fault, HostnameChangeBites) {
  env::Environment e;
  Desktop desktop;
  ActiveFault fault;
  fault.trigger = core::Trigger::kHostnameChanged;
  fault.symptom = core::Symptom::kErrorReturn;
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  EXPECT_FALSE(is_failure(desktop.handle(item("open:calendar-view"), e)));
  e.set_hostname("renamed");
  EXPECT_TRUE(is_failure(desktop.handle(item("open:calendar-view"), e)));
  // Rejuvenation re-reads the hostname.
  desktop.rejuvenate(e);
  EXPECT_FALSE(is_failure(desktop.handle(item("open:calendar-view"), e)));
}

TEST(Fault, DnsErrorOnlyOnLookupItems) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kDnsError;
  fault.symptom = core::Symptom::kErrorReturn;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  e.dns().break_until(env::DnsHealth::kErroring, 1000);

  EXPECT_FALSE(is_failure(server.handle(item("GET /static"), e)));
  WorkItem lookup = item("GET /cgi");
  lookup.lookup_host = "peer.example.net";
  EXPECT_TRUE(is_failure(server.handle(lookup, e)));
  // After the DNS heals, the same item succeeds.
  e.advance(2000);
  EXPECT_FALSE(is_failure(server.handle(lookup, e)));
}

TEST(Fault, RaceTriggersOnlyInHazardWindow) {
  env::Environment e;
  Database db;
  ActiveFault fault;
  fault.trigger = core::Trigger::kRaceCondition;
  fault.symptom = core::Symptom::kCrash;
  fault.hazard_start = 0.0;
  fault.hazard_width = 1.0;  // every interleaving is hazardous
  db.arm_fault(fault);
  ASSERT_TRUE(db.start(e));
  WorkItem racy = item("SELECT 1");
  racy.racy = true;
  EXPECT_TRUE(is_failure(db.handle(racy, e)));

  ActiveFault never = fault;
  never.hazard_width = 0.0;  // empty window: never triggers
  env::Environment e2;       // fresh environment (port 3306 is free here)
  Database db2;
  db2.arm_fault(never);
  ASSERT_TRUE(db2.start(e2));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(is_failure(db2.handle(racy, e2)));
  }
}

TEST(Fault, UnknownTransientFiresExactlyOnce) {
  env::Environment e;
  Desktop desktop;
  ActiveFault fault;
  fault.trigger = core::Trigger::kUnknownTransient;
  fault.symptom = core::Symptom::kCrash;
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  EXPECT_TRUE(is_failure(desktop.handle(item("click:panel-menu"), e)));
  // The app crashed; bring it back without touching the hidden condition.
  const auto snap = desktop.snapshot();
  ASSERT_TRUE(desktop.restore(snap, e));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(is_failure(desktop.handle(item("click:panel-menu", i), e)));
  }
}

TEST(Fault, ProcessTableChildrenAccumulate) {
  env::EnvironmentConfig config;
  config.process_slots = WebServerConfig{}.worker_pool + 3;
  env::Environment e(config);
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kProcessTableFull;
  fault.symptom = core::Symptom::kHang;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  WorkItem heavy = item("POST /cgi-bin/form");
  heavy.heavy = true;
  EXPECT_FALSE(is_failure(server.handle(heavy, e)));
  EXPECT_FALSE(is_failure(server.handle(heavy, e)));
  EXPECT_FALSE(is_failure(server.handle(heavy, e)));
  // Table now full of hung children: next heavy item fails.
  EXPECT_TRUE(is_failure(server.handle(heavy, e)));
  EXPECT_EQ(e.processes().count_hung_owned_by("apache"), 3u);
}

TEST(Fault, EntropyShortageOnSslItems) {
  env::EnvironmentConfig config;
  config.entropy_bits = 0;
  config.entropy_refill_per_tick = 0;
  env::Environment e(config);
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kEntropyShortage;
  fault.symptom = core::Symptom::kErrorReturn;  // keep the server running
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  WorkItem ssl = item("GET https://secure/checkout");
  ssl.entropy_bits = 256;
  EXPECT_TRUE(is_failure(server.handle(ssl, e)));
  EXPECT_FALSE(is_failure(server.handle(item("GET /plain"), e)));
}

// ------------------------------------- catalog image and statement cache

/// Everything observable about a database's engine: every table's live
/// rows and index (in scan order, with the consistency verdict), the lock
/// state and the armed fault flags.
struct DbState {
  std::vector<std::vector<sql::Row>> rows;
  std::vector<std::vector<std::pair<sql::Value, sql::Slot>>> index;
  std::vector<std::size_t> index_entries;
  std::vector<bool> index_ok;
  bool holds_lock = false;
  std::string locked_table;
  sql::SqlFaultFlags flags;

  bool operator==(const DbState&) const = default;
};

DbState state_of(const Database& db) {
  DbState s;
  for (const char* name : {"orders", "customers", "sessions", "audit_log"}) {
    const sql::Table* t = db.engine().find_table(name);
    if (t == nullptr) {
      ADD_FAILURE() << "missing table " << name;
      continue;
    }
    auto& rows = s.rows.emplace_back();
    for (sql::Slot slot = 0; slot < t->slot_count(); ++slot) {
      if (!t->is_live(slot)) continue;
      const auto row = t->row(slot);
      rows.emplace_back(row.begin(), row.end());
    }
    auto& index = s.index.emplace_back();
    for (auto c = t->index_scan(); !c.done(); c.next()) {
      index.emplace_back(c.key(), c.slot());
    }
    s.index_entries.push_back(t->index_entries());
    s.index_ok.push_back(t->check_index());
  }
  s.holds_lock = db.engine().holds_lock();
  s.locked_table = db.engine().locked_table();
  s.flags = db.engine().fault_flags();
  return s;
}

/// A write of every kind the engine has, plus a lock left held.
void churn(Database& db) {
  for (const char* op :
       {"INSERT INTO orders VALUES (9001, 'new')",
        "UPDATE orders SET state = 'done' WHERE id < 10",
        "UPDATE customers SET id = 500 WHERE id = 3",
        "DELETE FROM sessions WHERE id > 4", "OPTIMIZE TABLE sessions",
        "LOCK TABLES orders WRITE"}) {
    ASSERT_EQ(db.execute(op).status, sql::ExecStatus::kOk) << op;
  }
}

TEST(DatabaseImage, WriteAfterSnapshotLeavesSnapshotAndImageUntouched) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  const DbState fresh = state_of(db);
  const auto snap = db.snapshot();
  churn(db);
  EXPECT_NE(state_of(db), fresh);

  ASSERT_TRUE(db.restore(snap, e));
  EXPECT_EQ(state_of(db), fresh);
  env::Environment e2;
  Database second;
  ASSERT_TRUE(second.start(e2));
  EXPECT_EQ(state_of(second), fresh);
}

TEST(DatabaseImage, DatabasesStartedFromOneImageAreIndependent) {
  env::Environment e1;
  env::Environment e2;
  Database a;
  Database b;
  ASSERT_TRUE(a.start(e1));
  ASSERT_TRUE(b.start(e2));
  const DbState fresh = state_of(a);
  churn(a);
  EXPECT_EQ(state_of(b), fresh);
  ASSERT_EQ(b.execute("DELETE FROM orders").status, sql::ExecStatus::kOk);
  EXPECT_EQ(b.rows("orders"), 0u);
  EXPECT_EQ(a.rows("orders"), 201u);
}

TEST(DatabaseImage, RestoreOfSnapshotIsStateIdentical) {
  env::Environment e;
  Database db;
  ActiveFault fault;
  fault.fault_id = "mysql-ei-05";
  db.arm_fault(fault);
  ASSERT_TRUE(db.start(e));
  churn(db);  // leaves a lock held and storage diverged from the image
  const DbState before = state_of(db);
  EXPECT_TRUE(before.holds_lock);
  EXPECT_TRUE(before.flags.flush_after_lock_bug);
  const auto snap = db.snapshot();

  ASSERT_EQ(db.execute("UNLOCK TABLES").status, sql::ExecStatus::kOk);
  ASSERT_EQ(db.execute("DELETE FROM orders WHERE id < 100").status,
            sql::ExecStatus::kOk);
  db.rejuvenate(e);
  ASSERT_TRUE(db.restore(snap, e));
  EXPECT_EQ(state_of(db), before);
  ASSERT_TRUE(db.restore(db.snapshot(), e));
  EXPECT_EQ(state_of(db), before);
}

TEST(DatabaseImage, UpdateBugCrashesTheSameWithALiveSnapshot) {
  // mysql-ei-01 against orders storage the table owns outright, shares
  // with a live snapshot, or still shares with the catalog image: the same
  // crash mid-statement, leaving the same half-applied rows.
  enum class Sharing { kOwned, kSnapshot, kImage };
  const auto run = [](Sharing sharing) {
    env::Environment e;
    Database db;
    ActiveFault fault;
    fault.fault_id = "mysql-ei-01";
    db.arm_fault(fault);
    EXPECT_TRUE(db.start(e));
    if (sharing != Sharing::kImage) {
      // Any write takes the orders storage private.
      EXPECT_EQ(db.execute("UPDATE orders SET state = 'open' WHERE id = 0")
                    .status,
                sql::ExecStatus::kOk);
    }
    SnapshotPtr snap;
    if (sharing == Sharing::kSnapshot) snap = db.snapshot();
    const DbState before = state_of(db);
    const StepResult r =
        db.handle(item("UPDATE orders SET id = 999999 WHERE id < 100"), e);
    EXPECT_EQ(r.status, StepStatus::kCrash);
    EXPECT_NE(r.detail.find("duplicate values in the index"),
              std::string::npos);
    EXPECT_FALSE(db.running());
    const DbState after = state_of(db);
    if (snap != nullptr) {
      EXPECT_TRUE(db.restore(snap, e));
      EXPECT_EQ(state_of(db), before);
    }
    return after;
  };
  const DbState owned = run(Sharing::kOwned);
  EXPECT_FALSE(owned.index_ok[0]);
  EXPECT_EQ(std::get<std::int64_t>(owned.rows[0][0][0]), 999999);
  EXPECT_EQ(std::get<std::int64_t>(owned.rows[0][1][0]), 1);
  EXPECT_EQ(run(Sharing::kSnapshot), owned);
  EXPECT_EQ(run(Sharing::kImage), owned);
}

TEST(DatabaseImage, DifferentOrdersRowsGetDifferentImages) {
  const auto started_rows = [](std::size_t orders_rows) {
    env::Environment e;
    DatabaseConfig config;
    config.orders_rows = orders_rows;
    Database db(config);
    EXPECT_TRUE(db.start(e));
    return db.rows("orders");
  };
  EXPECT_EQ(started_rows(5), 5u);
  EXPECT_EQ(started_rows(200), 200u);
  EXPECT_EQ(started_rows(5), 5u);
  EXPECT_EQ(started_rows(0), 0u);
}

TEST(DatabaseImage, LanesStartAndMutateFromOneImage) {
  // Every lane starts from the same process-wide image (two of them, built
  // concurrently on first use) and writes to its own copy. Under TSan this
  // is the cross-lane check on the shared storage.
  constexpr std::size_t kDatabases = 16;
  std::vector<std::uint64_t> orders(kDatabases);
  std::vector<char> intact(kDatabases);  // not vector<bool>: one byte a lane
  util::ThreadPool pool(4);
  pool.for_index(kDatabases, [&](std::size_t i) {
    env::Environment e;
    DatabaseConfig config;
    config.orders_rows = i % 2 == 0 ? 150 : 151;
    Database db(config);
    if (!db.start(e)) return;
    const auto snap = db.snapshot();
    churn(db);
    db.execute("DELETE FROM orders WHERE id < " + std::to_string(i));
    db.rejuvenate(e);
    orders[i] = db.rows("orders");
    intact[i] = db.restore(snap, e) && db.rows("orders") == config.orders_rows;
  });
  for (std::size_t i = 0; i < kDatabases; ++i) {
    const std::uint64_t rows = i % 2 == 0 ? 150 : 151;
    EXPECT_EQ(orders[i], rows + 1 - i) << i;
    EXPECT_TRUE(intact[i]) << i;
  }
}

TEST(Database, SharedStatementCacheAcrossLanes) {
  // Four lanes of Databases run the workload ops through the process-wide
  // statement cache, racing to insert ops no other test runs, and must get
  // exactly what one lane gets running the same Databases serially. Under
  // TSan this is the cross-lane check on the shared cache.
  constexpr std::size_t kDatabases = 16;
  const auto ops_for = [](std::size_t i) {
    WorkloadSpec spec;
    spec.seed = 100 + i % 4;
    spec.poison_at = -1;
    std::vector<std::string> ops;
    for (const WorkItem& w : make_workload(core::AppId::kMysql, spec).items) {
      if (!w.op.starts_with("CONNECT")) ops.emplace_back(w.op);
    }
    for (int k = 0; k < 24; ++k) {
      ops.push_back("SELECT id, state FROM orders WHERE id > " +
                    std::to_string(k) + " AND id < " +
                    std::to_string(4000 + k) + " ORDER BY id DESC LIMIT 3");
      ops.push_back("UPDATE orders SET state = 'lane" + std::to_string(k) +
                    "' WHERE id = " + std::to_string(k + i));
    }
    ops.push_back("SELEC id FROM orders WHERE id = 4242");  // never cached
    return ops;
  };
  using Outcome = std::tuple<sql::ExecStatus, std::string,
                             std::vector<sql::Row>, std::int64_t>;
  const auto run = [&ops_for](std::size_t i) {
    env::Environment e;
    Database db;
    std::vector<Outcome> out;
    if (!db.start(e)) return out;
    for (const std::string& op : ops_for(i)) {
      sql::ExecResult r = db.execute(op);
      out.emplace_back(r.status, std::move(r.message), std::move(r.rows),
                       r.affected);
    }
    return out;
  };

  std::vector<std::vector<Outcome>> lanes(kDatabases);
  util::ThreadPool pool(4);
  pool.for_index(kDatabases, [&](std::size_t i) { lanes[i] = run(i); });
  for (std::size_t i = 0; i < kDatabases; ++i) {
    const std::vector<Outcome> serial = run(i);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(lanes[i], serial) << i;
  }
}

TEST(DatabaseStatementCache, UnparsableOpFailsTheSameOnEveryCall) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  const sql::ExecResult first = db.execute("SELEC * FROM orders");
  ASSERT_EQ(first.status, sql::ExecStatus::kError);
  EXPECT_FALSE(first.message.empty());
  for (int i = 0; i < 3; ++i) {
    const sql::ExecResult again = db.execute("SELEC * FROM orders");
    EXPECT_EQ(again.status, first.status);
    EXPECT_EQ(again.message, first.message);
  }
  // Statement errors go back to the client; the server keeps serving.
  EXPECT_FALSE(is_failure(db.handle(item("SELEC * FROM orders"), e)));
  EXPECT_EQ(db.execute("SELECT COUNT(*) FROM orders").affected, 200);
}

TEST(DatabaseStatementCache, RepeatedOpsSeeCurrentState) {
  // A cached statement is re-run against the engine as it is now, not
  // against the state it was first parsed under.
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  const std::string insert = "INSERT INTO orders VALUES (9001, 'new')";
  const std::string count = "SELECT COUNT(*) FROM orders";
  EXPECT_EQ(db.execute(count).affected, 200);
  const auto snap = db.snapshot();
  db.execute(insert);
  db.execute(insert);
  EXPECT_EQ(db.execute(count).affected, 202);
  ASSERT_TRUE(db.restore(snap, e));
  EXPECT_EQ(db.execute(count).affected, 200);
}

}  // namespace
}  // namespace faultstudy::apps
