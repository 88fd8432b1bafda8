// Exact allocation counts of the trial hot path's building blocks.
//
// This binary replaces the global operator new with one that counts, so it
// is its own test executable: no other suite runs under the counter. Each
// pin measures one warm operation (its containers already sized by a first
// round) and compares the count with an exact integer, which holds on any
// toolchain that keeps the standard containers' growth rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>

#include "apps/database.hpp"
#include "apps/desktop.hpp"
#include "apps/http/request.hpp"
#include "apps/sql/parser.hpp"
#include "apps/webserver.hpp"
#include "apps/workload.hpp"
#include "env/environment.hpp"

namespace {
thread_local std::size_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace faultstudy {
namespace {

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocs_during(Fn&& fn) {
  const std::size_t before = t_allocs;
  fn();
  return t_allocs - before;
}

/// Every op the database workload draws (kDbOps), in first-drawn order.
std::vector<std::string> database_ops() {
  std::vector<std::string> ops;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    apps::WorkloadSpec spec;
    spec.seed = seed;
    spec.poison_at = -1;
    for (const auto& item : apps::make_workload(core::AppId::kMysql, spec).items) {
      if (std::find(ops.begin(), ops.end(), item.op) == ops.end()) {
        ops.emplace_back(item.op);
      }
    }
  }
  return ops;
}

/// The three apps, each started on `e`.
struct StartedApps {
  explicit StartedApps(env::Environment& e) {
    for (apps::SimApp* app : all()) {
      if (!app->start(e)) ADD_FAILURE() << app->name() << " did not start";
    }
  }
  std::array<apps::SimApp*, 3> all() { return {&web, &db, &desktop}; }

  apps::WebServer web;
  apps::Database db;
  apps::Desktop desktop;
};

TEST(AllocPins, WarmProcessTableCycleAllocatesNothing) {
  env::ProcessTable procs(64);
  const auto cycle = [&procs] {
    for (int i = 0; i < 6; ++i) procs.spawn("apache");
    procs.spawn("mysqld");
    procs.kill_owned_by("apache");
  };
  cycle();
  const std::size_t allocs = allocs_during(cycle);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(procs.count_owned_by("mysqld"), 2u);
}

TEST(AllocPins, FdAcquireAfterReleaseAllAllocatesNothing) {
  env::FdTable fds(256);
  ASSERT_TRUE(fds.acquire("apache", 24));
  EXPECT_EQ(fds.release_all("apache"), 24u);
  bool acquired = false;
  const std::size_t allocs =
      allocs_during([&] { acquired = fds.acquire("apache", 24); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(acquired);
  EXPECT_EQ(fds.held_by("apache"), 24u);
}

TEST(AllocPins, PortRebindAllocatesNothing) {
  env::Network net;
  ASSERT_TRUE(net.bind_port(80, "apache"));
  EXPECT_EQ(net.release_ports_of("apache"), 1u);
  bool bound = false;
  const std::size_t allocs =
      allocs_during([&] { bound = net.bind_port(80, "apache"); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(bound);
}

TEST(AllocPins, CatalogEngineCopyAllocatesOnce) {
  env::Environment e;
  apps::Database db;
  ASSERT_TRUE(db.start(e));
  ASSERT_EQ(db.engine().table_count(), 4u);
  // One vector of (name, table) pairs; the names fit the small-string
  // buffer and the tables share their schema and rows.
  const std::size_t allocs = allocs_during([&db] {
    const apps::sql::Engine copy = db.engine();
    (void)copy;
  });
  EXPECT_EQ(allocs, 1u);
}

TEST(AllocPins, WarmRestoreAllocatesNothing) {
  env::Environment e;
  apps::WebServer web;
  apps::Database db;
  apps::Desktop desktop;
  for (apps::SimApp* app : {static_cast<apps::SimApp*>(&web),
                            static_cast<apps::SimApp*>(&db),
                            static_cast<apps::SimApp*>(&desktop)}) {
    SCOPED_TRACE(std::string(app->name()));
    ASSERT_TRUE(app->start(e));
    const apps::SnapshotPtr snap = app->snapshot();
    ASSERT_TRUE(app->restore(snap, e));
    bool restored = false;
    const std::size_t allocs =
        allocs_during([&] { restored = app->restore(snap, e); });
    EXPECT_EQ(allocs, 0u);
    EXPECT_TRUE(restored);
  }
}

TEST(AllocPins, WarmApacheRejuvenateAllocatesNothing) {
  env::Environment e;
  apps::WebServer web;
  ASSERT_TRUE(web.start(e));
  const apps::Workload workload = apps::make_workload(core::AppId::kApache);
  const auto serve = [&] {
    for (const apps::WorkItem& item : workload.items) (void)web.handle(item, e);
  };
  serve();
  web.rejuvenate(e);
  serve();
  ASSERT_FALSE(e.disk().list_prefix("/var/cache/apache").empty());
  // Pruning the object cache erases the files in place.
  const std::size_t allocs = allocs_during([&] { web.rejuvenate(e); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(e.disk().used_under("/var/cache/apache"), 0u);
  EXPECT_TRUE(e.disk().list_prefix("/var/cache/apache").empty());
}

// The pins below are the trial item loop's former allocation sites; each
// "Was" gives the count before the loop stopped allocating.

// Was: apache 36, mysqld 90, gnome-session 0 (request parsing, cache
// paths, the SQL engine's rows and scratch).
TEST(AllocPins, WarmWorkloadPassAllocatesNothing) {
  env::Environment e;
  StartedApps started(e);
  for (apps::SimApp* app : started.all()) {
    SCOPED_TRACE(std::string(app->name()));
    const apps::Workload workload = apps::make_workload(app->id());
    const auto pass = [&] {
      for (const apps::WorkItem& item : workload.items) {
        ASSERT_FALSE(apps::is_failure(app->handle(item, e)));
      }
    };
    pass();
    const std::size_t allocs = allocs_during(pass);
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(workload.size(), 40u);
  }
}

// Was: 8 for the ORDER BY LIMIT 5 SELECT, 2 for the UPDATE, 1 each for
// the INSERT and the DELETE, 0 for the others.
TEST(AllocPins, EachDatabaseOpThroughHandleAllocatesNothingWhenWarm) {
  const std::vector<std::string> ops = database_ops();
  ASSERT_EQ(ops.size(), 7u);
  env::Environment e;
  apps::Database db;
  ASSERT_TRUE(db.start(e));
  for (const std::string& op : ops) {
    SCOPED_TRACE(op);
    apps::WorkItem item;
    item.op = op;
    ASSERT_FALSE(apps::is_failure(db.handle(item, e)));
    apps::StepResult result;
    const std::size_t allocs =
        allocs_during([&] { result = db.handle(item, e); });
    EXPECT_EQ(allocs, 0u);
    EXPECT_FALSE(apps::is_failure(result));
  }
}

// Was: 116 (a map node and a path string per re-created cache file,
// and request parsing).
TEST(AllocPins, WarmApacheCacheFillAfterRejuvenateAllocatesNothing) {
  env::Environment e;
  apps::WebServer web;
  ASSERT_TRUE(web.start(e));
  const apps::Workload workload = apps::make_workload(core::AppId::kApache);
  const auto serve = [&] {
    for (const apps::WorkItem& item : workload.items) (void)web.handle(item, e);
  };
  serve();
  const std::uint64_t filled = e.disk().used_under("/var/cache/apache");
  ASSERT_GT(filled, 0u);
  web.rejuvenate(e);
  const std::size_t allocs = allocs_during(serve);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(e.disk().used_under("/var/cache/apache"), filled);
}

// Was: 2 (the URI and the path outgrow the small-string buffer).
TEST(AllocPins, ParseRequestAllocatesNothing) {
  constexpr std::string_view kLine = "GET /docs/manual.html?lang=en HTTP/1.0";
  apps::http::ParseOutcome parsed;
  const std::size_t allocs = allocs_during(
      [&] { parsed = apps::http::parse_request(kLine, {}); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(parsed.status, apps::http::ParseStatus::kOk);
  EXPECT_EQ(parsed.request.path, "/docs/manual.html");
  EXPECT_EQ(parsed.request.query, "lang=en");
}

// Was: apache 1, mysqld 2, gnome-session 1 (a make_shared per
// checkpoint, and the engine's table vector).
TEST(AllocPins, WarmSnapshotRefillAllocatesNothing) {
  env::Environment e;
  StartedApps started(e);
  for (apps::SimApp* app : started.all()) {
    SCOPED_TRACE(std::string(app->name()));
    // A mechanism holds one checkpoint and replaces it after each item.
    apps::SnapshotPtr held = app->snapshot();
    held = app->snapshot();
    held = app->snapshot();
    const std::size_t allocs = allocs_during([&] { held = app->snapshot(); });
    EXPECT_EQ(allocs, 0u);
    EXPECT_TRUE(app->restore(held, e));
  }
}

TEST(AllocPins, CachedStatementIsNotReparsed) {
  constexpr const char* kOp = "UNLOCK TABLES";
  // Parsing the op allocates, and running it does not.
  EXPECT_GT(allocs_during([] { (void)apps::sql::parse(kOp); }), 0u);
  apps::Database first;
  ASSERT_EQ(first.execute(kOp).status, apps::sql::ExecStatus::kOk);
  apps::Database second;
  apps::sql::ExecStatus status = apps::sql::ExecStatus::kError;
  const std::size_t allocs =
      allocs_during([&] { status = second.execute(kOp).status; });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(status, apps::sql::ExecStatus::kOk);
}

}  // namespace
}  // namespace faultstudy
