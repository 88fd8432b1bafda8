// Exact allocation counts of the trial hot path's building blocks.
//
// This binary replaces the global operator new with one that counts, so it
// is its own test executable: no other suite runs under the counter. Each
// pin measures one warm operation (its containers already sized by a first
// round) and compares the count with an exact integer, which holds on any
// toolchain that keeps the standard containers' growth rules.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "apps/database.hpp"
#include "apps/desktop.hpp"
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
