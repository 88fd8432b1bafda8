// A MySQL-like database server on the simulated environment, executing its
// workload on a real mini SQL engine (apps/sql).
//
// Startup: binds port 3306, opens descriptors for the privilege tables and
// each table file, creates the catalog (orders, customers, sessions, and
// the empty audit table killer queries poke at). Per item: SQL statements
// run through the engine; CONNECT items do the reverse-DNS dance.
//
// Catalog image. The initial catalog depends only on `orders_rows`, so it
// is built once per value, by running its CREATE/INSERT statements through
// the engine, and kept for the life of the process as an immutable image
// shared by every Database on every lane. start() copies the image, which
// shares its row storage (sql/table.hpp), and re-applies the armed fault
// flags.
//
// Statement cache. The parsed form of every SQL op any Database has run is
// kept for the life of the process in one immutable cache, keyed by the
// op's text and shared by every Database on every lane, like the catalog
// image. Apps are built per trial, so a per-Database cache re-parsed each
// workload's ops every trial; the shared one parses each distinct op once
// per process. Each thread indexes the entries it has used, so a repeat
// lookup takes no lock. Ops that fail to parse are not cached (they fail
// the same way every time). The cache is not application state and is not
// part of a snapshot. It never evicts, so it stays bounded only because
// every op comes from a fixed set of texts (kDbOps in apps/workload.cpp
// and the poison ops in inject/registry.cpp): callers of execute() must
// not pass generated SQL text.
//
// Five study faults are implemented as real engine-level code bugs and are
// enabled when the armed fault carries the matching id:
//   mysql-ei-01  update-while-scanning index corruption
//   mysql-ei-02  ORDER BY over zero rows, missing initialization
//   mysql-ei-03  COUNT(*) on an empty table
//   mysql-ei-04  OPTIMIZE TABLE missing initialization
//   mysql-ei-05  FLUSH TABLES after LOCK TABLES
#pragma once

#include <string>
#include <string_view>

#include "apps/app.hpp"
#include "apps/sql/engine.hpp"

namespace faultstudy::apps {

struct DatabaseConfig {
  std::size_t base_fds = 32;    ///< privilege tables + per-table descriptors
  std::size_t worker_pool = 4;  ///< service threads (modelled as processes)
  int listen_port = 3306;
  std::size_t orders_rows = 200;
};

class Database final : public BaseApp {
 public:
  explicit Database(const DatabaseConfig& config = {});

  void arm_fault(const ActiveFault& fault) override;

  bool start(env::Environment& e) override;
  StepResult handle(const WorkItem& item, env::Environment& e) override;
  void stop(env::Environment& e) override;
  void rejuvenate(env::Environment& e) override;

  /// Runs one SQL op through the statement cache (parsed on first use),
  /// returning its rows. handle() runs every non-CONNECT item through the
  /// same cache but on the engine's status-only path (sql/engine.hpp).
  sql::ExecResult execute(std::string_view sql);

  std::uint64_t rows(const std::string& table) const;
  const sql::Engine& engine() const noexcept { return engine_; }

 private:
  void save(Snapshot& into) const override;
  bool load(const Snapshot& from, env::Environment& e) override;
  void create_catalog();

  DatabaseConfig config_;
  sql::Engine engine_;
};

}  // namespace faultstudy::apps
