#include "apps/database.hpp"

#include <functional>
#include <map>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "env/interleave.hpp"
#include "util/strings.hpp"

namespace faultstudy::apps {

namespace {

sql::Engine build_catalog(std::size_t orders_rows) {
  sql::Engine engine;
  engine.execute("CREATE TABLE orders (id INT, state TEXT)");
  engine.execute("CREATE TABLE customers (id INT, name TEXT)");
  engine.execute("CREATE TABLE sessions (id INT, expires INT)");
  engine.execute("CREATE TABLE audit_log (id INT, entry TEXT)");  // empty
  for (std::size_t i = 0; i < orders_rows; ++i) {
    engine.execute("INSERT INTO orders VALUES (" + std::to_string(i) +
                   ", 'open')");
  }
  for (int i = 0; i < 40; ++i) {
    engine.execute("INSERT INTO customers VALUES (" + std::to_string(i) +
                   ", 'customer" + std::to_string(i) + "')");
  }
  for (int i = 0; i < 20; ++i) {
    engine.execute("INSERT INTO sessions VALUES (" + std::to_string(i) +
                   ", " + std::to_string(100 + i) + ")");
  }
  return engine;
}

/// The process-wide catalog image for `orders_rows`, built on first use.
/// Images are never erased or written: each keeps one reference to its
/// tables' row storage for the life of the process, so a lane's copy can
/// never mistake that storage for its own (sql::Table::detach).
const sql::Engine& catalog_image(std::size_t orders_rows) {
  static std::mutex mu;
  static std::map<std::size_t, const sql::Engine> images;
  const std::lock_guard lock(mu);
  auto it = images.find(orders_rows);
  if (it == images.end()) {
    it = images.emplace(orders_rows, build_catalog(orders_rows)).first;
  }
  return it->second;
}

/// The parsed form of `sql`, parsed on first use and kept for the life of
/// the process, shared by every Database on every lane. Entries are never
/// erased or written, so a returned reference stays valid and readers need
/// no lock once they hold it. Parsing runs outside the lock; when two lanes
/// race on a new op, the first insert wins and the other parse is dropped.
/// An op that fails to parse is not cached (it fails the same way every
/// time): nullptr, with the parser's message in `error`.
///
/// Each thread also keeps its own index of the entries it has looked up,
/// keyed by views of the entries' text, so a hit takes no lock. Taking the
/// mutex on every statement made a four-lane matrix pass about 10% slower.
/// The op set is closed (database.hpp), so each index stays small.
const std::vector<sql::Statement>* cached_statements(std::string_view sql,
                                                     std::string& error) {
  using Statements = std::vector<sql::Statement>;
  thread_local std::unordered_map<std::string_view, const Statements*> seen;
  if (auto it = seen.find(sql); it != seen.end()) return it->second;

  static std::mutex mu;
  static std::unordered_map<std::string, const Statements, util::StringHash,
                            std::equal_to<>>
      cache;
  const std::pair<const std::string, const Statements>* entry = nullptr;
  {
    const std::lock_guard lock(mu);
    if (auto it = cache.find(sql); it != cache.end()) entry = &*it;
  }
  if (entry == nullptr) {
    auto parsed = sql::parse(sql);
    if (!parsed.ok()) {
      error = parsed.error();
      return nullptr;
    }
    const std::lock_guard lock(mu);
    entry = &*cache.try_emplace(std::string(sql), std::move(parsed).value())
                  .first;
  }
  seen.emplace(entry->first, &entry->second);
  return &entry->second;
}

}  // namespace

Database::Database(const DatabaseConfig& config)
    : BaseApp(core::AppId::kMysql, "mysqld", config.base_fds,
              config.worker_pool),
      config_(config) {
  log_path_ = "/var/lib/mysql/data/orders.MYD";
}

void Database::arm_fault(const ActiveFault& fault) {
  BaseApp::arm_fault(fault);
  if (fault.fault_id == "mysql-edt-01") {
    // The signal-mask race is realized structurally (env/interleave):
    // handled in handle(), not by the generic hazard window.
    fault_->realized = true;
  }
  sql::SqlFaultFlags flags;
  if (fault.fault_id == "mysql-ei-01") {
    flags.update_index_scan_bug = true;
  } else if (fault.fault_id == "mysql-ei-02") {
    flags.orderby_empty_missing_init = true;
  } else if (fault.fault_id == "mysql-ei-03") {
    flags.count_on_empty_crash = true;
  } else if (fault.fault_id == "mysql-ei-04") {
    flags.optimize_missing_init = true;
  } else if (fault.fault_id == "mysql-ei-05") {
    flags.flush_after_lock_bug = true;
  } else {
    engine_.set_fault_flags(flags);
    return;
  }
  engine_.set_fault_flags(flags);
  fault_->realized = true;
}

void Database::create_catalog() {
  const auto flags = engine_.fault_flags();
  engine_ = catalog_image(config_.orders_rows);
  engine_.set_fault_flags(flags);
}

sql::ExecResult Database::execute(std::string_view sql) {
  std::string error;
  const auto* statements = cached_statements(sql, error);
  if (statements == nullptr) {
    return {sql::ExecStatus::kError, std::move(error), {}, 0};
  }
  return engine_.execute(*statements);
}

bool Database::start(env::Environment& e) {
  if (!base_start(e)) return false;
  if (!e.network().bind_port(config_.listen_port, "mysqld")) {
    base_stop(e);
    return false;
  }
  create_catalog();
  return true;
}

StepResult Database::handle(const WorkItem& item, env::Environment& e) {
  if (!running_) return {StepStatus::kError, "server not running"};
  if (item.op == kRejectedOp) return {};  // wrapper answered the client

  if (auto failure = check_fault(item, e); failure.has_value()) {
    if (failure->status == StepStatus::kCrash ||
        failure->status == StepStatus::kHang) {
      running_ = false;
    }
    return *failure;
  }

  // Realized signal-mask race (mysql-edt-01): the per-query signal window.
  // Thread A (the worker) runs ~12 atomic steps and re-computes its signal
  // mask at step 5, applying it at step 6; a signal landing in the gap
  // hits the torn-down handler state. Racy items model queries that
  // coincide with signal traffic.
  if (fault_.has_value() && fault_->fault_id == "mysql-edt-01" &&
      item.racy) {
    if (env::signal_mask_race(e.scheduler(), e.trace(), e.now(),
                              /*a_steps=*/12, /*mask_computed_at=*/5)) {
      running_ = false;
      return {StepStatus::kCrash,
              "signal delivered between mask computation and application"};
    }
  } else if (item.racy && !generic_race_armed()) {
    // Fixed server: the per-query signal window exists but the delivery
    // path takes the handler lock, so the traced shape is race-free.
    emit_synchronized_trace(e, env::trace_objects::kSignalMask,
                            "signal delivery under handler lock");
  }

  if (util::starts_with(item.op, "CONNECT")) {
    // New connections do a name lookup; the fixed server tolerates
    // failures (the buggy reverse-DNS path lives in check_fault).
    if (!item.client_address.empty()) {
      (void)e.dns().reverse(item.client_address);
    }
  } else {
    // Only the status matters here, so the statement builds no rows. An op
    // that does not parse is an error too: returned to the client.
    std::string parse_error;
    if (const auto* statements = cached_statements(item.op, parse_error)) {
      const sql::StatementStatus result = engine_.execute_status(*statements);
      if (result.status == sql::ExecStatus::kCrash) {
        running_ = false;
        return {StepStatus::kCrash, keep_detail(result.message)};
      }
    }
    // Statement errors are returned to the client, not server failures.
    if (item.write_bytes > 0) e.disk().append(log_path_, item.write_bytes);
  }

  e.advance(1);
  ++state_.items_handled;
  e.emit(obs::Event::kDbQuery);
  return {};
}

void Database::stop(env::Environment& e) { base_stop(e); }

void Database::save(Snapshot& into) const { into.engine = engine_; }

bool Database::load(const Snapshot& from, env::Environment& e) {
  engine_ = from.engine;
  e.network().release_ports_of("mysqld");
  if (!e.network().bind_port(config_.listen_port, "mysqld")) {
    running_ = false;
    return false;
  }
  return true;
}

void Database::rejuvenate(env::Environment& e) {
  base_rejuvenate(e);
  // Admin-driven cleanup: rotate the log, compact every table (OPTIMIZE
  // TABLE reclaims the data file back below the size limit), release any
  // session locks.
  e.disk().truncate("/var/lib/mysql/mysql.log");
  e.disk().truncate(log_path_);
  execute("UNLOCK TABLES");
  for (const char* table : {"orders", "customers", "sessions", "audit_log"}) {
    if (auto* t = engine_.find_table(table)) t->compact();
  }
  if (!e.network().port_bound(config_.listen_port)) {
    e.network().bind_port(config_.listen_port, "mysqld");
  }
}

std::uint64_t Database::rows(const std::string& table) const {
  const auto* t = engine_.find_table(table);
  return t == nullptr ? 0 : t->row_count();
}

}  // namespace faultstudy::apps
