// The mini SQL engine: parser + storage + executor, with the study's five
// described MySQL bugs implemented as real, individually-armable code
// faults:
//
//   update_index_scan_bug   (mysql-ei-01) UPDATE drives the index-scan
//       cursor and moves keys without removing the stale entry, "creating
//       duplicate values in the index"; the post-statement index check
//       crashes the server. The FIXED path is the paper's fix: "first
//       scanning for all matching rows and then updating the found rows".
//   orderby_empty_missing_init (mysql-ei-02) the sort path reads its state
//       uninitialized when the result set is empty.
//   count_on_empty_crash    (mysql-ei-03) COUNT(*) misses the check for
//       empty tables.
//   optimize_missing_init   (mysql-ei-04) OPTIMIZE TABLE uses a structure
//       a missing initialization statement left stale.
//   flush_after_lock_bug    (mysql-ei-05) FLUSH TABLES while the session
//       holds a LOCK TABLES lock re-enters the lock state machine.
//
// The engine is value-semantic: a copy captures the full catalog + data +
// lock state, which is what the Database application's snapshots and its
// shared catalog image rely on. The catalog is one vector of tables sorted
// by name, and tables share their schema and rows until first write
// (table.hpp), so a copy allocates that one vector, and assigning over an
// engine with as many tables allocates nothing. The first write
// to a table after a copy clones one flat block: a constant number of
// allocations, however many rows the table holds. A WHERE bounding column
// 0 with =, <, <=, > or >= re-checks the index's key range; any other
// WHERE walks the slots in place. Hits come out in slot order either way.
//
// Two ways to run a statement. execute() returns an ExecResult with the
// result rows. execute_status() runs the same code with no row sink: it
// makes every check and every write execute() makes (the five bugs, an
// unknown table or column, ORDER BY over zero rows) but builds no rows and
// skips the ORDER BY sort, which only orders rows. The Database app's
// handle() reads only a statement's status, so it runs that path. Both
// keep their per-statement scratch (the WHERE columns, the hits, an error
// text) in one buffer per thread, so a warm statement allocates nothing
// beyond what it writes or returns.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/sql/parser.hpp"
#include "apps/sql/table.hpp"

namespace faultstudy::apps::sql {

struct SqlFaultFlags {
  bool update_index_scan_bug = false;
  bool orderby_empty_missing_init = false;
  bool count_on_empty_crash = false;
  bool optimize_missing_init = false;
  bool flush_after_lock_bug = false;

  bool operator==(const SqlFaultFlags&) const = default;
};

enum class ExecStatus : std::uint8_t {
  kOk = 0,
  kError,  ///< statement rejected (parse error, unknown table, ...)
  kCrash,  ///< the engine hit an injected bug: the server is gone
};

struct ExecResult {
  ExecStatus status = ExecStatus::kOk;
  std::string message;
  std::vector<Row> rows;      ///< SELECT output
  std::int64_t affected = 0;  ///< rows touched, or the COUNT(*) value
};

/// An ExecResult without its rows.
struct StatementStatus {
  ExecStatus status = ExecStatus::kOk;
  /// A literal, or this thread's error buffer: valid until the next
  /// statement runs on this thread.
  std::string_view message;
  std::int64_t affected = 0;  ///< as ExecResult::affected
};

class Engine {
 public:
  explicit Engine(SqlFaultFlags flags = {}) : flags_(flags) {}

  void set_fault_flags(SqlFaultFlags flags) noexcept { flags_ = flags; }
  const SqlFaultFlags& fault_flags() const noexcept { return flags_; }

  /// Parses and runs a ';'-separated statement list, stopping at the first
  /// error or crash. Returns the last statement's result.
  ExecResult execute(std::string_view sql);

  /// Runs already-parsed statements with the same stopping rule, so a
  /// caller can parse a statement list once and run it many times.
  ExecResult execute(const std::vector<Statement>& statements);

  /// execute() without building result rows: the same status, message,
  /// affected count and engine state.
  StatementStatus execute_status(const std::vector<Statement>& statements);

  /// Direct statement execution (parser bypass, used by tests).
  ExecResult run(const Statement& statement);

  Table* find_table(std::string_view name);
  const Table* find_table(std::string_view name) const;
  std::size_t table_count() const noexcept { return tables_.size(); }

  bool holds_lock() const noexcept { return !locked_table_.empty(); }
  const std::string& locked_table() const noexcept { return locked_table_; }

 private:
  /// Runs one statement; a SELECT appends its rows to `rows` unless it is
  /// null.
  StatementStatus step(const Statement& statement, std::vector<Row>* rows);
  StatementStatus run_select(const SelectStatement& s, std::vector<Row>* rows);
  StatementStatus run_insert(const InsertStatement& s);
  StatementStatus run_update(const UpdateStatement& s);
  StatementStatus run_delete(const DeleteStatement& s);
  StatementStatus run_create(const CreateStatement& s);
  StatementStatus run_admin(const AdminStatement& s);

  using NamedTable = std::pair<std::string, Table>;
  /// The first table whose name is not less than `name`.
  std::vector<NamedTable>::const_iterator lower_bound(
      std::string_view name) const;

  std::vector<NamedTable> tables_;  ///< sorted by name
  std::string locked_table_;
  SqlFaultFlags flags_;
};

}  // namespace faultstudy::apps::sql
