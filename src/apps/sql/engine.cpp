#include "apps/sql/engine.hpp"

#include <algorithm>
#include <utility>

namespace faultstudy::apps::sql {

namespace {

/// A statement's scratch, one per thread (engine.hpp): kept from statement
/// to statement, so a warm statement reuses its capacity.
struct Scratch {
  std::vector<int> columns;  ///< schema column per WHERE predicate
  std::vector<Slot> hits;    ///< find_hits()' output
  std::string message;       ///< error()'s text
};

Scratch& scratch() {
  thread_local Scratch buffer;
  return buffer;
}

StatementStatus ok(std::int64_t affected = 0) {
  return {ExecStatus::kOk, {}, affected};
}

StatementStatus crash(std::string_view message) {
  return {ExecStatus::kCrash, message, 0};
}

/// `what` followed by `name`, in this thread's error buffer.
StatementStatus error(std::string_view what, std::string_view name = {}) {
  std::string& message = scratch().message;
  message.assign(what);
  message += name;
  return {ExecStatus::kError, message, 0};
}

/// Schema column of each WHERE predicate, -1 when unknown; resolved once
/// per statement, not per row.
void resolve(const Table& table, const std::vector<Predicate>& where,
             std::vector<int>& columns) {
  columns.clear();
  for (const Predicate& p : where) {
    columns.push_back(table.schema().find(p.column));
  }
}

/// An unknown column is an error only once a row reaches its predicate:
/// the row then does not match, and `*unknown` (when given) names the
/// column.
bool matches(const Table& table, Slot slot,
             const std::vector<Predicate>& where,
             const std::vector<int>& columns, const std::string** unknown) {
  const auto row = table.row(slot);
  for (std::size_t i = 0; i < where.size(); ++i) {
    const Predicate& p = where[i];
    if (columns[i] < 0) {
      if (unknown != nullptr) *unknown = &p.column;
      return false;
    }
    if (!evaluate(p.op, row[static_cast<std::size_t>(columns[i])],
                  p.literal)) {
      return false;
    }
  }
  return true;
}

/// The live slots satisfying `where`, ascending, into `s.hits`. Returns the
/// unknown column a row reached (the hits are then meaningless), else
/// nullptr.
const std::string* find_hits(const Table& table,
                             const std::vector<Predicate>& where,
                             Scratch& s) {
  resolve(table, where, s.columns);
  const std::vector<int>& columns = s.columns;
  std::vector<Slot>& hits = s.hits;
  hits.clear();
  const bool resolved =
      std::find(columns.begin(), columns.end(), -1) == columns.end();
  std::size_t bound = 0;
  while (bound < where.size() &&
         (columns[bound] != 0 || where[bound].op == CompareOp::kNe)) {
    ++bound;
  }
  if (resolved && bound < where.size()) {
    // The bounding predicate's key range holds every hit (table.hpp).
    // Sorting restores slot order; the dedupe and the re-check drop stale
    // entries and apply the other predicates.
    const auto range =
        table.index_range(where[bound].op, where[bound].literal);
    for (const auto& entry : range) hits.push_back(entry.second);
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    std::erase_if(hits, [&](Slot slot) {
      return !table.is_live(slot) ||
             !matches(table, slot, where, columns, nullptr);
    });
    return nullptr;
  }
  const std::string* unknown = nullptr;
  for (Slot slot = 0; slot < table.slot_count(); ++slot) {
    if (!table.is_live(slot)) continue;
    if (matches(table, slot, where, columns, &unknown)) hits.push_back(slot);
    if (unknown != nullptr) break;
  }
  return unknown;
}

}  // namespace

ExecResult Engine::execute(std::string_view sql) {
  auto statements = parse(sql);
  if (!statements.ok()) {
    return {ExecStatus::kError, statements.error(), {}, 0};
  }
  return execute(statements.value());
}

ExecResult Engine::execute(const std::vector<Statement>& statements) {
  ExecResult last;
  for (const Statement& statement : statements) {
    last = run(statement);
    if (last.status != ExecStatus::kOk) return last;
  }
  return last;
}

StatementStatus Engine::execute_status(
    const std::vector<Statement>& statements) {
  StatementStatus last;
  for (const Statement& statement : statements) {
    last = step(statement, nullptr);
    if (last.status != ExecStatus::kOk) return last;
  }
  return last;
}

ExecResult Engine::run(const Statement& statement) {
  ExecResult r;
  const StatementStatus status = step(statement, &r.rows);
  r.status = status.status;
  r.message = status.message;
  r.affected = status.affected;
  return r;
}

StatementStatus Engine::step(const Statement& statement,
                             std::vector<Row>* rows) {
  return std::visit(
      [this, rows](const auto& node) -> StatementStatus {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, SelectStatement>) {
          return run_select(node, rows);
        } else if constexpr (std::is_same_v<T, InsertStatement>) {
          return run_insert(node);
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return run_update(node);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          return run_delete(node);
        } else if constexpr (std::is_same_v<T, CreateStatement>) {
          return run_create(node);
        } else {
          return run_admin(node);
        }
      },
      statement.node);
}

std::vector<Engine::NamedTable>::const_iterator Engine::lower_bound(
    std::string_view name) const {
  return std::lower_bound(
      tables_.begin(), tables_.end(), name,
      [](const NamedTable& t, std::string_view n) { return t.first < n; });
}

Table* Engine::find_table(std::string_view name) {
  return const_cast<Table*>(std::as_const(*this).find_table(name));
}

const Table* Engine::find_table(std::string_view name) const {
  const auto it = lower_bound(name);
  return it == tables_.end() || it->first != name ? nullptr : &it->second;
}

StatementStatus Engine::run_select(const SelectStatement& s,
                                   std::vector<Row>* rows) {
  const Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table ", s.table);

  if (s.count_star && s.where.empty()) {
    // --- mysql-ei-03: "the use of a count clause on an empty table
    // crashes MySQL ... missing check for empty tables" ---
    if (flags_.count_on_empty_crash && table->row_count() == 0) {
      return crash("segfault in COUNT(*) fast path: empty-table check "
                   "missing");
    }
    return ok(static_cast<std::int64_t>(table->row_count()));
  }

  Scratch& scratch_buffer = scratch();
  if (const std::string* unknown = find_hits(*table, s.where, scratch_buffer)) {
    return error("unknown column ", *unknown);
  }
  std::vector<Slot>& hits = scratch_buffer.hits;

  if (s.count_star) {
    if (flags_.count_on_empty_crash && hits.empty()) {
      return crash("segfault in COUNT(*): empty result, check missing");
    }
    return ok(static_cast<std::int64_t>(hits.size()));
  }

  const std::size_t limit =
      s.limit.has_value()
          ? static_cast<std::size_t>(std::max<std::int64_t>(0, *s.limit))
          : hits.size();
  const std::size_t kept = std::min(limit, hits.size());
  if (s.order_by.has_value()) {
    // --- mysql-ei-02: "a query which selects zero records and has an
    // 'order by' clause will cause the server to crash ... missing
    // initialization statements" in the sort path ---
    if (flags_.orderby_empty_missing_init && hits.empty()) {
      return crash("uninitialized sort buffer dereferenced for empty "
                   "result set");
    }
    const int col = table->schema().find(s.order_by->column);
    if (col < 0) return error("unknown column ", s.order_by->column);
    if (rows != nullptr) {
      // Hits arrive in slot order, so ties by slot (for DESC too) are what
      // a stable sort on the value gives. Only the kept rows need sorting.
      const auto before = [&](Slot a, Slot b) {
        const int cmp =
            compare(table->row(a)[static_cast<std::size_t>(col)],
                    table->row(b)[static_cast<std::size_t>(col)]);
        if (cmp != 0) return s.order_by->descending ? cmp > 0 : cmp < 0;
        return a < b;
      };
      std::partial_sort(hits.begin(),
                        hits.begin() + static_cast<std::ptrdiff_t>(kept),
                        hits.end(), before);
    }
  }

  // A projected column is looked up once, and is an error only when a row
  // is kept.
  std::vector<int>& projection = scratch_buffer.columns;
  projection.clear();
  if (kept > 0) {
    for (const auto& name : s.columns) {
      const int col = table->schema().find(name);
      if (col < 0) return error("unknown column ", name);
      projection.push_back(col);
    }
  }

  if (rows != nullptr) {
    rows->reserve(rows->size() + kept);
    for (std::size_t i = 0; i < kept; ++i) {
      const auto row = table->row(hits[i]);
      if (projection.empty()) {
        rows->emplace_back(row.begin(), row.end());
        continue;
      }
      Row& projected = rows->emplace_back();
      projected.reserve(projection.size());
      for (const int col : projection) {
        projected.push_back(row[static_cast<std::size_t>(col)]);
      }
    }
  }
  return ok(static_cast<std::int64_t>(kept));
}

StatementStatus Engine::run_insert(const InsertStatement& s) {
  Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table ", s.table);
  if (s.values.size() != table->schema().columns.size()) {
    return error("arity mismatch for ", s.table);
  }
  table->insert(s.values);
  return ok(1);
}

StatementStatus Engine::run_update(const UpdateStatement& s) {
  Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table ", s.table);
  const int col = table->schema().find(s.column);
  if (col < 0) return error("unknown column ", s.column);
  Scratch& scratch_buffer = scratch();

  if (flags_.update_index_scan_bug && col == 0) {
    // --- mysql-ei-01, the buggy path: drive the update through the index
    // scan cursor. Moving a key forward leaves the stale entry behind
    // (duplicate values in the index); the post-statement consistency
    // check fires and the server dies. ---
    // The cursor must walk the storage the updates write to: take sole
    // ownership before opening it, or the first write would clone the
    // (snapshot-shared) rows and the scan would never meet its own moves.
    table->detach();
    resolve(*table, s.where, scratch_buffer.columns);
    std::int64_t touched = 0;
    for (auto cursor = table->index_scan(); !cursor.done(); cursor.next()) {
      const Slot slot = cursor.slot();
      if (!table->is_live(slot)) continue;
      const std::string* unknown = nullptr;
      if (!matches(*table, slot, s.where, scratch_buffer.columns, &unknown)) {
        if (unknown != nullptr) return error("unknown column ", *unknown);
        continue;
      }
      table->update_cell(slot, col, s.value,
                         /*corrupt_index_on_key_move=*/true);
      ++touched;
      // The scan trips over the stale entry as soon as one exists — the
      // crash is mid-statement, leaving the update half applied (as the
      // real server did).
      if (!table->check_index()) {
        return crash("index consistency check failed during UPDATE: "
                     "duplicate values in the index");
      }
    }
    return ok(touched);
  }

  // The fixed algorithm (the paper's fix): "first scanning for all matching
  // rows and then updating the found rows".
  if (const std::string* unknown = find_hits(*table, s.where, scratch_buffer)) {
    return error("unknown column ", *unknown);
  }
  for (Slot slot : scratch_buffer.hits) table->update_cell(slot, col, s.value);
  return ok(static_cast<std::int64_t>(scratch_buffer.hits.size()));
}

StatementStatus Engine::run_delete(const DeleteStatement& s) {
  Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table ", s.table);
  Scratch& scratch_buffer = scratch();
  if (const std::string* unknown = find_hits(*table, s.where, scratch_buffer)) {
    return error("unknown column ", *unknown);
  }
  for (Slot slot : scratch_buffer.hits) table->erase(slot);
  return ok(static_cast<std::int64_t>(scratch_buffer.hits.size()));
}

StatementStatus Engine::run_create(const CreateStatement& s) {
  const auto it = lower_bound(s.table);
  if (it != tables_.end() && it->first == s.table) {
    return error("table exists: ", s.table);
  }
  tables_.emplace(it, s.table, Table(s.schema));
  return ok();
}

StatementStatus Engine::run_admin(const AdminStatement& s) {
  switch (s.kind) {
    case AdminStatement::Kind::kOptimize: {
      Table* table = find_table(s.table);
      if (table == nullptr) return error("unknown table ", s.table);
      // --- mysql-ei-04: "an OPTIMIZE TABLE query crashes the server ...
      // caused by a missing initialization statement" ---
      if (flags_.optimize_missing_init) {
        return crash("OPTIMIZE TABLE used an uninitialized repair context");
      }
      table->compact();
      return ok();
    }
    case AdminStatement::Kind::kLockTables:
      if (find_table(s.table) == nullptr) {
        return error("unknown table ", s.table);
      }
      locked_table_ = s.table;
      return ok();
    case AdminStatement::Kind::kUnlockTables:
      locked_table_.clear();
      return ok();
    case AdminStatement::Kind::kFlushTables:
      // --- mysql-ei-05: "a FLUSH TABLES command after a LOCK TABLES
      // command crashes the server": the flush path re-acquires locks the
      // session already holds. ---
      if (flags_.flush_after_lock_bug && holds_lock()) {
        return crash("FLUSH TABLES deadlocked on the session's own LOCK "
                     "TABLES lock and aborted");
      }
      return ok();
  }
  return error("unhandled admin statement");
}

}  // namespace faultstudy::apps::sql
