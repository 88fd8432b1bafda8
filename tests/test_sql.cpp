// Tests for the mini SQL engine: lexer, parser, storage/index, executor,
// the five study bugs implemented as engine-level fault points, and the
// copy-on-write row storage that engine copies share.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/database.hpp"
#include "apps/sql/engine.hpp"
#include "apps/sql/lexer.hpp"
#include "apps/sql/parser.hpp"
#include "apps/workload.hpp"
#include "corpus/seeds.hpp"
#include "inject/specimen.hpp"
#include "util/rng.hpp"

namespace faultstudy::apps::sql {
namespace {

// ------------------------------------------------------------------ lexer

TEST(SqlLexer, KeywordsAndIdentifiers) {
  const auto tokens = lex("SELECT id FROM orders");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_EQ(t.size(), 5u);  // 4 tokens + end
  EXPECT_EQ(t[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[1].text, "id");
  EXPECT_EQ(t[4].kind, TokenKind::kEnd);
}

TEST(SqlLexer, KeywordsCaseInsensitive) {
  const auto tokens = lex("select COUNT from T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "SELECT");
  EXPECT_EQ(tokens.value()[1].text, "COUNT");
}

TEST(SqlLexer, NumbersAndStrings) {
  const auto tokens = lex("VALUES (42, 'open', -7)");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[2].kind, TokenKind::kInteger);
  EXPECT_EQ(t[2].number, 42);
  EXPECT_EQ(t[4].kind, TokenKind::kString);
  EXPECT_EQ(t[4].text, "open");
  EXPECT_EQ(t[6].number, -7);
}

TEST(SqlLexer, ComparisonOperators) {
  const auto tokens = lex("a <= 1 ; b != 2 ; c >= 3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[1].text, "<=");
  EXPECT_EQ(tokens.value()[5].text, "!=");
  EXPECT_EQ(tokens.value()[9].text, ">=");
}

TEST(SqlLexer, UnterminatedStringIsError) {
  EXPECT_FALSE(lex("SELECT 'oops").ok());
}

TEST(SqlLexer, UnexpectedCharacterIsError) {
  EXPECT_FALSE(lex("SELECT @").ok());
}

// ----------------------------------------------------------------- parser

TEST(SqlParser, SelectStar) {
  const auto stmts = parse("SELECT * FROM orders");
  ASSERT_TRUE(stmts.ok());
  ASSERT_EQ(stmts.value().size(), 1u);
  const auto& s = std::get<SelectStatement>(stmts.value()[0].node);
  EXPECT_FALSE(s.count_star);
  EXPECT_TRUE(s.columns.empty());
  EXPECT_EQ(s.table, "orders");
}

TEST(SqlParser, SelectWithEverything) {
  const auto stmts = parse(
      "SELECT id, state FROM orders WHERE id > 5 AND state = 'open' "
      "ORDER BY id DESC LIMIT 3");
  ASSERT_TRUE(stmts.ok()) << stmts.error();
  const auto& s = std::get<SelectStatement>(stmts.value()[0].node);
  EXPECT_EQ(s.columns, (std::vector<std::string>{"id", "state"}));
  ASSERT_EQ(s.where.size(), 2u);
  EXPECT_EQ(s.where[0].op, CompareOp::kGt);
  ASSERT_TRUE(s.order_by.has_value());
  EXPECT_TRUE(s.order_by->descending);
  EXPECT_EQ(s.limit, 3);
}

TEST(SqlParser, CountStar) {
  const auto stmts = parse("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmts.ok());
  EXPECT_TRUE(std::get<SelectStatement>(stmts.value()[0].node).count_star);
}

TEST(SqlParser, InsertUpdateDelete) {
  const auto stmts = parse(
      "INSERT INTO t VALUES (1, 'x'); "
      "UPDATE t SET c = 2 WHERE c = 1; "
      "DELETE FROM t WHERE c = 2");
  ASSERT_TRUE(stmts.ok()) << stmts.error();
  ASSERT_EQ(stmts.value().size(), 3u);
  EXPECT_TRUE(std::holds_alternative<InsertStatement>(stmts.value()[0].node));
  EXPECT_TRUE(std::holds_alternative<UpdateStatement>(stmts.value()[1].node));
  EXPECT_TRUE(std::holds_alternative<DeleteStatement>(stmts.value()[2].node));
}

TEST(SqlParser, CreateTable) {
  const auto stmts = parse("CREATE TABLE t (id INT, name TEXT)");
  ASSERT_TRUE(stmts.ok());
  const auto& s = std::get<CreateStatement>(stmts.value()[0].node);
  ASSERT_EQ(s.schema.columns.size(), 2u);
  EXPECT_EQ(s.schema.columns[1].type, ColumnType::kText);
}

TEST(SqlParser, AdminStatements) {
  const auto stmts =
      parse("LOCK TABLES t WRITE; FLUSH TABLES; UNLOCK TABLES; "
            "OPTIMIZE TABLE t");
  ASSERT_TRUE(stmts.ok()) << stmts.error();
  ASSERT_EQ(stmts.value().size(), 4u);
  EXPECT_EQ(std::get<AdminStatement>(stmts.value()[0].node).kind,
            AdminStatement::Kind::kLockTables);
  EXPECT_EQ(std::get<AdminStatement>(stmts.value()[3].node).kind,
            AdminStatement::Kind::kOptimize);
}

TEST(SqlParser, Errors) {
  EXPECT_FALSE(parse("SELECT FROM").ok());
  EXPECT_FALSE(parse("INSERT INTO t (1)").ok());
  EXPECT_FALSE(parse("UPDATE t WHERE x = 1").ok());
  EXPECT_FALSE(parse("bogus statement").ok());
}

// ---------------------------------------------------------- table / index

TEST(SqlTable, InsertScanErase) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s0 = t.insert({Value{std::int64_t{5}}});
  t.insert({Value{std::int64_t{3}}});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(t.check_index());
  t.erase(s0);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_FALSE(t.is_live(s0));
  EXPECT_TRUE(t.check_index());
}

TEST(SqlTable, IndexScanOrdered) {
  // Keys come out ascending; equal keys come out in slot order.
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  for (std::int64_t v : {5, 1, 9, 3, 5, 1, 5}) t.insert({Value{v}});
  std::vector<std::pair<std::int64_t, Slot>> entries;
  for (auto cursor = t.index_scan(); !cursor.done(); cursor.next()) {
    entries.emplace_back(std::get<std::int64_t>(cursor.key()), cursor.slot());
  }
  EXPECT_EQ(entries,
            (std::vector<std::pair<std::int64_t, Slot>>{
                {1, 1}, {1, 5}, {3, 3}, {5, 0}, {5, 4}, {5, 6}, {9, 2}}));
}

TEST(SqlTable, InsertRejectsWrongArity) {
  // Cells are stored at the schema's stride, so a row of any other width
  // must be refused in every build, leaving the table as it was.
  Table t(Schema{{{"id", ColumnType::kInteger}, {"v", ColumnType::kText}}});
  t.insert({Value{std::int64_t{1}}, Value{"a"}});
  EXPECT_THROW(t.insert({Value{std::int64_t{2}}}), std::invalid_argument);
  EXPECT_THROW(t.insert({Value{std::int64_t{3}}, Value{"b"}, Value{"c"}}),
               std::invalid_argument);
  EXPECT_THROW(t.insert({}), std::invalid_argument);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.index_entries(), 1u);
  EXPECT_TRUE(t.check_index());
}

TEST(SqlTable, CorrectKeyUpdateKeepsIndexConsistent) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s = t.insert({Value{std::int64_t{1}}});
  t.update_cell(s, 0, Value{std::int64_t{7}});
  EXPECT_TRUE(t.check_index());
  EXPECT_EQ(t.index_entries(), 1u);
}

TEST(SqlTable, BuggyKeyUpdateLeavesDuplicate) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s = t.insert({Value{std::int64_t{1}}});
  t.update_cell(s, 0, Value{std::int64_t{7}},
                /*corrupt_index_on_key_move=*/true);
  EXPECT_FALSE(t.check_index());
  EXPECT_EQ(t.index_entries(), 2u);  // stale + new: duplicate values
}

TEST(SqlTable, CompactRebuildsIndex) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s = t.insert({Value{std::int64_t{1}}});
  t.insert({Value{std::int64_t{2}}});
  t.update_cell(s, 0, Value{std::int64_t{9}}, true);  // corrupt
  EXPECT_FALSE(t.check_index());
  t.compact();
  EXPECT_TRUE(t.check_index());
  EXPECT_EQ(t.row_count(), 2u);
}

// --------------------------------------------------------------- executor

Engine make_engine(SqlFaultFlags flags = {}) {
  Engine e(flags);
  e.execute("CREATE TABLE t (id INT, state TEXT)");
  e.execute("INSERT INTO t VALUES (1, 'open')");
  e.execute("INSERT INTO t VALUES (2, 'open')");
  e.execute("INSERT INTO t VALUES (3, 'done')");
  e.execute("CREATE TABLE empty_t (id INT)");
  return e;
}

TEST(SqlEngine, SelectWhere) {
  auto e = make_engine();
  const auto r = e.execute("SELECT id FROM t WHERE state = 'open'");
  EXPECT_EQ(r.status, ExecStatus::kOk);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 1);
}

TEST(SqlEngine, OrderByAndLimit) {
  auto e = make_engine();
  const auto r = e.execute("SELECT id FROM t ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 3);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[1][0]), 2);
}

TEST(SqlEngine, CountStar) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM t").affected, 3);
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM empty_t").affected, 0);
}

TEST(SqlEngine, UpdateFixedPathMovesKeys) {
  auto e = make_engine();
  const auto r = e.execute("UPDATE t SET id = 100 WHERE id < 3");
  EXPECT_EQ(r.status, ExecStatus::kOk);
  EXPECT_EQ(r.affected, 2);
  EXPECT_TRUE(e.find_table("t")->check_index());
}

TEST(SqlEngine, DeleteAndArityChecks) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("DELETE FROM t WHERE state = 'open'").affected, 2);
  EXPECT_EQ(e.find_table("t")->row_count(), 1u);
  EXPECT_EQ(e.execute("INSERT INTO t VALUES (9)").status, ExecStatus::kError);
  EXPECT_EQ(e.execute("SELECT * FROM nosuch").status, ExecStatus::kError);
  EXPECT_EQ(e.execute("SELECT nocol FROM t").status, ExecStatus::kError);
}

TEST(SqlEngine, LockStateMachine) {
  auto e = make_engine();
  EXPECT_FALSE(e.holds_lock());
  EXPECT_EQ(e.execute("LOCK TABLES t WRITE").status, ExecStatus::kOk);
  EXPECT_TRUE(e.holds_lock());
  EXPECT_EQ(e.execute("FLUSH TABLES").status, ExecStatus::kOk);  // no bug armed
  EXPECT_EQ(e.execute("UNLOCK TABLES").status, ExecStatus::kOk);
  EXPECT_FALSE(e.holds_lock());
}

TEST(SqlEngine, EngineIsCopyable) {
  auto e = make_engine();
  Engine copy = e;
  e.execute("DELETE FROM t WHERE id = 1");
  EXPECT_EQ(copy.find_table("t")->row_count(), 3u);
  EXPECT_EQ(e.find_table("t")->row_count(), 2u);
}

// ---------------------------------------------- the five study bugs

TEST(SqlBugs, CountOnEmptyTableCrashes) {
  SqlFaultFlags flags;
  flags.count_on_empty_crash = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM t").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM empty_t").status,
            ExecStatus::kCrash);
}

TEST(SqlBugs, OrderByZeroRecordsCrashes) {
  SqlFaultFlags flags;
  flags.orderby_empty_missing_init = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("SELECT * FROM t ORDER BY id").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("SELECT * FROM t WHERE id > 999 ORDER BY id").status,
            ExecStatus::kCrash);
  // Without ORDER BY, zero records are fine.
  auto e2 = make_engine(flags);
  EXPECT_EQ(e2.execute("SELECT * FROM t WHERE id > 999").status,
            ExecStatus::kOk);
}

TEST(SqlBugs, OptimizeTableCrashes) {
  SqlFaultFlags flags;
  flags.optimize_missing_init = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("OPTIMIZE TABLE t").status, ExecStatus::kCrash);
  auto fixed = make_engine();
  EXPECT_EQ(fixed.execute("OPTIMIZE TABLE t").status, ExecStatus::kOk);
}

TEST(SqlBugs, FlushAfterLockCrashes) {
  SqlFaultFlags flags;
  flags.flush_after_lock_bug = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("FLUSH TABLES").status, ExecStatus::kOk);  // no lock
  EXPECT_EQ(e.execute("LOCK TABLES t WRITE; FLUSH TABLES").status,
            ExecStatus::kCrash);
}

TEST(SqlBugs, UpdateWhileScanningCorruptsIndexAndCrashes) {
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  auto e = make_engine(flags);
  const auto r = e.execute("UPDATE t SET id = 999 WHERE id < 3");
  EXPECT_EQ(r.status, ExecStatus::kCrash);
  EXPECT_NE(r.message.find("duplicate values in the index"),
            std::string::npos);
  // The crash is mid-statement: the table is left corrupted.
  EXPECT_FALSE(e.find_table("t")->check_index());
}

TEST(SqlBugs, BuggyUpdateHarmlessWhenKeyMovesBackward) {
  // A key moved to a value the scan has ALREADY passed does not collide
  // with the cursor in the same way, but still leaves a stale entry; the
  // consistency check catches it either way.
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("UPDATE t SET id = 0 WHERE id = 3").status,
            ExecStatus::kCrash);
}

TEST(SqlBugs, FixedEngineRunsAllKillersClean) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM empty_t").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("SELECT * FROM t WHERE id > 999 ORDER BY id").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("OPTIMIZE TABLE t").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("LOCK TABLES t WRITE; FLUSH TABLES; UNLOCK TABLES").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("UPDATE t SET id = 999 WHERE id < 3").status,
            ExecStatus::kOk);
  EXPECT_TRUE(e.find_table("t")->check_index());
}


// ------------------------------------------------- WHERE column resolution

TEST(SqlEngine, UnknownWhereColumnIsSilentOnEmptyTable) {
  // Columns resolve once per statement, but an unknown one is still an
  // error only once a row reaches its predicate.
  auto e = make_engine();
  EXPECT_EQ(e.execute("SELECT * FROM empty_t WHERE nosuch = 1").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("UPDATE empty_t SET id = 2 WHERE nosuch = 1").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("DELETE FROM empty_t WHERE nosuch = 1").status,
            ExecStatus::kOk);
}

TEST(SqlEngine, UnknownWhereColumnIsSilentBehindAFailingPredicate) {
  auto e = make_engine();
  const auto none = e.execute("SELECT * FROM t WHERE id > 99 AND nosuch = 1");
  EXPECT_EQ(none.status, ExecStatus::kOk);
  EXPECT_TRUE(none.rows.empty());
  EXPECT_EQ(e.execute("DELETE FROM t WHERE id > 99 AND nosuch = 1").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("UPDATE t SET id = 7 WHERE id > 99 AND nosuch = 1")
                .status,
            ExecStatus::kOk);

  const auto reached = e.execute("SELECT * FROM t WHERE id > 2 AND nosuch = 1");
  EXPECT_EQ(reached.status, ExecStatus::kError);
  EXPECT_EQ(reached.message, "unknown column nosuch");
  EXPECT_EQ(e.execute("DELETE FROM t WHERE id > 2 AND nosuch = 1").message,
            "unknown column nosuch");
  EXPECT_EQ(e.find_table("t")->row_count(), 3u);
}

TEST(SqlEngine, ParsedStatementsRunLikeText) {
  const auto parsed =
      parse("INSERT INTO t VALUES (4, 'new'); SELECT COUNT(*) FROM t");
  ASSERT_TRUE(parsed.ok());
  auto e = make_engine();
  EXPECT_EQ(e.execute(parsed.value()).affected, 4);
  EXPECT_EQ(e.execute(parsed.value()).affected, 5);

  // The same stopping rule: the first failing statement ends the list.
  const auto failing = parse("SELECT * FROM nosuch; DELETE FROM t");
  ASSERT_TRUE(failing.ok());
  EXPECT_EQ(e.execute(failing.value()).status, ExecStatus::kError);
  EXPECT_EQ(e.find_table("t")->row_count(), 5u);
}

// ------------------------------------------------- copy-on-write storage

/// Everything observable about a table: its live rows in heap order, the
/// index in scan order, and the consistency verdict.
struct TableState {
  std::vector<Row> rows;
  std::vector<std::pair<Value, Slot>> index;
  std::size_t index_entries = 0;
  bool index_ok = false;

  bool operator==(const TableState&) const = default;
};

TableState state_of(const Table& t) {
  TableState s;
  for (Slot slot = 0; slot < t.slot_count(); ++slot) {
    if (!t.is_live(slot)) continue;
    const auto row = t.row(slot);
    s.rows.emplace_back(row.begin(), row.end());
  }
  for (auto cursor = t.index_scan(); !cursor.done(); cursor.next()) {
    s.index.emplace_back(cursor.key(), cursor.slot());
  }
  s.index_entries = t.index_entries();
  s.index_ok = t.check_index();
  return s;
}

Table small_table() {
  Table t(Schema{{{"id", ColumnType::kInteger}, {"v", ColumnType::kText}}});
  for (std::int64_t id : {3, 1, 2}) t.insert({Value{id}, Value{"x"}});
  return t;
}

TEST(SqlTable, EveryMutatorLeavesCopiesUntouched) {
  const Table original = small_table();
  const TableState before = state_of(original);
  const auto check = [&](auto&& mutate) {
    Table copy = original;
    mutate(copy);
    EXPECT_NE(state_of(copy), before);
    EXPECT_EQ(state_of(original), before);
  };
  check([](Table& t) { t.insert({Value{std::int64_t{9}}, Value{"y"}}); });
  check([](Table& t) { t.erase(1); });
  check([](Table& t) { t.update_cell(0, 1, Value{"changed"}); });
  check([](Table& t) { t.update_cell(0, 0, Value{std::int64_t{7}}); });
  check([](Table& t) {
    t.erase(0);
    t.compact();
  });
}

TEST(SqlTable, NoOpWritesChangeNothing) {
  const Table original = small_table();
  Table copy = original;
  copy.erase(42);                        // no such slot
  copy.update_cell(0, 5, Value{"nope"});  // no such column
  copy.compact();                        // nothing to reclaim
  EXPECT_EQ(state_of(copy), state_of(original));
}

TEST(SqlTable, SameValueWriteKeepsStorageShared) {
  const Table original = small_table();
  const TableState before = state_of(original);
  Table copy = original;
  copy.update_cell(0, 1, Value{"x"});              // the cell's own value
  copy.update_cell(0, 0, Value{std::int64_t{3}});  // the row's own key
  EXPECT_EQ(copy.row(0).data(), original.row(0).data());
  copy.update_cell(0, 1, Value{"y"});
  EXPECT_NE(copy.row(0).data(), original.row(0).data());
  EXPECT_EQ(state_of(original), before);
}

TEST(SqlTable, CompactRestoresSlotOrderAmongEqualKeys) {
  // Moving slot 0's key onto slot 2's puts slot 0 after slot 2 in the
  // index; a rebuild indexes in slot order again, and compact() must do
  // that rebuild even though no slot is dead.
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  for (std::int64_t id : {1, 2, 3}) t.insert({Value{id}});
  t.update_cell(0, 0, Value{std::int64_t{3}});
  const auto slots = [&] {
    std::vector<Slot> out;
    for (auto c = t.index_scan(); !c.done(); c.next()) out.push_back(c.slot());
    return out;
  };
  EXPECT_EQ(slots(), (std::vector<Slot>{1, 2, 0}));
  const Table shared = t;
  t.compact();
  EXPECT_EQ(slots(), (std::vector<Slot>{1, 0, 2}));
  EXPECT_EQ(state_of(shared).index.back().second, 0u);
}

TEST(SqlTable, CursorOpenedAfterDetachSeesItsOwnKeyMoves) {
  // The mysql-ei-01 scan contract: a cursor opened on detached storage
  // walks the block the updates write to, so it meets every key it moved
  // ahead of itself. Twenty moves on a 40-row table grow the index past
  // its capacity mid-scan, so the cursor must survive a reallocation. The
  // copy keeps the pre-scan index.
  constexpr std::int64_t kRows = 40;
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  for (std::int64_t id = 1; id <= kRows; ++id) t.insert({Value{id}});
  const Table copy = t;
  t.detach();
  std::vector<std::int64_t> seen;
  for (auto c = t.index_scan(); !c.done(); c.next()) {
    seen.push_back(std::get<std::int64_t>(c.key()));
    if (seen.back() <= kRows && seen.back() % 2 == 1) {
      t.update_cell(c.slot(), 0, Value{seen.back() + 100},
                    /*corrupt_index_on_key_move=*/true);
    }
  }
  std::vector<std::int64_t> expected;
  for (std::int64_t id = 1; id <= kRows; ++id) expected.push_back(id);
  for (std::int64_t id = 1; id <= kRows; id += 2) expected.push_back(id + 100);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(t.index_entries(), static_cast<std::size_t>(kRows + kRows / 2));
  EXPECT_EQ(copy.index_entries(), static_cast<std::size_t>(kRows));
  EXPECT_TRUE(copy.check_index());
}

TEST(SqlTable, CompactOfSharedStorageMatchesCompactOfOwned) {
  const auto damaged = [] {
    Table t = small_table();
    t.erase(1);
    t.update_cell(0, 0, Value{std::int64_t{0}},
                  /*corrupt_index_on_key_move=*/true);
    return t;
  };
  Table owned = damaged();
  Table shared = damaged();
  const Table holder = shared;  // keeps `shared`'s block shared
  const TableState before = state_of(holder);
  owned.compact();
  shared.compact();
  EXPECT_EQ(state_of(shared), state_of(owned));
  EXPECT_TRUE(state_of(shared).index_ok);
  EXPECT_EQ(state_of(holder), before);
}

TEST(SqlEngine, WriteAfterCopyLeavesCopyUntouched) {
  auto e = make_engine();
  const Engine snapshot = e;
  const TableState before = state_of(*snapshot.find_table("t"));
  e.execute("INSERT INTO t VALUES (4, 'new')");
  e.execute("UPDATE t SET state = 'x' WHERE id = 1");
  e.execute("UPDATE t SET id = 5 WHERE id = 2");
  e.execute("DELETE FROM t WHERE id = 3");
  e.execute("OPTIMIZE TABLE t");
  EXPECT_EQ(state_of(*snapshot.find_table("t")), before);
  EXPECT_EQ(e.find_table("t")->row_count(), 3u);
}

TEST(SqlBugs, UpdateWhileScanningCorruptsStorageSharedWithASnapshot) {
  // mysql-ei-01 must behave the same whether or not a live snapshot shares
  // the table's rows: same crash, mid-statement, same half-applied rows
  // and corrupted index; the snapshot keeps the pre-statement state.
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  auto alone = make_engine(flags);
  auto e = make_engine(flags);
  const Engine snapshot = e;
  const TableState before = state_of(*snapshot.find_table("t"));

  const char* killer = "UPDATE t SET id = 999 WHERE id < 3";
  const auto expected = alone.execute(killer);
  const auto r = e.execute(killer);
  ASSERT_EQ(expected.status, ExecStatus::kCrash);
  EXPECT_EQ(r.status, expected.status);
  EXPECT_EQ(r.message, expected.message);
  const TableState after = state_of(*e.find_table("t"));
  EXPECT_EQ(after, state_of(*alone.find_table("t")));
  EXPECT_FALSE(after.index_ok);
  EXPECT_EQ(std::get<std::int64_t>(after.rows[0][0]), 999);  // moved
  EXPECT_EQ(std::get<std::int64_t>(after.rows[1][0]), 2);    // not reached
  EXPECT_EQ(state_of(*snapshot.find_table("t")), before);
}


// ------------------------------------------- WHERE against a reference scan

/// The rows a WHERE selects by the plain algorithm: every slot in order,
/// the predicates left to right; an unknown column is an error once a row
/// reaches it.
ExecResult scan(const Table& table, const std::vector<Predicate>& where,
                std::vector<Slot>& hits) {
  for (Slot slot = 0; slot < table.slot_count(); ++slot) {
    if (!table.is_live(slot)) continue;
    const auto row = table.row(slot);
    bool hit = true;
    for (const Predicate& p : where) {
      const int col = table.schema().find(p.column);
      if (col < 0) {
        ExecResult r;
        r.status = ExecStatus::kError;
        r.message = "unknown column " + p.column;
        return r;
      }
      if (!evaluate(p.op, row[static_cast<std::size_t>(col)], p.literal)) {
        hit = false;
        break;
      }
    }
    if (hit) hits.push_back(slot);
  }
  return {};
}

/// The executor's answer by the plain algorithm: a full scan, then a
/// stable sort on the ORDER BY column and a cut at LIMIT. UPDATE and
/// DELETE apply to `table` in slot order.
ExecResult reference_run(Table& table, const Statement& statement) {
  std::vector<Slot> hits;
  if (const auto* u = std::get_if<UpdateStatement>(&statement.node)) {
    ExecResult r = scan(table, u->where, hits);
    const int col = table.schema().find(u->column);
    for (Slot slot : hits) table.update_cell(slot, col, u->value);
    r.affected = static_cast<std::int64_t>(hits.size());
    return r;
  }
  if (const auto* d = std::get_if<DeleteStatement>(&statement.node)) {
    ExecResult r = scan(table, d->where, hits);
    for (Slot slot : hits) table.erase(slot);
    r.affected = static_cast<std::int64_t>(hits.size());
    return r;
  }
  const auto& s = std::get<SelectStatement>(statement.node);
  ExecResult r = scan(table, s.where, hits);
  if (r.status != ExecStatus::kOk) return r;
  if (s.count_star) {
    r.affected = static_cast<std::int64_t>(hits.size());
    return r;
  }
  if (s.order_by.has_value()) {
    const auto col =
        static_cast<std::size_t>(table.schema().find(s.order_by->column));
    std::stable_sort(hits.begin(), hits.end(), [&](Slot a, Slot b) {
      const int cmp = compare(table.row(a)[col], table.row(b)[col]);
      return s.order_by->descending ? cmp > 0 : cmp < 0;
    });
  }
  const std::int64_t limit =
      s.limit.value_or(static_cast<std::int64_t>(hits.size()));
  for (std::size_t i = 0;
       i < hits.size() && static_cast<std::int64_t>(i) < limit; ++i) {
    const auto row = table.row(hits[i]);
    if (s.columns.empty()) {
      r.rows.emplace_back(row.begin(), row.end());
      continue;
    }
    Row projected;
    for (const auto& name : s.columns) {
      projected.push_back(
          row[static_cast<std::size_t>(table.schema().find(name))]);
    }
    r.rows.push_back(std::move(projected));
  }
  r.affected = static_cast<std::int64_t>(r.rows.size());
  return r;
}

/// An int literal near the keys, or a text one (every int key sorts
/// before every text value).
Value random_literal(util::Rng& rng, bool text_column) {
  static const char* kText[] = {"a", "b", "c", "m", "zz"};
  if (text_column ? rng.chance(0.8) : rng.chance(0.15)) {
    return Value{kText[rng.below(std::size(kText))]};
  }
  return Value{rng.between(-2, 14)};
}

std::vector<Predicate> random_where(util::Rng& rng) {
  static const char* kColumns[] = {"id", "id", "id", "v", "nosuch"};
  std::vector<Predicate> where(rng.below(4));  // 0 to 3 predicates
  for (Predicate& p : where) {
    p.column = kColumns[rng.below(std::size(kColumns))];
    p.op = static_cast<CompareOp>(rng.below(6));
    p.literal = random_literal(rng, p.column == "v");
  }
  return where;
}

/// Live rows with duplicate keys, dead slots, and (through the planted
/// mysql-ei-01 key move) stale index entries, sometimes compacted away.
void damage(Table& t, util::Rng& rng) {
  static const char* kText[] = {"a", "b", "c"};
  const auto rows = rng.below(30);
  for (std::uint64_t i = 0; i < rows; ++i) {
    t.insert({Value{rng.between(0, 12)}, Value{kText[rng.below(3)]}});
  }
  const auto moves = rng.below(8);
  for (std::uint64_t i = 0; i < moves && t.slot_count() > 0; ++i) {
    const auto slot = static_cast<Slot>(rng.below(t.slot_count()));
    switch (rng.below(4)) {
      case 0:
        t.erase(slot);
        break;
      case 1:
        t.update_cell(slot, 0, Value{rng.between(0, 12)});
        break;
      default:
        t.update_cell(slot, 0, Value{rng.between(0, 12)},
                      /*corrupt_index_on_key_move=*/true);
        break;
    }
  }
  if (rng.chance(0.1)) t.compact();
}

Statement random_statement(util::Rng& rng, std::size_t rows) {
  switch (rng.below(4)) {
    case 0: {
      UpdateStatement u;
      u.table = "t";
      u.column = rng.chance(0.5) ? "id" : "v";
      u.value = random_literal(rng, u.column == "v");
      u.where = random_where(rng);
      return {u};
    }
    case 1:
      return {DeleteStatement{.table = "t", .where = random_where(rng)}};
    default: {
      SelectStatement s;
      s.table = "t";
      s.where = random_where(rng);
      s.count_star = rng.chance(0.15);
      if (rng.chance(0.3)) s.columns = {"v", "id"};
      if (rng.chance(0.6)) {
        s.order_by = OrderBy{rng.chance(0.5) ? "id" : "v", rng.chance(0.5)};
      }
      switch (rng.below(5)) {
        case 0:
          s.limit = 0;
          break;
        case 1:
          s.limit = -rng.between(1, 3);
          break;
        case 2:
          s.limit = rng.between(1, static_cast<std::int64_t>(rows) + 5);
          break;
        default:
          break;
      }
      return {s};
    }
  }
}

TEST(SqlEngine, IndexRangeMatchesFullScan) {
  util::Rng rng(20000625);
  for (int round = 0; round < 300; ++round) {
    Engine e;
    ASSERT_EQ(e.execute("CREATE TABLE t (id INT, v TEXT)").status,
              ExecStatus::kOk);
    Table& t = *e.find_table("t");
    damage(t, rng);
    for (int step = 0; step < 12; ++step) {
      const Statement statement = random_statement(rng, t.row_count());
      Table expected_table = t;
      const ExecResult expected = reference_run(expected_table, statement);
      const ExecResult actual = e.run(statement);
      const std::string at =
          "round " + std::to_string(round) + ", step " + std::to_string(step);
      ASSERT_EQ(actual.status, expected.status) << at;
      ASSERT_EQ(actual.message, expected.message) << at;
      ASSERT_EQ(actual.rows, expected.rows) << at;
      ASSERT_EQ(actual.affected, expected.affected) << at;
      ASSERT_EQ(state_of(t), state_of(expected_table)) << at;
    }
  }
}

// ------------------------------- the status-only path against the row path

/// The ops the study runs through Database::handle: every op the database
/// workload draws (kDbOps) and every MySQL fault's poison op.
std::vector<std::string> study_ops() {
  std::vector<std::string> ops;
  const auto add = [&ops](std::string_view op) {
    if (std::find(ops.begin(), ops.end(), op) == ops.end()) ops.emplace_back(op);
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    WorkloadSpec spec;
    spec.seed = seed;
    spec.poison_at = -1;
    for (const auto& item : make_workload(core::AppId::kMysql, spec).items) {
      if (!item.op.starts_with("CONNECT")) add(item.op);
    }
  }
  for (const corpus::SeedFault& seed : corpus::all_seeds()) {
    const auto plan = inject::plan_for(seed, 99);
    if (seed.app == core::AppId::kMysql && !plan.workload.poison_op.empty()) {
      add(plan.workload.poison_op);
    }
  }
  return ops;
}

/// No fault, then each of the five engine bugs alone.
std::vector<SqlFaultFlags> flag_sets() {
  std::vector<SqlFaultFlags> sets(6);
  sets[1].update_index_scan_bug = true;
  sets[2].orderby_empty_missing_init = true;
  sets[3].count_on_empty_crash = true;
  sets[4].optimize_missing_init = true;
  sets[5].flush_after_lock_bug = true;
  return sets;
}

/// Runs `statements` on `rows` through execute() and on `status` through
/// execute_status(); both must answer alike and leave the same state.
void expect_same_outcome(Engine& rows, Engine& status,
                         const std::vector<Statement>& statements,
                         const std::string& at) {
  const ExecResult expected = rows.execute(statements);
  const StatementStatus actual = status.execute_status(statements);
  ASSERT_EQ(actual.status, expected.status) << at;
  ASSERT_EQ(actual.message, expected.message) << at;
  ASSERT_EQ(actual.affected, expected.affected) << at;
  ASSERT_EQ(status.holds_lock(), rows.holds_lock()) << at;
  ASSERT_EQ(status.locked_table(), rows.locked_table()) << at;
  ASSERT_EQ(status.table_count(), rows.table_count()) << at;
  for (const char* name : {"orders", "customers", "sessions", "audit_log", "t"}) {
    const Table* want = rows.find_table(name);
    const Table* got = status.find_table(name);
    ASSERT_EQ(got == nullptr, want == nullptr) << at << ", table " << name;
    if (want != nullptr) {
      ASSERT_EQ(state_of(*got), state_of(*want)) << at << ", table " << name;
    }
  }
}

TEST(Sql, StatusOnlyMatchesRowPath) {
  // The study's ops in order, twice, on the database's own catalog, with
  // no fault and under each engine bug.
  env::Environment environment;
  Database db;
  ASSERT_TRUE(db.start(environment));
  const std::vector<std::string> ops = study_ops();
  ASSERT_EQ(ops.size(), 11u);  // 6 workload ops and 5 poison ops
  for (const SqlFaultFlags& flags : flag_sets()) {
    Engine rows = db.engine();
    rows.set_fault_flags(flags);
    Engine status = rows;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& op : ops) {
        const auto statements = parse(op);
        ASSERT_TRUE(statements.ok()) << op;
        expect_same_outcome(rows, status, statements.value(),
                            "pass " + std::to_string(pass) + ": " + op);
      }
    }
  }

  // Seeded random SELECT, UPDATE and DELETE with WHERE, ORDER BY and LIMIT
  // over damaged tables; unknown columns in WHERE, ORDER BY and the
  // projection.
  util::Rng rng(4242);
  for (const SqlFaultFlags& flags : flag_sets()) {
    for (int round = 0; round < 60; ++round) {
      Engine rows(flags);
      ASSERT_EQ(rows.execute("CREATE TABLE t (id INT, v TEXT)").status,
                ExecStatus::kOk);
      damage(*rows.find_table("t"), rng);
      Engine status = rows;
      for (int step = 0; step < 12; ++step) {
        Statement statement =
            random_statement(rng, rows.find_table("t")->row_count());
        if (auto* select = std::get_if<SelectStatement>(&statement.node)) {
          if (rng.chance(0.1)) select->columns = {"id", "nosuch"};
          if (select->order_by.has_value() && rng.chance(0.1)) {
            select->order_by->column = "nosuch";
          }
        }
        expect_same_outcome(rows, status, {statement},
                            "round " + std::to_string(round) + ", step " +
                                std::to_string(step));
      }
    }
  }
}

}  // namespace
}  // namespace faultstudy::apps::sql
