#include "apps/sql/parser.hpp"

#include "apps/sql/lexer.hpp"

namespace faultstudy::apps::sql {

namespace {

using util::Err;
using util::Result;

bool evaluate_op(CompareOp op, int cmp) noexcept {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<Statement>> parse_all() {
    std::vector<Statement> out;
    while (!at_end()) {
      if (accept_symbol(";")) continue;  // empty statement
      auto stmt = parse_statement();
      if (!stmt.ok()) return Err{stmt.error()};
      out.push_back(std::move(stmt).value());
      if (!at_end() && !accept_symbol(";")) {
        return Err{std::string("expected ';' after statement, got '") +
                   current().text + "'"};
      }
    }
    return out;
  }

 private:
  const Token& current() const { return tokens_[pos_]; }
  bool at_end() const { return current().kind == TokenKind::kEnd; }
  void advance() {
    if (!at_end()) ++pos_;
  }

  bool accept_keyword(std::string_view kw) {
    if (current().kind == TokenKind::kKeyword && current().text == kw) {
      advance();
      return true;
    }
    return false;
  }
  bool accept_symbol(std::string_view s) {
    if (current().kind == TokenKind::kSymbol && current().text == s) {
      advance();
      return true;
    }
    return false;
  }

  Result<std::string> expect_identifier() {
    if (current().kind != TokenKind::kIdentifier) {
      return Err{"expected identifier, got '" + current().text + "'"};
    }
    std::string name = current().text;
    advance();
    return name;
  }

  Result<Value> expect_literal() {
    Value v;
    if (current().kind == TokenKind::kInteger) {
      v = current().number;
    } else if (current().kind == TokenKind::kString) {
      v = current().text;
    } else {
      return Err{"expected literal, got '" + current().text + "'"};
    }
    advance();
    return v;
  }

  Result<Statement> parse_statement() {
    if (accept_keyword("SELECT")) return parse_select();
    if (accept_keyword("INSERT")) return parse_insert();
    if (accept_keyword("UPDATE")) return parse_update();
    if (accept_keyword("DELETE")) return parse_delete();
    if (accept_keyword("CREATE")) return parse_create();
    if (accept_keyword("OPTIMIZE")) return parse_optimize();
    if (accept_keyword("LOCK")) return parse_lock();
    if (accept_keyword("UNLOCK")) return parse_unlock();
    if (accept_keyword("FLUSH")) return parse_flush();
    return Err{"expected a statement, got '" + current().text + "'"};
  }

  Result<std::vector<Predicate>> parse_where_opt() {
    std::vector<Predicate> preds;
    if (!accept_keyword("WHERE")) return preds;
    while (true) {
      Predicate p;
      auto col = expect_identifier();
      if (!col.ok()) return Err{col.error()};
      p.column = std::move(col).value();

      if (accept_symbol("=")) {
        p.op = CompareOp::kEq;
      } else if (accept_symbol("!=")) {
        p.op = CompareOp::kNe;
      } else if (accept_symbol("<=")) {
        p.op = CompareOp::kLe;
      } else if (accept_symbol(">=")) {
        p.op = CompareOp::kGe;
      } else if (accept_symbol("<")) {
        p.op = CompareOp::kLt;
      } else if (accept_symbol(">")) {
        p.op = CompareOp::kGt;
      } else {
        return Err{"expected comparison operator, got '" + current().text + "'"};
      }
      auto lit = expect_literal();
      if (!lit.ok()) return Err{lit.error()};
      p.literal = std::move(lit).value();
      preds.push_back(std::move(p));
      if (!accept_keyword("AND")) break;
    }
    return preds;
  }

  Result<Statement> parse_select() {
    SelectStatement s;
    if (accept_keyword("COUNT")) {
      if (!accept_symbol("(") || !accept_symbol("*") || !accept_symbol(")")) {
        return Err{std::string("expected COUNT(*)")};
      }
      s.count_star = true;
    } else if (accept_symbol("*")) {
      // all columns
    } else {
      while (true) {
        auto col = expect_identifier();
        if (!col.ok()) return Err{col.error()};
        s.columns.push_back(std::move(col).value());
        if (!accept_symbol(",")) break;
      }
    }
    if (!accept_keyword("FROM")) return Err{std::string("expected FROM")};
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();

    auto where = parse_where_opt();
    if (!where.ok()) return Err{where.error()};
    s.where = std::move(where).value();

    if (accept_keyword("ORDER")) {
      if (!accept_keyword("BY")) return Err{std::string("expected BY")};
      OrderBy ob;
      auto col = expect_identifier();
      if (!col.ok()) return Err{col.error()};
      ob.column = std::move(col).value();
      if (accept_keyword("DESC")) {
        ob.descending = true;
      } else {
        accept_keyword("ASC");
      }
      s.order_by = std::move(ob);
    }
    if (accept_keyword("LIMIT")) {
      if (current().kind != TokenKind::kInteger) {
        return Err{std::string("expected integer after LIMIT")};
      }
      s.limit = current().number;
      advance();
    }
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_insert() {
    if (!accept_keyword("INTO")) return Err{std::string("expected INTO")};
    InsertStatement s;
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();
    if (!accept_keyword("VALUES") || !accept_symbol("(")) {
      return Err{std::string("expected VALUES (")};
    }
    while (true) {
      auto lit = expect_literal();
      if (!lit.ok()) return Err{lit.error()};
      s.values.push_back(std::move(lit).value());
      if (!accept_symbol(",")) break;
    }
    if (!accept_symbol(")")) return Err{std::string("expected ')'")};
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_update() {
    UpdateStatement s;
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();
    if (!accept_keyword("SET")) return Err{std::string("expected SET")};
    auto col = expect_identifier();
    if (!col.ok()) return Err{col.error()};
    s.column = std::move(col).value();
    if (!accept_symbol("=")) return Err{std::string("expected '='")};
    auto lit = expect_literal();
    if (!lit.ok()) return Err{lit.error()};
    s.value = std::move(lit).value();
    auto where = parse_where_opt();
    if (!where.ok()) return Err{where.error()};
    s.where = std::move(where).value();
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_delete() {
    if (!accept_keyword("FROM")) return Err{std::string("expected FROM")};
    DeleteStatement s;
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();
    auto where = parse_where_opt();
    if (!where.ok()) return Err{where.error()};
    s.where = std::move(where).value();
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_create() {
    if (!accept_keyword("TABLE")) return Err{std::string("expected TABLE")};
    CreateStatement s;
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();
    if (!accept_symbol("(")) return Err{std::string("expected '('")};
    while (true) {
      Column col;
      auto name = expect_identifier();
      if (!name.ok()) return Err{name.error()};
      col.name = std::move(name).value();
      if (accept_keyword("INT")) {
        col.type = ColumnType::kInteger;
      } else if (accept_keyword("TEXT")) {
        col.type = ColumnType::kText;
      } else {
        return Err{std::string("expected INT or TEXT")};
      }
      s.schema.columns.push_back(std::move(col));
      if (!accept_symbol(",")) break;
    }
    if (!accept_symbol(")")) return Err{std::string("expected ')'")};
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_optimize() {
    if (!accept_keyword("TABLE")) return Err{std::string("expected TABLE")};
    AdminStatement s;
    s.kind = AdminStatement::Kind::kOptimize;
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_lock() {
    if (!accept_keyword("TABLES")) return Err{std::string("expected TABLES")};
    AdminStatement s;
    s.kind = AdminStatement::Kind::kLockTables;
    auto table = expect_identifier();
    if (!table.ok()) return Err{table.error()};
    s.table = std::move(table).value();
    if (!accept_keyword("WRITE")) accept_keyword("READ");
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_unlock() {
    if (!accept_keyword("TABLES")) return Err{std::string("expected TABLES")};
    AdminStatement s;
    s.kind = AdminStatement::Kind::kUnlockTables;
    Statement out;
    out.node = std::move(s);
    return out;
  }

  Result<Statement> parse_flush() {
    if (!accept_keyword("TABLES")) return Err{std::string("expected TABLES")};
    AdminStatement s;
    s.kind = AdminStatement::Kind::kFlushTables;
    Statement out;
    out.node = std::move(s);
    return out;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

bool evaluate(CompareOp op, const Value& lhs, const Value& rhs) noexcept {
  return evaluate_op(op, compare(lhs, rhs));
}

util::Result<std::vector<Statement>> parse(std::string_view sql) {
  auto tokens = lex(sql);
  if (!tokens.ok()) return util::Err{tokens.error()};
  Parser parser(std::move(tokens).value());
  return parser.parse_all();
}

}  // namespace faultstudy::apps::sql
