// Table heap + ordered index for the mini SQL engine.
//
// The index is an ordered multimap from the first column's value to row
// slots, scanned through an explicit cursor. The cursor is what makes the
// paper's mysql-ei-01 bug expressible: an UPDATE that modifies the indexed
// column *while scanning the index tree* re-encounters rows it moved ahead
// of the cursor and corrupts the index with duplicates.
//
// Row storage is copy-on-write. The heap, the dead-slot bitmap, the live
// count and the index sit in one `Data` block behind a shared pointer, so
// copying a Table (and with it an Engine, a database snapshot or the
// catalog image) shares the block instead of copying rows. Every mutator
// first takes sole ownership, cloning the block if anyone else holds it:
// a copy costs O(1), the first write after it O(rows of this table).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/sql/ast.hpp"
#include "apps/sql/value.hpp"

namespace faultstudy::apps::sql {

using Slot = std::uint32_t;

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const noexcept { return schema_; }
  std::size_t row_count() const noexcept { return data_->live_rows; }

  /// Appends a row (must match the schema arity); indexes column 0.
  Slot insert(Row row);

  /// Marks a slot dead and removes its index entry.
  void erase(Slot slot);

  bool is_live(Slot slot) const noexcept;
  const Row& row(Slot slot) const { return data_->rows.at(slot); }

  /// In-place cell update, maintaining the index when column 0 changes.
  /// If `corrupt_index_on_key_move` is set (the injected mysql-ei-01 bug),
  /// the OLD index entry is left behind, creating duplicate index values.
  void update_cell(Slot slot, int column, Value value,
                   bool corrupt_index_on_key_move = false);

  /// All live slots in heap order.
  std::vector<Slot> scan_heap() const;

  /// Ordered index scan cursor over (key, slot) pairs.
  class IndexCursor {
   public:
    bool done() const noexcept { return it_ == end_; }
    Slot slot() const { return it_->second; }
    const Value& key() const { return it_->first; }
    void next() { ++it_; }

   private:
    friend class Table;
    using Iter = std::multimap<Value, Slot, bool (*)(const Value&, const Value&)>::const_iterator;
    IndexCursor(Iter it, Iter end) : it_(it), end_(end) {}
    Iter it_;
    Iter end_;
  };

  /// The cursor walks the storage block current at the call. A caller that
  /// mutates the table while scanning must detach() first, or the first
  /// write clones the block and the cursor keeps walking the old copy.
  IndexCursor index_scan() const;

  /// Takes sole ownership of the row storage, cloning it if it is shared.
  /// Every mutator does this itself.
  void detach();

  /// Index entries per key value (tests use this to detect the planted
  /// duplicate-key corruption).
  std::size_t index_entries() const noexcept { return data_->index.size(); }

  /// Verifies index/heap consistency: every live row indexed exactly once
  /// under its current key. Returns false when corrupted.
  bool check_index() const;

  /// OPTIMIZE TABLE-style compaction: rebuilds heap and index from live
  /// rows, dropping dead slots.
  void compact();

 private:
  static bool value_less(const Value& a, const Value& b) {
    return compare(a, b) < 0;
  }

  struct Data {
    std::vector<Row> rows;
    std::vector<bool> dead;
    std::size_t live_rows = 0;
    std::multimap<Value, Slot, bool (*)(const Value&, const Value&)> index{
        &Table::value_less};

    Slot append(Row row);
    /// True when compact() would rebuild exactly this state: no dead
    /// slots, every row indexed once, in rebuild order.
    bool compacted() const;
  };

  Schema schema_;
  std::shared_ptr<Data> data_ = std::make_shared<Data>();
};

}  // namespace faultstudy::apps::sql
