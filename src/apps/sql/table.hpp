// Table heap + ordered index for the mini SQL engine.
//
// The index is a vector of (first column's value, row slot) pairs sorted by
// key, scanned through an explicit cursor. Among equal keys an entry sits
// after the ones already there, so equal keys run in insertion order. The
// cursor is what makes the paper's mysql-ei-01 bug expressible: an UPDATE
// that modifies the indexed column *while scanning the index* re-encounters
// rows it moved ahead of the cursor and corrupts the index with duplicates.
// Even then every live row keeps an entry under its current key: insert,
// every key move (the corrupting one too) and compact add one, and only a
// fixed key move or an erase of that row removes one. Stale entries only
// add candidates, so a key range's slots, deduplicated and re-checked, are
// exactly the live rows in that range (index_range).
//
// Row storage is flat and copy-on-write. All cells sit row-major in one
// vector, the schema's width per slot; that vector, the dead-slot bitmap,
// the live count and the index form one `Data` block behind a shared
// pointer, so copying a Table (and with it an Engine, a database snapshot
// or the catalog image) shares the block instead of copying rows. The
// schema never changes after CREATE TABLE, so copies share it too: copying
// a Table allocates nothing. Every
// mutator that changes something first takes sole ownership, cloning the
// block if anyone else holds it: a copy costs O(1), the first write after
// it one block copy — a constant number of allocations plus O(cells) value
// copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "apps/sql/ast.hpp"
#include "apps/sql/value.hpp"

namespace faultstudy::apps::sql {

using Slot = std::uint32_t;

class Table {
  struct Data;

 public:
  explicit Table(Schema schema)
      : schema_(std::make_shared<const Schema>(std::move(schema))) {}

  const Schema& schema() const noexcept { return *schema_; }
  std::size_t row_count() const noexcept { return data_->live_rows; }

  /// Slots ever appended, live or dead. A full scan walks [0, slot_count())
  /// and skips the slots `is_live` rejects.
  Slot slot_count() const noexcept {
    return static_cast<Slot>(data_->dead.size());
  }

  /// Appends a copy of the row's cells and indexes its column 0. Throws
  /// std::invalid_argument, leaving the table unchanged, unless the row has
  /// the schema's width.
  Slot insert(const Row& row);

  /// Marks a slot dead and removes its index entry.
  void erase(Slot slot);

  bool is_live(Slot slot) const noexcept;

  /// The cells of a slot, dead or live. Throws std::out_of_range for a slot
  /// past slot_count(). The span is invalidated by the next write.
  std::span<const Value> row(Slot slot) const {
    if (slot >= slot_count()) throw_past_end(slot);
    return {data_->cells.data() + slot * width(), width()};
  }

  /// In-place cell update, maintaining the index when column 0 changes; a
  /// no-op when the cell already holds `value`. If
  /// `corrupt_index_on_key_move` is set (the injected mysql-ei-01 bug), the
  /// OLD index entry is left behind, creating duplicate index values.
  void update_cell(Slot slot, int column, Value value,
                   bool corrupt_index_on_key_move = false);

  /// The index entries whose key k satisfies `k op key`; `op` is `=`, `<`,
  /// `<=`, `>` or `>=` (`!=` is no range). Stale entries included: dedupe
  /// the slots, drop dead ones and re-check the rows. The span is
  /// invalidated by the next write.
  std::span<const std::pair<Value, Slot>> index_range(CompareOp op,
                                                      const Value& key) const;

  /// Ordered index scan cursor over (key, slot) pairs. It holds the block
  /// it opened on and a position in that block's index, so it survives the
  /// index reallocating under it and meets entries inserted ahead of it.
  /// An entry inserted or removed at or behind the position shifts the
  /// cursor's view by one; the mysql-ei-01 scan stops at its first key
  /// move, so it never steps past one.
  class IndexCursor {
   public:
    bool done() const noexcept;
    Slot slot() const;
    const Value& key() const;
    void next() noexcept { ++pos_; }

   private:
    friend class Table;
    explicit IndexCursor(const Data* block) : block_(block) {}
    const Data* block_;
    std::size_t pos_ = 0;
  };

  /// The cursor walks the storage block current at the call. A caller that
  /// mutates the table while scanning must detach() first, or the first
  /// write clones the block and the cursor keeps walking the old copy.
  IndexCursor index_scan() const { return IndexCursor(data_.get()); }

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
  struct Data {
    Data() = default;
    /// Keeps the source's capacity: the write that forced the clone must
    /// not reallocate what was just copied.
    Data(const Data& other);

    std::vector<Value> cells;  ///< row-major, width() cells per slot
    std::vector<bool> dead;    ///< one flag per slot
    std::size_t live_rows = 0;
    std::vector<std::pair<Value, Slot>> index;  ///< sorted by key

    /// Appends one slot's cells, copied or moved from [first, last).
    template <typename It>
    Slot append(It first, It last);
    /// Inserts an entry after every entry with an equal key.
    void index_add(const Value& key, Slot slot);
    /// Removes the entry for `slot` under `key`, if there is one.
    void index_remove(const Value& key, Slot slot);
    /// True when compact() would rebuild exactly this state: no dead
    /// slots, every row indexed once, in rebuild order.
    bool compacted(std::size_t width) const;
  };

  std::size_t width() const noexcept { return schema_->columns.size(); }
  const Value& key_of(Slot slot) const { return data_->cells[slot * width()]; }
  [[noreturn]] void throw_past_end(Slot slot) const;

  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<Data> data_ = std::make_shared<Data>();
};

}  // namespace faultstudy::apps::sql
