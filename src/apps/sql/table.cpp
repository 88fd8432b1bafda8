#include "apps/sql/table.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>

namespace faultstudy::apps::sql {

namespace {
bool key_less(const Value& key, const std::pair<Value, Slot>& entry) {
  return compare(key, entry.first) < 0;
}
bool entry_less(const std::pair<Value, Slot>& entry, const Value& key) {
  return compare(entry.first, key) < 0;
}
}  // namespace

Table::Data::Data(const Data& other) : live_rows(other.live_rows) {
  cells.reserve(other.cells.capacity());
  dead.reserve(other.dead.capacity());
  index.reserve(other.index.capacity());
  cells = other.cells;
  dead = other.dead;
  index = other.index;
}

template <typename It>
Slot Table::Data::append(It first, It last) {
  const auto slot = static_cast<Slot>(dead.size());
  const std::size_t begin = cells.size();
  cells.insert(cells.end(), first, last);
  if (cells.size() > begin) index_add(cells[begin], slot);
  dead.push_back(false);
  ++live_rows;
  return slot;
}

void Table::Data::index_add(const Value& key, Slot slot) {
  index.emplace(std::upper_bound(index.begin(), index.end(), key, key_less),
                key, slot);
}

void Table::Data::index_remove(const Value& key, Slot slot) {
  for (auto it = std::lower_bound(index.begin(), index.end(), key, entry_less);
       it != index.end() && compare(it->first, key) == 0; ++it) {
    if (it->second == slot) {
      index.erase(it);
      return;
    }
  }
}

void Table::detach() {
  // The use_count() test is race-free. Storage crosses threads only
  // through the process-wide catalog image (apps/database.cpp), which holds
  // its own reference for the life of the process, so a block another lane
  // can see never reads as sole-owned. Every other holder of a block lives
  // on this table's thread.
  if (data_.use_count() > 1) data_ = std::make_shared<Data>(*data_);
}

Slot Table::insert(const Row& row) {
  if (row.size() != width()) {
    throw std::invalid_argument("row of width " + std::to_string(row.size()) +
                                " for a table of width " +
                                std::to_string(width()));
  }
  detach();
  return data_->append(row.begin(), row.end());
}

void Table::erase(Slot slot) {
  if (!is_live(slot)) return;
  detach();
  Data& d = *data_;
  d.dead[slot] = true;
  --d.live_rows;
  if (width() > 0) d.index_remove(key_of(slot), slot);
}

bool Table::is_live(Slot slot) const noexcept {
  return slot < data_->dead.size() && !data_->dead[slot];
}

void Table::throw_past_end(Slot slot) const {
  throw std::out_of_range("row slot " + std::to_string(slot) +
                          " past the table's " +
                          std::to_string(slot_count()) + " slots");
}

void Table::update_cell(Slot slot, int column, Value value,
                        bool corrupt_index_on_key_move) {
  if (!is_live(slot)) return;
  if (column < 0 || static_cast<std::size_t>(column) >= width()) return;
  const std::size_t at = slot * width() + static_cast<std::size_t>(column);
  if (compare(data_->cells[at], value) == 0) return;  // keep sharing
  detach();
  Data& d = *data_;
  Value& cell = d.cells[at];

  if (column == 0) {
    // Correct behavior: move the index entry to the new key. The buggy
    // path (mysql-ei-01) skips the removal: the stale entry stays behind,
    // so the row is now indexed under two keys.
    if (!corrupt_index_on_key_move) d.index_remove(cell, slot);
    d.index_add(value, slot);
  }
  cell = std::move(value);
}

std::span<const std::pair<Value, Slot>> Table::index_range(
    CompareOp op, const Value& key) const {
  assert(op != CompareOp::kNe);
  const auto& index = data_->index;
  const auto lower =
      std::lower_bound(index.begin(), index.end(), key, entry_less);
  const auto upper = std::upper_bound(lower, index.end(), key, key_less);
  switch (op) {
    case CompareOp::kEq:
      return {lower, upper};
    case CompareOp::kLt:
      return {index.begin(), lower};
    case CompareOp::kLe:
      return {index.begin(), upper};
    case CompareOp::kGt:
      return {upper, index.end()};
    case CompareOp::kGe:
      return {lower, index.end()};
    case CompareOp::kNe:
      break;
  }
  return index;
}

bool Table::IndexCursor::done() const noexcept {
  return pos_ >= block_->index.size();
}

Slot Table::IndexCursor::slot() const { return block_->index[pos_].second; }

const Value& Table::IndexCursor::key() const {
  return block_->index[pos_].first;
}

bool Table::check_index() const {
  const Data& d = *data_;
  if (d.index.size() != d.live_rows) return false;
  for (const auto& [key, slot] : d.index) {
    if (!is_live(slot)) return false;
    if (compare(key_of(slot), key) != 0) return false;
  }
  return true;
}

bool Table::Data::compacted(std::size_t width) const {
  if (live_rows != dead.size() || index.size() != dead.size()) return false;
  // A rebuild indexes every row in slot order, so equal keys end up in
  // ascending slot order: the index must run strictly ascending in
  // (key, slot), each entry under its row's current key.
  for (std::size_t i = 0; i < index.size(); ++i) {
    const auto& [key, slot] = index[i];
    if (compare(cells[slot * width], key) != 0) return false;
    if (i > 0) {
      const auto& [prev_key, prev_slot] = index[i - 1];
      const int order = compare(prev_key, key);
      if (order > 0 || (order == 0 && prev_slot >= slot)) return false;
    }
  }
  return true;
}

void Table::compact() {
  Data& d = *data_;
  // Nothing to reclaim and nothing to reorder: a rebuild would reproduce
  // this exact state, so keep (and keep sharing) the block.
  if (d.compacted(width())) return;
  // Rebuild from the live rows: moved out of a block this table owns,
  // copied once out of a shared one.
  const bool owned = data_.use_count() == 1;
  auto fresh = std::make_shared<Data>();
  fresh->cells.reserve(d.live_rows * width());
  fresh->dead.reserve(d.live_rows);
  fresh->index.reserve(d.live_rows);
  for (Slot s = 0; s < d.dead.size(); ++s) {
    if (d.dead[s]) continue;
    const auto w = static_cast<std::ptrdiff_t>(width());
    const auto first = d.cells.begin() + static_cast<std::ptrdiff_t>(s) * w;
    const auto last = first + w;
    if (owned) {
      fresh->append(std::make_move_iterator(first),
                    std::make_move_iterator(last));
    } else {
      fresh->append(first, last);
    }
  }
  data_ = std::move(fresh);
}

}  // namespace faultstudy::apps::sql
