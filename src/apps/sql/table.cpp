#include "apps/sql/table.hpp"

namespace faultstudy::apps::sql {

Slot Table::Data::append(Row row) {
  const auto slot = static_cast<Slot>(rows.size());
  if (!row.empty()) index.emplace(row[0], slot);
  rows.push_back(std::move(row));
  dead.push_back(false);
  ++live_rows;
  return slot;
}

void Table::detach() {
  // The use_count() test is race-free. Storage crosses threads only
  // through the process-wide catalog image (apps/database.cpp), which holds
  // its own reference for the life of the process, so a block another lane
  // can see never reads as sole-owned. Every other holder of a block lives
  // on this table's thread.
  if (data_.use_count() > 1) data_ = std::make_shared<Data>(*data_);
}

Slot Table::insert(Row row) {
  detach();
  return data_->append(std::move(row));
}

void Table::erase(Slot slot) {
  if (!is_live(slot)) return;
  detach();
  Data& d = *data_;
  d.dead[slot] = true;
  --d.live_rows;
  const auto [lo, hi] = d.index.equal_range(d.rows[slot][0]);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == slot) {
      d.index.erase(it);
      break;
    }
  }
}

bool Table::is_live(Slot slot) const noexcept {
  return slot < data_->rows.size() && !data_->dead[slot];
}

void Table::update_cell(Slot slot, int column, Value value,
                        bool corrupt_index_on_key_move) {
  if (!is_live(slot)) return;
  if (column < 0 || static_cast<std::size_t>(column) >= row(slot).size()) {
    return;
  }
  detach();
  Data& d = *data_;
  Row& r = d.rows[slot];

  if (column == 0 && compare(r[0], value) != 0) {
    if (!corrupt_index_on_key_move) {
      // Correct behavior: move the index entry to the new key.
      const auto [lo, hi] = d.index.equal_range(r[0]);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == slot) {
          d.index.erase(it);
          break;
        }
      }
    }
    // The buggy path (mysql-ei-01) skips the erase: the stale entry stays
    // behind, so the row is now indexed under two keys.
    d.index.emplace(value, slot);
  }
  r[static_cast<std::size_t>(column)] = std::move(value);
}

std::vector<Slot> Table::scan_heap() const {
  std::vector<Slot> out;
  for (Slot s = 0; s < data_->rows.size(); ++s) {
    if (!data_->dead[s]) out.push_back(s);
  }
  return out;
}

Table::IndexCursor Table::index_scan() const {
  return IndexCursor(data_->index.begin(), data_->index.end());
}

bool Table::check_index() const {
  const Data& d = *data_;
  if (d.index.size() != d.live_rows) return false;
  for (const auto& [key, slot] : d.index) {
    if (!is_live(slot)) return false;
    if (compare(d.rows[slot][0], key) != 0) return false;
  }
  return true;
}

bool Table::Data::compacted() const {
  if (live_rows != rows.size() || index.size() != rows.size()) return false;
  // A rebuild indexes every row in slot order, so equal keys end up in
  // ascending slot order: the index must run strictly ascending in
  // (key, slot), each entry under its row's current key.
  const std::pair<const Value, Slot>* prev = nullptr;
  for (const auto& entry : index) {
    const auto& [key, slot] = entry;
    if (compare(rows[slot][0], key) != 0) return false;
    if (prev != nullptr) {
      const int order = compare(prev->first, key);
      if (order > 0 || (order == 0 && prev->second >= slot)) return false;
    }
    prev = &entry;
  }
  return true;
}

void Table::compact() {
  Data& d = *data_;
  // Nothing to reclaim and nothing to reorder: a rebuild would reproduce
  // this exact state, so keep (and keep sharing) the block.
  if (d.compacted()) return;
  // Rebuild from the live rows: moved out of a block this table owns,
  // copied once out of a shared one.
  const bool owned = data_.use_count() == 1;
  auto fresh = std::make_shared<Data>();
  fresh->rows.reserve(d.live_rows);
  fresh->dead.reserve(d.live_rows);
  for (Slot s = 0; s < d.rows.size(); ++s) {
    if (!d.dead[s]) fresh->append(owned ? std::move(d.rows[s]) : d.rows[s]);
  }
  data_ = std::move(fresh);
}

}  // namespace faultstudy::apps::sql
