#include "env/fd_table.hpp"

#include <algorithm>

namespace faultstudy::env {

namespace {
/// Owner entries reserved up front: an app, its children and an external
/// actor or two.
constexpr std::size_t kReservedOwners = 4;
}  // namespace

FdTable::FdTable(std::size_t capacity) : capacity_(capacity) {
  held_.reserve(kReservedOwners);
}

std::size_t FdTable::index_of(std::string_view owner) const noexcept {
  std::size_t i = 0;
  while (i < held_.size() && held_[i].first != owner) ++i;
  return i;
}

bool FdTable::acquire(std::string_view owner, std::size_t n) {
  if (available() < n) {
    obs::emit(sinks_, obs::Event::kFdDenied, n, used_);
    return false;
  }
  const std::size_t i = index_of(owner);
  if (i == held_.size()) held_.emplace_back(owner, 0);
  held_[i].second += n;
  used_ += n;
  obs::emit(sinks_, obs::Event::kFdAcquired, n, used_);
  return true;
}

void FdTable::release(std::string_view owner, std::size_t n) {
  const std::size_t i = index_of(owner);
  if (i == held_.size() || held_[i].second == 0) return;
  const std::size_t freed = std::min(n, held_[i].second);
  held_[i].second -= freed;
  used_ -= freed;
  obs::emit(sinks_, obs::Event::kFdReleased, freed);
}

std::size_t FdTable::release_all(std::string_view owner) {
  const std::size_t i = index_of(owner);
  if (i == held_.size() || held_[i].second == 0) return 0;
  const std::size_t freed = held_[i].second;
  used_ -= freed;
  held_[i].second = 0;
  obs::emit(sinks_, obs::Event::kFdReleased, freed);
  return freed;
}

std::size_t FdTable::held_by(std::string_view owner) const {
  const std::size_t i = index_of(owner);
  return i == held_.size() ? 0 : held_[i].second;
}

}  // namespace faultstudy::env
