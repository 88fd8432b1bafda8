#include "env/fd_table.hpp"

#include <algorithm>

namespace faultstudy::env {

bool FdTable::acquire(const std::string& owner, std::size_t n) {
  if (available() < n) {
    obs::emit(sinks_, obs::Event::kFdDenied, n, used_);
    return false;
  }
  held_[owner] += n;
  used_ += n;
  obs::emit(sinks_, obs::Event::kFdAcquired, n, used_);
  return true;
}

void FdTable::release(const std::string& owner, std::size_t n) {
  auto it = held_.find(owner);
  if (it == held_.end()) return;
  const std::size_t freed = std::min(n, it->second);
  it->second -= freed;
  used_ -= freed;
  if (it->second == 0) held_.erase(it);
  obs::emit(sinks_, obs::Event::kFdReleased, freed);
}

std::size_t FdTable::release_all(const std::string& owner) {
  auto it = held_.find(owner);
  if (it == held_.end()) return 0;
  const std::size_t freed = it->second;
  used_ -= freed;
  held_.erase(it);
  obs::emit(sinks_, obs::Event::kFdReleased, freed);
  return freed;
}

std::size_t FdTable::held_by(const std::string& owner) const {
  auto it = held_.find(owner);
  return it == held_.end() ? 0 : it->second;
}

}  // namespace faultstudy::env
