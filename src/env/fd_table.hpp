// Simulated file-descriptor accounting.
//
// A single system-wide pool with per-owner accounting. Owners are
// applications ("apache") or external actors ("webserver-neighbor",
// "sound-utilities") — the paper's EDN faults include descriptor shortages
// caused both by the application's own appetite and by competing programs.
//
// Per-owner counts sit in a short flat vector, one entry per owner that has
// ever acquired, kept at zero when released: a trial's owners are a handful,
// and re-acquiring after a release allocates nothing.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/bus.hpp"

namespace faultstudy::env {

class FdTable {
 public:
  explicit FdTable(std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return used_; }
  std::size_t available() const noexcept { return capacity_ - used_; }

  /// Acquires `n` descriptors for `owner`; false (and no change) when fewer
  /// than `n` remain.
  bool acquire(std::string_view owner, std::size_t n);

  /// Releases up to `n` descriptors held by `owner`.
  void release(std::string_view owner, std::size_t n);

  /// Releases everything `owner` holds; returns how many were freed.
  std::size_t release_all(std::string_view owner);

  std::size_t held_by(std::string_view owner) const;

  /// Grows the table (Section 6.2's first countermeasure: "the operating
  /// system may be able to dynamically increase the number of file
  /// descriptors available to a process").
  void grow(std::size_t extra) noexcept { capacity_ += extra; }

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  /// The position of `owner`'s entry; held_.size() when it never acquired.
  std::size_t index_of(std::string_view owner) const noexcept;

  std::vector<std::pair<std::string, std::size_t>> held_;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
