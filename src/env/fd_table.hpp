// Simulated file-descriptor accounting.
//
// A single system-wide pool with per-owner accounting. Owners are
// applications ("apache") or external actors ("webserver-neighbor",
// "sound-utilities") — the paper's EDN faults include descriptor shortages
// caused both by the application's own appetite and by competing programs.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "obs/bus.hpp"

namespace faultstudy::env {

class FdTable {
 public:
  explicit FdTable(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return used_; }
  std::size_t available() const noexcept { return capacity_ - used_; }

  /// Acquires `n` descriptors for `owner`; false (and no change) when fewer
  /// than `n` remain.
  bool acquire(const std::string& owner, std::size_t n);

  /// Releases up to `n` descriptors held by `owner`.
  void release(const std::string& owner, std::size_t n);

  /// Releases everything `owner` holds; returns how many were freed.
  std::size_t release_all(const std::string& owner);

  std::size_t held_by(const std::string& owner) const;

  /// Grows the table (Section 6.2's first countermeasure: "the operating
  /// system may be able to dynamically increase the number of file
  /// descriptors available to a process").
  void grow(std::size_t extra) noexcept { capacity_ += extra; }

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::unordered_map<std::string, std::size_t> held_;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
