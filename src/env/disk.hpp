// Simulated file system: capacity, per-file sizes, a per-file size limit,
// and file metadata (the owner field a GNOME fault chokes on).
//
// The file table is flat: one entry per path ever created, in creation
// order, with every path in one character buffer and an open-addressing
// index over the entries. Removing a file keeps its entry (path, index
// slot and all) and marks it removed, like the network's port table, so
// re-creating it allocates nothing: a warm apache cache fill after
// rejuvenate() writes the same paths again. Walks by prefix read the
// entries in creation order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bus.hpp"

namespace faultstudy::env {

struct FileInfo {
  std::uint64_t size = 0;
  /// Owner uid; a negative value is the "illegal value in the owner field"
  /// from the GNOME study.
  std::int64_t owner_uid = 0;
};

class Disk {
 public:
  Disk(std::uint64_t capacity_bytes, std::uint64_t max_file_size)
      : capacity_(capacity_bytes), max_file_size_(max_file_size) {}

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t used() const noexcept { return used_; }
  std::uint64_t free_space() const noexcept { return capacity_ - used_; }
  std::uint64_t max_file_size() const noexcept { return max_file_size_; }
  bool full() const noexcept { return used_ >= capacity_; }

  enum class WriteResult { kOk, kNoSpace, kFileTooBig };

  /// Appends `bytes` to `path` (creating it if absent). Only creating a
  /// path the disk has never held may allocate.
  WriteResult append(std::string_view path, std::uint64_t bytes);

  /// Truncates a file to zero length, reclaiming its space.
  void truncate(std::string_view path);

  /// Removes every file under a path prefix (e.g. the app's cache
  /// directory), in place.
  void remove_prefix(std::string_view prefix);

  /// Fills the disk up to `target_used` bytes with an external file (models
  /// other tenants of the file system).
  void consume_external(std::uint64_t target_used);

  std::optional<FileInfo> stat(std::string_view path) const;
  void set_owner(std::string_view path, std::int64_t uid);

  /// Grows the volume (the paper: "some systems may provide a way to
  /// automatically increase the disk capacity and hence avoid the bug
  /// during retry. If this becomes common, we would re-classify this as an
  /// environment-dependent-transient fault").
  void grow(std::uint64_t extra_bytes) noexcept { capacity_ += extra_bytes; }

  /// Raises the per-file size limit (e.g. large-file support enabled).
  void raise_file_size_limit(std::uint64_t new_limit) noexcept {
    if (new_limit > max_file_size_) max_file_size_ = new_limit;
  }

  /// Paths with the given prefix (e.g. the app's cache directory), in
  /// creation order.
  std::vector<std::string> list_prefix(std::string_view prefix) const;

  /// Total bytes under a path prefix.
  std::uint64_t used_under(std::string_view prefix) const;

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  std::uint64_t capacity_;
  std::uint64_t max_file_size_;
  std::uint64_t used_ = 0;

  struct File {
    std::uint32_t name = 0;    ///< offset of the path in names_
    std::uint32_t length = 0;  ///< the path's length
    bool live = false;         ///< false once removed
    FileInfo info;
  };
  std::string_view path_of(const File& file) const {
    return std::string_view(names_).substr(file.name, file.length);
  }
  /// The entry for `path`, live or removed; nullptr if never created.
  const File* find(std::string_view path) const;
  File* find(std::string_view path);
  /// The live entry for `path`: created, or revived empty, if need be.
  File& open(std::string_view path);
  /// Puts files_[file] in the index.
  void index_file(std::size_t file);

  std::string names_;  ///< every path ever created, back to back
  std::vector<File> files_;
  /// files_ index + 1 per slot, 0 for an empty slot; a power of two
  /// slots, at most half full.
  std::vector<std::uint32_t> index_;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
