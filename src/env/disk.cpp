#include "env/disk.hpp"

#include <functional>
#include <utility>

namespace faultstudy::env {

namespace {
/// First sizes of the tables: room for an apache trial's cache files, so a
/// trial's disk usually allocates each table once.
constexpr std::size_t kFirstFiles = 64;
constexpr std::size_t kFirstNames = 2048;

std::size_t hash_of(std::string_view path) {
  return std::hash<std::string_view>{}(path);
}
}  // namespace

const Disk::File* Disk::find(std::string_view path) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash_of(path) & mask;; i = (i + 1) & mask) {
    if (index_[i] == 0) return nullptr;
    const File& file = files_[index_[i] - 1];
    if (path_of(file) == path) return &file;
  }
}

Disk::File* Disk::find(std::string_view path) {
  return const_cast<File*>(std::as_const(*this).find(path));
}

void Disk::index_file(std::size_t file) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash_of(path_of(files_[file])) & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = static_cast<std::uint32_t>(file + 1);
}

Disk::File& Disk::open(std::string_view path) {
  if (File* file = find(path)) {
    if (!file->live) *file = {file->name, file->length, true, FileInfo{}};
    return *file;
  }
  if (files_.empty()) {
    files_.reserve(kFirstFiles);
    names_.reserve(kFirstNames);
  }
  File& file = files_.emplace_back();
  file.name = static_cast<std::uint32_t>(names_.size());
  file.length = static_cast<std::uint32_t>(path.size());
  file.live = true;
  names_ += path;
  if (files_.size() * 2 <= index_.size()) {
    index_file(files_.size() - 1);
  } else {
    index_.assign(index_.empty() ? kFirstFiles * 2 : index_.size() * 2, 0);
    for (std::size_t f = 0; f < files_.size(); ++f) index_file(f);
  }
  return file;
}

Disk::WriteResult Disk::append(std::string_view path, std::uint64_t bytes) {
  if (free_space() < bytes) {
    obs::emit(sinks_, obs::Event::kDiskNoSpace, bytes, used_);
    return WriteResult::kNoSpace;
  }
  FileInfo& info = open(path).info;
  if (info.size + bytes > max_file_size_) {
    obs::emit(sinks_, obs::Event::kDiskFileTooBig, bytes, max_file_size_);
    return WriteResult::kFileTooBig;
  }
  info.size += bytes;
  used_ += bytes;
  obs::emit(sinks_, obs::Event::kDiskWrite, bytes, used_);
  return WriteResult::kOk;
}

void Disk::truncate(std::string_view path) {
  File* file = find(path);
  if (file == nullptr || !file->live) return;
  used_ -= file->info.size;
  file->info.size = 0;
  obs::emit(sinks_, obs::Event::kDiskTruncate);
}

void Disk::remove_prefix(std::string_view prefix) {
  for (File& file : files_) {
    if (!file.live || !path_of(file).starts_with(prefix)) continue;
    used_ -= file.info.size;
    file.live = false;
  }
}

void Disk::consume_external(std::uint64_t target_used) {
  if (target_used <= used_) return;
  const std::uint64_t grow = target_used - used_;
  open("/external/ballast").info.size += grow;
  used_ += grow;
}

std::optional<FileInfo> Disk::stat(std::string_view path) const {
  const File* file = find(path);
  if (file == nullptr || !file->live) return std::nullopt;
  return file->info;
}

void Disk::set_owner(std::string_view path, std::int64_t uid) {
  open(path).info.owner_uid = uid;
}

std::vector<std::string> Disk::list_prefix(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const File& file : files_) {
    if (file.live && path_of(file).starts_with(prefix)) {
      out.emplace_back(path_of(file));
    }
  }
  return out;
}

std::uint64_t Disk::used_under(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (const File& file : files_) {
    if (file.live && path_of(file).starts_with(prefix)) {
      total += file.info.size;
    }
  }
  return total;
}

}  // namespace faultstudy::env
