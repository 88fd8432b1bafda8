#include "env/disk.hpp"

namespace faultstudy::env {

Disk::WriteResult Disk::append(std::string_view path, std::uint64_t bytes) {
  if (free_space() < bytes) {
    obs::emit(sinks_, obs::Event::kDiskNoSpace, bytes, used_);
    return WriteResult::kNoSpace;
  }
  auto it = files_.find(path);
  if (it == files_.end()) it = files_.emplace(path, FileInfo{}).first;
  FileInfo& info = it->second;
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
  auto it = files_.find(path);
  if (it == files_.end()) return;
  used_ -= it->second.size;
  it->second.size = 0;
  obs::emit(sinks_, obs::Event::kDiskTruncate);
}

void Disk::remove_prefix(std::string_view prefix) {
  std::erase_if(files_, [&](const auto& entry) {
    if (!entry.first.starts_with(prefix)) return false;
    used_ -= entry.second.size;
    return true;
  });
}

void Disk::consume_external(std::uint64_t target_used) {
  if (target_used <= used_) return;
  const std::uint64_t grow = target_used - used_;
  files_["/external/ballast"].size += grow;
  used_ += grow;
}

std::optional<FileInfo> Disk::stat(std::string_view path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

void Disk::set_owner(const std::string& path, std::int64_t uid) {
  files_[path].owner_uid = uid;
}

std::vector<std::string> Disk::list_prefix(const std::string& prefix) const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, info] : files_) {
    (void)info;
    if (path.starts_with(prefix)) out.push_back(path);
  }
  return out;
}

std::uint64_t Disk::used_under(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& [path, info] : files_) {
    if (path.starts_with(prefix)) total += info.size;
  }
  return total;
}

}  // namespace faultstudy::env
