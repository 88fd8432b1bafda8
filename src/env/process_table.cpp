#include "env/process_table.hpp"

namespace faultstudy::env {

std::optional<Pid> ProcessTable::spawn(const std::string& owner) {
  if (full()) {
    obs::emit(sinks_, obs::Event::kProcSpawnDenied, capacity_);
    return std::nullopt;
  }
  const Pid pid = next_pid_++;
  Process p;
  p.pid = pid;
  p.owner = owner;
  procs_.emplace(pid, std::move(p));
  obs::emit(sinks_, obs::Event::kProcSpawned, pid, procs_.size());
  return pid;
}

bool ProcessTable::kill(Pid pid) {
  if (procs_.erase(pid) == 0) return false;
  obs::emit(sinks_, obs::Event::kProcKilled, 1);
  return true;
}

bool ProcessTable::mark_hung(Pid pid) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) return false;
  it->second.hung = true;
  obs::emit(sinks_, obs::Event::kProcHung, pid);
  return true;
}

std::size_t ProcessTable::kill_owned_by(const std::string& owner) {
  std::size_t killed = 0;
  for (auto it = procs_.begin(); it != procs_.end();) {
    if (it->second.owner == owner) {
      it = procs_.erase(it);
      ++killed;
    } else {
      ++it;
    }
  }
  obs::emit(sinks_, obs::Event::kProcKilled, killed);
  return killed;
}

std::size_t ProcessTable::count_owned_by(const std::string& owner) const {
  std::size_t n = 0;
  for (const auto& [pid, p] : procs_) {
    (void)pid;
    if (p.owner == owner) ++n;
  }
  return n;
}

std::size_t ProcessTable::count_hung_owned_by(const std::string& owner) const {
  std::size_t n = 0;
  for (const auto& [pid, p] : procs_) {
    (void)pid;
    if (p.owner == owner && p.hung) ++n;
  }
  return n;
}

Process* ProcessTable::find(Pid pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

const Process* ProcessTable::find(Pid pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

std::vector<Pid> ProcessTable::owned_by(const std::string& owner) const {
  std::vector<Pid> out;
  owned_by(owner, out);
  return out;
}

void ProcessTable::owned_by(const std::string& owner,
                            std::vector<Pid>& out) const {
  out.clear();
  out.reserve(procs_.size());
  for (const auto& [pid, p] : procs_) {
    if (p.owner == owner) out.push_back(pid);
  }
}

}  // namespace faultstudy::env
