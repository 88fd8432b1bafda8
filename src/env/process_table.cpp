#include "env/process_table.hpp"

#include <algorithm>
#include <utility>

namespace faultstudy::env {

namespace {
/// Slots reserved up front: the study's tables hold at most a few dozen
/// processes, and a larger table grows on demand.
constexpr std::size_t kReservedSlots = 64;

bool pid_less(const Process& p, Pid pid) noexcept { return p.pid < pid; }
}  // namespace

ProcessTable::ProcessTable(std::size_t capacity) : capacity_(capacity) {
  procs_.reserve(std::min(capacity, kReservedSlots));
}

std::optional<Pid> ProcessTable::spawn(std::string_view owner) {
  if (full()) {
    obs::emit(sinks_, obs::Event::kProcSpawnDenied, capacity_);
    return std::nullopt;
  }
  const Pid pid = next_pid_++;
  Process& p = procs_.emplace_back();
  p.pid = pid;
  p.owner = owner;
  obs::emit(sinks_, obs::Event::kProcSpawned, pid, procs_.size());
  return pid;
}

bool ProcessTable::kill(Pid pid) {
  Process* p = find(pid);
  if (p == nullptr) return false;
  procs_.erase(procs_.begin() + (p - procs_.data()));
  obs::emit(sinks_, obs::Event::kProcKilled, 1);
  return true;
}

bool ProcessTable::mark_hung(Pid pid) {
  Process* p = find(pid);
  if (p == nullptr) return false;
  p->hung = true;
  obs::emit(sinks_, obs::Event::kProcHung, pid);
  return true;
}

std::size_t ProcessTable::kill_owned_by(std::string_view owner) {
  const std::size_t killed = std::erase_if(
      procs_, [owner](const Process& p) { return p.owner == owner; });
  obs::emit(sinks_, obs::Event::kProcKilled, killed);
  return killed;
}

std::size_t ProcessTable::count_owned_by(std::string_view owner) const {
  return static_cast<std::size_t>(std::count_if(
      procs_.begin(), procs_.end(),
      [owner](const Process& p) { return p.owner == owner; }));
}

std::size_t ProcessTable::count_hung_owned_by(std::string_view owner) const {
  return static_cast<std::size_t>(std::count_if(
      procs_.begin(), procs_.end(),
      [owner](const Process& p) { return p.owner == owner && p.hung; }));
}

Process* ProcessTable::find(Pid pid) {
  return const_cast<Process*>(std::as_const(*this).find(pid));
}

const Process* ProcessTable::find(Pid pid) const {
  auto it = std::lower_bound(procs_.begin(), procs_.end(), pid, pid_less);
  return it == procs_.end() || it->pid != pid ? nullptr : &*it;
}

std::vector<Pid> ProcessTable::owned_by(std::string_view owner) const {
  std::vector<Pid> out;
  owned_by(owner, out);
  return out;
}

void ProcessTable::owned_by(std::string_view owner,
                            std::vector<Pid>& out) const {
  out.clear();
  out.reserve(procs_.size());
  for (const Process& p : procs_) {
    if (p.owner == owner) out.push_back(p.pid);
  }
}

}  // namespace faultstudy::env
