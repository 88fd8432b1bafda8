#include "harness/transcript.hpp"

#include "util/strings.hpp"

namespace faultstudy::harness {

namespace {
std::string_view kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kStart:
      return "start";
    case EventKind::kItemOk:
      return "ok";
    case EventKind::kFailure:
      return "FAILURE";
    case EventKind::kRecoveryBegin:
      return "recovery...";
    case EventKind::kRecoveryOk:
      return "recovered";
    case EventKind::kRecoveryFailed:
      return "RECOVERY FAILED";
    case EventKind::kVerdict:
      return "verdict";
    case EventKind::kFdOpen:
      return "fd-open";
    case EventKind::kFdClose:
      return "fd-close";
    case EventKind::kProcSpawn:
      return "proc-spawn";
    case EventKind::kProcKill:
      return "proc-kill";
    case EventKind::kDiskWrite:
      return "disk-write";
    case EventKind::kRollback:
      return "rollback";
    case EventKind::kSignalRaise:
      return "signal-raise";
  }
  return "?";
}
}  // namespace

void Transcript::record(EventKind kind, env::Tick at, std::size_t item,
                        std::string detail) {
  events_.push_back({kind, at, item, std::move(detail)});
}

std::size_t Transcript::count(EventKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::string Transcript::to_string() const {
  std::string out;
  for (const auto& e : events_) {
    out += "[t=";
    out += std::to_string(e.at);
    out += "] item ";
    out += std::to_string(e.item);
    out += ' ';
    out += kind_name(e.kind);
    if (!e.detail.empty()) {
      out += ": ";
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace faultstudy::harness
