#include "analysis/race_detector.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace faultstudy::analysis {

namespace {

struct ThreadState {
  VectorClock vc;
};

struct LockState {
  VectorClock release_vc;
};

/// The last write and the last read per thread of one shared variable:
/// where the access sits in the trace and the owner's clock at it. A side
/// of a report is rebuilt from the trace only once a conflict cites it.
struct Access {
  std::size_t event_index = 0;
  env::ThreadId thread = 0;
  std::uint32_t clock = 0;  ///< owner thread's clock at the access
};

struct VarState {
  std::optional<Access> last_write;
  std::unordered_map<env::ThreadId, Access> reads;
};

std::uint64_t pair_key(env::ObjectId object, env::ThreadId a,
                       env::ThreadId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(object) << 40) |
         (static_cast<std::uint64_t>(a) << 20) | b;
}

/// Fills every report side's lockset and history by replaying the trace
/// once, up to the last cited access: a side gets its thread's locks held
/// and its last `history_depth` preceding events as of just before its
/// access, which is what the detector would have copied at the access.
void rebuild_sides(std::vector<RaceReport>& reports,
                   std::span<const env::TraceEvent> trace,
                   std::size_t history_depth) {
  std::vector<AccessRecord*> sides;
  sides.reserve(reports.size() * 2);
  for (RaceReport& r : reports) {
    sides.push_back(&r.first);
    sides.push_back(&r.second);
  }
  std::sort(sides.begin(), sides.end(),
            [](const AccessRecord* a, const AccessRecord* b) {
              return a->event_index < b->event_index;
            });

  struct Replay {
    std::vector<env::ObjectId> locks_held;  ///< innermost last
    std::vector<std::size_t> history;       ///< every preceding event
  };
  std::unordered_map<env::ThreadId, Replay> threads;
  auto side = sides.begin();
  for (std::size_t i = 0; side != sides.end(); ++i) {
    const env::TraceEvent& event = trace[i];
    Replay& self = threads[event.thread];
    for (; side != sides.end() && (*side)->event_index == i; ++side) {
      AccessRecord& record = **side;
      record.locks_held = self.locks_held;
      const std::size_t kept = std::min(self.history.size(), history_depth);
      record.history.assign(self.history.end() -
                                static_cast<std::ptrdiff_t>(kept),
                            self.history.end());
    }
    if (event.op == env::TraceOp::kLock) {
      self.locks_held.push_back(event.object);
    } else if (event.op == env::TraceOp::kUnlock) {
      auto& held = self.locks_held;
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (*it == event.object) {
          held.erase(std::next(it).base());
          break;
        }
      }
    }
    self.history.push_back(i);
  }
}

}  // namespace

std::vector<RaceReport> RaceDetector::analyze(
    std::span<const env::TraceEvent> trace) {
  std::vector<RaceReport> reports;
  std::unordered_map<env::ThreadId, ThreadState> threads;
  std::unordered_map<env::ObjectId, LockState> locks;
  std::unordered_map<env::ObjectId, VarState> vars;
  std::unordered_set<std::uint64_t> reported;

  // A side carries its trace index, thread, op and note here; its lockset
  // and history are filled in by rebuild_sides once the scan is done.
  const auto side_at = [&](std::size_t index) {
    const env::TraceEvent& event = trace[index];
    AccessRecord record;
    record.event_index = index;
    record.thread = event.thread;
    record.op = event.op;
    record.note = event.note;
    return record;
  };

  const auto report_pair = [&](env::ObjectId object, const Access& earlier,
                               std::size_t later) {
    if (reports.size() >= options_.max_reports) return;
    if (options_.dedupe_pairs) {
      const auto key = pair_key(object, earlier.thread, trace[later].thread);
      if (!reported.insert(key).second) return;
    }
    reports.push_back({object, side_at(earlier.event_index), side_at(later)});
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const env::TraceEvent& event = trace[i];
    // Materialize both map entries a fork/join touches before taking any
    // reference — operator[] may rehash and invalidate `self`.
    if (event.op == env::TraceOp::kFork || event.op == env::TraceOp::kJoin) {
      threads.try_emplace(event.object);
    }
    ThreadState& self = threads[event.thread];

    switch (event.op) {
      case env::TraceOp::kLock:
        self.vc.join(locks[event.object].release_vc);
        break;

      case env::TraceOp::kUnlock:
        locks[event.object].release_vc = self.vc;
        self.vc.bump(event.thread);
        break;

      case env::TraceOp::kFork: {
        ThreadState& child = threads.find(event.object)->second;
        child.vc.join(self.vc);
        self.vc.bump(event.thread);
        break;
      }

      case env::TraceOp::kJoin: {
        const ThreadState& child = threads.find(event.object)->second;
        self.vc.join(child.vc);
        break;
      }

      case env::TraceOp::kRead:
      case env::TraceOp::kWrite: {
        self.vc.bump(event.thread);
        VarState& var = vars[event.object];
        const Access access{i, event.thread, self.vc.get(event.thread)};

        // A write conflicts with the previous write and with every read
        // since it; a read conflicts with the previous write only.
        if (var.last_write.has_value() &&
            var.last_write->thread != event.thread &&
            !self.vc.ordered_before_me(var.last_write->thread,
                                       var.last_write->clock)) {
          report_pair(event.object, *var.last_write, i);
        }
        if (event.op == env::TraceOp::kWrite) {
          for (const auto& [thread, read] : var.reads) {
            if (thread == event.thread) continue;
            if (!self.vc.ordered_before_me(thread, read.clock)) {
              report_pair(event.object, read, i);
            }
          }
          var.reads.clear();
          var.last_write = access;
        } else {
          var.reads[event.thread] = access;
        }
        break;
      }
    }
  }
  if (!reports.empty()) rebuild_sides(reports, trace, options_.history_depth);
  return reports;
}

namespace {

void render_side(std::string& out, const char* label,
                 const AccessRecord& side,
                 std::span<const env::TraceEvent> trace) {
  out += "  ";
  out += label;
  out += ": ";
  out += env::to_string(side.op);
  out += " by thread " + std::to_string(side.thread) + " at event #" +
         std::to_string(side.event_index);
  if (!side.note.empty()) {
    out += " (";
    out += side.note;
    out += ')';
  }
  out += "\n    locks held: ";
  if (side.locks_held.empty()) {
    out += "none";
  } else {
    for (std::size_t i = 0; i < side.locks_held.size(); ++i) {
      if (i != 0) out += ", ";
      out += env::object_name(side.locks_held[i]);
    }
  }
  out += "\n    events leading here:\n";
  for (const std::size_t index : side.history) {
    if (index >= trace.size()) continue;
    const auto& event = trace[index];
    out += "      #" + std::to_string(index) + " " +
           std::string(env::to_string(event.op)) + " " +
           std::string(env::object_name(event.object));
    if (!event.note.empty()) {
      out += " — ";
      out += event.note;
    }
    out += '\n';
  }
}

}  // namespace

std::string to_string(const RaceReport& report,
                      std::span<const env::TraceEvent> trace) {
  std::string out = "RACE on ";
  out += env::object_name(report.object);
  out += " (object " + std::to_string(report.object) + ")\n";
  render_side(out, "first ", report.first, trace);
  render_side(out, "second", report.second, trace);
  return out;
}

}  // namespace faultstudy::analysis
