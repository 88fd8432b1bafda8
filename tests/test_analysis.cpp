// Tests for the correctness-analysis layer: the vector-clock happens-before
// race detector, the transcript invariant checker, and the detector-vs-
// taxonomy oracle cross-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "analysis/vector_clock.hpp"
#include "corpus/seeds.hpp"
#include "env/interleave.hpp"
#include "harness/experiment.hpp"
#include "recovery/rollback.hpp"
#include "report/oracle.hpp"

using namespace faultstudy;
using analysis::InvariantRule;
using analysis::RaceDetector;
using analysis::VectorClock;
using env::TraceEvent;
using env::TraceLog;
using env::TraceOp;
using harness::EventKind;

namespace {

const corpus::SeedFault& find_seed(const std::string& fault_id) {
  static const auto seeds = corpus::all_seeds();
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) return s;
  }
  ADD_FAILURE() << "unknown seed " << fault_id;
  return seeds.front();
}

std::vector<analysis::RaceReport> analyze_trial(const std::string& fault_id,
                                                std::uint64_t seed,
                                                std::size_t* trace_events =
                                                    nullptr) {
  const auto plan = inject::plan_for(find_seed(fault_id), seed);
  recovery::RollbackRetry mechanism;
  harness::TrialConfig config;
  config.seed = seed;
  harness::TrialObservation observation;
  harness::run_trial(plan, mechanism, config, &observation);
  if (trace_events != nullptr) *trace_events = observation.trace.size();
  RaceDetector detector;
  return detector.analyze(std::span<const TraceEvent>(observation.trace));
}

}  // namespace

// ---------------------------------------------------------------- clocks --

TEST(VectorClockTest, JoinTakesPointwiseMax) {
  VectorClock a;
  a.set(0, 3);
  a.set(2, 1);
  VectorClock b;
  b.set(0, 1);
  b.set(1, 5);
  a.join(b);
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(1), 5u);
  EXPECT_EQ(a.get(2), 1u);
}

TEST(VectorClockTest, OrderedBeforeMe) {
  VectorClock vc;
  vc.set(1, 4);
  EXPECT_TRUE(vc.ordered_before_me(1, 4));
  EXPECT_TRUE(vc.ordered_before_me(1, 3));
  EXPECT_FALSE(vc.ordered_before_me(1, 5));
  EXPECT_FALSE(vc.ordered_before_me(7, 1));  // unknown thread: clock 0
}

TEST(VectorClockTest, BumpAdvancesOwnComponent) {
  VectorClock vc;
  EXPECT_EQ(vc.bump(3), 1u);
  EXPECT_EQ(vc.bump(3), 2u);
  EXPECT_EQ(vc.get(3), 2u);
}

// -------------------------------------------------------- race detection --

TEST(RaceDetectorTest, UnsynchronizedWritesRace) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kWrite, 7, 0, "thread 1 writes");
  log.record(2, TraceOp::kWrite, 7, 0, "thread 2 writes");
  RaceDetector detector;
  const auto reports = detector.analyze(log);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, 7u);
  EXPECT_EQ(reports[0].first.thread, 1u);
  EXPECT_EQ(reports[0].second.thread, 2u);
}

TEST(RaceDetectorTest, ReadWriteRace) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kRead, 7, 0);
  log.record(2, TraceOp::kWrite, 7, 0);
  RaceDetector detector;
  EXPECT_EQ(detector.analyze(log).size(), 1u);
}

TEST(RaceDetectorTest, ReadReadDoesNotConflict) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kRead, 7, 0);
  log.record(2, TraceOp::kRead, 7, 0);
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, SameThreadIsProgramOrdered) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(1, TraceOp::kRead, 7, 0);
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, CommonLockOrdersAccesses) {
  TraceLog log;
  log.enable();
  for (env::ThreadId t : {1u, 2u}) {
    log.record(t, TraceOp::kLock, 100, 0);
    log.record(t, TraceOp::kWrite, 7, 0);
    log.record(t, TraceOp::kUnlock, 100, 0);
  }
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, DistinctLocksDoNotOrder) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kLock, 100, 0);
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(1, TraceOp::kUnlock, 100, 0);
  log.record(2, TraceOp::kLock, 101, 0);
  log.record(2, TraceOp::kWrite, 7, 0);
  log.record(2, TraceOp::kUnlock, 101, 0);
  RaceDetector detector;
  const auto reports = detector.analyze(log);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].first.locks_held.size(), 1u);
  ASSERT_EQ(reports[0].second.locks_held.size(), 1u);
  EXPECT_EQ(reports[0].first.locks_held[0], 100u);
  EXPECT_EQ(reports[0].second.locks_held[0], 101u);
}

TEST(RaceDetectorTest, ForkJoinOrder) {
  TraceLog log;
  log.enable();
  log.record(0, TraceOp::kWrite, 7, 0);  // parent writes...
  log.record(0, TraceOp::kFork, 1, 0);   // ...then starts the child
  log.record(1, TraceOp::kWrite, 7, 0);  // ordered after the parent's write
  log.record(0, TraceOp::kJoin, 1, 0);
  log.record(0, TraceOp::kRead, 7, 0);  // ordered after the child's write
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, SiblingsAfterForkStillRace) {
  TraceLog log;
  log.enable();
  log.record(0, TraceOp::kFork, 1, 0);
  log.record(0, TraceOp::kFork, 2, 0);
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(2, TraceOp::kWrite, 7, 0);
  RaceDetector detector;
  EXPECT_EQ(detector.analyze(log).size(), 1u);
}

TEST(RaceDetectorTest, DedupesRepeatedPairs) {
  TraceLog log;
  log.enable();
  for (int i = 0; i < 10; ++i) {
    log.record(1, TraceOp::kWrite, 7, 0);
    log.record(2, TraceOp::kWrite, 7, 0);
  }
  RaceDetector detector;
  EXPECT_EQ(detector.analyze(log).size(), 1u);
}

TEST(RaceDetectorTest, ReportCarriesHistoryAndRenders) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kLock, 100, 0);
  log.record(1, TraceOp::kUnlock, 100, 0);
  log.record(1, TraceOp::kWrite, 7, 0, "the racy store");
  log.record(2, TraceOp::kWrite, 7, 0, "the racy rival");
  RaceDetector detector;
  const auto reports = detector.analyze(log);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first.history.size(), 2u);  // lock + unlock
  const std::string text = analysis::to_string(
      reports[0], std::span<const TraceEvent>(log.events()));
  EXPECT_NE(text.find("the racy store"), std::string::npos);
  EXPECT_NE(text.find("the racy rival"), std::string::npos);
  EXPECT_NE(text.find("events leading here"), std::string::npos);
}

// The detector keeps only (trace index, thread, clock) per access and
// rebuilds a report's two sides from the trace once it reports. This
// reference is the eager algorithm it replaced, which built every side at
// access time; both must agree on every field of every report and on its
// rendering, over random traces that exercise fork/join, nested and
// out-of-order unlocks, notes, and histories longer than history_depth.
namespace {

struct RefSide {
  std::size_t event_index = 0;
  env::ThreadId thread = 0;
  TraceOp op = TraceOp::kRead;
  std::string note;
  std::vector<env::ObjectId> locks_held;
  std::vector<std::size_t> history;
};

struct RefReport {
  env::ObjectId object = 0;
  RefSide first;
  RefSide second;
};

std::vector<RefReport> eager_reference(std::span<const TraceEvent> trace,
                                       const analysis::RaceDetectorOptions& o) {
  struct ThreadState {
    VectorClock vc;
    std::vector<env::ObjectId> locks_held;
    std::vector<std::size_t> history;
  };
  struct Access {
    RefSide record;
    std::uint32_t clock = 0;
  };
  struct VarState {
    std::optional<Access> last_write;
    std::unordered_map<env::ThreadId, Access> reads;
  };
  const auto pair_key = [](env::ObjectId object, env::ThreadId a,
                           env::ThreadId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(object) << 40) |
           (static_cast<std::uint64_t>(a) << 20) | b;
  };

  std::vector<RefReport> reports;
  std::unordered_map<env::ThreadId, ThreadState> threads;
  std::unordered_map<env::ObjectId, VectorClock> locks;
  std::unordered_map<env::ObjectId, VarState> vars;
  std::unordered_set<std::uint64_t> reported;

  const auto make_record = [&](std::size_t index, const TraceEvent& event,
                               const ThreadState& state) {
    RefSide record;
    record.event_index = index;
    record.thread = event.thread;
    record.op = event.op;
    record.note = std::string(event.note);
    record.locks_held = state.locks_held;
    record.history = state.history;
    if (record.history.size() > o.history_depth) {
      record.history.erase(
          record.history.begin(),
          record.history.end() - static_cast<std::ptrdiff_t>(o.history_depth));
    }
    return record;
  };
  const auto report_pair = [&](env::ObjectId object, const Access& earlier,
                               const RefSide& later) {
    if (reports.size() >= o.max_reports) return;
    if (o.dedupe_pairs &&
        !reported.insert(pair_key(object, earlier.record.thread, later.thread))
             .second) {
      return;
    }
    reports.push_back({object, earlier.record, later});
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& event = trace[i];
    if (event.op == TraceOp::kFork || event.op == TraceOp::kJoin) {
      threads.try_emplace(event.object);
    }
    ThreadState& self = threads[event.thread];
    switch (event.op) {
      case TraceOp::kLock:
        self.vc.join(locks[event.object]);
        self.locks_held.push_back(event.object);
        break;
      case TraceOp::kUnlock: {
        locks[event.object] = self.vc;
        self.vc.bump(event.thread);
        auto& held = self.locks_held;
        for (auto it = held.rbegin(); it != held.rend(); ++it) {
          if (*it == event.object) {
            held.erase(std::next(it).base());
            break;
          }
        }
        break;
      }
      case TraceOp::kFork:
        threads.find(event.object)->second.vc.join(self.vc);
        self.vc.bump(event.thread);
        break;
      case TraceOp::kJoin:
        self.vc.join(threads.find(event.object)->second.vc);
        break;
      case TraceOp::kRead:
      case TraceOp::kWrite: {
        self.vc.bump(event.thread);
        VarState& var = vars[event.object];
        const RefSide record = make_record(i, event, self);
        if (var.last_write.has_value() &&
            var.last_write->record.thread != event.thread &&
            !self.vc.ordered_before_me(var.last_write->record.thread,
                                       var.last_write->clock)) {
          report_pair(event.object, *var.last_write, record);
        }
        if (event.op == TraceOp::kWrite) {
          for (const auto& [thread, read] : var.reads) {
            if (thread == event.thread) continue;
            if (!self.vc.ordered_before_me(thread, read.clock)) {
              report_pair(event.object, read, record);
            }
          }
          var.reads.clear();
          var.last_write = Access{record, self.vc.get(event.thread)};
        } else {
          var.reads[event.thread] = Access{record, self.vc.get(event.thread)};
        }
        break;
      }
    }
    self.history.push_back(i);
    if (self.history.size() > o.history_depth * 2) {
      self.history.erase(self.history.begin());
    }
  }
  return reports;
}

void render_reference_side(std::string& out, const char* label,
                           const RefSide& side,
                           std::span<const TraceEvent> trace) {
  out += "  ";
  out += label;
  out += ": ";
  out += env::to_string(side.op);
  out += " by thread " + std::to_string(side.thread) + " at event #" +
         std::to_string(side.event_index);
  if (!side.note.empty()) out += " (" + side.note + ")";
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
    if (!event.note.empty()) out += " — " + std::string(event.note);
    out += '\n';
  }
}

std::string render_reference(const RefReport& report,
                             std::span<const TraceEvent> trace) {
  std::string out = "RACE on ";
  out += env::object_name(report.object);
  out += " (object " + std::to_string(report.object) + ")\n";
  render_reference_side(out, "first ", report.first, trace);
  render_reference_side(out, "second", report.second, trace);
  return out;
}

/// A random trace over 2-4 worker threads (ids 1..n) and the parent (0):
/// the parent forks some workers up front and may fork or join others
/// midway; every thread reads and writes three shared variables, takes
/// nested locks from a pool of three and sometimes releases them out of
/// order or releases one it does not hold.
TraceLog random_trace(std::mt19937_64& rng) {
  const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
  static constexpr const char* kNotes[] = {"load the slot", "store the slot",
                                           "walk the list", "free an entry"};
  TraceLog log;
  log.enable();
  const auto workers = static_cast<env::ThreadId>(2 + draw(3));
  std::vector<bool> forked(workers + 1, false);
  std::vector<std::vector<env::ObjectId>> held(workers + 1);
  env::Tick at = 0;
  for (env::ThreadId t = 1; t <= workers; ++t) {
    if (draw(2) == 0) {
      log.record(0, TraceOp::kFork, t, at++);
      forked[t] = true;
    }
  }
  const std::size_t length = 4 + draw(60);
  for (std::size_t step = 0; step < length; ++step) {
    const auto thread = static_cast<env::ThreadId>(draw(workers + 1));
    const char* note = draw(2) == 0 ? kNotes[draw(std::size(kNotes))] : "";
    switch (draw(10)) {
      case 0:
      case 1:
      case 2:
        log.record(thread, TraceOp::kRead, 1 + static_cast<env::ObjectId>(
                                                   draw(3)),
                   at++, note);
        break;
      case 3:
      case 4:
      case 5:
        log.record(thread, TraceOp::kWrite, 1 + static_cast<env::ObjectId>(
                                                    draw(3)),
                   at++, note);
        break;
      case 6: {
        const auto lock = 100 + static_cast<env::ObjectId>(draw(3));
        held[thread].push_back(lock);
        log.record(thread, TraceOp::kLock, lock, at++);
        break;
      }
      case 7: {
        auto& locks = held[thread];
        if (locks.empty() || draw(8) == 0) {
          log.record(thread, TraceOp::kUnlock,
                     100 + static_cast<env::ObjectId>(draw(3)), at++);
          break;
        }
        const std::size_t pick =
            draw(3) == 0 ? draw(locks.size()) : locks.size() - 1;
        log.record(thread, TraceOp::kUnlock, locks[pick], at++);
        locks.erase(locks.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
      case 8: {
        const auto child = 1 + static_cast<env::ThreadId>(draw(workers));
        if (!forked[child]) {
          log.record(0, TraceOp::kFork, child, at++);
          forked[child] = true;
        }
        break;
      }
      default: {
        const auto child = 1 + static_cast<env::ThreadId>(draw(workers));
        log.record(0, TraceOp::kJoin, child, at++);
        break;
      }
    }
  }
  return log;
}

}  // namespace

TEST(RaceDetectorTest, LazySidesMatchEagerReference) {
  const analysis::RaceDetectorOptions option_sets[] = {
      {},
      {.history_depth = 2},
      {.history_depth = 0},
      {.max_reports = 3, .history_depth = 3},
      {.history_depth = 5, .dedupe_pairs = false},
  };
  std::size_t reports_seen = 0;
  std::size_t long_histories = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const TraceLog log = random_trace(rng);
    const std::span<const TraceEvent> trace(log.events());
    const auto& options = option_sets[seed % std::size(option_sets)];
    const auto want = eager_reference(trace, options);
    const auto got = RaceDetector(options).analyze(trace);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].object, want[r].object);
      for (const auto& [lazy, eager] :
           {std::pair{&got[r].first, &want[r].first},
            std::pair{&got[r].second, &want[r].second}}) {
        EXPECT_EQ(lazy->event_index, eager->event_index);
        EXPECT_EQ(lazy->thread, eager->thread);
        EXPECT_EQ(lazy->op, eager->op);
        EXPECT_EQ(lazy->note, eager->note);
        EXPECT_EQ(lazy->locks_held, eager->locks_held);
        EXPECT_EQ(lazy->history, eager->history);
        const auto prior = std::count_if(
            trace.begin(),
            trace.begin() + static_cast<std::ptrdiff_t>(eager->event_index),
            [&](const TraceEvent& e) { return e.thread == eager->thread; });
        if (static_cast<std::size_t>(prior) > options.history_depth) {
          ++long_histories;
        }
      }
      EXPECT_EQ(analysis::to_string(got[r], trace),
                render_reference(want[r], trace));
    }
    reports_seen += got.size();
  }
  // The sweep must exercise what it claims to: plenty of reports, and
  // sides whose thread had more history than the detector keeps.
  EXPECT_GT(reports_seen, 1000u);
  EXPECT_GT(long_histories, 1000u);
}

// ------------------------------------- structural interleaving coverage --

TEST(StructuralTraceTest, BuggyShapeRacesAtEveryPosition) {
  env::TwoThreadShape shape;
  shape.a_steps = 10;
  shape.unguarded_at = 5;
  shape.async_locked = false;
  for (int position = 0; position <= shape.a_steps; ++position) {
    TraceLog log;
    log.enable();
    env::emit_two_thread_trace(log, 0, shape, position);
    RaceDetector detector;
    EXPECT_FALSE(detector.analyze(log).empty())
        << "buggy shape must race with B at position " << position;
  }
}

TEST(StructuralTraceTest, FixedShapeRaceFreeAtEveryPosition) {
  env::TwoThreadShape shape;
  shape.a_steps = 10;
  shape.unguarded_at = -1;  // no unguarded gap
  shape.async_locked = true;
  for (int position = 0; position <= shape.a_steps; ++position) {
    TraceLog log;
    log.enable();
    env::emit_two_thread_trace(log, 0, shape, position);
    RaceDetector detector;
    EXPECT_TRUE(detector.analyze(log).empty())
        << "fixed shape must be race-free with B at position " << position;
  }
}

TEST(StructuralTraceTest, EnabledLogDrawsExactlyLikeDisabled) {
  // Tracing must not perturb the interleaving: with the log enabled or
  // disabled, the same scheduler seed gives the same verdicts.
  env::Scheduler a(123);
  env::Scheduler b(123);
  TraceLog traced;
  traced.enable();
  TraceLog untraced;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(env::signal_mask_race(a, traced, 0, 12, 5),
              env::signal_mask_race(b, untraced, 0, 12, 5));
    EXPECT_EQ(env::request_removal_race(a, traced, 0, 9, 3),
              env::request_removal_race(b, untraced, 0, 9, 3));
  }
  EXPECT_FALSE(traced.events().empty());
  EXPECT_TRUE(untraced.events().empty());
}

TEST(StructuralTraceTest, DetectorDeterministicUnderFixedSeed) {
  std::size_t events_a = 0;
  std::size_t events_b = 0;
  const auto first = analyze_trial("mysql-edt-01", 7, &events_a);
  const auto second = analyze_trial("mysql-edt-01", 7, &events_b);
  EXPECT_EQ(events_a, events_b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].object, second[i].object);
    EXPECT_EQ(first[i].first.event_index, second[i].first.event_index);
    EXPECT_EQ(first[i].second.event_index, second[i].second.event_index);
  }
}

// ------------------------------------------------- app-emitted specimens --

TEST(SpecimenRaceTest, RealizedRacesFireDetector) {
  for (const char* fault_id : {"mysql-edt-01", "gnome-edt-03"}) {
    EXPECT_FALSE(analyze_trial(fault_id, 11).empty())
        << fault_id << " must light up the happens-before detector";
  }
}

TEST(SpecimenRaceTest, GenericRacesFireDetector) {
  for (const char* fault_id : {"mysql-edt-02", "gnome-edt-02"}) {
    EXPECT_FALSE(analyze_trial(fault_id, 11).empty())
        << fault_id << " must light up the happens-before detector";
  }
}

TEST(SpecimenRaceTest, DeterministicFaultsStaySilent) {
  for (const char* fault_id :
       {"apache-ei-01", "mysql-ei-02", "gnome-ei-01", "apache-edn-02"}) {
    std::size_t events = 0;
    EXPECT_TRUE(analyze_trial(fault_id, 11, &events).empty())
        << fault_id << " must not fire the detector";
    // The silence is meaningful: the fixed program's synchronized traces
    // were actually analyzed, not skipped.
    EXPECT_GT(events, 0u) << fault_id;
  }
}

TEST(SpecimenRaceTest, UntracedTrialUnperturbed) {
  // Enabling tracing must not change trial outcomes: same draws, same
  // verdicts.
  for (const char* fault_id : {"mysql-edt-01", "gnome-edt-02", "apache-ei-01"}) {
    const auto plan = inject::plan_for(find_seed(fault_id), 99);
    harness::TrialConfig config;
    config.seed = 99;
    recovery::RollbackRetry untraced;
    const auto plain = harness::run_trial(plan, untraced, config);
    recovery::RollbackRetry traced;
    harness::TrialObservation observation;
    const auto observed =
        harness::run_trial(plan, traced, config, &observation);
    EXPECT_EQ(plain.survived, observed.survived) << fault_id;
    EXPECT_EQ(plain.failures, observed.failures) << fault_id;
    EXPECT_EQ(plain.recoveries, observed.recoveries) << fault_id;
  }
}

// ---------------------------------------------------- invariant checking --

TEST(InvariantCheckerTest, FlagsFdLeak) {
  harness::Transcript t;
  t.record(EventKind::kStart, 0, 0);
  t.record(EventKind::kFdOpen, 1, 4);
  t.record(EventKind::kFdClose, 2, 1);
  t.record(EventKind::kVerdict, 3, 0);
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kFdLeak);
  EXPECT_NE(violations[0].detail.find("3 descriptors"), std::string::npos);
}

TEST(InvariantCheckerTest, BalancedFdsClean) {
  harness::Transcript t;
  t.record(EventKind::kFdOpen, 1, 4);
  t.record(EventKind::kFdClose, 2, 4);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, FlagsProcessSlotLeakAcrossRestart) {
  harness::Transcript t;
  t.record(EventKind::kProcSpawn, 0, 501);  // hung child
  t.record(EventKind::kFailure, 1, 3);
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kRecoveryOk, 2, 3);  // 501 survived the restart
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kProcessSlotLeak);
  EXPECT_NE(violations[0].detail.find("501"), std::string::npos);
}

TEST(InvariantCheckerTest, SweptChildrenClean) {
  harness::Transcript t;
  t.record(EventKind::kProcSpawn, 0, 501);
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kProcKill, 1, 501);   // recovery swept the child
  t.record(EventKind::kProcSpawn, 2, 502);  // fresh worker pool
  t.record(EventKind::kRecoveryOk, 2, 3);
  t.record(EventKind::kProcKill, 3, 502);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, FlagsWriteDuringRecovery) {
  harness::Transcript t;
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kRollback, 1, 2);
  t.record(EventKind::kDiskWrite, 1, 4096);  // rollback must not write
  t.record(EventKind::kRecoveryOk, 2, 3);
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kWriteDuringRecovery);
}

TEST(InvariantCheckerTest, WritesOutsideRecoveryClean) {
  harness::Transcript t;
  t.record(EventKind::kDiskWrite, 0, 4096);
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kRecoveryOk, 2, 3);
  t.record(EventKind::kDiskWrite, 3, 4096);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, FlagsSignalToDeadPid) {
  harness::Transcript t;
  t.record(EventKind::kProcSpawn, 0, 501);
  t.record(EventKind::kProcKill, 1, 501);
  t.record(EventKind::kSignalRaise, 2, 501);
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kSignalToDeadPid);
}

TEST(InvariantCheckerTest, SignalToRespawnedPidClean) {
  harness::Transcript t;
  t.record(EventKind::kProcSpawn, 0, 501);
  t.record(EventKind::kProcKill, 1, 501);
  t.record(EventKind::kProcSpawn, 2, 501);  // pid reused
  t.record(EventKind::kSignalRaise, 3, 501);
  t.record(EventKind::kProcKill, 4, 501);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, TracedLeakTrialFlagsFdLeak) {
  // An armed descriptor-leak fault must show up as an fd-leak violation in
  // its own transcript: the checker is an independent oracle for the
  // resource-leak fault class.
  const auto plan = inject::plan_for(find_seed("apache-edn-02"), 13);
  recovery::RollbackRetry mechanism;
  harness::TrialObservation observation;
  harness::run_trial(plan, mechanism, {}, &observation);
  const auto violations = analysis::check_transcript(observation.transcript);
  bool fd_leak = false;
  for (const auto& v : violations) {
    if (v.rule == InvariantRule::kFdLeak) fd_leak = true;
  }
  EXPECT_TRUE(fd_leak) << analysis::to_string(
      std::span<const analysis::InvariantViolation>(violations));
}

// ------------------------------------------------------------ the oracle --

TEST(OracleCrosscheckTest, DetectorAgreesWithTaxonomyLabels) {
  const auto report = harness::run_oracle_crosscheck(corpus::all_seeds());
  EXPECT_EQ(report.total(), 139u);
  // Acceptance criteria: >=90% agreement, all race-labeled specimens fire,
  // zero firings on environment-independent specimens.
  EXPECT_GE(report.agreement(), 0.9);
  EXPECT_EQ(report.race_silent, 0u);
  EXPECT_EQ(report.race_fired, 4u);  // the study's four race-labeled faults
  EXPECT_EQ(report.ei_fired, 0u);
  EXPECT_EQ(report.edn_fired, 0u);
}

TEST(OracleCrosscheckTest, DeterministicUnderFixedSeed) {
  const auto seeds = corpus::mysql_seeds();
  const auto a = harness::run_oracle_crosscheck(seeds);
  const auto b = harness::run_oracle_crosscheck(seeds);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].detector_fired, b.rows[i].detector_fired);
    EXPECT_EQ(a.rows[i].race_reports, b.rows[i].race_reports);
    EXPECT_EQ(a.rows[i].invariant_violations, b.rows[i].invariant_violations);
  }
}

TEST(OracleReportTest, RendersConfusionTable) {
  const auto report = harness::run_oracle_crosscheck(corpus::gnome_seeds());
  const std::string table = report::render_oracle_confusion(report);
  EXPECT_NE(table.find("race (EDT)"), std::string::npos);
  EXPECT_NE(table.find("env-independent (EI)"), std::string::npos);
}
