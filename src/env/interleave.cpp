#include "env/interleave.hpp"

namespace faultstudy::env {

int position_of(const Interleaving& draw, int a_steps) noexcept {
  if (a_steps < 0) a_steps = 0;
  // Map the interleaving phase onto the a_steps+1 possible positions.
  const int positions = a_steps + 1;
  int p = static_cast<int>(draw.phase * positions);
  if (p >= positions) p = positions - 1;
  return p;
}

int interleave_position(Scheduler& scheduler, int a_steps) {
  return position_of(scheduler.draw(), a_steps);
}

namespace {

void emit_async_step(TraceLog& log, Tick now, const TwoThreadShape& shape) {
  if (shape.async_locked) {
    log.record(kTraceAsyncThread, TraceOp::kLock, shape.lock, now);
    log.record(kTraceAsyncThread, TraceOp::kWrite, shape.shared, now,
               shape.b_note);
    log.record(kTraceAsyncThread, TraceOp::kUnlock, shape.lock, now);
  } else {
    log.record(kTraceAsyncThread, TraceOp::kWrite, shape.shared, now,
               shape.b_note);
  }
}

}  // namespace

void emit_two_thread_trace(TraceLog& log, Tick now, const TwoThreadShape& shape,
                           int b_position) {
  if (!log.enabled()) return;
  // The harness thread starts both threads: fork edges give each a
  // well-defined beginning without ordering them against each other.
  log.record(kTraceMainThread, TraceOp::kFork, kTraceWorkerThread, now);
  log.record(kTraceMainThread, TraceOp::kFork, kTraceAsyncThread, now);

  for (int s = 0; s < shape.a_steps; ++s) {
    if (s == b_position) emit_async_step(log, now, shape);
    if (s == shape.unguarded_at) {
      // The bug: the gap access touches the shared state outside the lock.
      log.record(kTraceWorkerThread, TraceOp::kWrite, shape.shared, now,
                 shape.gap_note);
      continue;
    }
    log.record(kTraceWorkerThread, TraceOp::kLock, shape.lock, now);
    log.record(kTraceWorkerThread, TraceOp::kRead, shape.shared, now,
               shape.a_note);
    log.record(kTraceWorkerThread, TraceOp::kUnlock, shape.lock, now);
  }
  if (b_position >= shape.a_steps) emit_async_step(log, now, shape);

  log.record(kTraceMainThread, TraceOp::kJoin, kTraceWorkerThread, now);
  log.record(kTraceMainThread, TraceOp::kJoin, kTraceAsyncThread, now);
}

bool signal_mask_race(Scheduler& scheduler, TraceLog& log, Tick now,
                      int a_steps, int mask_computed_at) {
  const int p = interleave_position(scheduler, a_steps);
  TwoThreadShape shape;
  shape.shared = trace_objects::kSignalMask;
  shape.a_steps = a_steps;
  shape.unguarded_at = mask_computed_at + 1;
  shape.async_locked = false;
  shape.a_note = "worker reads handler state";
  shape.gap_note = "apply recomputed signal mask (mask not yet installed)";
  shape.b_note = "signal delivery mutates handler state";
  emit_two_thread_trace(log, now, shape, p);
  return p == mask_computed_at + 1;
}

bool request_removal_race(Scheduler& scheduler, TraceLog& log, Tick now,
                          int a_steps, int request_registered_at) {
  const int p = interleave_position(scheduler, a_steps);
  TwoThreadShape shape;
  shape.shared = trace_objects::kAppletList;
  shape.a_steps = a_steps;
  shape.unguarded_at = request_registered_at + 1;
  shape.async_locked = false;
  shape.a_note = "panel walks applet list";
  shape.gap_note = "dereference applet registered one step earlier";
  shape.b_note = "removal notification frees the applet entry";
  emit_two_thread_trace(log, now, shape, p);
  return p == request_registered_at + 1;
}

}  // namespace faultstudy::env
