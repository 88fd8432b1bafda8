// Structural two-thread interleavings.
//
// Rather than parameterizing every race by an abstract hazard window, the
// described race faults can be given their real shape: thread A executes a
// short sequence of atomic steps, thread B contributes one step (a signal
// delivery, an applet-removal notification), and the scheduler decides
// where B's step lands among A's. The race fires exactly when B lands in
// A's vulnerable gap — the probability of triggering *emerges from the
// structure* (vulnerable gaps / possible positions) instead of being a
// tuning knob, and retry redraws the position, which is the paper's
// transience argument in mechanical form.
//
// Each structural race also has a trace shape (env/trace.hpp): the
// synchronization events the two threads would execute. The traced
// overloads emit that shape in the drawn global order so the analysis
// layer's happens-before detector can find the race independently of
// whether this particular interleaving triggered it.
#pragma once

#include "env/scheduler.hpp"
#include "env/trace.hpp"

namespace faultstudy::env {

/// Maps an already-drawn interleaving onto the a_steps+1 possible positions
/// for thread B's step: position p means "after A's first p steps".
int position_of(const Interleaving& draw, int a_steps) noexcept;

/// Where thread B's single step lands among A's `a_steps` atomic steps:
/// position p in [0, a_steps] means "after A's first p steps". Uniform over
/// positions, driven by (and subject to the replay bias of) the scheduler.
int interleave_position(Scheduler& scheduler, int a_steps);

/// The synchronization shape of a two-thread operation: thread A runs
/// `a_steps` lock-protected steps over `shared`, except for one unguarded
/// access after step `unguarded_at` (the bug's vulnerable gap; -1 in the
/// fixed program). Thread B contributes one asynchronous write to `shared`,
/// lock-protected in the fixed program (`async_locked`), bare in the buggy
/// one.
struct TwoThreadShape {
  ObjectId shared = trace_objects::kSharedCounter;
  ObjectId lock = trace_objects::kStateLock;
  int a_steps = 8;
  int unguarded_at = -1;
  bool async_locked = true;
  const char* a_note = "worker step";
  const char* gap_note = "unguarded access in the vulnerable gap";
  const char* b_note = "asynchronous event";
};

inline constexpr ThreadId kTraceMainThread = 0;
inline constexpr ThreadId kTraceWorkerThread = 1;
inline constexpr ThreadId kTraceAsyncThread = 2;

/// Emits the full two-thread event trace for `shape` with thread B's step
/// landing at `b_position` (a value from position_of / interleave_position).
/// No-op when the log is disabled.
void emit_two_thread_trace(TraceLog& log, Tick now, const TwoThreadShape& shape,
                           int b_position);

/// The signal-mask race (mysql-edt-01): thread A computes its new signal
/// mask at step `mask_computed_at` and applies it one step later; a signal
/// arriving exactly in that gap hits the torn-down handler state. Draws
/// once from `scheduler` and emits the buggy trace shape into `log` (a
/// disabled log records nothing and the draw is the same). Returns true
/// when the race fires.
bool signal_mask_race(Scheduler& scheduler, TraceLog& log, Tick now,
                      int a_steps, int mask_computed_at);

/// The request-vs-removal race (gnome-edt-03): the applet's action request
/// is registered at step `request_registered_at`; the removal path
/// invalidates the applet one step later. A removal notification landing in
/// the gap leaves the panel holding a dangling applet reference. One draw,
/// traced like signal_mask_race.
bool request_removal_race(Scheduler& scheduler, TraceLog& log, Tick now,
                          int a_steps, int request_registered_at);

}  // namespace faultstudy::env
