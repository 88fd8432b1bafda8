// Simulated thread scheduler: the source of interleaving non-determinism.
//
// A race-condition fault triggers only when the scheduler happens to produce
// an interleaving inside the bug's hazard window. Each execution attempt
// draws a fresh interleaving from the environment's entropy — this is
// exactly the paper's mechanism for why races are transient: "if the
// operation is retried, the specific interleaving of threads is likely to be
// different". Recovery techniques that deliberately reorder events
// (progressive retry [Wang93]) widen the redraw.
#pragma once

#include <cstdint>

#include "obs/bus.hpp"
#include "util/rng.hpp"

namespace faultstudy::env {

/// One concrete interleaving of the threads involved in an operation,
/// reduced to the quantity race predicates consume: a phase in [0, 1).
struct Interleaving {
  double phase = 0.0;
  std::uint64_t raw = 0;
};

class Scheduler {
 public:
  explicit Scheduler(std::uint64_t seed) : rng_(seed) {}

  /// Draws the interleaving for the next operation. With a replay bias set
  /// (see below), the previous interleaving is reproduced with that
  /// probability instead of drawing fresh.
  Interleaving draw();

  /// Rollback-replay tendency: deterministic replay after a rollback tends
  /// to reproduce the schedule that triggered the race, which is why
  /// progressive retry deliberately reorders events [Wang93]. Mechanisms
  /// set their replay bias when they attach (0 = every draw fresh).
  void set_replay_bias(double probability) noexcept;
  double replay_bias() const noexcept { return replay_bias_; }

  /// A race with hazard window `width` (fraction of phase space) triggers
  /// when the interleaving's phase falls inside [start, start+width).
  static bool in_hazard_window(const Interleaving& i, double start,
                               double width) noexcept;

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  util::Rng rng_;
  double replay_bias_ = 0.0;
  bool has_last_ = false;
  Interleaving last_;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
