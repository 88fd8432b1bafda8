// Differential regression observability: canonical study snapshots and
// structured drift reports.
//
// A StudySnapshot is the committed contract of what a full study run looks
// like: the classification distribution, the recovery success matrix, the
// coverage atlas (full probe universe, including zero-hit rows), and the
// study's deterministic telemetry counters. Every field is integer-valued
// and serializes to canonical JSON (fixed key order, stable row order), so
// `baselines/study_baseline.json` is byte-stable across runs and thread
// counts, and a textual diff of two snapshots is already meaningful.
//
// `diff` compares a candidate against a baseline and separates *fatal*
// drift (lost coverage, lost taxonomy cells, disappeared specimens or
// mechanisms, class-distribution or survival-rate shifts beyond the
// tolerance band) from *notes* (new coverage, hit-count and counter
// deltas). CI fails on `regressed()`.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "obs/atlas.hpp"
#include "telemetry/metrics.hpp"
#include "util/result.hpp"

namespace faultstudy::obs {

inline constexpr std::string_view kBaselineSchema = "faultstudy-baseline/1";

struct StudySnapshot {
  std::string schema{kBaselineSchema};
  std::uint64_t seed = 0;
  std::int64_t repeats = 0;
  std::uint64_t trials = 0;

  /// Per-app fault-class counts (EI, EDN, EDT), app enum order.
  struct ClassRow {
    std::string app;
    std::array<std::uint64_t, 3> counts{};
    bool operator==(const ClassRow&) const = default;
  };
  std::vector<ClassRow> classes;

  /// Recovery success matrix, mechanism roster order.
  struct MatrixRow {
    std::string mechanism;
    bool generic = true;
    std::array<std::uint64_t, 3> survived{};
    std::array<std::uint64_t, 3> total{};
    std::uint64_t vacuous = 0;
    std::uint64_t state_losses = 0;
    bool operator==(const MatrixRow&) const = default;
  };
  std::vector<MatrixRow> matrix;

  /// Full probe universe in export order (structural sites, then injection
  /// sites) — zero-hit rows included so blind spots are part of the contract.
  struct ProbeRow {
    std::string name;
    std::uint64_t hits = 0;
    bool operator==(const ProbeRow&) const = default;
  };
  std::vector<ProbeRow> probes;

  /// Per-specimen coverage vector summary, seed order.
  struct SpecimenRow {
    std::string fault_id;
    std::uint64_t probes_hit = 0;
    std::uint64_t trials = 0;
    bool operator==(const SpecimenRow&) const = default;
  };
  std::vector<SpecimenRow> specimens;

  /// Deterministic (sim-domain) telemetry counters, name order.
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterRow&) const = default;
  };
  std::vector<CounterRow> counters;

  // --- derived summaries (recomputed, not stored) ---
  std::uint64_t probes_hit() const noexcept;
  std::uint64_t cells_covered() const noexcept;

  bool operator==(const StudySnapshot&) const = default;
};

/// Builds the snapshot from one full study run. `metrics` may be an empty
/// snapshot (counters section comes out empty, e.g. telemetry-off builds).
StudySnapshot build_snapshot(const std::vector<corpus::SeedFault>& seeds,
                             const harness::MatrixResult& matrix,
                             const CoverageAtlas& atlas,
                             const telemetry::MetricsSnapshot& metrics,
                             std::uint64_t seed, int repeats);

/// Canonical JSON writer: fixed key order, two-space indent, integers only.
std::string to_json(const StudySnapshot& snapshot);

/// Parses a snapshot written by to_json (schema-checked).
util::Result<StudySnapshot> parse_snapshot(std::string_view text);

/// One drift finding; `fatal` findings make the diff a regression.
struct Drift {
  bool fatal = false;
  std::string what;
  bool operator==(const Drift&) const = default;
};

struct DriftReport {
  std::vector<Drift> findings;

  bool empty() const noexcept { return findings.empty(); }
  bool regressed() const noexcept {
    for (const Drift& d : findings) {
      if (d.fatal) return true;
    }
    return false;
  }
  std::size_t fatal_count() const noexcept {
    std::size_t n = 0;
    for (const Drift& d : findings) n += d.fatal ? 1 : 0;
    return n;
  }
};

/// Structural comparison of candidate vs baseline. A class fraction that
/// moves by more than 0.02, or a survival rate by more than 0.05, is fatal.
DriftReport diff(const StudySnapshot& baseline, const StudySnapshot& candidate);

/// Human-readable drift report (stable ordering; FATAL lines first).
std::string render_text(const DriftReport& report);

}  // namespace faultstudy::obs
