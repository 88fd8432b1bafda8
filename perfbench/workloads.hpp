// The benchmark's three workloads: `matrix`, `mine` and `matrix-observed`.
//
// A workload is driven in passes. prepare() builds one pass's inputs from a
// seed (timed as set-up), run() is one untraced pass with its
// output check, and run_traced() repeats the pass just run with per-layer
// spans attached, checks that it reproduces the untraced result exactly,
// and records the per-layer samples.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace faultstudy::bench {

/// Per-metric samples, one per traced pass; reported as medians.
class Samples {
 public:
  void add(std::string_view name, double value);
  /// Median of the samples of `name`; 0 when it has none (a layer the
  /// workload does not exercise).
  double median(std::string_view name) const;
  /// Every name that has samples.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

double median(std::vector<double> values);

struct Pass {
  double core_s = 0.0;    ///< wall time of the workload's core calls
  std::size_t items = 0;  ///< trials or input reports those calls handled
  std::string failure;    ///< empty when the output check passed
};

/// Lanes every workload runs on (TrialConfig::threads and
/// PipelineOptions::threads): half of a 4-vCPU host.
inline constexpr std::size_t kLanes = 2;

struct WorkloadOptions {
  std::string baseline_path;  ///< committed study snapshot
  /// A few seed faults instead of all 139, no baseline comparison: the
  /// self-test's quick path through every workload.
  bool smoke = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs of one pass from its seed.
  virtual void prepare(std::uint64_t seed) = 0;

  /// One untraced pass over the prepared inputs, output check included.
  virtual Pass run() = 0;

  /// Re-runs the pass just run() with per-layer spans; a pass whose result
  /// differs from the untraced one fails.
  virtual Pass run_traced(Samples& layers) = 0;

  /// The seed whose output is known exactly: the committed baseline's trial
  /// seed, or the synthetic-corpus seed at which the paper's tables hold.
  virtual std::uint64_t reference_seed() const noexcept = 0;
};

/// The workloads by name; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options);

}  // namespace faultstudy::bench
