// The simulated-application interface and the shared fault mechanics.
//
// Each application (web server, database, desktop) runs a fixed workload on
// a simulated operating environment. A *fault* from the study can be armed
// into an application: the app then contains the bug, and whether the bug
// triggers depends on the workload item and the environment — exactly the
// dependency structure the paper's taxonomy classifies.
//
// Two design points carry the paper's semantics:
//
//   1. Snapshots capture ALL application state, including leak counters and
//      the descriptor footprint. A truly generic recovery mechanism restores
//      this state verbatim ("there is no application-specific code to
//      reconstruct missing state"), which is precisely why leaked resources
//      survive recovery and EDN faults persist.
//   2. Child processes and their port bindings live in the environment's
//      process table, not in the snapshot. Generic recovery kills all
//      processes associated with the application; the recovered primary
//      respawns only its configured worker pool. This is why process-table
//      and port-holding faults are transient.
//
// The item loop allocates only what it keeps. An item's texts are views of
// static storage (workload.hpp), and so is a step's `detail` when it is a
// literal. A detail built at run time (a UI crash text with a number in
// it, the SQL engine's crash message) lives in a buffer the app owns,
// valid until the app's next handle(), like cache_path(); whoever keeps a
// detail copies it. A checkpoint is one value type, Snapshot, for every
// app: snapshot() refills a Snapshot the lane already holds (see
// BaseApp::snapshot), so a warm checkpoint allocates nothing and restore()
// needs no downcast.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/sql/engine.hpp"
#include "apps/workload.hpp"
#include "core/taxonomy.hpp"
#include "env/environment.hpp"

namespace faultstudy::apps {

enum class StepStatus : std::uint8_t {
  kOk = 0,
  kCrash,  ///< segfault/abort — the process is gone
  kError,  ///< the operation failed with an error condition
  kHang,   ///< the process stopped responding
};

struct StepResult {
  StepStatus status = StepStatus::kOk;
  /// A literal, or the app's detail buffer: valid until the app's next
  /// handle() (app.hpp's header comment).
  std::string_view detail;
};

inline bool is_failure(const StepResult& r) noexcept {
  return r.status != StepStatus::kOk;
}

/// A fault armed into an application, derived from a study fault. The
/// trigger decides the activation mechanics; the symptom decides how the
/// failure manifests.
struct ActiveFault {
  core::Trigger trigger = core::Trigger::kBoundaryInput;
  core::Symptom symptom = core::Symptom::kCrash;
  /// Study fault identity. Applications that carry a REAL implementation of
  /// this specific bug (a code-level fault point in the SQL engine or HTTP
  /// parser) recognize the id, set `realized`, and let the engine produce
  /// the failure; the generic poison-item mechanics then stand down.
  std::string fault_id;
  bool realized = false;
  /// Race / workload-timing hazard window in interleaving phase space.
  double hazard_start = 0.4;
  double hazard_width = 0.12;
  /// Leak faults fail once this many units have leaked.
  std::uint64_t leak_limit = 10;
  /// Descriptors leaked per item for descriptor-leak faults.
  std::size_t fds_per_leak = 4;
};

/// The state every application checkpoints.
struct BaseState {
  std::uint64_t items_handled = 0;
  /// Units leaked by leak-type faults. Part of the snapshot: generic
  /// recovery faithfully restores the bloat.
  std::uint64_t leaked_units = 0;
  /// Descriptors the app currently holds (base + leaked).
  std::size_t fd_footprint = 0;
  /// Hostname captured at start (apps cache it; kHostnameChanged bites
  /// when the environment's name moves away from the cached one).
  std::string captured_hostname;
};

/// An application checkpoint: all application state, as a value. One type
/// serves every app; each app fills its own fields and leaves the others
/// as they were, so refilling a Snapshot reuses what it already holds (an
/// Engine assigned over one with as many tables allocates nothing).
struct Snapshot {
  core::AppId app = core::AppId::kApache;  ///< the app that filled it
  BaseState base;
  // WebServer
  std::uint64_t served = 0;
  std::uint64_t cache_fills = 0;
  // Desktop
  std::uint64_t events = 0;
  std::uint64_t open_windows = 1;
  int calendar_year = 1999;
  // Database: full catalog + data + lock state
  sql::Engine engine;
};
/// A checkpoint as a mechanism holds it. The Snapshot it points to never
/// changes while anyone holds it.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

class SimApp {
 public:
  virtual ~SimApp() = default;

  virtual core::AppId id() const noexcept = 0;
  virtual std::string_view name() const noexcept = 0;

  /// Acquires the app's startup footprint (workers, ports, descriptors).
  /// False when the environment refuses a resource the app cannot start
  /// without.
  virtual bool start(env::Environment& environment) = 0;

  /// Processes one workload item.
  virtual StepResult handle(const WorkItem& item,
                            env::Environment& environment) = 0;

  /// Releases every environment resource the app holds.
  virtual void stop(env::Environment& environment) = 0;

  /// Captures all application state (truly generic recovery checkpoints
  /// everything).
  virtual SnapshotPtr snapshot() const = 0;

  /// Restores state from a snapshot and re-materializes its environment
  /// footprint (descriptors re-acquired, worker pool respawned). Returns
  /// false when the environment cannot supply the footprint, or when
  /// another app took the snapshot.
  virtual bool restore(const SnapshotPtr& snapshot,
                       env::Environment& environment) = 0;

  /// Application-specific rejuvenation (Section 6.2): kill children, close
  /// leaked descriptors, prune caches, rotate logs, re-read the hostname.
  /// Generic mechanisms never call this.
  virtual void rejuvenate(env::Environment& environment) = 0;

  /// OS-driven descriptor garbage collection (Section 6.2's second
  /// countermeasure): the environment monitors which descriptors are used
  /// and closes a fraction of the idle ones. Unlike rejuvenate(), this
  /// models the *kernel* acting on the process, not the application's own
  /// recovery code. Returns how many descriptors were collected.
  virtual std::size_t reclaim_idle_descriptors(env::Environment& environment,
                                               double fraction) {
    (void)environment;
    (void)fraction;
    return 0;
  }

  /// Virtual so applications can recognize fault ids they implement for
  /// real and enable the corresponding engine-level fault point.
  virtual void arm_fault(const ActiveFault& fault) { fault_ = fault; }
  const std::optional<ActiveFault>& fault() const noexcept { return fault_; }

  bool running() const noexcept { return running_; }

 protected:
  std::optional<ActiveFault> fault_;
  bool running_ = false;
};

/// Shared mechanics for the three concrete applications: resource
/// bookkeeping, checkpointable base state, and the per-trigger fault
/// activation logic.
class BaseApp : public SimApp {
 public:
  /// Environment-facing footprints (tests read these).
  std::size_t fd_footprint() const noexcept { return state_.fd_footprint; }
  std::uint64_t leaked_units() const noexcept { return state_.leaked_units; }
  std::uint64_t items_handled() const noexcept { return state_.items_handled; }

  /// Descriptors held beyond the configured baseline — what OS monitoring
  /// would flag as idle.
  std::size_t idle_descriptors() const noexcept {
    return state_.fd_footprint > base_fds_ ? state_.fd_footprint - base_fds_
                                           : 0;
  }

  std::size_t reclaim_idle_descriptors(env::Environment& environment,
                                       double fraction) override;

  /// Refills a Snapshot no one else holds, from a per-lane pool: a lane's
  /// mechanisms hold at most two checkpoints at a time (the current one
  /// and its replacement), so once a lane has run a trial, checkpoints
  /// reuse the pool's Snapshots and allocate nothing. Snapshots never
  /// cross lanes, so a use count of one means the pool's reference is the
  /// only one.
  SnapshotPtr snapshot() const final;
  bool restore(const SnapshotPtr& snapshot, env::Environment& e) final;

 protected:
  BaseApp(core::AppId id, std::string name, std::size_t base_fds,
          std::size_t worker_pool);

  core::AppId id() const noexcept override { return id_; }
  std::string_view name() const noexcept override { return name_; }

  // --- shared start/stop/restore plumbing (called by concrete apps) ---
  bool base_start(env::Environment& e);
  void base_stop(env::Environment& e);
  bool base_restore(const BaseState& state, env::Environment& e);
  void base_rejuvenate(env::Environment& e);

  /// Runs the armed fault's activation logic for one item. Returns the
  /// failure when the fault triggers; nullopt when it does not (or no fault
  /// is armed). Also performs the fault's resource side effects (leaks).
  std::optional<StepResult> check_fault(const WorkItem& item,
                                        env::Environment& e);

  /// Builds the failure result dictated by the armed fault's symptom.
  /// `detail` must outlive the app's next handle(): a literal, or
  /// keep_detail()'s result.
  StepResult fail(std::string_view detail) const;

  /// Copies a detail built at run time into the app's detail buffer;
  /// valid until the next call.
  std::string_view keep_detail(std::string_view text);

  /// Emits the fixed program's synchronized two-thread trace for a racy
  /// item: every access to `shared` is lock-protected, so the analysis
  /// layer's happens-before detector must stay silent. No-op unless tracing
  /// is enabled; consumes no scheduler draws (the async step's position is
  /// fixed), so enabling tracing never perturbs the interleaving stream.
  void emit_synchronized_trace(env::Environment& e, env::ObjectId shared,
                               const char* b_note) const;

  /// `cache_prefix_ + stem + id`, built in a buffer reused across calls;
  /// valid until the next call.
  std::string_view cache_path(std::string_view stem, int id);

  /// True when the armed fault is the race `check_fault` realizes
  /// generically (used to pick buggy vs fixed trace shape).
  bool generic_race_armed() const noexcept;

  /// The app's own checkpointed state beyond BaseState; restore() has
  /// already restored the base state and the footprint when load() runs.
  virtual void save(Snapshot& into) const = 0;
  virtual bool load(const Snapshot& from, env::Environment& e) = 0;

  BaseState state_;
  std::size_t base_fds_;
  std::size_t worker_pool_;
  std::vector<env::Pid> workers_;

  /// On-disk artifacts; concrete apps fill these in so the disk-condition
  /// triggers have something to bite.
  std::string log_path_;
  std::string cache_prefix_;
  std::uint64_t cache_quota_ = 0;

 private:
  std::string path_;    ///< cache_path()'s buffer
  std::string detail_;  ///< keep_detail()'s buffer

  /// kUnknownTransient's hidden condition: environmental, so deliberately
  /// NOT part of BaseState / the snapshot. Cleared once it has fired.
  bool unknown_condition_pending_ = true;

  core::AppId id_;
  std::string name_;
};

}  // namespace faultstudy::apps
