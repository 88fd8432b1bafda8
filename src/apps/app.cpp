#include "apps/app.hpp"

#include <algorithm>
#include <charconv>

#include "core/rules.hpp"
#include "env/interleave.hpp"

namespace faultstudy::apps {

namespace {
/// Client-side timeout: DNS or network latency beyond this fails the item.
constexpr env::Tick kClientTimeout = 1000;
/// Auxiliary port the server family needs for heavy work (the port hung
/// children squat on in kPortsHeldByChildren).
constexpr int kAuxPort = 8080;
/// The file whose metadata is corrupted in kCorruptFileMetadata.
constexpr const char* kSuspectFile = "/home/user/attachment.dat";

/// The lane's checkpoints (BaseApp::snapshot). A lane runs one trial at a
/// time, and its pool keeps its Snapshots from trial to trial.
std::vector<std::shared_ptr<Snapshot>>& snapshot_pool() {
  thread_local std::vector<std::shared_ptr<Snapshot>> pool;
  return pool;
}
}  // namespace

BaseApp::BaseApp(core::AppId id, std::string name, std::size_t base_fds,
                 std::size_t worker_pool)
    : base_fds_(base_fds), worker_pool_(worker_pool), id_(id),
      name_(std::move(name)) {
  workers_.reserve(worker_pool_);
}

bool BaseApp::base_start(env::Environment& e) {
  state_ = BaseState{};
  state_.captured_hostname = e.hostname();
  if (!e.fds().acquire(name_, base_fds_)) return false;
  state_.fd_footprint = base_fds_;
  workers_.clear();
  for (std::size_t i = 0; i < worker_pool_; ++i) {
    auto pid = e.processes().spawn(name_);
    if (!pid.has_value()) {
      base_stop(e);
      return false;
    }
    workers_.push_back(*pid);
  }
  running_ = true;
  e.emit(obs::Event::kAppStarted, workers_.size());
  return true;
}

void BaseApp::base_stop(env::Environment& e) {
  e.fds().release_all(name_);
  e.processes().kill_owned_by(name_);
  e.network().release_ports_of(name_);
  workers_.clear();
  state_.fd_footprint = 0;
  if (running_) e.emit(obs::Event::kAppStopped);
  running_ = false;
}

bool BaseApp::base_restore(const BaseState& state, env::Environment& e) {
  // A truly generic mechanism restores the checkpointed state verbatim and
  // re-materializes its environment footprint: the descriptor count comes
  // back exactly as checkpointed (leaks included); child processes do not —
  // they were killed as part of recovery and only the configured worker
  // pool is respawned.
  e.fds().release_all(name_);
  e.processes().kill_owned_by(name_);
  state_ = state;
  if (!e.fds().acquire(name_, state_.fd_footprint)) {
    running_ = false;
    return false;  // environment cannot supply the checkpointed footprint
  }
  workers_.clear();
  for (std::size_t i = 0; i < worker_pool_; ++i) {
    auto pid = e.processes().spawn(name_);
    if (!pid.has_value()) {
      running_ = false;
      return false;
    }
    workers_.push_back(*pid);
  }
  running_ = true;
  e.emit(obs::Event::kAppRestored);
  return true;
}

void BaseApp::base_rejuvenate(env::Environment& e) {
  // Application-specific cleanup, modelled on Apache's SIGHUP rejuvenation:
  // kill children (reclaiming slots and ports), drop leaked descriptors
  // back to the configured baseline, forget accumulated bloat, and re-read
  // environmental facts the app caches (the hostname).
  e.processes().kill_owned_by(name_);
  e.network().release_ports_of(name_);
  workers_.clear();
  for (std::size_t i = 0; i < worker_pool_; ++i) {
    auto pid = e.processes().spawn(name_);
    if (pid.has_value()) workers_.push_back(*pid);
  }
  e.fds().release_all(name_);
  if (e.fds().acquire(name_, base_fds_)) {
    state_.fd_footprint = base_fds_;
  } else {
    state_.fd_footprint = 0;
  }
  state_.leaked_units = 0;
  state_.captured_hostname = e.hostname();
  running_ = true;
}

std::size_t BaseApp::reclaim_idle_descriptors(env::Environment& e,
                                              double fraction) {
  if (fraction <= 0.0) return 0;
  if (fraction > 1.0) fraction = 1.0;
  const std::size_t idle = idle_descriptors();
  const auto freed = static_cast<std::size_t>(
      static_cast<double>(idle) * fraction + 0.5);
  if (freed == 0) return 0;
  e.fds().release(name_, freed);
  state_.fd_footprint -= freed;
  return freed;
}

void BaseApp::emit_synchronized_trace(env::Environment& e,
                                      env::ObjectId shared,
                                      const char* b_note) const {
  if (!e.trace().enabled()) return;
  env::TwoThreadShape shape;
  shape.shared = shared;
  shape.a_steps = 6;
  shape.async_locked = true;  // the fixed program synchronizes the event
  shape.b_note = b_note;
  env::emit_two_thread_trace(e.trace(), e.now(), shape,
                             /*b_position=*/shape.a_steps / 2);
}

std::string_view BaseApp::cache_path(std::string_view stem, int id) {
  path_.assign(cache_prefix_);
  path_ += stem;
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof digits, id).ptr;
  path_.append(digits, end);
  return path_;
}

SnapshotPtr BaseApp::snapshot() const {
  auto& pool = snapshot_pool();
  auto slot = std::find_if(pool.begin(), pool.end(), [](const auto& snap) {
    return snap.use_count() == 1;
  });
  if (slot == pool.end()) {
    slot = pool.insert(pool.end(), std::make_shared<Snapshot>());
  }
  Snapshot& into = **slot;
  into.app = id_;
  into.base = state_;
  save(into);
  return *slot;
}

bool BaseApp::restore(const SnapshotPtr& snapshot, env::Environment& e) {
  if (snapshot == nullptr || snapshot->app != id_) return false;
  if (!base_restore(snapshot->base, e)) return false;
  return load(*snapshot, e);
}

std::string_view BaseApp::keep_detail(std::string_view text) {
  detail_.assign(text);
  return detail_;
}

bool BaseApp::generic_race_armed() const noexcept {
  return fault_.has_value() &&
         fault_->trigger == core::Trigger::kRaceCondition && !fault_->realized;
}

StepResult BaseApp::fail(std::string_view detail) const {
  StepResult r;
  r.detail = detail;
  if (!fault_.has_value()) {
    r.status = StepStatus::kError;
    return r;
  }
  switch (fault_->symptom) {
    case core::Symptom::kCrash:
    case core::Symptom::kSecurity:
    case core::Symptom::kResourceBloat:
      r.status = StepStatus::kCrash;
      break;
    case core::Symptom::kErrorReturn:
      r.status = StepStatus::kError;
      break;
    case core::Symptom::kHang:
      r.status = StepStatus::kHang;
      break;
  }
  return r;
}

std::optional<StepResult> BaseApp::check_fault(const WorkItem& item,
                                               env::Environment& e) {
  if (!fault_.has_value()) return std::nullopt;
  const auto& f = *fault_;
  const std::string_view owner = name_;

  using core::Trigger;
  switch (f.trigger) {
    // --- environment-independent: the killer input always fails. For
    // faults the application implements for real (f.realized), the engine
    // produces the failure from the input itself; the generic mechanics
    // stand down. ---
    case Trigger::kBoundaryInput:
    case Trigger::kMissingInitialization:
    case Trigger::kWrongVariableUsage:
    case Trigger::kApiMisuse:
    case Trigger::kSignalHandlingBug:
    case Trigger::kLogicError:
    case Trigger::kUiEventSequence:
      if (item.poison && !f.realized) {
        return fail("deterministic bug on killer input");
      }
      return std::nullopt;

    case Trigger::kDeterministicLeak:
      ++state_.leaked_units;
      if (state_.leaked_units >= f.leak_limit) {
        return fail("leaked memory exceeded limit");
      }
      return std::nullopt;

    // --- environment-dependent, condition persists on retry ---
    case Trigger::kResourceLeakUnderLoad:
      if (item.heavy) ++state_.leaked_units;
      if (state_.leaked_units >= f.leak_limit) {
        return fail("resource leak under load exhausted");
      }
      return std::nullopt;

    case Trigger::kFdExhaustion:
      // The bug: descriptors are opened per item and never closed.
      if (!e.fds().acquire(owner, f.fds_per_leak)) {
        return fail("out of file descriptors");
      }
      state_.fd_footprint += f.fds_per_leak;
      return std::nullopt;

    case Trigger::kExternalSocketLeak:
      // The app only needs one transient descriptor, but another program's
      // leaked sockets have starved the table.
      if (!e.fds().acquire(owner, 1)) {
        return fail("no descriptors left (external leak)");
      }
      e.fds().release(owner, 1);
      return std::nullopt;

    case Trigger::kDiskCacheFull:
      if (item.write_bytes > 0 && !cache_prefix_.empty()) {
        if (e.disk().used_under(cache_prefix_) + item.write_bytes >
            cache_quota_) {
          return fail("disk cache full, cannot store temporary files");
        }
        e.disk().append(cache_path("/obj", item.id), item.write_bytes);
      }
      return std::nullopt;

    case Trigger::kFileSizeLimit:
      if (item.write_bytes > 0 && !log_path_.empty()) {
        if (e.disk().append(log_path_, item.write_bytes) ==
            env::Disk::WriteResult::kFileTooBig) {
          return fail("log file exceeds maximum allowed file size");
        }
      }
      return std::nullopt;

    case Trigger::kFullFileSystem:
      if (item.write_bytes > 0 && !log_path_.empty()) {
        if (e.disk().append(log_path_, item.write_bytes) ==
            env::Disk::WriteResult::kNoSpace) {
          return fail("file system full");
        }
      }
      return std::nullopt;

    case Trigger::kNetworkResourceExhausted:
      if (!item.client_address.empty() &&
          !e.network().consume_kernel_resource(1)) {
        return fail("unknown network resource exhausted");
      }
      return std::nullopt;

    case Trigger::kHardwareRemoval:
      if (!item.client_address.empty() && !e.network().card_present()) {
        return fail("network card removed");
      }
      return std::nullopt;

    case Trigger::kHostnameChanged:
      if (e.hostname() != state_.captured_hostname) {
        return fail("hostname changed under the application");
      }
      return std::nullopt;

    case Trigger::kCorruptFileMetadata:
      if (item.poison) {
        const auto info = e.disk().stat(kSuspectFile);
        if (info.has_value() && info->owner_uid < 0) {
          return fail("illegal value in file owner field");
        }
      }
      return std::nullopt;

    case Trigger::kReverseDnsMissing:
      if (!item.client_address.empty() &&
          !e.dns().reverse(item.client_address).ok) {
        return fail("reverse DNS not configured for client");
      }
      return std::nullopt;

    // --- environment-dependent, condition likely fixed on retry ---
    case Trigger::kDnsError:
      if (!item.lookup_host.empty() &&
          !e.dns().resolve(item.lookup_host, e.now()).ok) {
        return fail("DNS returned an error");
      }
      return std::nullopt;

    case Trigger::kDnsSlow:
      if (!item.lookup_host.empty() &&
          e.dns().resolve(item.lookup_host, e.now()).latency > kClientTimeout) {
        return fail("DNS response too slow");
      }
      return std::nullopt;

    case Trigger::kNetworkSlow:
      if (!item.client_address.empty() &&
          e.network().link(e.now()) == env::LinkState::kSlow) {
        return fail("network too slow");
      }
      return std::nullopt;

    case Trigger::kProcessTableFull: {
      if (!item.heavy) return std::nullopt;
      // The bug: load spawns children that hang and are never reaped.
      auto pid = e.processes().spawn(owner);
      if (!pid.has_value()) return fail("process table full");
      e.emit(obs::Event::kAppChildSpawned, *pid);
      e.processes().mark_hung(*pid);
      return std::nullopt;
    }

    case Trigger::kPortsHeldByChildren: {
      if (!item.heavy) return std::nullopt;
      if (e.network().port_bound(kAuxPort) &&
          e.network().port_owner(kAuxPort) != owner) {
        return fail("required port held by hung children");
      }
      if (e.network().bind_port(kAuxPort, owner)) {
        e.network().release_port(kAuxPort, owner);
      }
      return std::nullopt;
    }

    case Trigger::kEntropyShortage:
      if (item.entropy_bits > 0 &&
          !e.entropy().take(item.entropy_bits, e.now())) {
        return fail("insufficient entropy in /dev/random");
      }
      return std::nullopt;

    case Trigger::kRaceCondition:
      // Realized races (the structural interleavings in env/interleave)
      // are produced by the application itself; the generic hazard window
      // stands down for them.
      if (item.racy && !f.realized) {
        const auto i = e.scheduler().draw();
        if (e.trace().enabled()) {
          // The buggy two-thread shape behind the hazard window: the worker
          // touches the shared state unguarded mid-operation while the
          // asynchronous thread mutates it with no lock at the position the
          // scheduler drew. Reuses the hazard draw — tracing adds no draws.
          env::TwoThreadShape shape;
          shape.a_steps = 8;
          shape.unguarded_at = 4;
          shape.async_locked = false;
          shape.a_note = "worker reads shared state";
          shape.gap_note = "unguarded update in the hazard window";
          shape.b_note = "concurrent unsynchronized update";
          env::emit_two_thread_trace(e.trace(), e.now(), shape,
                                     env::position_of(i, shape.a_steps));
        }
        if (env::Scheduler::in_hazard_window(i, f.hazard_start,
                                             f.hazard_width)) {
          return fail("race condition hit its hazard window");
        }
      }
      return std::nullopt;

    case Trigger::kWorkloadTiming:
      if (item.poison) {
        // The user's action timing is redrawn on every attempt: "the exact
        // timing of the requested workload is not likely to be repeated".
        const auto i = e.scheduler().draw();
        if (env::Scheduler::in_hazard_window(i, f.hazard_start,
                                             f.hazard_width)) {
          return fail("user action timing hit the vulnerable window");
        }
      }
      return std::nullopt;

    case Trigger::kUnknownTransient:
      if (unknown_condition_pending_) {
        unknown_condition_pending_ = false;  // environmental; does not recur
        return fail("unknown transient condition");
      }
      return std::nullopt;

    case Trigger::kCount:
      break;
  }
  return std::nullopt;
}

}  // namespace faultstudy::apps
