#include "timed_roster.hpp"

#include <memory>
#include <utility>

#include "ledger.hpp"

namespace faultstudy::bench {

/// One trial's measurements, kept in fixed arrays so the wrapper itself
/// makes no allocation inside the spans it measures.
struct TrialTally {
  std::array<OpTally, kAppOps> app{};
  std::array<OpTally, kMechOps> mech{};
  std::array<std::int64_t, kMechOps> mech_child_ns{};
  std::uint64_t recovered = 0;
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
  std::size_t app_index = 0;
  std::size_t mechanism_index = 0;

  std::int64_t app_ns() const noexcept {
    std::int64_t ns_sum = 0;
    for (const OpTally& op : app) ns_sum += op.ns;
    return ns_sum;
  }
};

namespace {

/// Times the enclosing scope into `tally` on the calling thread.
class Span {
 public:
  explicit Span(OpTally& tally) noexcept
      : tally_(tally), ns_(now_ns()), allocs_(thread_allocs()) {}
  ~Span() {
    ++tally_.calls;
    tally_.ns += now_ns() - ns_;
    tally_.allocs += thread_allocs() - allocs_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  OpTally& tally_;
  std::int64_t ns_;
  std::uint64_t allocs_;
};

/// Forwards to the real application, timing the calls a recovery mechanism
/// issues. SimApp::running() and fault() are non-virtual reads of the base
/// class's fields, so the proxy copies them from the real app whenever the
/// real app may have changed them (after each forwarded call, and before
/// each mechanism hook, since the harness drives the real app in between).
class TimedApp final : public apps::SimApp {
 public:
  explicit TimedApp(TrialTally& tally) : tally_(tally) {}

  void bind(apps::SimApp& inner) {
    inner_ = &inner;
    fault_ = inner.fault();
    running_ = inner.running();
  }

  void sync() {
    running_ = inner_->running();
    if (fault_.has_value() != inner_->fault().has_value()) {
      fault_ = inner_->fault();
    }
  }

  core::AppId id() const noexcept override { return inner_->id(); }
  std::string_view name() const noexcept override { return inner_->name(); }

  bool start(env::Environment& environment) override {
    Span span(tally_.app[kStart]);
    const bool ok = inner_->start(environment);
    sync();
    return ok;
  }

  apps::StepResult handle(const apps::WorkItem& item,
                          env::Environment& environment) override {
    apps::StepResult result = inner_->handle(item, environment);
    sync();
    return result;
  }

  void stop(env::Environment& environment) override {
    Span span(tally_.app[kStop]);
    inner_->stop(environment);
    sync();
  }

  apps::SnapshotPtr snapshot() const override {
    Span span(tally_.app[kSnapshot]);
    return inner_->snapshot();
  }

  bool restore(const apps::SnapshotPtr& snapshot,
               env::Environment& environment) override {
    Span span(tally_.app[kRestore]);
    const bool ok = inner_->restore(snapshot, environment);
    sync();
    return ok;
  }

  void rejuvenate(env::Environment& environment) override {
    Span span(tally_.app[kRejuvenate]);
    inner_->rejuvenate(environment);
    sync();
  }

  std::size_t reclaim_idle_descriptors(env::Environment& environment,
                                       double fraction) override {
    const std::size_t n = inner_->reclaim_idle_descriptors(environment,
                                                            fraction);
    sync();
    return n;
  }

  void arm_fault(const apps::ActiveFault& fault) override {
    inner_->arm_fault(fault);
    fault_ = inner_->fault();
  }

 private:
  TrialTally& tally_;
  apps::SimApp* inner_ = nullptr;
};

}  // namespace

/// Times one trial: its own lifetime is the trial span, and each hook the
/// harness calls is a child span whose app calls go through the proxy.
class TimedMechanism final : public recovery::Mechanism {
 public:
  TimedMechanism(std::unique_ptr<recovery::Mechanism> inner,
                 TimedRoster& roster, std::size_t mechanism_index)
      : inner_(std::move(inner)), roster_(roster), proxy_(trial_),
        start_ns_(now_ns()), start_allocs_(thread_allocs()) {
    trial_.mechanism_index = mechanism_index;
  }

  ~TimedMechanism() override {
    if (!attached_) return;  // run_matrix's is_generic() probes
    // Release the inner mechanism's checkpoints inside the span.
    inner_.reset();
    trial_.ns = now_ns() - start_ns_;
    trial_.allocs = thread_allocs() - start_allocs_;
    roster_.fold(trial_);
  }

  TimedMechanism(const TimedMechanism&) = delete;
  TimedMechanism& operator=(const TimedMechanism&) = delete;

  std::string_view name() const noexcept override { return inner_->name(); }
  bool is_generic() const noexcept override { return inner_->is_generic(); }
  bool preserves_state() const noexcept override {
    return inner_->preserves_state();
  }

  void attach(apps::SimApp& app, env::Environment& e) override {
    attached_ = true;
    trial_.app_index = static_cast<std::size_t>(app.id());
    proxy_.bind(app);
    hook(kAttach, [&] { inner_->attach(proxy_, e); });
  }

  void on_item_success(apps::SimApp& app, env::Environment& e) override {
    (void)app;
    proxy_.sync();
    hook(kCheckpoint, [&] { inner_->on_item_success(proxy_, e); });
  }

  recovery::RecoveryAction recover(apps::SimApp& app,
                                   env::Environment& e) override {
    (void)app;
    proxy_.sync();
    recovery::RecoveryAction action;
    hook(kRecover, [&] { action = inner_->recover(proxy_, e); });
    if (action.recovered) ++trial_.recovered;
    return action;
  }

  void prepare_retry(apps::WorkItem& item) override {
    inner_->prepare_retry(item);
  }

 private:
  template <typename Fn>
  void hook(MechOp op, Fn&& fn) {
    const std::int64_t child_before = trial_.app_ns();
    {
      Span span(trial_.mech[op]);
      fn();
    }
    trial_.mech_child_ns[op] += trial_.app_ns() - child_before;
  }

  std::unique_ptr<recovery::Mechanism> inner_;
  TimedRoster& roster_;
  TrialTally trial_;
  TimedApp proxy_;
  bool attached_ = false;
  std::int64_t start_ns_;
  std::uint64_t start_allocs_;
};

std::int64_t RosterTally::app_ns() const noexcept {
  std::int64_t ns = 0;
  for (const OpTally& op : app) ns += op.ns;
  return ns;
}

std::int64_t RosterTally::mech_self_ns() const noexcept {
  std::int64_t ns = 0;
  for (std::size_t op = 0; op < kMechOps; ++op) {
    ns += mech[op].ns - mech_child_ns[op];
  }
  return ns;
}

std::int64_t RosterTally::trial_self_ns() const noexcept {
  std::int64_t hooks = 0;
  for (const OpTally& op : mech) hooks += op.ns;
  return trials.ns - hooks;
}

TimedRoster::TimedRoster(std::vector<harness::NamedMechanism> inner)
    : inner_(std::move(inner)) {
  roster_.reserve(inner_.size());
  for (std::size_t i = 0; i < inner_.size(); ++i) {
    roster_.push_back({inner_[i].name, [this, i] {
                         return std::make_unique<TimedMechanism>(
                             inner_[i].make(), *this, i);
                       }});
  }
  totals_.trial_ns_by_mechanism.assign(inner_.size(), 0);
}

RosterTally TimedRoster::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  RosterTally out = std::move(totals_);
  totals_ = RosterTally{};
  totals_.trial_ns_by_mechanism.assign(inner_.size(), 0);
  return out;
}

void TimedRoster::fold(const TrialTally& trial) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto add = [](OpTally& into, const OpTally& from) {
    into.calls += from.calls;
    into.ns += from.ns;
    into.allocs += from.allocs;
  };
  for (std::size_t op = 0; op < kAppOps; ++op) add(totals_.app[op], trial.app[op]);
  for (std::size_t op = 0; op < kMechOps; ++op) {
    add(totals_.mech[op], trial.mech[op]);
    totals_.mech_child_ns[op] += trial.mech_child_ns[op];
  }
  totals_.recovered += trial.recovered;
  add(totals_.trials, {1, trial.ns, trial.allocs});
  totals_.trial_ns_by_app[trial.app_index] += trial.ns;
  totals_.trial_ns_by_mechanism[trial.mechanism_index] += trial.ns;
}

}  // namespace faultstudy::bench
