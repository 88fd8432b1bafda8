#include "recovery/nversion.hpp"

#include "recovery/perturbation.hpp"
#include "util/rng.hpp"

namespace faultstudy::recovery {

namespace {
/// Deterministic "does variant v share the bug identified by salt?".
bool variant_shares_bug(std::uint64_t salt, int variant, double probability) {
  util::SplitMix64 sm(salt ^ (0x9E3779B9ull * static_cast<std::uint64_t>(variant)));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53 < probability;
}

/// Failover/vote latency per recovery.
constexpr env::Tick kVoteCost = 70;
}  // namespace

NVersionProgramming::NVersionProgramming(int n_versions,
                                         double shared_bug_probability,
                                         std::uint64_t salt)
    : n_(n_versions < 1 ? 1 : n_versions) {
  buggy_ = 1;  // version 0 is the implementation under study
  for (int v = 1; v < n_; ++v) {
    if (variant_shares_bug(salt, v, shared_bug_probability)) ++buggy_;
  }
  name_ = std::to_string(n_) + "-version";
}

void NVersionProgramming::attach(apps::SimApp& app, env::Environment& e) {
  e.scheduler().set_replay_bias(0.0);  // versions schedule independently
  synced_ = app.snapshot();
}

void NVersionProgramming::on_item_success(apps::SimApp& app,
                                          env::Environment& e) {
  (void)e;
  synced_ = app.snapshot();
}

RecoveryAction NVersionProgramming::recover(apps::SimApp& app,
                                            env::Environment& e) {
  e.advance(kVoteCost);
  sweep_application(app, e);
  RecoveryAction action;
  action.recovered = app.restore(synced_, e);
  return action;
}

void NVersionProgramming::prepare_retry(apps::WorkItem& item) {
  // With a healthy majority, the voter adopts the majority's answer for the
  // killer input: the service output is correct even though version 0
  // failed. Environmental conditions are shared by all versions, so only
  // input-triggered failures are masked.
  if (majority_healthy() && item.poison) {
    item.poison = false;
    item.op = apps::kRejectedOp;
  }
}

RecoveryBlocks::RecoveryBlocks(int alternates, double shared_bug_probability,
                               std::uint64_t salt)
    : alternates_(alternates < 0 ? 0 : alternates) {
  healthy_ = 0;
  for (int a = 1; a <= alternates_; ++a) {
    if (!variant_shares_bug(salt, a, shared_bug_probability)) {
      healthy_ = a;
      break;
    }
  }
  name_ = "recovery-blocks-" + std::to_string(alternates_);
}

void RecoveryBlocks::attach(apps::SimApp& app, env::Environment& e) {
  // Rollback-style: the acceptance test guards each block; entering a block
  // establishes a recovery point.
  e.scheduler().set_replay_bias(ReplayBias::kRollbackRetry);
  checkpoint_ = app.snapshot();
}

void RecoveryBlocks::on_item_success(apps::SimApp& app, env::Environment& e) {
  (void)e;
  checkpoint_ = app.snapshot();
  switch_pending_ = false;  // back on the primary for the next block
}

RecoveryAction RecoveryBlocks::recover(apps::SimApp& app,
                                       env::Environment& e) {
  // Trying alternates costs one rollback per attempted block.
  const env::Tick attempts =
      healthy_ > 0 ? healthy_ : (alternates_ > 0 ? alternates_ : 1);
  e.advance(RecoveryCosts::kRollbackRetry * attempts);
  sweep_application(app, e);
  RecoveryAction action;
  action.recovered = app.restore(checkpoint_, e);
  switch_pending_ = action.recovered;
  return action;
}

void RecoveryBlocks::prepare_retry(apps::WorkItem& item) {
  // After a rollback, the next block executes on the first healthy
  // alternate (if any): its implementation does not contain this bug.
  if (switch_pending_ && healthy_ > 0 && item.poison) {
    item.poison = false;
    item.op = apps::kRejectedOp;
  }
}

}  // namespace faultstudy::recovery
