#include "recovery/rollback.hpp"

#include "recovery/perturbation.hpp"

namespace faultstudy::recovery {

double RollbackRetry::replay_bias() const noexcept {
  return ReplayBias::kRollbackRetry;
}

env::Tick RollbackRetry::recovery_cost() const noexcept {
  return RecoveryCosts::kRollbackRetry;
}

void RollbackRetry::attach(apps::SimApp& app, env::Environment& e) {
  e.scheduler().set_replay_bias(replay_bias());
  checkpoint_ = app.snapshot();
  since_checkpoint_ = 0;
  e.emit(obs::Event::kCheckpoint);
}

void RollbackRetry::on_item_success(apps::SimApp& app, env::Environment& e) {
  if (++since_checkpoint_ >= interval_) {
    checkpoint_ = app.snapshot();
    since_checkpoint_ = 0;
    e.emit(obs::Event::kCheckpoint);
  }
}

RecoveryAction RollbackRetry::recover(apps::SimApp& app, env::Environment& e) {
  e.advance(recovery_cost());
  sweep_application(app, e);
  RecoveryAction action;
  action.recovered = app.restore(checkpoint_, e);
  action.rewind_items = since_checkpoint_;
  since_checkpoint_ = 0;
  return action;
}

}  // namespace faultstudy::recovery
