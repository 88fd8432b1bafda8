#include "recovery/process_pairs.hpp"

#include "recovery/perturbation.hpp"

namespace faultstudy::recovery {

void ProcessPairs::attach(apps::SimApp& app, env::Environment& e) {
  e.scheduler().set_replay_bias(ReplayBias::kProcessPairs);
  backup_ = app.snapshot();
}

void ProcessPairs::on_item_success(apps::SimApp& app, env::Environment& e) {
  (void)e;
  backup_ = app.snapshot();  // primary->backup state sync after every op
}

RecoveryAction ProcessPairs::recover(apps::SimApp& app, env::Environment& e) {
  e.advance(RecoveryCosts::kProcessPairs);
  sweep_application(app, e);
  RecoveryAction action;
  action.recovered = app.restore(backup_, e);
  action.rewind_items = 0;  // the backup is synced to the last completed op
  e.emit(obs::Event::kFailover);
  return action;
}

}  // namespace faultstudy::recovery
