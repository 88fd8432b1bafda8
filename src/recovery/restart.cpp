#include "recovery/restart.hpp"

#include "recovery/perturbation.hpp"

namespace faultstudy::recovery {

void ColdRestart::attach(apps::SimApp& app, env::Environment& e) {
  (void)app;
  e.scheduler().set_replay_bias(ReplayBias::kColdRestart);
}

RecoveryAction ColdRestart::recover(apps::SimApp& app, env::Environment& e) {
  e.advance(RecoveryCosts::kColdRestart);
  sweep_application(app, e);
  app.stop(e);
  RecoveryAction action;
  action.recovered = app.start(e);
  action.rewind_items = 0;  // in-flight work is simply lost, not replayed
  e.emit(obs::Event::kColdRestart);
  return action;
}

}  // namespace faultstudy::recovery
