#include "recovery/rejuvenation.hpp"

#include "recovery/perturbation.hpp"

namespace faultstudy::recovery {

void Rejuvenation::attach(apps::SimApp& app, env::Environment& e) {
  (void)app;
  e.scheduler().set_replay_bias(ReplayBias::kRejuvenation);
}

RecoveryAction Rejuvenation::recover(apps::SimApp& app, env::Environment& e) {
  e.advance(RecoveryCosts::kRejuvenation);
  sweep_application(app, e);
  app.rejuvenate(e);
  RecoveryAction action;
  action.recovered = app.running();
  action.rewind_items = 0;
  e.emit(obs::Event::kRejuvenation);
  return action;
}

void ScheduledRejuvenation::attach(apps::SimApp& app, env::Environment& e) {
  (void)app;
  e.scheduler().set_replay_bias(0.0);
  since_ = 0;
  proactive_ = 0;
}

void ScheduledRejuvenation::on_item_success(apps::SimApp& app,
                                            env::Environment& e) {
  if (++since_ < interval_) return;
  since_ = 0;
  ++proactive_;
  // Proactive pass: cheaper than crash recovery because it runs at a
  // quiescent point (no failed operation to clean up after).
  e.advance(RecoveryCosts::kRejuvenation / 2);
  sweep_application(app, e);
  app.rejuvenate(e);
  e.emit(obs::Event::kProactiveRejuvenation, 1);
}

RecoveryAction ScheduledRejuvenation::recover(apps::SimApp& app,
                                              env::Environment& e) {
  // The schedule missed (a failure still happened): fall back to reactive
  // rejuvenation.
  e.advance(RecoveryCosts::kRejuvenation);
  sweep_application(app, e);
  app.rejuvenate(e);
  since_ = 0;
  RecoveryAction action;
  action.recovered = app.running();
  e.emit(obs::Event::kRejuvenation);
  return action;
}

}  // namespace faultstudy::recovery
