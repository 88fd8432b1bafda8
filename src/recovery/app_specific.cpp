#include "recovery/app_specific.hpp"

#include "recovery/perturbation.hpp"

namespace faultstudy::recovery {

bool app_recoverable(core::Trigger trigger) noexcept {
  using core::Trigger;
  switch (trigger) {
    // Conditions no application code can clear.
    case Trigger::kHardwareRemoval:         // the card is physically gone
    case Trigger::kFullFileSystem:          // other tenants' data fills it
    case Trigger::kExternalSocketLeak:      // another program holds them
    case Trigger::kNetworkResourceExhausted:// opaque kernel pool
    case Trigger::kReverseDnsMissing:       // remote nameserver config
      return false;
    default:
      return true;
  }
}

void AppSpecific::attach(apps::SimApp& app, env::Environment& e) {
  (void)app;
  e.scheduler().set_replay_bias(ReplayBias::kAppSpecific);
  sinks_ = e.sinks();
}

RecoveryAction AppSpecific::recover(apps::SimApp& app, env::Environment& e) {
  e.advance(RecoveryCosts::kAppSpecific);
  sweep_application(app, e);
  // The application's own recovery code: reclaim everything it holds,
  // re-read cached environmental facts, rebuild poisoned state.
  app.rejuvenate(e);
  // And wrap the operation that failed with error checking so a
  // deterministic killer input is rejected instead of re-crashing.
  sanitize_next_ = true;
  RecoveryAction action;
  action.recovered = app.running();
  action.rewind_items = 0;
  return action;
}

void AppSpecific::prepare_retry(apps::WorkItem& item) {
  if (sanitize_next_) {
    if (item.poison) {
      // The error-checking wrapper answers the killer request with an error
      // page instead of handing it to the buggy code path.
      item.poison = false;
      item.op = apps::kRejectedOp;
      obs::emit(sinks_, obs::Event::kRetrySanitized, item.id);
    }
    sanitize_next_ = false;
  }
}

}  // namespace faultstudy::recovery
