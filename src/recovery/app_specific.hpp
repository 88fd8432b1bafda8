// Application-specific recovery: the full toolkit the paper says most
// faults require. Combines rejuvenation-style cleanup with error-checking
// wrappers around killer inputs (Ballista-style [Kropp98]) and
// reconstruction of the parts of state that must not be restored verbatim.
//
// Deliberately NOT omnipotent: conditions that live entirely outside the
// application's reach — missing hardware, a file system filled by another
// tenant, descriptors leaked by another program, an exhausted kernel pool,
// an unconfigured remote PTR record — still defeat it; they need an
// operator. The recovery-matrix bench reports these separately.
#pragma once

#include "obs/bus.hpp"
#include "recovery/mechanism.hpp"

namespace faultstudy::recovery {

class AppSpecific final : public Mechanism {
 public:
  std::string_view name() const noexcept override { return "app-specific"; }
  bool is_generic() const noexcept override { return false; }
  bool preserves_state() const noexcept override { return true; }

  void attach(apps::SimApp& app, env::Environment& e) override;
  void on_item_success(apps::SimApp& app, env::Environment& e) override {
    (void)app;
    (void)e;
  }
  RecoveryAction recover(apps::SimApp& app, env::Environment& e) override;

  /// The error-checking wrapper: after a failure on a killer input, the
  /// retry is performed with the input rejected up front (the service
  /// returns an error page/message instead of crashing).
  void prepare_retry(apps::WorkItem& item) override;

 private:
  bool sanitize_next_ = false;
  // prepare_retry has no Environment parameter; attach caches the trial's
  // sinks so sanitized retries are still observed.
  const obs::TrialSinks* sinks_ = nullptr;
};

/// True when the trigger's condition is reachable by application-level
/// recovery code; false when only an operator (or hardware) can clear it.
bool app_recoverable(core::Trigger trigger) noexcept;

}  // namespace faultstudy::recovery
