#include "recovery/wrappers.hpp"

#include "util/rng.hpp"

namespace faultstudy::recovery {

WrappedMechanism::WrappedMechanism(std::unique_ptr<Mechanism> inner,
                                   double coverage, std::uint64_t salt)
    : inner_(std::move(inner)) {
  if (coverage < 0.0) coverage = 0.0;
  if (coverage > 1.0) coverage = 1.0;
  // Scramble the salt so consecutive fault ids decorrelate, then compare
  // against the coverage fraction.
  util::SplitMix64 sm(salt);
  covered_ = static_cast<double>(sm.next() >> 11) * 0x1.0p-53 < coverage;
  name_ = std::string(inner_->name()) + "+wrapper";
}

void WrappedMechanism::attach(apps::SimApp& app, env::Environment& e) {
  inner_->attach(app, e);
}

void WrappedMechanism::on_item_success(apps::SimApp& app,
                                       env::Environment& e) {
  inner_->on_item_success(app, e);
}

RecoveryAction WrappedMechanism::recover(apps::SimApp& app,
                                         env::Environment& e) {
  return inner_->recover(app, e);
}

void WrappedMechanism::prepare_retry(apps::WorkItem& item) {
  inner_->prepare_retry(item);
  // The wrapper's error check rejects the killer input up front — but only
  // if the boundary-testing campaign generated a check for it.
  if (covered_ && item.poison) {
    item.poison = false;
    item.op = apps::kRejectedOp;
  }
}

}  // namespace faultstudy::recovery
