// Design-diversity mechanisms (Section 2): N-version programming
// [Avizienis85] and recovery blocks [Randell75].
//
// Both survive a design bug only when some independently developed variant
// does NOT share it. The Knight-Leveson lesson — independently written
// versions make correlated mistakes — enters as `shared_bug_probability`:
// the chance an alternate implementation contains the same bug. Whether a
// particular variant shares THIS fault's bug is decided deterministically
// from the per-fault salt and the variant index.
//
// Diversity helps with design bugs the variants can disagree on (the
// environment-independent class). It does not conjure environmental
// resources: if the file system is full, it is full for all N versions.
// The model captures this by masking only input-triggered failures.
#pragma once

#include <memory>

#include "recovery/mechanism.hpp"

namespace faultstudy::recovery {

/// Active replication with majority voting. Version 0 is the version under
/// study and always contains the bug; versions 1..n-1 share it with
/// probability `shared_bug_probability` each.
class NVersionProgramming final : public Mechanism {
 public:
  NVersionProgramming(int n_versions, double shared_bug_probability,
                      std::uint64_t salt);

  std::string_view name() const noexcept override { return name_; }
  bool is_generic() const noexcept override { return false; }
  bool preserves_state() const noexcept override { return true; }

  void attach(apps::SimApp& app, env::Environment& e) override;
  void on_item_success(apps::SimApp& app, env::Environment& e) override;
  RecoveryAction recover(apps::SimApp& app, env::Environment& e) override;
  void prepare_retry(apps::WorkItem& item) override;

  int versions() const noexcept { return n_; }
  int buggy_versions() const noexcept { return buggy_; }
  /// True when a majority of versions is free of this fault's bug — the
  /// voter then masks input-triggered failures.
  bool majority_healthy() const noexcept { return buggy_ * 2 < n_; }

 private:
  int n_;
  int buggy_;
  std::string name_;
  apps::SnapshotPtr synced_;
};

/// Passive diversity: one primary plus `alternates` spare implementations
/// behind an acceptance test; alternates are tried in order after a
/// rollback [Randell75].
class RecoveryBlocks final : public Mechanism {
 public:
  RecoveryBlocks(int alternates, double shared_bug_probability,
                 std::uint64_t salt);

  std::string_view name() const noexcept override { return name_; }
  bool is_generic() const noexcept override { return false; }
  bool preserves_state() const noexcept override { return true; }

  void attach(apps::SimApp& app, env::Environment& e) override;
  void on_item_success(apps::SimApp& app, env::Environment& e) override;
  RecoveryAction recover(apps::SimApp& app, env::Environment& e) override;
  void prepare_retry(apps::WorkItem& item) override;

  int alternates() const noexcept { return alternates_; }
  /// Index (1-based) of the first healthy alternate; 0 when none is.
  int first_healthy_alternate() const noexcept { return healthy_; }

 private:
  int alternates_;
  int healthy_;
  std::string name_;
  apps::SnapshotPtr checkpoint_;
  bool switch_pending_ = false;
};

}  // namespace faultstudy::recovery
