// A GNOME-like desktop session on the simulated environment.
//
// Startup: spawns its applets as children (panel, clock, pager), connects to
// the sound daemon (descriptors), and reads its per-user configuration. Per
// UI event: updates widget state, writes configuration, and exchanges
// requests with applets (the race-prone path).
// Three study faults are implemented as real toolkit-level code bugs
// (apps/ui), enabled when the armed fault carries the matching id:
//   gnome-ei-01  pager settings tasklist-tab null dereference
//   gnome-ei-02  calendar prev-year local-copy assignment
//   gnome-ei-04  archive size through a signed 32-bit variable
#pragma once

#include "apps/app.hpp"
#include "apps/ui/toolkit.hpp"

namespace faultstudy::apps {

struct DesktopConfig {
  std::size_t base_fds = 12;   ///< X connection, config files, esd sockets
  std::size_t worker_pool = 5; ///< applets (panel, clock, pager, ...)
};

class Desktop final : public BaseApp {
 public:
  explicit Desktop(const DesktopConfig& config = {});

  void arm_fault(const ActiveFault& fault) override;

  bool start(env::Environment& e) override;
  StepResult handle(const WorkItem& item, env::Environment& e) override;
  void stop(env::Environment& e) override;
  void rejuvenate(env::Environment& e) override;

  std::uint64_t events_handled() const noexcept { return events_; }
  std::uint64_t open_windows() const noexcept { return open_windows_; }

 private:
  void save(Snapshot& into) const override;
  bool load(const Snapshot& from, env::Environment& e) override;

  DesktopConfig config_;
  ui::UiFaultFlags ui_flags_;
  std::uint64_t events_ = 0;
  std::uint64_t open_windows_ = 1;  ///< the desktop itself
  int calendar_year_ = 1999;        ///< calendar view state (checkpointed)
};

}  // namespace faultstudy::apps
