#include "apps/desktop.hpp"

#include "env/interleave.hpp"
#include "util/strings.hpp"

namespace faultstudy::apps {

Desktop::Desktop(const DesktopConfig& config)
    : BaseApp(core::AppId::kGnome, "gnome-session", config.base_fds,
              config.worker_pool),
      config_(config) {
  log_path_ = "/home/user/.gnome/session.log";
}

void Desktop::arm_fault(const ActiveFault& fault) {
  BaseApp::arm_fault(fault);
  ui_flags_ = {};
  if (fault.fault_id == "gnome-edt-03") {
    // The applet request-vs-removal race is realized structurally
    // (env/interleave): handled in handle().
    fault_->realized = true;
  }
  if (fault.fault_id == "gnome-ei-01") {
    ui_flags_.pager_tab_null_deref = true;
    fault_->realized = true;
  } else if (fault.fault_id == "gnome-ei-02") {
    ui_flags_.calendar_prev_local_copy = true;
    fault_->realized = true;
  } else if (fault.fault_id == "gnome-ei-04") {
    ui_flags_.archive_long_overflow = true;
    fault_->realized = true;
  }
}

bool Desktop::start(env::Environment& e) {
  if (!base_start(e)) return false;
  events_ = 0;
  open_windows_ = 1;
  return true;
}

StepResult Desktop::handle(const WorkItem& item, env::Environment& e) {
  if (!running_) return {StepStatus::kError, "session not running"};
  if (item.op == kRejectedOp) return {};  // wrapper intercepted the event

  if (auto failure = check_fault(item, e); failure.has_value()) {
    if (failure->status == StepStatus::kCrash ||
        failure->status == StepStatus::kHang) {
      running_ = false;
    }
    return *failure;
  }

  // Realized applet race (gnome-edt-03): the panel processes an applet's
  // action request over ~10 atomic steps, registering it at step 4 and
  // validating the applet at step 5; a removal notification landing in the
  // gap leaves a dangling reference. Racy items model applet interactions
  // that coincide with removals.
  if (fault_.has_value() && fault_->fault_id == "gnome-edt-03" &&
      item.racy) {
    if (env::request_removal_race(e.scheduler(), e.trace(), e.now(),
                                  /*a_steps=*/10,
                                  /*request_registered_at=*/4)) {
      running_ = false;
      return {StepStatus::kCrash,
              "applet removed between action request and validation"};
    }
  } else if (item.racy && !generic_race_armed()) {
    // Fixed panel: removal notifications take the applet-list lock before
    // invalidating, so the traced shape carries no race.
    emit_synchronized_trace(e, env::trace_objects::kAppletList,
                            "removal notification under applet-list lock");
  }

  // Real toolkit paths (the gnome-ei-01/02/04 bugs live in apps/ui).
  if (item.op == "click:pager-settings-tasklist") {
    ui::PagerSettings settings(/*embedded=*/false, ui_flags_);
    const auto r = settings.click_tab("tasklist");
    if (r.status == ui::UiStatus::kCrash) {
      running_ = false;
      return {StepStatus::kCrash, keep_detail(r.detail)};
    }
  } else if (item.op == "click:calendar-prev-year") {
    ui::Calendar calendar(calendar_year_, ui_flags_);
    const auto r = calendar.click_prev_year();
    if (r.status == ui::UiStatus::kCrash) {
      running_ = false;
      return {StepStatus::kCrash, keep_detail(r.detail)};
    }
    calendar_year_ = calendar.year();
  } else if (util::starts_with(item.op, "open:archive")) {
    ui::ArchiveOpener opener(ui_flags_);
    const auto r = opener.open(3ull << 30);  // a 3 GiB tar.gz
    if (r.status == ui::UiStatus::kCrash) {
      running_ = false;
      return {StepStatus::kCrash, keep_detail(r.detail)};
    }
    ++open_windows_;
  } else if (util::starts_with(item.op, "open:")) {
    ++open_windows_;
  } else if (util::starts_with(item.op, "save:") ||
             util::starts_with(item.op, "edit:")) {
    e.disk().append("/home/user/.gnome/config", item.write_bytes);
  } else if (util::starts_with(item.op, "play:")) {
    // Sound events borrow a descriptor for the esd socket.
    if (e.fds().acquire("gnome-session", 1)) {
      e.fds().release("gnome-session", 1);
    }
  }

  e.advance(1);
  ++events_;
  ++state_.items_handled;
  e.emit(obs::Event::kUiEvent);
  return {};
}

void Desktop::stop(env::Environment& e) { base_stop(e); }

void Desktop::save(Snapshot& into) const {
  into.events = events_;
  into.open_windows = open_windows_;
  into.calendar_year = calendar_year_;
}

bool Desktop::load(const Snapshot& from, env::Environment& e) {
  (void)e;
  events_ = from.events;
  open_windows_ = from.open_windows;
  calendar_year_ = from.calendar_year;
  return true;
}

void Desktop::rejuvenate(env::Environment& e) {
  base_rejuvenate(e);
  // The desktop's own recovery code re-reads the session file and closes
  // windows whose applications died.
  open_windows_ = 1;
}

}  // namespace faultstudy::apps
