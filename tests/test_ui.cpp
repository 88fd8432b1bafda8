// Tests for the UI toolkit and its three study bugs, including the
// end-to-end path through the Desktop application and the harness.
#include <gtest/gtest.h>

#include "apps/desktop.hpp"
#include "apps/ui/toolkit.hpp"
#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "recovery/process_pairs.hpp"
#include "util/rng.hpp"

namespace faultstudy::apps::ui {
namespace {

// ----------------------------------------------------------------- widget

TEST(WidgetTree, ChildAndPathLookup) {
  Widget root("root");
  auto& a = root.add_child("a");
  a.add_child("b");
  EXPECT_NE(root.child("a"), nullptr);
  EXPECT_EQ(root.child("zz"), nullptr);
  ASSERT_NE(root.find("a/b"), nullptr);
  EXPECT_EQ(root.find("a/b")->name(), "b");
  EXPECT_EQ(root.find("a/zz"), nullptr);
  EXPECT_EQ(root.find(""), &root);
}

// ------------------------------------------------------------------ pager

TEST(Pager, EmbeddedHasTasklistPage) {
  PagerSettings settings(/*embedded=*/true, {});
  EXPECT_NE(settings.root().find("pages/tasklist-page"), nullptr);
  EXPECT_EQ(settings.click_tab("tasklist").status, UiStatus::kOk);
}

TEST(Pager, StandaloneFixedHandlerDegradesGracefully) {
  PagerSettings settings(/*embedded=*/false, {});
  const auto r = settings.click_tab("tasklist");
  EXPECT_EQ(r.status, UiStatus::kIgnored);
}

TEST(Pager, StandaloneBuggyHandlerCrashes) {
  UiFaultFlags flags;
  flags.pager_tab_null_deref = true;
  PagerSettings settings(/*embedded=*/false, flags);
  EXPECT_EQ(settings.click_tab("layout").status, UiStatus::kOk);  // page exists
  const auto r = settings.click_tab("tasklist");
  EXPECT_EQ(r.status, UiStatus::kCrash);
  EXPECT_NE(r.detail.find("missing"), std::string::npos);
}

TEST(Pager, BuggyHandlerHarmlessWhenEmbedded) {
  UiFaultFlags flags;
  flags.pager_tab_null_deref = true;
  PagerSettings settings(/*embedded=*/true, flags);
  EXPECT_EQ(settings.click_tab("tasklist").status, UiStatus::kOk);
}

TEST(Pager, UnknownTabIgnored) {
  PagerSettings settings(true, {});
  EXPECT_EQ(settings.click_tab("nonsense").status, UiStatus::kIgnored);
}

// --------------------------------------------------------------- calendar

TEST(Cal, FixedPrevAndNextWork) {
  Calendar calendar(1999, {});
  EXPECT_EQ(calendar.click_prev_year().status, UiStatus::kOk);
  EXPECT_EQ(calendar.year(), 1998);
  EXPECT_EQ(calendar.click_next_year().status, UiStatus::kOk);
  EXPECT_EQ(calendar.year(), 1999);
}

TEST(Cal, BuggyPrevCrashesFirstClick) {
  UiFaultFlags flags;
  flags.calendar_prev_local_copy = true;
  Calendar calendar(1999, flags);
  const auto r = calendar.click_prev_year();
  EXPECT_EQ(r.status, UiStatus::kCrash);
  EXPECT_NE(r.detail.find("diverged"), std::string::npos);
}

TEST(Cal, BuggyNextStillFine) {
  UiFaultFlags flags;
  flags.calendar_prev_local_copy = true;
  Calendar calendar(1999, flags);
  EXPECT_EQ(calendar.click_next_year().status, UiStatus::kOk);
}

// ---------------------------------------------------------------- archive

TEST(Archive, SmallArchivesFineEitherWay) {
  UiFaultFlags flags;
  flags.archive_long_overflow = true;
  EXPECT_EQ(ArchiveOpener({}).open(1u << 20).status, UiStatus::kOk);
  EXPECT_EQ(ArchiveOpener(flags).open(1u << 20).status, UiStatus::kOk);
}

TEST(Archive, SignedOverflowAtTwoGigabytes) {
  UiFaultFlags flags;
  flags.archive_long_overflow = true;
  // Just below 2 GiB: the signed 32-bit variable still holds it.
  EXPECT_EQ(ArchiveOpener(flags).open((1ull << 31) - 1).status, UiStatus::kOk);
  // At and past 2 GiB: negative size, crash.
  EXPECT_EQ(ArchiveOpener(flags).open(1ull << 31).status, UiStatus::kCrash);
  EXPECT_EQ(ArchiveOpener(flags).open(3ull << 30).status, UiStatus::kCrash);
  // The fixed path keeps the unsigned width.
  EXPECT_EQ(ArchiveOpener({}).open(3ull << 30).status, UiStatus::kOk);
}

// ----------------------------------------------- through the application

apps::WorkItem ui_item(std::string_view op, bool poison = false) {
  apps::WorkItem w;
  w.op = op;
  w.poison = poison;
  return w;
}

TEST(DesktopUi, RealPagerBugCrashesSession) {
  env::Environment e;
  apps::Desktop desktop;
  apps::ActiveFault fault;
  fault.trigger = core::Trigger::kUiEventSequence;
  fault.symptom = core::Symptom::kCrash;
  fault.fault_id = "gnome-ei-01";
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));

  EXPECT_FALSE(apps::is_failure(desktop.handle(ui_item("click:panel-menu"), e)));
  const auto r =
      desktop.handle(ui_item("click:pager-settings-tasklist", true), e);
  EXPECT_EQ(r.status, apps::StepStatus::kCrash);
  EXPECT_FALSE(desktop.running());
}

TEST(DesktopUi, RealCalendarBugCrashes) {
  env::Environment e;
  apps::Desktop desktop;
  apps::ActiveFault fault;
  fault.trigger = core::Trigger::kWrongVariableUsage;
  fault.symptom = core::Symptom::kCrash;
  fault.fault_id = "gnome-ei-02";
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  const auto r = desktop.handle(ui_item("click:calendar-prev-year", true), e);
  EXPECT_EQ(r.status, apps::StepStatus::kCrash);
}

TEST(DesktopUi, CalendarWorksWhenFixed) {
  env::Environment e;
  apps::Desktop desktop;
  ASSERT_TRUE(desktop.start(e));
  EXPECT_FALSE(apps::is_failure(
      desktop.handle(ui_item("click:calendar-prev-year"), e)));
}

TEST(DesktopUi, RealizedGnomeFaultDefeatsGenericRecovery) {
  const auto seeds = corpus::all_seeds();
  for (const char* id : {"gnome-ei-01", "gnome-ei-02", "gnome-ei-04"}) {
    const corpus::SeedFault* seed = nullptr;
    for (const auto& s : seeds) {
      if (s.fault_id == id) seed = &s;
    }
    ASSERT_NE(seed, nullptr) << id;
    harness::TrialConfig tc;
    tc.seed = 17 + util::fnv1a(id);
    const auto plan = inject::plan_for(*seed, tc.seed);
    EXPECT_FALSE(plan.workload.poison_op.empty()) << id;
    recovery::ProcessPairs pp;
    const auto outcome = harness::run_trial(plan, pp, tc);
    EXPECT_TRUE(outcome.failure_observed) << id;
    EXPECT_FALSE(outcome.survived) << id;
  }
}

}  // namespace
}  // namespace faultstudy::apps::ui
