// A miniature widget toolkit for the simulated desktop, carrying three of
// the study's GNOME bugs as real code-level fault points:
//
//   pager_tab_null_deref (gnome-ei-01): "clicking on the 'tasklist' tab in
//       gnome-pager settings causes the pager to die" — the tab-switch
//       handler looks up a widget that only exists when the pager is
//       embedded and dereferences the null result.
//   calendar_prev_local_copy (gnome-ei-02): "clicking 'prev' in the 'year'
//       view crashes ... due to assigning a value to a local copy of the
//       variable instead of the global copy" — the handler decrements a
//       local copy of the year while the render cache's base year moves,
//       leaving an out-of-range cache index.
//   archive_long_overflow (gnome-ei-04): "double-clicking on a 'tar.gz'
//       icon crashes gmc ... declaration of a variable as 'long' instead of
//       'unsigned long'" — the archive size is read through a signed
//       32-bit variable; sizes past 2 GiB go negative and the extraction
//       buffer allocation blows up.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace faultstudy::apps::ui {

struct UiFaultFlags {
  bool pager_tab_null_deref = false;
  bool calendar_prev_local_copy = false;
  bool archive_long_overflow = false;
};

enum class UiStatus : std::uint8_t {
  kOk = 0,
  kIgnored,  ///< event had no handler / target
  kCrash,    ///< an injected bug fired
};

struct UiResult {
  UiStatus status = UiStatus::kOk;
  std::string detail;
};

/// A widget: a named node with children. The toolkit routes events by
/// slash-separated paths ("panel/settings/tasklist-tab").
class Widget {
 public:
  explicit Widget(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  Widget& add_child(std::string name);
  /// Depth-one lookup; nullptr when absent.
  Widget* child(std::string_view name) noexcept;
  /// Path lookup ("a/b/c"); nullptr when any segment is absent — the
  /// situation the buggy pager handler fails to check.
  Widget* find(std::string_view path) noexcept;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Widget>> children_;
};

/// The gnome-pager settings dialog. The "tasklist" tab's page widget exists
/// only when the pager runs embedded in the panel; standalone it is absent.
class PagerSettings {
 public:
  explicit PagerSettings(bool embedded, UiFaultFlags flags);

  /// Switches to a tab by name ("layout", "tasklist", ...).
  UiResult click_tab(std::string_view tab);

  Widget& root() noexcept { return root_; }

 private:
  UiFaultFlags flags_;
  Widget root_{"pager-settings"};
};

/// The calendar's year view with its per-year render cache.
class Calendar {
 public:
  explicit Calendar(int year, UiFaultFlags flags);

  int year() const noexcept { return year_; }
  /// The "prev" button in the year view.
  UiResult click_prev_year();
  /// The "next" button (the handler is correct — only prev had the bug).
  UiResult click_next_year();

 private:
  UiResult rebuild_cache(int handler_year);

  UiFaultFlags flags_;
  int year_;
  int cache_base_year_;
  std::vector<std::string> cache_;  ///< one rendered page per cached year
};

/// gmc's archive opener (double-click on a tar.gz icon).
class ArchiveOpener {
 public:
  explicit ArchiveOpener(UiFaultFlags flags) : flags_(flags) {}

  /// Opens an archive whose header declares `payload_bytes` of content.
  UiResult open(std::uint64_t payload_bytes);

 private:
  UiFaultFlags flags_;
};

}  // namespace faultstudy::apps::ui
