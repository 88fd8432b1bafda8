#include "mining/keyword_search.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>

#include "text/stemmer.hpp"
#include "text/tokenizer.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::mining {

namespace {

/// Transparent hash so the memo can be probed with a token view.
struct ViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Stem-matches message tokens against a keyword set. Each distinct token is
/// stemmed once and its verdict memoised; tokens are lowered into one
/// reused buffer. Holds mutable state, so one instance per lane, each on
/// its own cache line.
class alignas(64) KeywordMatcher {
 public:
  explicit KeywordMatcher(const std::vector<std::string>& stems)
      : stems_(&stems) {}

  bool matches(const corpus::MailMessage& message) {
    return scan(message.subject) || scan(message.body);
  }

 private:
  /// True at the first token whose stem is a keyword (the scan stops there).
  bool scan(std::string_view text) {
    return !text::for_each_token(text, scratch_, [&](std::string_view tok) {
      return !is_keyword(tok);
    });
  }

  bool is_keyword(std::string_view token) {
    if (const auto it = memo_.find(token); it != memo_.end()) {
      return it->second;
    }
    const std::string s = text::stem(token);
    const bool hit =
        std::find(stems_->begin(), stems_->end(), s) != stems_->end();
    memo_.emplace(token, hit);
    return hit;
  }

  const std::vector<std::string>* stems_;
  std::unordered_map<std::string, bool, ViewHash, std::equal_to<>> memo_;
  std::string scratch_;
};

std::vector<std::string> stem_keywords(
    const std::vector<std::string>& keywords) {
  std::vector<std::string> stems;
  stems.reserve(keywords.size());
  for (const auto& kw : keywords) stems.push_back(text::stem(kw));
  return stems;
}

/// Per-message verdict of the keyword stage.
enum : unsigned char { kMiss = 0, kHit = 1, kHitAndShaped = 2 };

}  // namespace

const std::vector<std::string>& study_keywords() {
  static const std::vector<std::string> kKeywords = {"crash", "segmentation",
                                                     "race", "died"};
  return kKeywords;
}

bool matches_keywords(const corpus::MailMessage& message,
                      const std::vector<std::string>& keywords) {
  const auto stems = stem_keywords(keywords);
  return KeywordMatcher(stems).matches(message);
}

bool is_bug_report_shaped(const corpus::MailMessage& message) {
  return util::icontains(message.body, "how-to-repeat:") &&
         util::icontains(message.body, "version:");
}

std::vector<MinedThread> mine_threads(const corpus::MailingList& list,
                                      const std::vector<std::string>& keywords,
                                      KeywordFunnel* funnel,
                                      std::size_t threads) {
  const std::span<const corpus::MailMessage> messages = list.messages();
  KeywordFunnel f;
  f.total_messages = messages.size();

  // Match every message on the pool; each lane owns one matcher (and so one
  // memo), freed when this call returns. A serial sweep runs on the calling
  // thread, whatever lane that thread has in an enclosing pool.
  const std::size_t lanes = util::resolve_threads(threads);
  const auto stems = stem_keywords(keywords);
  std::vector<KeywordMatcher> matchers(lanes, KeywordMatcher(stems));
  const auto verdicts = util::parallel_map<unsigned char>(
      messages.size(), lanes, [&](std::size_t i) -> unsigned char {
        KeywordMatcher& matcher =
            matchers[lanes > 1 ? util::current_lane() : 0];
        if (!matcher.matches(messages[i])) return kMiss;
        return is_bug_report_shaped(messages[i]) ? kHitAndShaped : kHit;
      });

  // Serial reduction in message order. A qualifying thread's slot in `out`
  // is assigned when its first message (the root) is seen.
  constexpr std::size_t kUnseen = std::numeric_limits<std::size_t>::max();
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (verdicts[i] == kMiss) continue;
    ++f.keyword_hits;
    if (verdicts[i] != kHitAndShaped) continue;
    ++f.report_shaped;
    slot_of.emplace(messages[i].thread_id, kUnseen);
  }
  f.threads = slot_of.size();

  // Collect each qualifying thread in arrival order: root first, then
  // replies (which include the developers' diagnoses).
  std::vector<MinedThread> out;
  out.reserve(slot_of.size());
  for (const corpus::MailMessage& m : messages) {
    const auto it = slot_of.find(m.thread_id);
    if (it == slot_of.end()) continue;
    if (it->second == kUnseen) {
      it->second = out.size();
      out.push_back(MinedThread{m, {}});
    } else {
      out[it->second].replies.push_back(m);
    }
  }
  if (funnel != nullptr) *funnel = f;
  return out;
}

}  // namespace faultstudy::mining
