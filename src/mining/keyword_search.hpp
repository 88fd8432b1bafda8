// Keyword mining of mailing-list archives (the paper's MySQL methodology):
// match the study keywords ("crash", "segmentation", "race", "died"), keep
// the threads rooted at messages that are actually usable bug reports, and
// hand the roots plus their developer replies to deduplication.
#pragma once

#include <string>
#include <vector>

#include "corpus/mailinglist.hpp"

namespace faultstudy::mining {

/// The paper's keyword set.
const std::vector<std::string>& study_keywords();

/// True if any keyword (stem-matched) appears in subject or body.
bool matches_keywords(const corpus::MailMessage& message,
                      const std::vector<std::string>& keywords);

/// Heuristic for "this message is a usable bug report": it must state how to
/// repeat the problem and name the version it was observed on. Mirrors the
/// manual narrowing the authors performed when reading a few hundred
/// keyword hits.
bool is_bug_report_shaped(const corpus::MailMessage& message);

struct KeywordFunnel {
  std::size_t total_messages = 0;
  std::size_t keyword_hits = 0;
  std::size_t report_shaped = 0;  ///< hits that look like usable reports
  std::size_t threads = 0;        ///< distinct threads those roots start
};

/// One mined thread: the root report plus every reply in its thread
/// (replies carry the developers' diagnoses).
struct MinedThread {
  corpus::MailMessage root;
  std::vector<corpus::MailMessage> replies;
};

/// Runs keyword match + report-shape narrowing, grouping by thread. The
/// keywords are stemmed once per call; the per-message match fans out over
/// `threads` lanes (resolved via util::resolve_threads; 1 = serial on the
/// calling thread) and the funnel and thread grouping reduce serially in
/// message order, so the result is identical for every lane count. A
/// parallel call must come from a thread that is not itself a pool worker.
std::vector<MinedThread> mine_threads(const corpus::MailingList& list,
                                      const std::vector<std::string>& keywords,
                                      KeywordFunnel* funnel = nullptr,
                                      std::size_t threads = 1);

}  // namespace faultstudy::mining
