// The end-to-end mining pipeline: corpus -> filters -> dedup -> classify.
//
// Reproduces the paper's methodology for each source:
//   tracker path  (Apache, GNOME): study criteria filters -> duplicate
//       clustering -> one unique bug per cluster -> rule classification;
//   mailing-list path (MySQL): keyword match -> report-shape narrowing ->
//       thread grouping -> cross-thread duplicate clustering -> rule
//       classification.
//
// Every unique bug carries provenance (the report ids merged into it) and,
// when the corpus is synthetic, the planted ground truth for evaluation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/rule_classifier.hpp"
#include "corpus/mailinglist.hpp"
#include "corpus/tracker.hpp"
#include "mining/dedup.hpp"
#include "mining/filters.hpp"
#include "mining/keyword_search.hpp"

namespace faultstudy::mining {

/// One unique bug after deduplication, with its classification.
struct UniqueBug {
  core::AppId app = core::AppId::kApache;
  std::string title;                     ///< primary (earliest) report title
  std::vector<std::uint64_t> report_ids; ///< provenance: merged reports
  int bucket = 0;                        ///< release ordinal / time bucket
  core::Classification classification;

  /// Ground truth planted by the synthetic generator (evaluation only).
  std::string truth_fault_id;
  std::optional<core::FaultClass> truth_class;
};

struct PipelineResult {
  std::vector<UniqueBug> bugs;
  FilterFunnel filter_funnel;    ///< tracker path
  KeywordFunnel keyword_funnel;  ///< mailing-list path
  std::size_t clusters = 0;
};

struct PipelineOptions {
  DedupParams dedup;
  core::RulePolicy policy;  ///< classification rule policy (paper default)
  /// Lanes for the per-message/per-report/per-cluster fan-out (keyword
  /// match, tokenize, TF-IDF, MinHash, classification). 0 = auto
  /// (FAULTSTUDY_THREADS env var, else hardware_concurrency), 1 = the serial
  /// path. Every reduction is serial in index order, so the result is
  /// identical for every thread count.
  /// Also used for dedup when `dedup.threads` is 0.
  std::size_t threads = 0;
};

/// Apache/GNOME path. GNOME buckets by report date (the modules release
/// independently); Apache buckets by release ordinal.
PipelineResult run_tracker_pipeline(const corpus::BugTracker& tracker,
                                    const PipelineOptions& options = {});

/// MySQL path. Buckets by the production release named in the report's
/// "Version:" line; reports naming no known release are dropped.
PipelineResult run_mailinglist_pipeline(const corpus::MailingList& list,
                                        const PipelineOptions& options = {});

/// Converts mined unique bugs to core::Fault records (for aggregation and
/// the figures). Fault ids are synthesized from the app and an ordinal.
std::vector<core::Fault> to_faults(const PipelineResult& result);

}  // namespace faultstudy::mining
