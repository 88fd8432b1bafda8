#include "mining/pipeline.hpp"

#include <algorithm>
#include <map>

#include "corpus/seeds.hpp"
#include "corpus/synth.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::mining {

namespace {

/// Majority ground-truth fault id over a set of reports (evaluation only).
template <typename GetId>
std::string majority_fault_id(std::size_t n, GetId&& get_id) {
  std::map<std::string, std::size_t> votes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& id = get_id(i);
    if (!id.empty()) ++votes[id];
  }
  std::string best;
  std::size_t best_votes = 0;
  for (const auto& [id, v] : votes) {
    if (v > best_votes) {
      best = id;
      best_votes = v;
    }
  }
  return best;
}

void append_field(std::string& into, const std::string& piece) {
  if (piece.empty()) return;
  if (!into.empty()) into += '\n';
  into += piece;
}

/// Extracts the How-To-Repeat section from a structured mail body
/// ("How-To-Repeat: ...\nVersion: ...").
std::string extract_how_to_repeat(const std::string& body) {
  static constexpr std::string_view kTag = "How-To-Repeat:";
  const auto pos = body.find(kTag);
  if (pos == std::string::npos) return {};
  const auto start = pos + kTag.size();
  auto end = body.find("\nVersion:", start);
  if (end == std::string::npos) end = body.size();
  return std::string(util::trim(std::string_view(body).substr(start, end - start)));
}

/// Parses the release ordinal from a "Version: x.y.z" line; -1 if the named
/// version is not a known production release.
int parse_release_ordinal(const std::string& body,
                          const std::vector<std::string>& releases) {
  static constexpr std::string_view kTag = "Version:";
  const auto pos = body.find(kTag);
  if (pos == std::string::npos) return -1;
  auto line_end = body.find('\n', pos);
  if (line_end == std::string::npos) line_end = body.size();
  const auto version = util::trim(
      std::string_view(body).substr(pos + kTag.size(), line_end - pos - kTag.size()));
  for (std::size_t i = 0; i < releases.size(); ++i) {
    if (version == releases[i]) return static_cast<int>(i);
  }
  return -1;
}

/// Dedup parameters with the pipeline's thread count filled in when the
/// dedup stage does not set its own.
DedupParams dedup_params(const PipelineOptions& options) {
  DedupParams params = options.dedup;
  if (params.threads == 0) params.threads = options.threads;
  return params;
}

}  // namespace

PipelineResult run_tracker_pipeline(const corpus::BugTracker& tracker,
                                    const PipelineOptions& options) {
  PipelineResult result;
  const std::vector<corpus::BugReport> candidates =
      study_candidates(tracker, &result.filter_funnel);

  std::vector<DedupDoc> docs;
  docs.reserve(candidates.size());
  for (const auto& r : candidates) {
    DedupDoc d;
    d.id = r.id;
    d.text = r.text.title + ' ' + r.text.how_to_repeat + ' ' + r.text.body;
    docs.push_back(std::move(d));
  }
  const auto clusters = cluster_documents(docs, dedup_params(options));
  result.clusters = clusters.size();

  // Each cluster's merge + classification is independent; bugs land in
  // their cluster's slot, keeping output order identical to the serial run.
  const core::RuleClassifier classifier(options.policy);
  result.bugs = util::parallel_map<UniqueBug>(
      clusters.size(), options.threads, [&](std::size_t ci) {
    const auto& cluster = clusters[ci];
    // Primary report = earliest by date (ties broken by id).
    std::size_t primary = cluster.front();
    for (std::size_t idx : cluster) {
      if (candidates[idx].date < candidates[primary].date ||
          (candidates[idx].date == candidates[primary].date &&
           candidates[idx].id < candidates[primary].id)) {
        primary = idx;
      }
    }
    const corpus::BugReport& prim = candidates[primary];

    UniqueBug bug;
    bug.app = tracker.app();
    bug.title = prim.text.title;
    core::ReportText combined;
    combined.title = prim.text.title;
    for (std::size_t idx : cluster) {
      bug.report_ids.push_back(candidates[idx].id);
      append_field(combined.body, candidates[idx].text.body);
      // How-to-repeat text repeats across duplicates; keep the primary's.
      append_field(combined.developer_comments,
                   candidates[idx].text.developer_comments);
    }
    combined.how_to_repeat = prim.text.how_to_repeat;

    bug.bucket = tracker.app() == core::AppId::kGnome
                     ? corpus::gnome_bucket_of_date(prim.date)
                     : prim.release_ordinal;
    bug.classification = classifier.classify(combined);

    bug.truth_fault_id = majority_fault_id(
        cluster.size(),
        [&](std::size_t i) -> const std::string& {
          return candidates[cluster[i]].fault_id;
        });
    for (std::size_t idx : cluster) {
      if (candidates[idx].fault_id == bug.truth_fault_id &&
          candidates[idx].truth_class.has_value()) {
        bug.truth_class = candidates[idx].truth_class;
        break;
      }
    }
    return bug;
  });
  return result;
}

PipelineResult run_mailinglist_pipeline(const corpus::MailingList& list,
                                        const PipelineOptions& options) {
  PipelineResult result;
  const std::vector<MinedThread> threads = mine_threads(
      list, study_keywords(), &result.keyword_funnel, options.threads);

  std::vector<DedupDoc> docs;
  docs.reserve(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    DedupDoc d;
    d.id = threads[i].root.id;
    d.text = threads[i].root.subject + ' ' + threads[i].root.body;
    docs.push_back(std::move(d));
  }
  const auto clusters = cluster_documents(docs, dedup_params(options));
  result.clusters = clusters.size();

  // Fan out per cluster as in the tracker path; clusters whose version is
  // not a known production release come back with bucket < 0 and are
  // dropped by the serial, cluster-ordered filter below.
  const core::RuleClassifier classifier(options.policy);
  auto bugs = util::parallel_map<UniqueBug>(
      clusters.size(), options.threads, [&](std::size_t ci) {
    const auto& cluster = clusters[ci];
    std::size_t primary = cluster.front();
    for (std::size_t idx : cluster) {
      if (threads[idx].root.date < threads[primary].root.date) primary = idx;
    }
    const MinedThread& prim = threads[primary];

    UniqueBug bug;
    bug.bucket =
        parse_release_ordinal(prim.root.body, corpus::mysql_releases());
    if (bug.bucket < 0) return bug;  // dropped after the sweep

    bug.app = core::AppId::kMysql;
    bug.title = prim.root.subject;

    core::ReportText combined;
    combined.title = prim.root.subject;
    combined.how_to_repeat = extract_how_to_repeat(prim.root.body);
    for (std::size_t idx : cluster) {
      bug.report_ids.push_back(threads[idx].root.id);
      append_field(combined.body, threads[idx].root.body);
      for (const auto& reply : threads[idx].replies) {
        bug.report_ids.push_back(reply.id);
        append_field(combined.developer_comments, reply.body);
      }
    }
    bug.classification = classifier.classify(combined);

    bug.truth_fault_id = majority_fault_id(
        cluster.size(),
        [&](std::size_t i) -> const std::string& {
          return threads[cluster[i]].root.fault_id;
        });
    for (std::size_t idx : cluster) {
      if (threads[idx].root.fault_id == bug.truth_fault_id &&
          threads[idx].root.truth_class.has_value()) {
        bug.truth_class = threads[idx].root.truth_class;
        break;
      }
    }
    return bug;
  });

  result.bugs.reserve(bugs.size());
  for (auto& bug : bugs) {
    if (bug.bucket >= 0) result.bugs.push_back(std::move(bug));
  }
  return result;
}

std::vector<core::Fault> to_faults(const PipelineResult& result) {
  std::vector<core::Fault> out;
  out.reserve(result.bugs.size());
  std::size_t ordinal = 0;
  for (const auto& bug : result.bugs) {
    core::Fault f;
    f.id = std::string(core::to_string(bug.app)) + "-mined-" +
           std::to_string(ordinal++);
    f.app = bug.app;
    f.title = bug.title;
    f.trigger = bug.classification.trigger;
    f.fault_class = bug.classification.fault_class;
    f.bucket = bug.bucket;
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace faultstudy::mining
