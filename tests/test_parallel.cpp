// Tests for the deterministic parallel executor: thread-pool mechanics
// (empty ranges, tiny ranges, exception propagation) and the determinism
// contract — run_matrix, run_oracle_crosscheck, and the mining pipeline
// must produce bit-identical results for every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "corpus/seeds.hpp"
#include "corpus/synth.hpp"
#include "harness/experiment.hpp"
#include "mining/keyword_search.hpp"
#include "mining/pipeline.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy {
namespace {

// --- pool mechanics -------------------------------------------------------

TEST(ThreadPool, EmptyRangeCallsNothing) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.for_index(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RangeSmallerThanWorkersRunsEachIndexOnce) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.for_index(3, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LargeRangeCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.for_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossSweeps) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.for_index(97, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 97u * 96u / 2);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.for_index(100,
                              [](std::size_t i) {
                                if (i == 37) {
                                  throw std::runtime_error("lane failure");
                                }
                              }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionOnSerialPathPropagates) {
  util::ThreadPool pool(1);
  EXPECT_THROW(pool.for_index(
                   5, [](std::size_t) { throw std::logic_error("serial"); }),
               std::logic_error);
}

TEST(ThreadPool, SizeCountsCallingThread) {
  EXPECT_EQ(util::ThreadPool(1).size(), 1u);
  EXPECT_EQ(util::ThreadPool(4).size(), 4u);
}

TEST(ParallelMap, SlotsMatchSerialForAnyThreadCount) {
  const auto square = [](std::size_t i) { return i * i; };
  const auto serial = util::parallel_map<std::size_t>(257, 1, square);
  const auto wide = util::parallel_map<std::size_t>(257, 4, square);
  EXPECT_EQ(serial, wide);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], i * i);
}

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(util::resolve_threads(3), 3u);
  EXPECT_GE(util::resolve_threads(0), 1u);
}

TEST(ResolveThreads, EnvOverrideAppliesWhenAuto) {
  ASSERT_EQ(setenv("FAULTSTUDY_THREADS", "5", 1), 0);
  EXPECT_EQ(util::resolve_threads(0), 5u);
  EXPECT_EQ(util::resolve_threads(2), 2u);  // explicit still wins
  ASSERT_EQ(setenv("FAULTSTUDY_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(util::resolve_threads(0), 1u);  // garbage falls back to hardware
  unsetenv("FAULTSTUDY_THREADS");
}

// --- determinism: harness sweeps ------------------------------------------

void expect_same_matrix(const harness::MatrixResult& a,
                        const harness::MatrixResult& b) {
  EXPECT_EQ(a.fault_count, b.fault_count);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    EXPECT_EQ(ra.mechanism, rb.mechanism);
    EXPECT_EQ(ra.generic, rb.generic);
    EXPECT_EQ(ra.survived, rb.survived) << ra.mechanism;
    EXPECT_EQ(ra.total, rb.total) << ra.mechanism;
    EXPECT_EQ(ra.vacuous, rb.vacuous) << ra.mechanism;
    EXPECT_EQ(ra.state_losses, rb.state_losses) << ra.mechanism;
  }
}

TEST(DeterministicMatrix, FourLanesMatchSerialAcrossSeeds) {
  // A corpus slice keeps the sweep fast. The full corpus is checked at one
  // and four lanes by CoverageAtlas.FoldIsIdenticalForOneAndFourLanes,
  // ExportGolden.MatchesParentCommit and
  // ObservationBus.AttachedSinksDoNotChangeMatrix, and the tsan-parallel CI
  // job runs this suite with four lanes under ThreadSanitizer.
  auto seeds = corpus::apache_seeds();
  seeds.resize(16);

  for (const std::uint64_t base_seed : {99ULL, 7ULL, 4242ULL}) {
    harness::TrialConfig serial;
    serial.seed = base_seed;
    serial.threads = 1;
    harness::TrialConfig wide = serial;
    wide.threads = 4;

    const auto a =
        harness::run_matrix(seeds, harness::standard_mechanisms(), serial);
    const auto b =
        harness::run_matrix(seeds, harness::standard_mechanisms(), wide);
    expect_same_matrix(a, b);
  }
}

TEST(DeterministicOracle, FourLanesMatchSerialRowForRow) {
  auto seeds = corpus::all_seeds();
  seeds.resize(24);

  harness::TrialConfig serial;
  serial.threads = 1;
  harness::TrialConfig wide = serial;
  wide.threads = 4;

  const auto a = harness::run_oracle_crosscheck(seeds, serial);
  const auto b = harness::run_oracle_crosscheck(seeds, wide);

  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].fault_id, b.rows[i].fault_id);
    EXPECT_EQ(a.rows[i].race_labeled, b.rows[i].race_labeled);
    EXPECT_EQ(a.rows[i].detector_fired, b.rows[i].detector_fired)
        << a.rows[i].fault_id;
    EXPECT_EQ(a.rows[i].race_reports, b.rows[i].race_reports)
        << a.rows[i].fault_id;
    EXPECT_EQ(a.rows[i].invariant_violations, b.rows[i].invariant_violations)
        << a.rows[i].fault_id;
  }
  EXPECT_EQ(a.race_fired, b.race_fired);
  EXPECT_EQ(a.race_silent, b.race_silent);
  EXPECT_EQ(a.ei_fired, b.ei_fired);
  EXPECT_EQ(a.ei_silent, b.ei_silent);
  EXPECT_EQ(a.edn_fired, b.edn_fired);
  EXPECT_EQ(a.edn_silent, b.edn_silent);
  EXPECT_EQ(a.other_edt_fired, b.other_edt_fired);
  EXPECT_EQ(a.other_edt_silent, b.other_edt_silent);
  EXPECT_DOUBLE_EQ(a.agreement(), b.agreement());
}

// --- determinism: mining pipeline -----------------------------------------

void expect_same_bugs(const mining::PipelineResult& a,
                      const mining::PipelineResult& b) {
  EXPECT_EQ(a.clusters, b.clusters);
  ASSERT_EQ(a.bugs.size(), b.bugs.size());
  for (std::size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].title, b.bugs[i].title);
    EXPECT_EQ(a.bugs[i].report_ids, b.bugs[i].report_ids);
    EXPECT_EQ(a.bugs[i].bucket, b.bugs[i].bucket);
    EXPECT_EQ(a.bugs[i].classification.trigger,
              b.bugs[i].classification.trigger);
    EXPECT_EQ(a.bugs[i].classification.fault_class,
              b.bugs[i].classification.fault_class);
    EXPECT_EQ(a.bugs[i].classification.confidence,
              b.bugs[i].classification.confidence);
    const auto& ea = a.bugs[i].classification.evidence;
    const auto& eb = b.bugs[i].classification.evidence;
    ASSERT_EQ(ea.size(), eb.size()) << a.bugs[i].title;
    for (std::size_t e = 0; e < ea.size(); ++e) {
      EXPECT_EQ(ea[e].trigger, eb[e].trigger);
      EXPECT_EQ(ea[e].phrase, eb[e].phrase);
      EXPECT_EQ(ea[e].field, eb[e].field);
      EXPECT_EQ(ea[e].weight, eb[e].weight);
    }
    EXPECT_EQ(a.bugs[i].truth_fault_id, b.bugs[i].truth_fault_id);
  }
}

TEST(DeterministicMining, TrackerPipelineMatchesSerial) {
  const auto tracker = corpus::make_apache_tracker();
  mining::PipelineOptions serial;
  serial.threads = 1;
  mining::PipelineOptions wide;
  wide.threads = 4;
  expect_same_bugs(mining::run_tracker_pipeline(tracker, serial),
                   mining::run_tracker_pipeline(tracker, wide));
}

TEST(DeterministicMining, MailingListPipelineMatchesSerial) {
  const auto list = corpus::make_mysql_list();
  mining::PipelineOptions serial;
  serial.threads = 1;
  mining::PipelineOptions wide;
  wide.threads = 4;
  expect_same_bugs(mining::run_mailinglist_pipeline(list, serial),
                   mining::run_mailinglist_pipeline(list, wide));
}

TEST(DeterministicMining, MineThreadsMatchesSerial) {
  const auto list = corpus::make_mysql_list();
  mining::KeywordFunnel serial_funnel;
  mining::KeywordFunnel wide_funnel;
  const auto serial = mining::mine_threads(list, mining::study_keywords(),
                                           &serial_funnel, 1);
  const auto wide = mining::mine_threads(list, mining::study_keywords(),
                                         &wide_funnel, 4);
  EXPECT_EQ(serial_funnel.total_messages, wide_funnel.total_messages);
  EXPECT_EQ(serial_funnel.keyword_hits, wide_funnel.keyword_hits);
  EXPECT_EQ(serial_funnel.report_shaped, wide_funnel.report_shaped);
  EXPECT_EQ(serial_funnel.threads, wide_funnel.threads);
  EXPECT_GT(serial_funnel.keyword_hits, serial_funnel.report_shaped);
  ASSERT_EQ(serial.size(), wide.size());
  ASSERT_FALSE(serial.empty());
  const auto reply_ids = [](const mining::MinedThread& t) {
    std::vector<std::uint64_t> ids;
    for (const auto& m : t.replies) ids.push_back(m.id);
    return ids;
  };
  std::size_t replies = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].root.id, wide[i].root.id);
    EXPECT_EQ(reply_ids(serial[i]), reply_ids(wide[i])) << "thread " << i;
    replies += serial[i].replies.size();
  }
  EXPECT_GT(replies, 0u);
}

}  // namespace
}  // namespace faultstudy
