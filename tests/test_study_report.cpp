// Tests for the one-call study report: the full methodology must come out
// the other end with the paper's numbers embedded in the markdown.
#include <gtest/gtest.h>

#include "report/study_report.hpp"

namespace faultstudy::report {
namespace {

class StudyReportTest : public ::testing::Test {
 protected:
  // Run the (deterministic) study once for all tests in the suite.
  static void SetUpTestSuite() {
    results_ = new StudyResults(run_full_study());
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static StudyResults* results_;
};

StudyResults* StudyReportTest::results_ = nullptr;

TEST_F(StudyReportTest, MinesAll139Faults) {
  EXPECT_EQ(results_->apache.bugs.size(), 50u);
  EXPECT_EQ(results_->gnome.bugs.size(), 45u);
  EXPECT_EQ(results_->mysql.bugs.size(), 44u);
  EXPECT_EQ(results_->all_faults.size(), 139u);
  EXPECT_EQ(results_->summary.total_faults, 139u);
}

TEST_F(StudyReportTest, MatrixIncluded) {
  ASSERT_EQ(results_->matrix.reports.size(), 6u);
  EXPECT_EQ(results_->matrix.reports.front().mechanism, "process-pairs");
  EXPECT_EQ(results_->matrix.reports.front().survived_all(), 12u);
}

TEST_F(StudyReportTest, MarkdownContainsPaperNumbers) {
  const auto md = render_markdown(*results_);
  EXPECT_NE(md.find("| environment-independent | 36 |"), std::string::npos);
  EXPECT_NE(md.find("| environment-independent | 39 |"), std::string::npos);
  EXPECT_NE(md.find("| environment-independent | 38 |"), std::string::npos);
  EXPECT_NE(md.find("Total unique faults: 139"), std::string::npos);
  EXPECT_NE(md.find("72.0%"), std::string::npos);
  EXPECT_NE(md.find("Figure 1"), std::string::npos);
  EXPECT_NE(md.find("process-pairs"), std::string::npos);
  EXPECT_NE(md.find("12/12"), std::string::npos);
}

}  // namespace
}  // namespace faultstudy::report
