// Tests for the report renderers: paper-style tables, ASCII figures, CSV
// and markdown export.
#include <gtest/gtest.h>

#include "report/export.hpp"
#include "report/figure.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"

namespace faultstudy::report {
namespace {

core::ClassCounts table1_counts() {
  core::ClassCounts c;
  c[core::FaultClass::kEnvironmentIndependent] = 36;
  c[core::FaultClass::kEnvDependentNonTransient] = 7;
  c[core::FaultClass::kEnvDependentTransient] = 7;
  return c;
}

TEST(ClassTable, MatchesPaperLayout) {
  const auto s = render_class_table(table1_counts(), "Table 1 caption");
  EXPECT_NE(s.find("| Class"), std::string::npos);
  EXPECT_NE(s.find("| # Faults |"), std::string::npos);
  EXPECT_NE(s.find("environment-independent"), std::string::npos);
  EXPECT_NE(s.find("      36 |"), std::string::npos);
  EXPECT_NE(s.find("Table 1 caption"), std::string::npos);
}

TEST(ClassTable, NoCaption) {
  const auto s = render_class_table(table1_counts(), "");
  EXPECT_EQ(s.find("caption"), std::string::npos);
  // Header + separator + 3 class rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(AsciiTable, AlignsNumbersRight) {
  AsciiTable t({"name", "count"});
  t.add_row({"alpha", "5"});
  t.add_row({"b", "12345"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| alpha |     5 |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(AsciiTable, ShortRowsPadded) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.rows(), 1u);
  const auto s = t.to_string();
  EXPECT_NE(s.find("only-one"), std::string::npos);
}

TEST(AsciiTable, PercentAndRatioCountAsNumeric) {
  AsciiTable t({"x", "rate"});
  t.add_row({"r", "8.6%"});
  t.add_row({"s", "12/139"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("  8.6%"), std::string::npos);  // right-aligned
}

TEST(Figure, StackedBarsRenderCountsAndLegend) {
  std::vector<stats::SeriesPoint> series(2);
  series[0].label = "1.3.0";
  series[0].counts[core::FaultClass::kEnvironmentIndependent] = 3;
  series[0].counts[core::FaultClass::kEnvDependentTransient] = 1;
  series[1].label = "1.3.1";
  series[1].counts[core::FaultClass::kEnvDependentNonTransient] = 2;

  const auto s = render_stacked_bars(series, "Figure X");
  EXPECT_NE(s.find("Figure X"), std::string::npos);
  EXPECT_NE(s.find("1.3.0 |######**  (4)"), std::string::npos);
  EXPECT_NE(s.find("1.3.1 |oooo  (2)"), std::string::npos);
  EXPECT_NE(s.find("environment-independent"), std::string::npos);
}

TEST(Csv, EscapingRfc4180) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, FaultsExport) {
  core::Fault f;
  f.id = "apache-ei-01";
  f.app = core::AppId::kApache;
  f.title = "dies, with a comma";
  f.fault_class = core::FaultClass::kEnvironmentIndependent;
  f.trigger = core::Trigger::kBoundaryInput;
  f.bucket = 2;
  const auto csv = faults_to_csv({&f, 1});
  EXPECT_NE(csv.find("id,app,class,trigger,bucket,title"), std::string::npos);
  EXPECT_NE(csv.find("apache-ei-01,Apache,EI,boundary-input,2,\"dies, with "
                     "a comma\""),
            std::string::npos);
}

TEST(Svg, XmlEscaping) {
  EXPECT_EQ(xml_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

TEST(Svg, RendersBarsAndLegend) {
  std::vector<stats::SeriesPoint> series(2);
  series[0].label = "1.3.0";
  series[0].counts[core::FaultClass::kEnvironmentIndependent] = 3;
  series[1].label = "1.3.1";
  series[1].counts[core::FaultClass::kEnvDependentTransient] = 2;

  const auto svg = render_svg(series, "Figure <1>");
  EXPECT_NE(svg.find("<svg xmlns"), std::string::npos);
  EXPECT_NE(svg.find("Figure &lt;1&gt;"), std::string::npos);
  EXPECT_NE(svg.find("1.3.0"), std::string::npos);
  // One rect per non-empty class segment plus the background.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 5;
  }
  EXPECT_EQ(rects, 1u /*background*/ + 2u /*segments*/ + 3u /*legend*/);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, EmptySeriesStillValid) {
  const auto svg = render_svg({}, "empty");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Markdown, CountsTable) {
  const auto md = counts_to_markdown(table1_counts(), "Table 1");
  EXPECT_NE(md.find("**Table 1**"), std::string::npos);
  EXPECT_NE(md.find("| environment-independent | 36 | 72.0% |"),
            std::string::npos);
}

}  // namespace
}  // namespace faultstudy::report
