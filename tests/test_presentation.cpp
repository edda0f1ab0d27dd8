// Histogram, table, and sparkline presentation utilities.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text_plot.hpp"

namespace ulba::support {
namespace {

TEST(Histogram, BinsAndCounts) {
  Histogram h(0.0, 10.0, 5);
  ASSERT_EQ(h.bin_count(), 5u);
  h.add(0.5);   // bin 0
  h.add(2.5);   // bin 1
  h.add(2.6);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, ProbabilitiesSumToOne) {
  Histogram h(-1.0, 1.0, 7);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) h.add(rng.uniform(-1.0, 1.0));
  double sum = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) sum += h.probability(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, FromDataSpansRange) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 8.0};
  const Histogram h = Histogram::from_data(xs, 7);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(6), 8.0);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, FromDataDegenerateSample) {
  const std::vector<double> xs{5.0, 5.0};
  const Histogram h = Histogram::from_data(xs, 3);
  EXPECT_EQ(h.total(), 2u);  // does not throw, widened range
}

TEST(Histogram, RenderContainsOneRowPerBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  const std::string r = h.render(20);
  EXPECT_EQ(std::count(r.begin(), r.end(), '\n'), 4);
  EXPECT_NE(r.find('#'), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 3), std::invalid_argument);
  Histogram h(0.0, 1.0, 3);
  EXPECT_THROW((void)h.count(3), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "0.4"});
  t.add_row({"very-long-name", "16%"});
  const std::string r = t.render();
  EXPECT_NE(r.find("name"), std::string::npos);
  EXPECT_NE(r.find("very-long-name"), std::string::npos);
  EXPECT_NE(r.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumAndPctFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.163, 1), "16.3%");
}

TEST(TextPlot, SparklineLengthMatches) {
  const std::vector<double> y{0.0, 0.5, 1.0, 0.5};
  EXPECT_EQ(sparkline(y).size(), 4u);
  EXPECT_TRUE(sparkline({}).empty());
}

}  // namespace
}  // namespace ulba::support
