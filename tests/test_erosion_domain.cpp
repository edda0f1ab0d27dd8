// The erosion workload: disc construction, frontier dynamics, workload
// accounting, and determinism (stepped by the counter kernel).
#include "erosion/domain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "erosion/distributed_domain.hpp"
#include "lb/partitioners.hpp"
#include "runtime/spmd.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace ulba::erosion {
namespace {

DomainConfig small_config(double prob = 0.4) {
  DomainConfig c;
  c.columns = 100;
  c.rows = 60;
  c.flop_per_cell = 52.0;
  c.bytes_per_cell = 64.0;
  RockDisc d;
  d.cx = 50;
  d.cy = 30;
  d.radius = 10;
  d.erosion_prob = prob;
  c.discs = {d};
  return c;
}

TEST(DomainConfig, ValidationCatchesBadDiscs) {
  DomainConfig c = small_config();
  c.discs[0].cx = 5;  // radius 10 disc at x = 5 leaves the domain
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.discs[0].erosion_prob = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.discs.push_back(c.discs[0]);  // two identical discs overlap
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.refinement_factor = 0.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Domain, InitialRockCountMatchesDiscArea) {
  const ErosionDomain dom(small_config());
  // |{(x,y): x²+y² ≤ r²}| ≈ πr²; exact for r = 10 is 317.
  EXPECT_EQ(dom.rock_cells_remaining(), 317);
  EXPECT_EQ(dom.eroded_cells(), 0);
}

TEST(Domain, InitialWorkloadIsFluidCellsTimesCost) {
  const DomainConfig c = small_config();
  const ErosionDomain dom(c);
  const double expected =
      52.0 * (static_cast<double>(c.columns * c.rows) - 317.0);
  EXPECT_NEAR(dom.total_workload(), expected, 1e-6);
  // Column weights sum to the same total.
  const auto w = dom.column_weights();
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, expected, 1e-6);
}

TEST(Domain, ColumnsOutsideTheDiscAreFullFluid) {
  const ErosionDomain dom(small_config());
  const auto w = dom.column_weights();
  EXPECT_DOUBLE_EQ(w[0], 52.0 * 60.0);
  EXPECT_DOUBLE_EQ(w[99], 52.0 * 60.0);
  // The disc's central column carries 21 rock cells (y ∈ [20, 40]).
  EXPECT_DOUBLE_EQ(w[50], 52.0 * (60.0 - 21.0));
}

TEST(Domain, InitialWeightsCountTheRockOfEveryRasterizedColumn) {
  // Column cx + dx of a disc holds 2·disc_half_width(r, dx) + 1 rock cells:
  // the cells within the Euclidean radius, the non-kOutside cells of that
  // column of build_disc_state, and what initial_column_weights subtracts.
  std::vector<std::int64_t> radii(64);
  std::iota(radii.begin(), radii.end(), std::int64_t{1});
  radii.push_back(250);
  for (const std::int64_t r : radii) {
    DomainConfig c;
    c.columns = 2 * r + 3;
    c.rows = 2 * r + 3;
    c.flop_per_cell = 1.0;  // so each weight is its fluid-cell count
    c.discs = {RockDisc{r + 1, r + 1, r, 0.5}};
    c.validate();
    const DiscState d = build_disc_state(c.discs[0]);
    const std::vector<double> w = initial_column_weights(c);
    for (std::int64_t lx = 0; lx < d.side; ++lx) {
      const std::int64_t dx = lx - r;
      std::int64_t rasterized = 0, euclidean = 0;
      for (std::int64_t ly = 0; ly < d.side; ++ly) {
        const std::int64_t dy = ly - r;
        rasterized += d.at(lx, ly) != Cell::kOutside ? 1 : 0;
        euclidean += dx * dx + dy * dy <= r * r ? 1 : 0;
      }
      ASSERT_EQ(2 * disc_half_width(r, dx) + 1, rasterized)
          << "radius " << r << ", dx " << dx;
      ASSERT_EQ(euclidean, rasterized) << "radius " << r << ", dx " << dx;
      ASSERT_EQ(w[static_cast<std::size_t>(d.x0 + lx)],
                static_cast<double>(c.rows - rasterized))
          << "radius " << r << ", dx " << dx;
    }
  }
}

TEST(Domain, OneRankDistributedDomainStartsAsErosionDomain) {
  // Random configurations: 1–6 discs and fractional cell costs.
  support::Rng config_rng(2718);
  for (int trial = 0; trial < 6; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const ErosionDomain serial(cfg);
    runtime::spmd_run(1, [&](runtime::Comm& comm) {
      const DistributedDomain one(cfg, comm, lb::make_partitioner("greedy"));
      const std::vector<double> w = one.gather_column_weights(0);
      const auto expected = serial.column_weights();
      ASSERT_EQ(w.size(), expected.size()) << "trial " << trial;
      for (std::size_t x = 0; x < w.size(); ++x)
        EXPECT_EQ(w[x], expected[x]) << "trial " << trial << ", column " << x;
      EXPECT_EQ(one.total_workload(), serial.total_workload())
          << "trial " << trial;
      EXPECT_EQ(one.rock_cells_remaining(), serial.rock_cells_remaining())
          << "trial " << trial;
      EXPECT_EQ(one.frontier_size(), serial.frontier_size())
          << "trial " << trial;
    });
  }
}

TEST(Domain, FrontierStartsOnTheRim) {
  const ErosionDomain dom(small_config());
  const auto frontier = dom.frontier_size();
  // The rim of a radius-10 disc has ≈ 2πr ≈ 63 boundary cells; the discrete
  // count is within a small band.
  EXPECT_GE(frontier, 36);
  EXPECT_LE(frontier, 80);
}

TEST(Domain, ZeroProbabilityNeverErodes) {
  ErosionDomain dom(small_config(0.0));
  const std::uint64_t seed = 1;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(dom.step_counter(seed, i), 0);
  EXPECT_EQ(dom.rock_cells_remaining(), 317);
}

TEST(Domain, ProbabilityOneErodesWholeFrontierEachStep) {
  ErosionDomain dom(small_config(1.0));
  const std::uint64_t seed = 2;
  const auto frontier_before = dom.frontier_size();
  const auto eroded = dom.step_counter(seed, 0);
  EXPECT_EQ(eroded, frontier_before);
}

TEST(Domain, ProbabilityOneEventuallyErodesEverything) {
  ErosionDomain dom(small_config(1.0));
  const std::uint64_t seed = 3;
  std::int64_t iter = 0;
  // A radius-10 disc erodes layer by layer: ≤ r + a few steps.
  for (int i = 0; i < 20 && dom.rock_cells_remaining() > 0; ++i)
    (void)dom.step_counter(seed, iter++);
  EXPECT_EQ(dom.rock_cells_remaining(), 0);
  EXPECT_EQ(dom.eroded_cells(), 317);
  EXPECT_EQ(dom.frontier_size(), 0);
  // Further steps are harmless no-ops.
  EXPECT_EQ(dom.step_counter(seed, iter++), 0);
}

TEST(Domain, WorkloadGrowsByRefinementFactorPerErodedCell) {
  const DomainConfig c = small_config(0.4);
  ErosionDomain dom(c);
  const double w0 = dom.total_workload();
  const std::uint64_t seed = 4;
  const auto eroded = dom.step_counter(seed, 0);
  ASSERT_GT(eroded, 0);
  EXPECT_NEAR(dom.total_workload(),
              w0 + static_cast<double>(eroded) * 4.0 * 52.0, 1e-6);
}

TEST(Domain, RockPlusErodedIsConserved) {
  ErosionDomain dom(small_config(0.3));
  const std::uint64_t seed = 5;
  for (int i = 0; i < 15; ++i) (void)dom.step_counter(seed, i);
  EXPECT_EQ(dom.rock_cells_remaining() + dom.eroded_cells(), 317);
}

TEST(Domain, ErosionIsMonotone) {
  ErosionDomain dom(small_config(0.2));
  const std::uint64_t seed = 6;
  std::int64_t iter = 0;
  std::int64_t prev_rock = dom.rock_cells_remaining();
  for (int i = 0; i < 25; ++i) {
    (void)dom.step_counter(seed, iter++);
    EXPECT_LE(dom.rock_cells_remaining(), prev_rock);
    prev_rock = dom.rock_cells_remaining();
  }
}

TEST(Domain, DeterministicForFixedSeed) {
  const auto run = [](std::uint64_t seed) {
    ErosionDomain dom(small_config(0.4));
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 10; ++i) trace.push_back(dom.step_counter(seed, i));
    return trace;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Domain, StrongDiscErodesFasterThanWeak) {
  DomainConfig c;
  c.columns = 200;
  c.rows = 60;
  RockDisc weak{50, 30, 10, 0.02};
  RockDisc strong{150, 30, 10, 0.4};
  c.discs = {weak, strong};
  ErosionDomain dom(c);
  const std::uint64_t seed = 7;
  for (int i = 0; i < 10; ++i) (void)dom.step_counter(seed, i);
  EXPECT_GT(dom.disc_rock_remaining(0), dom.disc_rock_remaining(1));
}

TEST(Domain, ColumnBytesProportionalToWeights) {
  const DomainConfig c = small_config();
  ErosionDomain dom(c);
  const std::uint64_t seed = 8;
  (void)dom.step_counter(seed, 0);
  const auto w = dom.column_weights();
  const auto b = dom.column_bytes();
  ASSERT_EQ(w.size(), b.size());
  for (std::size_t x = 0; x < w.size(); ++x)
    EXPECT_NEAR(b[x], w[x] * 64.0 / 52.0, 1e-9);
}

TEST(Domain, MultipleDiscsErodeIndependently) {
  DomainConfig c;
  c.columns = 300;
  c.rows = 60;
  c.discs = {RockDisc{50, 30, 10, 1.0}, RockDisc{150, 30, 10, 0.0},
             RockDisc{250, 30, 10, 1.0}};
  ErosionDomain dom(c);
  const std::uint64_t seed = 9;
  for (int i = 0; i < 15; ++i) (void)dom.step_counter(seed, i);
  EXPECT_EQ(dom.disc_rock_remaining(0), 0);
  EXPECT_EQ(dom.disc_rock_remaining(1), 317);
  EXPECT_EQ(dom.disc_rock_remaining(2), 0);
}

TEST(Domain, ErodedColumnGainsWeightLocally) {
  ErosionDomain dom(small_config(1.0));
  const std::uint64_t seed = 10;
  const std::vector<double> before(dom.column_weights().begin(),
                                   dom.column_weights().end());
  (void)dom.step_counter(seed, 0);
  const auto after = dom.column_weights();
  // The leftmost disc column (x = 40) held exactly the rim cell, which has
  // now refined: weight increased there; far-away columns are untouched.
  EXPECT_GT(after[40], before[40]);
  EXPECT_DOUBLE_EQ(after[10], before[10]);
}

}  // namespace
}  // namespace ulba::erosion
