// Stripe partitioner, stripe loads, migration volumes, and the centralized
// LB driver.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "lb/driver.hpp"
#include "lb/migration.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "support/rng.hpp"

namespace ulba::lb {
namespace {

TEST(EvenPartition, SplitsEvenly) {
  EXPECT_EQ(even_partition(12, 4), (StripeBoundaries{0, 3, 6, 9, 12}));
  EXPECT_EQ(even_partition(10, 3), (StripeBoundaries{0, 3, 6, 10}));
  EXPECT_EQ(even_partition(5, 5), (StripeBoundaries{0, 1, 2, 3, 4, 5}));
}

TEST(EvenPartition, Rejections) {
  EXPECT_THROW((void)even_partition(3, 4), std::invalid_argument);
  EXPECT_THROW((void)even_partition(4, 0), std::invalid_argument);
}

TEST(PartitionByWeight, UniformWeightsEqualTargets) {
  const std::vector<double> w(100, 1.0);
  const std::vector<double> f(4, 0.25);
  const StripeBoundaries b = partition_by_weight(w, f);
  EXPECT_EQ(b, (StripeBoundaries{0, 25, 50, 75, 100}));
}

TEST(PartitionByWeight, SkewedTargetsMoveTheCut) {
  const std::vector<double> w(100, 1.0);
  const std::vector<double> f{0.1, 0.9};
  const StripeBoundaries b = partition_by_weight(w, f);
  EXPECT_EQ(b, (StripeBoundaries{0, 10, 100}));
}

TEST(PartitionByWeight, ConcentratedWeightIsolatesHotColumns) {
  // All weight in columns 40–59; equal targets must split that hot band.
  std::vector<double> w(100, 0.0);
  for (int x = 40; x < 60; ++x) w[static_cast<std::size_t>(x)] = 10.0;
  const std::vector<double> f(2, 0.5);
  const StripeBoundaries b = partition_by_weight(w, f);
  const auto loads = stripe_loads(w, b);
  EXPECT_NEAR(loads[0], loads[1], 10.0);  // within one column's weight
}

TEST(PartitionByWeight, StripesAreNeverEmpty) {
  // Adversarial: everything in the first column.
  std::vector<double> w(10, 0.0);
  w[0] = 100.0;
  const std::vector<double> f(5, 0.2);
  const StripeBoundaries b = partition_by_weight(w, f);
  for (std::size_t p = 0; p + 1 < b.size(); ++p) EXPECT_LT(b[p], b[p + 1]);
}

TEST(PartitionByWeight, ZeroTotalWeightFallsBackToEven) {
  const std::vector<double> w(12, 0.0);
  const std::vector<double> f(4, 0.25);
  EXPECT_EQ(partition_by_weight(w, f), even_partition(12, 4));
}

TEST(PartitionByWeight, Rejections) {
  const std::vector<double> w(10, 1.0);
  EXPECT_THROW((void)partition_by_weight(w, std::vector<double>{0.5, 0.6}),
               std::invalid_argument);  // does not sum to 1
  EXPECT_THROW((void)partition_by_weight(w, std::vector<double>{1.0, 0.0}),
               std::invalid_argument);  // non-positive target
  const std::vector<double> neg{1.0, -1.0};
  EXPECT_THROW(
      (void)partition_by_weight(neg, std::vector<double>{0.5, 0.5}),
      std::invalid_argument);
}

TEST(MakePartitioner, GreedyIsTheOnlyName) {
  const std::vector<double> w{1.0, 4.0, 1.0, 1.0, 2.0, 3.0};
  const std::vector<double> f{0.25, 0.25, 0.5};
  EXPECT_EQ(make_partitioner("greedy")->partition(w, f),
            partition_by_weight(w, f));
  // The retired cutters and the old long spellings are rejected, and the
  // error names the one accepted cutter.
  for (const std::string name :
       {"rcb", "optimal", "stripe", "greedy-scan", "optimal-ratio", "metis"}) {
    try {
      (void)make_partitioner(name);
      ADD_FAILURE() << name << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("(accepted: greedy)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(StripeLoads, SumsAndImbalance) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  const StripeBoundaries b{0, 2, 4};
  EXPECT_EQ(stripe_loads(w, b), (std::vector<double>{3.0, 7.0}));
  EXPECT_DOUBLE_EQ(load_imbalance(w, b), 7.0 / 5.0);
}

TEST(StripeLoads, RejectsBadBoundaries) {
  const std::vector<double> w(4, 1.0);
  EXPECT_THROW((void)stripe_loads(w, StripeBoundaries{0, 5}),
               std::invalid_argument);
  EXPECT_THROW((void)stripe_loads(w, StripeBoundaries{0, 2, 2, 4}),
               std::invalid_argument);
  EXPECT_THROW((void)stripe_loads(w, StripeBoundaries{1, 4}),
               std::invalid_argument);
}

TEST(Migration, NoChangeMovesNothing) {
  const std::vector<double> bytes(10, 4.0);
  const StripeBoundaries b{0, 5, 10};
  const MigrationVolume v = migration_volume(b, b, bytes);
  EXPECT_DOUBLE_EQ(v.total_bytes, 0.0);
  EXPECT_DOUBLE_EQ(v.max_pe_bytes, 0.0);
}

TEST(Migration, BoundaryShiftMovesExactColumns) {
  const std::vector<double> bytes(10, 4.0);
  const StripeBoundaries before{0, 5, 10};
  const StripeBoundaries after{0, 7, 10};
  const MigrationVolume v = migration_volume(before, after, bytes);
  // Columns 5 and 6 (8 bytes) move from PE 1 to PE 0.
  EXPECT_DOUBLE_EQ(v.total_bytes, 8.0);
  EXPECT_DOUBLE_EQ(v.per_pe_bytes[0], 8.0);  // received
  EXPECT_DOUBLE_EQ(v.per_pe_bytes[1], 8.0);  // sent
  EXPECT_DOUBLE_EQ(v.max_pe_bytes, 8.0);
}

TEST(Migration, DisjointStripesMoveEverything) {
  const std::vector<double> bytes{1.0, 2.0, 3.0, 4.0};
  const StripeBoundaries before{0, 2, 4};
  const StripeBoundaries after{0, 3, 4};  // PE0: {0,1}→{0,1,2}, PE1: {2,3}→{3}
  const MigrationVolume v = migration_volume(before, after, bytes);
  EXPECT_DOUBLE_EQ(v.total_bytes, 3.0);           // column 2 moves
  EXPECT_DOUBLE_EQ(v.per_pe_bytes[0], 3.0);
  EXPECT_DOUBLE_EQ(v.per_pe_bytes[1], 3.0);
}

TEST(Migration, MismatchedShapesRejected) {
  const std::vector<double> bytes(4, 1.0);
  EXPECT_THROW((void)migration_volume(StripeBoundaries{0, 2, 4},
                                      StripeBoundaries{0, 4}, bytes),
               std::invalid_argument);
}

TEST(Driver, StandardStepBalancesLoads) {
  support::Rng rng(1);
  std::vector<double> weights(64);
  for (double& w : weights) w = rng.uniform(1.0, 10.0);
  const std::vector<double> bytes(64, 8.0);
  const std::vector<double> alphas(4, 0.0);
  const CentralizedLb balancer(bsp::CommModel{}, 1e9);
  const auto before = even_partition(64, 4);
  const LbStepResult res = balancer.step(alphas, weights, bytes, before);
  EXPECT_LE(load_imbalance(weights, res.boundaries), 1.25);
  EXPECT_GT(res.cost.total(), 0.0);
  EXPECT_FALSE(res.assignment.fell_back_to_standard);
}

TEST(Driver, UlbaStepUnderloadsTheFlaggedPe) {
  // Uniform weights, PE 1 of 4 flagged with α = 0.5: its new stripe must
  // carry roughly (1−α)/P = 12.5 % of the weight.
  const std::vector<double> weights(400, 1.0);
  const std::vector<double> bytes(400, 1.0);
  std::vector<double> alphas(4, 0.0);
  alphas[1] = 0.5;
  const CentralizedLb balancer(bsp::CommModel{}, 1e9);
  const auto before = even_partition(400, 4);
  const LbStepResult res = balancer.step(alphas, weights, bytes, before);
  const auto loads = stripe_loads(weights, res.boundaries);
  EXPECT_NEAR(loads[1], 50.0, 2.0);               // (1−α)·100
  EXPECT_NEAR(loads[0], 100.0 * (1.0 + 0.5 / 3.0), 2.0);  // (1+S/(P−N))·100
}

TEST(Driver, CostGrowsWithMigrationVolume) {
  const std::vector<double> weights(100, 1.0);
  const std::vector<double> bytes(100, 1e6);
  const std::vector<double> alphas(4, 0.0);
  const CentralizedLb balancer(bsp::CommModel{}, 1e9);
  // Start from a very skewed decomposition: rebalancing must move a lot.
  const StripeBoundaries skewed{0, 97, 98, 99, 100};
  const auto res = balancer.step(alphas, weights, bytes, skewed);
  EXPECT_GT(res.cost.migration_seconds, 0.0);
  EXPECT_GT(res.migration.total_bytes, 1e6);
}

TEST(Driver, ValidatesArguments) {
  const CentralizedLb balancer(bsp::CommModel{}, 1e9);
  const std::vector<double> weights(10, 1.0);
  const std::vector<double> bytes(9, 1.0);
  const std::vector<double> alphas(2, 0.0);
  EXPECT_THROW((void)balancer.step(alphas, weights, bytes,
                                   even_partition(10, 2)),
               std::invalid_argument);
  EXPECT_THROW(CentralizedLb(bsp::CommModel{}, 0.0), std::invalid_argument);
}

// Property sweep: for random weights and targets, realized stripe loads are
// within one max-column-weight of the targets.
class PartitionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionSweep, RealizedLoadsTrackTargets) {
  support::Rng rng(GetParam());
  const int columns = 200 + static_cast<int>(rng.index(800));
  const int pe_count = 2 + static_cast<int>(rng.index(14));
  std::vector<double> w(static_cast<std::size_t>(columns));
  double wmax = 0.0;
  for (double& x : w) {
    x = rng.uniform(0.0, 5.0);
    wmax = std::max(wmax, x);
  }
  // Random positive targets normalized to 1.
  std::vector<double> f(static_cast<std::size_t>(pe_count));
  double fsum = 0.0;
  for (double& x : f) {
    x = rng.uniform(0.2, 1.0);
    fsum += x;
  }
  for (double& x : f) x /= fsum;

  const StripeBoundaries b = partition_by_weight(w, f);
  const auto loads = stripe_loads(w, b);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  for (int p = 0; p < pe_count; ++p) {
    // Each cut can miss its cumulative target by at most one column, so a
    // stripe's load misses by at most two columns' weight.
    EXPECT_NEAR(loads[static_cast<std::size_t>(p)],
                f[static_cast<std::size_t>(p)] * total, 2.0 * wmax + 1e-9)
        << "seed=" << GetParam() << " P=" << pe_count << " X=" << columns;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace ulba::lb
