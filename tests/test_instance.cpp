// Table-II instance generator: every draw obeys its distribution.
#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace ulba::core {
namespace {

TEST(InstanceGenerator, DefaultsMatchPaper) {
  const InstanceGenerator gen;
  EXPECT_EQ(gen.options().gamma, 100);
  EXPECT_DOUBLE_EQ(gen.options().omega, 1e9);
}

TEST(InstanceGenerator, SamplesAreValidatedParams) {
  support::Rng rng(1);
  const InstanceGenerator gen;
  for (int i = 0; i < 100; ++i)
    EXPECT_NO_THROW(gen.sample(rng).params.validate());
}

TEST(InstanceGenerator, PComesFromTheTableSet) {
  support::Rng rng(2);
  const InstanceGenerator gen;
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(gen.sample(rng).params.P);
  EXPECT_EQ(seen, (std::set<std::int64_t>{256, 512, 1024, 2048}));
}

// Every raw draw lies in its Table-II support, and ΔW = aP + mN holds.
// Seed 20190916 (the paper's arXiv date) adds 10,000 draws to seed 3's 500.
TEST(InstanceGenerator, TableIIRanges) {
  const InstanceGenerator gen;
  for (const auto& [seed, draws] :
       {std::pair<std::uint64_t, int>{3, 500}, {20190916, 10000}}) {
    support::Rng rng(seed);
    for (int i = 0; i < draws; ++i) {
      const Instance inst = gen.sample(rng);
      const ModelParams& p = inst.params;
      const auto pd = static_cast<double>(p.P);

      EXPECT_GE(inst.v, 0.01);
      EXPECT_LT(inst.v, 0.2);
      EXPECT_GE(p.N, 1);
      EXPECT_LT(p.N, p.P);
      EXPECT_LE(static_cast<double>(p.N), 0.2 * pd + 1.0);

      EXPECT_GE(p.w0, 52e7 * pd);
      EXPECT_LT(p.w0, 1165e7 * pd);

      EXPECT_GE(inst.x, 0.01);
      EXPECT_LT(inst.x, 0.3);
      EXPECT_GE(inst.y, 0.8);
      EXPECT_LT(inst.y, 1.0);

      EXPECT_GE(p.alpha, 0.0);
      EXPECT_LE(p.alpha, 1.0);

      EXPECT_GE(inst.z, 0.1);
      EXPECT_LT(inst.z, 3.0);
      // C (seconds) = (W0/P)·z/ω
      EXPECT_NEAR(p.lb_cost, (p.w0 / pd) * inst.z / p.omega,
                  1e-9 * p.lb_cost);
      const double dw_drawn = (p.w0 / pd) * inst.x;
      EXPECT_NEAR(p.delta_w(), dw_drawn, 1e-9 * dw_drawn);
    }
  }
}

TEST(InstanceGenerator, DeltaWIdentityHoldsExactly) {
  support::Rng rng(4);
  const InstanceGenerator gen;
  for (int i = 0; i < 200; ++i) {
    const Instance inst = gen.sample(rng);
    const ModelParams& p = inst.params;
    const double dw_drawn = (p.w0 / static_cast<double>(p.P)) * inst.x;
    EXPECT_NEAR(p.delta_w(), dw_drawn, 1e-9 * dw_drawn);
  }
}

TEST(InstanceGenerator, DeterministicForFixedSeed) {
  const InstanceGenerator gen;
  support::Rng a(99), b(99);
  for (int i = 0; i < 20; ++i) {
    const Instance ia = gen.sample(a);
    const Instance ib = gen.sample(b);
    EXPECT_EQ(ia.params.P, ib.params.P);
    EXPECT_DOUBLE_EQ(ia.params.w0, ib.params.w0);
    EXPECT_DOUBLE_EQ(ia.params.m, ib.params.m);
    EXPECT_DOUBLE_EQ(ia.params.alpha, ib.params.alpha);
  }
}

TEST(InstanceGenerator, PinningP) {
  InstanceOptions opts;
  opts.pin_p = 1024;
  const InstanceGenerator gen(opts);
  support::Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(gen.sample(rng).params.P, 1024);
}

TEST(InstanceGenerator, PinningOverloadingFraction) {
  InstanceOptions opts;
  opts.pin_p = 1000;
  opts.pin_overloading_fraction = 0.048;
  const InstanceGenerator gen(opts);
  support::Rng rng(6);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(gen.sample(rng).params.N, 48);
}

TEST(InstanceGenerator, PinningAlpha) {
  InstanceOptions opts;
  opts.pin_alpha = 0.37;
  const InstanceGenerator gen(opts);
  support::Rng rng(7);
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(gen.sample(rng).params.alpha, 0.37);
}

TEST(InstanceGenerator, RejectsBadOptions) {
  InstanceOptions bad_gamma;
  bad_gamma.gamma = 0;
  EXPECT_THROW(InstanceGenerator{bad_gamma}, std::invalid_argument);

  InstanceOptions bad_frac;
  bad_frac.pin_overloading_fraction = 1.0;
  EXPECT_THROW(InstanceGenerator{bad_frac}, std::invalid_argument);

  InstanceOptions bad_alpha;
  bad_alpha.pin_alpha = -0.5;
  EXPECT_THROW(InstanceGenerator{bad_alpha}, std::invalid_argument);
}

TEST(InstanceGenerator, MeanStatisticsNearDistributionCenters) {
  support::Rng rng(8);
  const InstanceGenerator gen;
  double sum_v = 0.0, sum_x = 0.0, sum_y = 0.0, sum_z = 0.0, sum_alpha = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Instance inst = gen.sample(rng);
    sum_v += inst.v;
    sum_x += inst.x;
    sum_y += inst.y;
    sum_z += inst.z;
    sum_alpha += inst.params.alpha;
  }
  EXPECT_NEAR(sum_v / n, 0.105, 0.01);    // U(0.01, 0.2)
  EXPECT_NEAR(sum_x / n, 0.155, 0.01);    // U(0.01, 0.3)
  EXPECT_NEAR(sum_y / n, 0.9, 0.01);      // U(0.8, 1.0)
  EXPECT_NEAR(sum_z / n, 1.55, 0.05);     // U(0.1, 3.0)
  EXPECT_NEAR(sum_alpha / n, 0.5, 0.02);  // U(0, 1)
}

}  // namespace
}  // namespace ulba::core
