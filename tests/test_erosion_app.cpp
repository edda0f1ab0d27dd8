// The end-to-end erosion application (scaled-down configurations).
#include "erosion/app.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "erosion/domain.hpp"
#include "support/rng.hpp"

namespace ulba::erosion {
namespace {

AppConfig small_config(Method method, std::int64_t strong = 1,
                       std::uint64_t seed = 1) {
  AppConfig c;
  c.pe_count = 16;
  c.columns_per_pe = 64;
  c.rows = 64;
  c.rock_radius = 16;
  c.strong_rock_count = strong;
  c.iterations = 120;
  c.method = method;
  c.alpha = 0.4;
  c.seed = seed;
  return c;
}

/// A shape where the detector fires at 16 PEs: at α = 0.4 the anticipation
/// moves the recorded trigger thresholds.
AppConfig probe_config(Method method, double alpha, std::int64_t ranks,
                       std::int64_t pe_count = 16) {
  AppConfig c;
  c.pe_count = pe_count;
  c.columns_per_pe = 48;
  c.rows = 64;
  c.rock_radius = 16;
  c.iterations = 60;
  c.seed = 3;
  c.bytes_per_cell = 256.0;
  c.comm.latency_s = 1e-4;
  c.comm.bandwidth_Bps = 2e9;
  c.method = method;
  c.alpha = alpha;
  c.ranks = ranks;
  return c;
}

/// Asserts that `run` took the same LB decisions as `std_run`, bit for bit:
/// the same virtual time, LB schedule and per-iteration trigger threshold.
void expect_same_decisions(const RunResult& run, const RunResult& std_run,
                           const std::string& what) {
  EXPECT_EQ(run.total_seconds, std_run.total_seconds) << what;
  EXPECT_EQ(run.lb_iterations, std_run.lb_iterations) << what;
  EXPECT_EQ(run.fallback_count, std_run.fallback_count) << what;
  ASSERT_EQ(run.iterations.size(), std_run.iterations.size()) << what;
  for (std::size_t i = 0; i < run.iterations.size(); ++i)
    EXPECT_EQ(run.iterations[i].threshold, std_run.iterations[i].threshold)
        << what << " — iteration " << i;
}

TEST(AppConfig, ValidationCatchesBadSetups) {
  AppConfig c = small_config(Method::kStandard);
  c.pe_count = 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.rock_radius = 40;  // does not fit the 64-row domain
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.strong_rock_count = 17;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.gossip_fanout = 16;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config(Method::kStandard);
  c.alpha = 1.2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(App, MakeDomainPlacesOneDiscPerStripe) {
  const ErosionApp app(small_config(Method::kStandard));
  const DomainConfig d = app.make_domain();
  ASSERT_EQ(d.discs.size(), 16u);
  EXPECT_EQ(d.columns, 16 * 64);
  for (std::size_t i = 0; i < d.discs.size(); ++i) {
    EXPECT_EQ(d.discs[i].cx, static_cast<std::int64_t>(i) * 64 + 32);
    EXPECT_EQ(d.discs[i].cy, 32);
  }
  // The paper's erosion probabilities: 0.4 for the strong disc, 0.02 for
  // every other.
  const auto strong = std::count_if(
      d.discs.begin(), d.discs.end(),
      [](const RockDisc& r) { return r.erosion_prob == 0.4; });
  const auto weak = std::count_if(
      d.discs.begin(), d.discs.end(),
      [](const RockDisc& r) { return r.erosion_prob == 0.02; });
  EXPECT_EQ(strong, 1);
  EXPECT_EQ(weak, 15);
}

TEST(App, DynamicsKeyIsTheForkedSubSeed) {
  // The dynamics contract external replays rely on: a run's erosion equals
  // stepping the domain by hand with the key Rng(seed).fork(1).seed(), one
  // step_counter call per iteration.
  AppConfig c = small_config(Method::kUlba, 2, 17);
  c.iterations = 40;
  const ErosionApp app(c);
  ErosionDomain domain(app.make_domain());
  const std::uint64_t key = support::Rng(c.seed).fork(1).seed();
  for (std::int64_t iter = 0; iter < c.iterations; ++iter)
    (void)domain.step_counter(key, iter);
  ASSERT_GT(domain.eroded_cells(), 0);
  EXPECT_EQ(app.run().eroded_cells, domain.eroded_cells());
}

TEST(App, RunProducesFullTrace) {
  const ErosionApp app(small_config(Method::kStandard));
  const RunResult r = app.run();
  EXPECT_EQ(r.iterations.size(), 120u);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_NEAR(r.total_seconds, r.compute_seconds + r.lb_seconds,
              1e-9 * r.total_seconds);
  EXPECT_EQ(static_cast<std::size_t>(r.lb_count), r.lb_iterations.size());
  EXPECT_GT(r.eroded_cells, 0);
  EXPECT_GT(r.average_utilization, 0.0);
  EXPECT_LE(r.average_utilization, 1.0);
}

TEST(App, DynamicsIdenticalAcrossMethods) {
  // Same seed ⇒ same erosion history, whatever the LB method does.
  const RunResult std_run = ErosionApp(small_config(Method::kStandard)).run();
  const RunResult ulba_run = ErosionApp(small_config(Method::kUlba)).run();
  EXPECT_EQ(std_run.eroded_cells, ulba_run.eroded_cells);
}

TEST(App, DeterministicForFixedSeed) {
  const RunResult a = ErosionApp(small_config(Method::kUlba)).run();
  const RunResult b = ErosionApp(small_config(Method::kUlba)).run();
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.lb_iterations, b.lb_iterations);
}

TEST(App, DifferentSeedsDiffer) {
  const RunResult a = ErosionApp(small_config(Method::kUlba, 1, 1)).run();
  const RunResult b = ErosionApp(small_config(Method::kUlba, 1, 2)).run();
  EXPECT_NE(a.total_seconds, b.total_seconds);
}

TEST(App, AdaptiveTriggerActuallyBalances) {
  // One strongly erodible rock keeps growing its stripe: the degradation
  // trigger must fire at least once over 120 iterations.
  const RunResult r = ErosionApp(small_config(Method::kStandard)).run();
  EXPECT_GE(r.lb_count, 1);
  // …and balancing must not happen every iteration either.
  EXPECT_LT(r.lb_count, 60);
}

TEST(App, UlbaDoesNotLoseToStandardOnHotSeed) {
  // The paper's headline (Figure 4a): ULBA total time ≤ standard's, up to a
  // small tolerance, when few PEs overload. Checked across 3 seeds via the
  // median, like the paper's median-of-five runs.
  std::vector<double> std_times, ulba_times;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std_times.push_back(
        ErosionApp(small_config(Method::kStandard, 1, seed)).run()
            .total_seconds);
    ulba_times.push_back(
        ErosionApp(small_config(Method::kUlba, 1, seed)).run()
            .total_seconds);
  }
  std::sort(std_times.begin(), std_times.end());
  std::sort(ulba_times.begin(), ulba_times.end());
  EXPECT_LE(ulba_times[1], std_times[1] * 1.02);
}

TEST(App, UlbaCallsTheBalancerLessOften) {
  // Figure 4b: 62.5 % fewer LB calls for ULBA. We only require "not more".
  const RunResult std_run =
      ErosionApp(small_config(Method::kStandard)).run();
  const RunResult ulba_run = ErosionApp(small_config(Method::kUlba)).run();
  EXPECT_LE(ulba_run.lb_count, std_run.lb_count);
}

TEST(App, UlbaAtAlphaZeroIsTheStandardMethod) {
  // At α = 0 no overloading PE asks for underloading, Algorithm 2 returns
  // the even targets and Eq. (11) adds nothing to the trigger threshold, so
  // ULBA must BE the standard method, bit for bit, at one rank and over
  // four, on the probe shape where the detector fires.
  for (const std::int64_t ranks : {1, 4}) {
    const std::string what = "ranks " + std::to_string(ranks);
    const RunResult std_run =
        ErosionApp(probe_config(Method::kStandard, 0.4, ranks)).run();
    ASSERT_GE(std_run.lb_count, 1) << what;
    const RunResult zero =
        ErosionApp(probe_config(Method::kUlba, 0.0, ranks)).run();
    expect_same_decisions(zero, std_run, what);

    const RunResult ulba =
        ErosionApp(probe_config(Method::kUlba, 0.4, ranks)).run();
    ASSERT_EQ(ulba.iterations.size(), std_run.iterations.size()) << what;
    bool threshold_moved = false;
    for (std::size_t i = 0; i < ulba.iterations.size(); ++i)
      threshold_moved |=
          ulba.iterations[i].threshold != std_run.iterations[i].threshold;
    EXPECT_TRUE(threshold_moved)
        << what << " — the detector never fired, so α = 0 proves nothing";
  }
}

TEST(App, UlbaAtEightPesIsTheStandardMethod) {
  // The z > 3 detector cannot flag one PE among P ≤ 9 (its z-score is at
  // most √(P−1) ≈ 2.83 at P = 8), so ULBA never underloads anybody and
  // Eq. (11) never adds to the threshold: on the probe shape cut to 8 PEs,
  // ULBA at α = 0.4 takes the standard method's decisions, bit for bit.
  for (const std::int64_t ranks : {1, 4}) {
    const std::string what = "P = 8, ranks " + std::to_string(ranks);
    const RunResult std_run =
        ErosionApp(probe_config(Method::kStandard, 0.4, ranks, 8)).run();
    ASSERT_GE(std_run.lb_count, 1) << what;
    const RunResult ulba =
        ErosionApp(probe_config(Method::kUlba, 0.4, ranks, 8)).run();
    expect_same_decisions(ulba, std_run, what);
  }
}

TEST(App, ManyStrongRocksNeverTriggerTheFallback) {
  // Algorithm 2 falls back to an even split when at least half of the PEs
  // flag themselves. A PE flags itself when its WIR has z > 3 within its own
  // gossiped view, and by Cantelli's inequality fewer than a tenth of any
  // one view's entries can exceed z = 3. So even with 12 of 16 rocks strong
  // the detector stays far below the rule, and no ULBA step falls back.
  // test_policy tests the rule itself.
  const RunResult r = ErosionApp(small_config(Method::kUlba, 12)).run();
  ASSERT_GE(r.lb_count, 1);
  EXPECT_EQ(r.fallback_count, 0);
}

TEST(App, UtilizationTraceInUnitRange) {
  const RunResult r = ErosionApp(small_config(Method::kUlba)).run();
  for (const IterationRecord& rec : r.iterations) {
    EXPECT_GT(rec.utilization, 0.0);
    EXPECT_LE(rec.utilization, 1.0 + 1e-12);
    EXPECT_GE(rec.seconds, 0.0);
  }
}

TEST(App, LbIterationsAreMarkedInTheTrace) {
  const RunResult r = ErosionApp(small_config(Method::kStandard)).run();
  for (std::int64_t it : r.lb_iterations) {
    ASSERT_GE(it, 0);
    ASSERT_LT(it, static_cast<std::int64_t>(r.iterations.size()));
    EXPECT_TRUE(r.iterations[static_cast<std::size_t>(it)].lb_performed);
  }
}

}  // namespace
}  // namespace ulba::erosion
