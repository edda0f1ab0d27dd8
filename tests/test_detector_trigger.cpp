// The z-score overload detector and the Zhai-style adaptive trigger.
#include <gtest/gtest.h>

#include <vector>

#include "core/detector.hpp"
#include "core/trigger.hpp"
#include "erosion/app.hpp"
#include "support/rng.hpp"

namespace ulba::core {
namespace {

TEST(Detector, SingleHotPeAmongThirtyTwoIsFlagged) {
  // The paper's Figure-4b scenario: one strongly erodible rock among 32.
  std::vector<double> wirs(32, 1.0);
  wirs[13] = 20.0;
  const OverloadDetector det(3.0);
  EXPECT_TRUE(det.is_overloading(wirs[13], wirs));
  EXPECT_EQ(det.count_overloading(wirs), 1);
  for (std::size_t i = 0; i < wirs.size(); ++i)
    EXPECT_EQ(det.is_overloading(wirs[i], wirs), i == 13) << "PE " << i;
}

TEST(Detector, UniformWirsFlagNobody) {
  const std::vector<double> wirs(16, 3.5);
  const OverloadDetector det;
  EXPECT_EQ(det.count_overloading(wirs), 0);
}

TEST(Detector, MildSpreadFlagsNobody) {
  // Within-noise variation must not trigger underloading.
  std::vector<double> wirs;
  for (int i = 0; i < 64; ++i)
    wirs.push_back(10.0 + 0.1 * static_cast<double>(i % 7));
  const OverloadDetector det(3.0);
  EXPECT_EQ(det.count_overloading(wirs), 0);
}

TEST(Detector, ThresholdIsRespected) {
  std::vector<double> wirs(32, 1.0);
  wirs[0] = 20.0;
  // With a huge threshold even the hot PE passes as normal.
  const OverloadDetector lax(100.0);
  EXPECT_FALSE(lax.is_overloading(wirs[0], wirs));
}

TEST(Detector, SeveralHotPesAllFlagged) {
  std::vector<double> wirs(256, 1.0);
  for (int i : {3, 77, 200}) wirs[static_cast<std::size_t>(i)] = 50.0;
  const OverloadDetector det(3.0);
  EXPECT_EQ(det.count_overloading(wirs), 3);
}

TEST(Detector, UnderloadedOutlierIsNotOverloading) {
  std::vector<double> wirs(32, 10.0);
  wirs[5] = 0.0;  // negative z-score
  const OverloadDetector det(3.0);
  EXPECT_FALSE(det.is_overloading(wirs[5], wirs));
}

TEST(Detector, RejectsBadInput) {
  EXPECT_THROW(OverloadDetector(0.0), std::invalid_argument);
  const OverloadDetector det;
  EXPECT_THROW((void)det.is_overloading(1.0, {}), std::invalid_argument);
}

TEST(Detector, CountEqualsPerPeVerdicts) {
  // count_overloading takes the mean and σ once; is_overloading takes them
  // per call. Over random populations the two must agree exactly.
  support::Rng rng(2024);
  int flagged = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const OverloadDetector det(trial % 3 == 0 ? 1.5 : 3.0);
    std::vector<double> wirs;
    switch (trial % 4) {
      case 0:  // spread-out background
        wirs.resize(static_cast<std::size_t>(rng.uniform_int(1, 400)));
        for (double& w : wirs) w = rng.uniform(0.0, 10.0);
        break;
      case 1:  // zero spread
        wirs.assign(static_cast<std::size_t>(rng.uniform_int(1, 400)),
                    rng.uniform(0.0, 10.0));
        break;
      case 2:  // tight background with a few heavy outliers
        wirs.resize(static_cast<std::size_t>(rng.uniform_int(11, 400)));
        for (double& w : wirs) w = rng.normal(1.0, 0.05);
        for (int hot = 0; hot < 3; ++hot)
          wirs[rng.index(wirs.size())] = rng.uniform(50.0, 1000.0);
        break;
      default:  // P ≤ 9: at threshold 3, the detector's blind spot
        wirs.assign(static_cast<std::size_t>(rng.uniform_int(1, 9)), 1.0);
        wirs[0] = rng.uniform(5.0, 1000.0);
        break;
    }
    std::int64_t expected = 0;
    for (double w : wirs)
      if (det.is_overloading(w, wirs)) ++expected;
    EXPECT_EQ(det.count_overloading(wirs), expected)
        << "trial " << trial << ", P = " << wirs.size();
    if (expected > 0) ++flagged;
  }
  EXPECT_GT(flagged, 20);  // the sweep must flag PEs, not only agree on 0
  EXPECT_EQ(OverloadDetector().count_overloading({}), 0);
}

TEST(Trigger, FirstIterationBecomesReference) {
  AdaptiveTrigger t;
  t.record_iteration(10.0);
  EXPECT_TRUE(t.has_reference());
  EXPECT_DOUBLE_EQ(t.reference_time(), 10.0);
  EXPECT_DOUBLE_EQ(t.degradation(), 0.0);
}

TEST(Trigger, DegradationAccumulatesMedianMinusReference) {
  AdaptiveTrigger t(3);
  t.record_iteration(10.0);  // ref; window {10}, median 10, +0
  t.record_iteration(12.0);  // window {10,12}, median 11, +1
  EXPECT_DOUBLE_EQ(t.degradation(), 1.0);
  t.record_iteration(14.0);  // window {10,12,14}, median 12, +2
  EXPECT_DOUBLE_EQ(t.degradation(), 3.0);
  t.record_iteration(16.0);  // window {12,14,16}, median 14, +4
  EXPECT_DOUBLE_EQ(t.degradation(), 7.0);
}

TEST(Trigger, MedianSmoothingSuppressesSpikes) {
  AdaptiveTrigger t(3);
  t.record_iteration(10.0);
  t.record_iteration(10.0);
  t.record_iteration(1000.0);  // lone spike; median of {10,10,1000} is 10
  EXPECT_DOUBLE_EQ(t.degradation(), 0.0);
}

TEST(Trigger, ShouldBalanceComparesThreshold) {
  AdaptiveTrigger t;
  t.record_iteration(10.0);
  t.record_iteration(20.0);  // median 15, degradation 5
  EXPECT_TRUE(t.should_balance(5.0));
  EXPECT_TRUE(t.should_balance(4.0));
  EXPECT_FALSE(t.should_balance(5.1));
}

TEST(Trigger, ResetRearmsReference) {
  AdaptiveTrigger t;
  t.record_iteration(10.0);
  t.record_iteration(30.0);
  ASSERT_GT(t.degradation(), 0.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.degradation(), 0.0);
  EXPECT_FALSE(t.has_reference());
  // The next iteration defines the new (post-LB) reference.
  t.record_iteration(12.0);
  EXPECT_DOUBLE_EQ(t.reference_time(), 12.0);
}

TEST(Trigger, ResetClearsTheMedianWindow) {
  // Regression: reset() used to clear the degradation accumulator and the
  // reference but NOT the median window, so after an LB step the first few
  // medians still saw the slow pre-LB iteration times. A slow→LB→fast run
  // then re-accumulated degradation from stale samples and could re-trigger
  // immediately. With the window cleared, fast post-LB iterations at the new
  // reference must accumulate exactly zero degradation.
  AdaptiveTrigger t(3);
  t.record_iteration(10.0);
  t.record_iteration(10.0);
  t.record_iteration(10.0);  // slow plateau fills the window with 10s
  t.reset();                 // the LB step fixed the imbalance
  t.record_iteration(1.0);   // new reference; pre-fix window {10,10,1} ⇒
  t.record_iteration(1.0);   //   median 10 ⇒ degradation +9 per iteration
  t.record_iteration(1.0);
  EXPECT_DOUBLE_EQ(t.degradation(), 0.0);
  EXPECT_FALSE(t.should_balance(0.5))
      << "stale pre-LB window samples re-triggered the balancer";
}

TEST(Trigger, StableIterationsNeverTrigger) {
  AdaptiveTrigger t;
  for (int i = 0; i < 100; ++i) t.record_iteration(7.0);
  EXPECT_DOUBLE_EQ(t.degradation(), 0.0);
  EXPECT_FALSE(t.should_balance(0.001));
}

TEST(Trigger, ImprovingIterationsGiveNegativeDegradation) {
  // Iterations getting *faster* than the reference accumulate negative
  // degradation — the trigger then waits even longer, as it should.
  AdaptiveTrigger t(1);
  t.record_iteration(10.0);
  t.record_iteration(8.0);
  EXPECT_DOUBLE_EQ(t.degradation(), -2.0);
}

TEST(Trigger, RejectsNegativeTimes) {
  AdaptiveTrigger t;
  EXPECT_THROW(t.record_iteration(-1.0), std::invalid_argument);
}

TEST(LbCostEstimator, PriorUntilFirstObservation) {
  LbCostEstimator est(5.0);
  EXPECT_DOUBLE_EQ(est.average(), 5.0);
  est.observe(11.0);
  EXPECT_DOUBLE_EQ(est.average(), 11.0);
  est.observe(13.0);
  EXPECT_DOUBLE_EQ(est.average(), 12.0);
  EXPECT_EQ(est.observations(), 2u);
}

TEST(LbCostEstimator, RejectsNegative) {
  EXPECT_THROW(LbCostEstimator(-1.0), std::invalid_argument);
  LbCostEstimator est(1.0);
  EXPECT_THROW(est.observe(-0.5), std::invalid_argument);
}

// Property sweep: a hot PE whose WIR is k× the background must be flagged
// once k is large enough, for any population size.
class DetectorSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DetectorSweep, HotPeDetection) {
  const auto [pe_count, factor] = GetParam();
  std::vector<double> wirs(static_cast<std::size_t>(pe_count), 1.0);
  wirs[0] = factor;
  const OverloadDetector det(3.0);
  // One outlier among n equal values has z = √(n−1) exactly under the
  // population stddev, whatever its factor. So z > 3 needs n ≥ 11: at n = 10
  // z is 3 only up to rounding, and the strict `>` flags the inputs that
  // round above (a factor of 1.01 gives 3.000000000000037) but not those
  // that round below (factor 5 gives 2.9999999999999996). The sweep only
  // uses populations of 16 and up.
  EXPECT_TRUE(det.is_overloading(wirs[0], wirs))
      << "P = " << pe_count << ", factor = " << factor;
  EXPECT_EQ(det.count_overloading(wirs), 1);
}

INSTANTIATE_TEST_SUITE_P(
    PopulationsAndFactors, DetectorSweep,
    ::testing::Combine(::testing::Values(16, 32, 64, 256, 2048),
                       ::testing::Values(5.0, 20.0, 1000.0)));

// The other side of that bound: with P ≤ 9 PEs the largest possible z-score
// is √(P−1) ≤ 2.83, so no outlier is ever flagged, however hot. This is why
// small erosion runs show no ULBA effect.
class DetectorBlindSpot
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DetectorBlindSpot, HotPeNeverFlaggedAmongFewPes) {
  const auto [pe_count, factor] = GetParam();
  std::vector<double> wirs(static_cast<std::size_t>(pe_count), 1.0);
  wirs[0] = factor;
  const OverloadDetector det(3.0);
  EXPECT_FALSE(det.is_overloading(wirs[0], wirs))
      << "P = " << pe_count << ", factor = " << factor;
  EXPECT_EQ(det.count_overloading(wirs), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SmallPopulations, DetectorBlindSpot,
    ::testing::Combine(::testing::Values(2, 4, 8, 9),
                       ::testing::Values(5.0, 20.0, 1000.0)));

// ---------------------------------------------------------------------------
// The trigger threshold as the erosion app records it per iteration
// (IterationRecord::threshold): average LB cost plus, for ULBA with
// anticipation, the Eq. (11) overhead at the configured α.
// ---------------------------------------------------------------------------

erosion::AppConfig threshold_probe_config() {
  erosion::AppConfig cfg;
  cfg.pe_count = 16;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 60;
  cfg.seed = 3;
  cfg.method = erosion::Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;
  return cfg;
}

TEST(TriggerThreshold, RecordedForEveryIteration) {
  const erosion::AppConfig cfg = threshold_probe_config();
  const erosion::RunResult run = erosion::ErosionApp(cfg).run();
  ASSERT_EQ(run.iterations.size(), static_cast<std::size_t>(cfg.iterations));
  for (const erosion::IterationRecord& rec : run.iterations)
    EXPECT_GT(rec.threshold, 0.0);
}

TEST(TriggerThreshold, AnticipationRaisesTheFixedPolicyThreshold) {
  erosion::AppConfig with = threshold_probe_config();
  erosion::AppConfig without = threshold_probe_config();
  without.anticipate_overhead_in_trigger = false;
  const erosion::RunResult r_with = erosion::ErosionApp(with).run();
  const erosion::RunResult r_without = erosion::ErosionApp(without).run();

  // The Eq. (11) overhead is non-negative, and once the detector flags the
  // strong rock it must be strictly positive at some iteration. (The two
  // runs share the trajectory only until their LB schedules diverge, so the
  // elementwise comparison stops at the first divergence.)
  std::size_t comparable = r_with.iterations.size();
  for (std::size_t i = 0; i < r_with.iterations.size(); ++i) {
    if (r_with.iterations[i].lb_performed !=
        r_without.iterations[i].lb_performed) {
      comparable = i + 1;
      break;
    }
  }
  bool strictly_raised = false;
  for (std::size_t i = 0; i < comparable; ++i) {
    EXPECT_GE(r_with.iterations[i].threshold,
              r_without.iterations[i].threshold)
        << "iteration " << i;
    strictly_raised |= r_with.iterations[i].threshold >
                       r_without.iterations[i].threshold;
  }
  EXPECT_TRUE(strictly_raised)
      << "the detector never fed an overhead into the trigger";
}

TEST(TriggerThreshold, StandardMethodIgnoresAnticipation) {
  erosion::AppConfig cfg = threshold_probe_config();
  cfg.method = erosion::Method::kStandard;
  erosion::AppConfig off = cfg;
  off.anticipate_overhead_in_trigger = false;
  const erosion::RunResult a = erosion::ErosionApp(cfg).run();
  const erosion::RunResult b = erosion::ErosionApp(off).run();
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i)
    EXPECT_EQ(a.iterations[i].threshold, b.iterations[i].threshold)
        << "iteration " << i;
}

}  // namespace
}  // namespace ulba::core
