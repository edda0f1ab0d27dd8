// Measured-time distributed erosion (AppConfig::measure_time): real CPU
// burns and steady_clock measurements on the SPMD runtime. Wall-clock
// numbers are genuinely measured and therefore noisy, so this suite asserts
// two things only: (a) the measured run's VIRTUAL trajectory — times, LB
// schedule, eroded cells, every IterationRecord — is bit-identical to the
// model-time run of the same seed (the ISSUE-5 acceptance criterion), and
// (b) the measured track has the right structure, with generous bounds.
//
// Carries the `measured` ctest label: excluded from the TSan CI job, whose
// 10–50x slowdown turns real burns into minutes without adding coverage
// (the same mailbox/collective paths run TSan'd in test_distributed_erosion).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "erosion/app.hpp"

namespace ulba::erosion {
namespace {

AppConfig measured_config(std::int64_t ranks, double ns_scale = 1.0) {
  AppConfig cfg;
  cfg.pe_count = 8;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 24;
  cfg.seed = 5;
  cfg.method = Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;
  cfg.ranks = ranks;
  cfg.measure_time = true;
  cfg.ns_scale = ns_scale;
  return cfg;
}

TEST(MeasuredErosion, VirtualTrajectoryBitIdenticalToModelTimeRun) {
  for (const std::int64_t ranks : {2, 4}) {
    AppConfig model_cfg = measured_config(ranks);
    model_cfg.measure_time = false;
    const AppConfig mt_cfg = measured_config(ranks);
    const RunResult model = ErosionApp(model_cfg).run();
    const RunResult mt = ErosionApp(mt_cfg).run();
    const std::string what = "ranks " + std::to_string(ranks);

    EXPECT_EQ(model.total_seconds, mt.total_seconds) << what;
    EXPECT_EQ(model.compute_seconds, mt.compute_seconds) << what;
    EXPECT_EQ(model.lb_seconds, mt.lb_seconds) << what;
    EXPECT_EQ(model.lb_count, mt.lb_count) << what;
    EXPECT_EQ(model.fallback_count, mt.fallback_count) << what;
    EXPECT_EQ(model.average_utilization, mt.average_utilization) << what;
    EXPECT_EQ(model.eroded_cells, mt.eroded_cells) << what;
    EXPECT_EQ(model.final_imbalance, mt.final_imbalance) << what;
    EXPECT_EQ(model.lb_iterations, mt.lb_iterations) << what;
    EXPECT_EQ(model.rank_migration_bytes, mt.rank_migration_bytes) << what;
    EXPECT_EQ(model.rank_observed_bytes, mt.rank_observed_bytes) << what;
    ASSERT_EQ(model.iterations.size(), mt.iterations.size()) << what;
    for (std::size_t i = 0; i < model.iterations.size(); ++i) {
      EXPECT_EQ(model.iterations[i].seconds, mt.iterations[i].seconds)
          << what << " — iteration " << i;
      EXPECT_EQ(model.iterations[i].degradation,
                mt.iterations[i].degradation)
          << what << " — iteration " << i;
      EXPECT_EQ(model.iterations[i].threshold, mt.iterations[i].threshold)
          << what << " — iteration " << i;
      EXPECT_EQ(model.iterations[i].lb_performed,
                mt.iterations[i].lb_performed)
          << what << " — iteration " << i;
    }
    // The model-time run measures nothing; the measured run measures
    // everything it executed.
    EXPECT_TRUE(model.measured.iteration_seconds.empty()) << what;
    EXPECT_EQ(model.measured.wall_seconds, 0.0) << what;
    EXPECT_EQ(mt.measured.iteration_seconds.size(),
              static_cast<std::size_t>(mt_cfg.iterations))
        << what;
  }
}

TEST(MeasuredErosion, MeasuredTrackHasConsistentStructure) {
  const AppConfig cfg = measured_config(4, /*ns_scale=*/2.0);
  const RunResult r = ErosionApp(cfg).run();

  EXPECT_GT(r.measured.wall_seconds, 0.0);
  EXPECT_GT(r.measured.compute_seconds, 0.0);
  EXPECT_GE(r.measured.lb_seconds, 0.0);
  EXPECT_GE(r.measured.migration_seconds, 0.0);
  EXPECT_GT(r.measured.utilization, 0.0);
  EXPECT_LE(r.measured.utilization, 1.0 + 1e-9);

  ASSERT_EQ(r.measured.iteration_seconds.size(),
            static_cast<std::size_t>(cfg.iterations));
  ASSERT_EQ(r.measured.degradation.size(),
            static_cast<std::size_t>(cfg.iterations));
  double sum = 0.0;
  for (const double s : r.measured.iteration_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_DOUBLE_EQ(sum, r.measured.compute_seconds);
  // Measured degradation may go negative when iterations get FASTER than
  // the post-LB reference (host noise does that); it must merely be finite.
  for (const double d : r.measured.degradation) EXPECT_TRUE(std::isfinite(d));

  // One measured LB cost per virtual LB step — the measured counterpart of
  // lb_iterations, and a real cost for every step that really migrated.
  ASSERT_EQ(r.measured.lb_step_seconds.size(), r.lb_iterations.size());
  double lb_sum = 0.0;
  for (const double s : r.measured.lb_step_seconds) {
    EXPECT_GT(s, 0.0);
    lb_sum += s;
  }
  EXPECT_DOUBLE_EQ(lb_sum, r.measured.lb_seconds);
  EXPECT_LE(r.measured.migration_seconds, r.measured.lb_seconds + 1e-9);
}

TEST(MeasuredErosion, MoreBurnMeansMoreMeasuredTime) {
  // Structural monotonicity with a very generous margin: 24 iterations at
  // 20x the burn cannot plausibly complete faster than at 1x even on a
  // noisy, oversubscribed CI host.
  const RunResult light = ErosionApp(measured_config(2, 1.0)).run();
  const RunResult heavy = ErosionApp(measured_config(2, 20.0)).run();
  EXPECT_GT(heavy.measured.compute_seconds, light.measured.compute_seconds);
  // And the dynamics do not care about the burn scale.
  EXPECT_EQ(light.eroded_cells, heavy.eroded_cells);
  EXPECT_EQ(light.lb_iterations, heavy.lb_iterations);
}

}  // namespace
}  // namespace ulba::erosion
