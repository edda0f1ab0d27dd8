// Cross-module integration: miniature versions of the paper's experiments
// and the check that the BSP machine reproduces the analytic model's
// interval times.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bsp/machine.hpp"
#include "core/instance.hpp"
#include "core/intervals.hpp"
#include "core/schedule.hpp"
#include "core/standard_model.hpp"
#include "core/ulba_model.hpp"
#include "opt/dp_optimal.hpp"
#include "opt/schedule_problem.hpp"
#include "support/stats.hpp"

namespace ulba {
namespace {

// ---------------------------------------------------------------------------
// Mini Figure 2: over random Table-II instances, the σ⁺ schedule is close to
// the annealed one — average gap within a few percent, exactly the paper's
// observation (mean −0.83 %, worst −5.58 %, best +1.57 %).
TEST(Integration, MiniFigure2SigmaPlusTracksHeuristic) {
  support::Rng rng(1234);
  const core::InstanceGenerator gen;
  std::vector<double> gains;
  for (int i = 0; i < 30; ++i) {
    const core::ModelParams p = gen.sample(rng).params;
    support::Rng sa_rng = rng.fork(static_cast<std::uint64_t>(i));
    const auto sa =
        opt::anneal_schedule(p, opt::CostModel::kUlba, sa_rng, 10000);
    const double t_sigma =
        core::evaluate_ulba(p, core::sigma_plus_schedule(p)).total_seconds;
    gains.push_back((sa.total_seconds - t_sigma) / sa.total_seconds);
  }
  const double avg = support::mean(gains);
  EXPECT_GT(avg, -0.10);  // σ⁺ loses at most 10 % on average
  EXPECT_LT(avg, 0.05);   // and cannot beat a good heuristic by much
}

// ---------------------------------------------------------------------------
// Mini Figure 3: best-α ULBA never loses to the standard method, and wins
// clearly at low overloading fractions.
TEST(Integration, MiniFigure3UlbaNeverLoses) {
  support::Rng rng(77);
  for (double frac : {0.02, 0.10, 0.20}) {
    core::InstanceOptions opts;
    opts.pin_p = 512;
    opts.pin_overloading_fraction = frac;
    const core::InstanceGenerator gen(opts);
    for (int i = 0; i < 10; ++i) {
      core::ModelParams p = gen.sample(rng).params;
      const double t_std =
          core::evaluate_standard(p, core::menon_schedule(p)).total_seconds;
      double best = std::numeric_limits<double>::infinity();
      for (int a = 0; a <= 20; ++a) {
        p.alpha = static_cast<double>(a) / 20.0;
        best = std::min(best, core::evaluate_ulba(
                                  p, core::sigma_plus_schedule(p))
                                  .total_seconds);
      }
      // α = 0 reproduces the standard method up to the ⌊σ⁺⌋-vs-round(τ)
      // spacing difference; allow that sliver.
      EXPECT_LE(best, t_std * 1.005)
          << "frac = " << frac << ", instance " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Model ↔ simulator consistency: drive the BSP machine with the linear
// per-PE loads the analytic model assumes; the measured interval time must
// equal the closed form.
TEST(Integration, BspMachineReproducesStandardModelInterval) {
  core::ModelParams p;
  p.P = 32;
  p.N = 4;
  p.gamma = 50;
  p.w0 = 3.2e6;
  p.a = 40.0;
  p.m = 900.0;
  p.omega = 1e6;
  p.lb_cost = 0.0;
  p.validate();

  bsp::Machine machine(p.P, p.omega);
  const double share = p.balanced_share(0);
  for (std::int64_t t = 0; t < p.gamma; ++t) {
    std::vector<double> loads(static_cast<std::size_t>(p.P), 0.0);
    for (std::int64_t pe = 0; pe < p.P; ++pe) {
      const bool hot = pe < p.N;
      loads[static_cast<std::size_t>(pe)] =
          share + (hot ? (p.m + p.a) : p.a) * static_cast<double>(t);
    }
    (void)machine.run_superstep(loads);
  }
  const double model =
      core::standard_interval_compute_time(p, 0, p.gamma);
  EXPECT_NEAR(machine.elapsed_seconds(), model,
              1e-9 * model);
}

// Same for the ULBA shape: underloaded hot PEs, boosted cold PEs.
TEST(Integration, BspMachineReproducesUlbaModelInterval) {
  core::ModelParams p;
  p.P = 32;
  p.N = 4;
  p.gamma = 50;
  p.w0 = 3.2e6;
  p.a = 40.0;
  p.m = 900.0;
  p.alpha = 0.5;
  p.omega = 1e6;
  p.lb_cost = 0.0;
  p.validate();

  const core::PostLbShares shares = core::post_lb_shares(p, 0, p.alpha);
  bsp::Machine machine(p.P, p.omega);
  for (std::int64_t t = 0; t < p.gamma; ++t) {
    std::vector<double> loads(static_cast<std::size_t>(p.P), 0.0);
    for (std::int64_t pe = 0; pe < p.P; ++pe) {
      const bool hot = pe < p.N;
      loads[static_cast<std::size_t>(pe)] =
          hot ? shares.overloading + (p.m + p.a) * static_cast<double>(t)
              : shares.non_overloading + p.a * static_cast<double>(t);
    }
    (void)machine.run_superstep(loads);
  }
  const double model = core::ulba_interval_compute_time(p, 0, p.gamma, p.alpha);
  EXPECT_NEAR(machine.elapsed_seconds(), model, 1e-9 * model);
}

// ---------------------------------------------------------------------------
// The DP optimum bounds everything on Table-II instances.
TEST(Integration, DpBoundsHoldOnRandomInstances) {
  support::Rng rng(4242);
  const core::InstanceGenerator gen;
  for (int i = 0; i < 15; ++i) {
    const core::ModelParams p = gen.sample(rng).params;
    const auto dp = opt::optimal_schedule(p, opt::CostModel::kUlba);
    const double t_sigma =
        core::evaluate_ulba(p, core::sigma_plus_schedule(p)).total_seconds;
    const double t_never =
        core::evaluate_ulba(p, core::Schedule::empty(p.gamma)).total_seconds;
    EXPECT_LE(dp.total_seconds, t_sigma * (1.0 + 1e-12));
    EXPECT_LE(dp.total_seconds, t_never * (1.0 + 1e-12));
  }
}

// σ⁻ is a genuine lower bound: inserting an extra LB step before σ⁻ into the
// σ⁺ schedule never helps.
TEST(Integration, BalancingBeforeSigmaMinusNeverHelps) {
  support::Rng rng(999);
  const core::InstanceGenerator gen;
  for (int i = 0; i < 10; ++i) {
    const core::ModelParams p = gen.sample(rng).params;
    const core::Schedule base = core::sigma_plus_schedule(p);
    if (base.steps().empty()) continue;
    const std::int64_t first = base.steps().front();
    const std::int64_t sm = core::sigma_minus(p, first, p.alpha);
    const double t_base = core::evaluate_ulba(p, base).total_seconds;
    // Add one step strictly inside (first, first + σ⁻).
    for (std::int64_t delta : {std::int64_t{1}, sm / 2, sm}) {
      const std::int64_t extra = first + std::max<std::int64_t>(1, delta);
      if (extra >= p.gamma || extra <= first) continue;
      auto steps = base.steps();
      if (std::find(steps.begin(), steps.end(), extra) != steps.end())
        continue;
      steps.insert(std::upper_bound(steps.begin(), steps.end(), extra),
                   extra);
      // Only meaningful while it stays before the *next* scheduled step.
      const auto next_it =
          std::upper_bound(base.steps().begin(), base.steps().end(), first);
      if (next_it != base.steps().end() && extra >= *next_it) continue;
      const double t_more =
          core::evaluate_ulba(p, core::Schedule(p.gamma, steps))
              .total_seconds;
      EXPECT_GE(t_more, t_base * (1.0 - 1e-9))
          << "instance " << i << ", extra step at " << extra;
    }
  }
}

}  // namespace
}  // namespace ulba
