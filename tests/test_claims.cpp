// The paper's claims, one test each: Figures 2–5 of Boulmier et al.
// (CLUSTER 2019) and two ablations beyond the paper (E-X1 interval policies,
// E-X2 LB triggers). Each test runs its sweep at full scale through the
// shared cli/sweep layer, prints its table, and asserts the claim's shape.
// Magnitudes are printed as they come out, not tuned toward the paper's.
//
// The suite carries the `claims` ctest label and takes about 40 s in a
// Release build on 4 cores. Rerun one claim with, for example,
//   ./test_claims --gtest_filter='Claims.Figure4a*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "cli/sweep.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "erosion/app.hpp"
#include "opt/dp_optimal.hpp"
#include "opt/schedule_problem.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ulba {
namespace {

using cli::parallel_map;
using cli::scaled_app_config;
using erosion::Method;
using erosion::RunResult;
using support::Table;

void print_header(const std::string& title, const std::string& paper) {
  const std::string bar(78, '=');
  std::cout << bar << '\n' << title << "\npaper: " << paper << '\n'
            << bar << "\n\n";
}

std::vector<RunResult> run_all(const std::vector<erosion::AppConfig>& configs) {
  return parallel_map(configs.size(), [&](std::size_t i) {
    return erosion::ErosionApp(configs[i]).run();
  });
}

/// Median of `field` over one cell's runs (its seeds, stored consecutively).
template <typename Field>
double median_of(std::span<const RunResult> runs, Field field) {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const RunResult& r : runs) xs.push_back(field(r));
  return support::median(xs);
}

double total_seconds(const RunResult& r) { return r.total_seconds; }

// ---------------------------------------------------------------------------
// Figure 2: over 1000 Table-II instances, σ⁺ tracks the simulated-annealing
// search (paper: best +1.57 %, worst −5.58 %, average −0.83 %).
// `interval-quality` prints the histogram and holds the verdict — mean gain
// in (−5 %, 2 %), worst gain above −25 % — as its exit code; its default
// seed is 1215.
TEST(Claims, Figure2SigmaPlusTracksTheHeuristicSearch) {
  print_header("Figure 2 — gain of the sigma+ intervals vs. the heuristic "
               "search",
               "best +1.57%, worst -5.58%, avg -0.83% over 1000 instances");
  EXPECT_EQ(cli::run({"interval-quality", "--instances", "1000", "--sa-steps",
                      "20000"},
                     std::cout),
            0);
}

// ---------------------------------------------------------------------------
// Figure 3: ULBA's best-α gain over the standard method never goes
// negative, reaches ~21 %, and both the gain and the best α shrink as the
// overloading fraction grows. 1000 instances per point, 101 α values each.
// α = 0 goes through σ⁺ like every other α, and `best` starts at +∞, so a
// negative gain can show.
TEST(Claims, Figure3GainShrinksWithTheOverloadingFraction) {
  print_header("Figure 3 — ULBA gain vs. percentage of overloading PEs",
               "gains up to ~21%, never negative; gain and best alpha fall "
               "with %overloading");
  const std::vector<double> percentages{1.0, 1.6, 2.4,  3.4,  4.8,
                                        6.5, 8.7, 11.5, 15.2, 20.0};
  constexpr std::size_t kInstances = 1000;
  constexpr int kAlphaGrid = 100;

  struct Sample {
    double gain = 0.0;
    double best_alpha = 0.0;
  };
  Table table({"%overloading", "min", "q1", "median", "q3", "max", "mean",
               "avg best-alpha"});
  std::vector<double> medians, mean_alphas;
  double peak = 0.0;
  for (std::size_t pi = 0; pi < percentages.size(); ++pi) {
    const auto samples = parallel_map(kInstances, [&](std::size_t i) {
      support::Rng rng = support::Rng(3000 + pi).fork(i);
      core::InstanceOptions opts;
      opts.pin_overloading_fraction = percentages[pi] / 100.0;
      core::ModelParams p = core::InstanceGenerator(opts).sample(rng).params;
      const double t_std =
          core::evaluate_standard(p, core::menon_schedule(p)).total_seconds;
      Sample s;
      double best = std::numeric_limits<double>::infinity();
      for (int a = 0; a <= kAlphaGrid; ++a) {
        p.alpha = static_cast<double>(a) / kAlphaGrid;
        const double t =
            core::evaluate_ulba(p, core::sigma_plus_schedule(p)).total_seconds;
        if (t < best) {
          best = t;
          s.best_alpha = p.alpha;
        }
      }
      s.gain = (t_std - best) / t_std;
      return s;
    });

    std::vector<double> gains, alphas;
    for (const Sample& s : samples) {
      gains.push_back(s.gain * 100.0);
      alphas.push_back(s.best_alpha);
    }
    const support::Summary g = support::summarize(gains);
    EXPECT_GE(g.min, 0.0) << "ULBA lost at " << percentages[pi]
                          << " % overloading";
    medians.push_back(g.median);
    mean_alphas.push_back(support::mean(alphas));
    peak = std::max(peak, g.max);
    table.add_row({Table::num(percentages[pi], 1) + "%", Table::num(g.min, 2),
                   Table::num(g.q25, 2), Table::num(g.median, 2),
                   Table::num(g.q75, 2), Table::num(g.max, 2),
                   Table::num(g.mean, 2), Table::num(mean_alphas.back(), 2)});
  }
  std::cout << "Gain over the standard method [%], " << kInstances
            << " instances per point, " << kAlphaGrid + 1
            << " alpha values each:\n\n"
            << table.render(2) << "\npeak gain " << Table::num(peak, 1)
            << "% (paper: ~21%)\n";

  EXPECT_GT(medians.front(), medians.back());
  EXPECT_GT(mean_alphas.front(), mean_alphas.back());
  EXPECT_GE(peak, 10.0);
}

// ---------------------------------------------------------------------------
// Figure 4a: the erosion application at P ∈ {32, 64, 128, 256} with 1–3
// strongly erodible rocks, median of 5 seeds per cell. ULBA is not slower
// (2 % band), gains somewhere (paper: up to 16 %), and at 32 PEs the gain
// does not grow with the number of strong rocks (paper: tie at 3 rocks).
TEST(Claims, Figure4aUlbaIsNotSlower) {
  print_header("Figure 4a — erosion application: standard (Zhai-adaptive) "
               "vs. ULBA",
               "ULBA up to 16% faster, tie at 32 PEs / 3 strong rocks");
  const std::vector<std::int64_t> pe_counts{32, 64, 128, 256};
  const std::vector<std::int64_t> rock_counts{1, 2, 3};
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44, 55};
  const std::vector<Method> methods{Method::kStandard, Method::kUlba};

  std::vector<erosion::AppConfig> configs;
  for (std::int64_t p : pe_counts)
    for (std::int64_t r : rock_counts)
      for (Method m : methods)
        for (std::uint64_t s : seeds)
          configs.push_back(scaled_app_config(p, r, m, s));
  const std::vector<RunResult> runs = run_all(configs);
  const auto median_time = [&](std::size_t pi, std::size_t ri,
                               std::size_t mi) {
    const std::size_t cell = (pi * rock_counts.size() + ri) * methods.size() +
                             mi;
    return median_of(std::span(runs).subspan(cell * seeds.size(),
                                             seeds.size()),
                     total_seconds);
  };

  Table table({"PEs", "strong rocks", "standard [s]", "ULBA [s]",
               "ULBA gain"});
  double peak = 0.0;
  std::vector<double> gain_at_32;
  for (std::size_t ri = 0; ri < rock_counts.size(); ++ri) {
    for (std::size_t pi = 0; pi < pe_counts.size(); ++pi) {
      const double t_std = median_time(pi, ri, 0);
      const double t_ulba = median_time(pi, ri, 1);
      const double gain = (t_std - t_ulba) / t_std;
      EXPECT_GE(gain, -0.02) << "P = " << pe_counts[pi] << ", "
                             << rock_counts[ri] << " strong rock(s)";
      peak = std::max(peak, gain);
      if (pe_counts[pi] == 32) gain_at_32.push_back(gain);
      table.add_row({std::to_string(pe_counts[pi]),
                     std::to_string(rock_counts[ri]), Table::num(t_std, 3),
                     Table::num(t_ulba, 3), Table::pct(gain, 1)});
    }
  }
  std::cout << "Median of " << seeds.size()
            << " seeds per cell, virtual seconds:\n\n"
            << table.render(2) << "\npeak gain " << Table::pct(peak, 1)
            << " (paper: 16%)\n";

  EXPECT_GT(peak, 0.03);
  ASSERT_EQ(gain_at_32.size(), 3u);
  EXPECT_GE(gain_at_32[0], gain_at_32[2] - 0.02)
      << "at 32 PEs, 1 strong rock must gain about as much as 3";
}

// ---------------------------------------------------------------------------
// Figure 4b: at 32 PEs and 1 strong rock, ULBA balances less often and
// keeps the PEs busier (paper: 62.5 % fewer LB calls, higher usage). Over
// 40 seeds: strictly fewer LB calls at every seed, and the 95 % t-interval
// of both the mean gain and the mean utilization delta lies above 0. A
// single seed can lose (seed 11 reads −1.04 %); the table shows it.
TEST(Claims, Figure4bUlbaBalancesLessAndUsesThePesBetter) {
  print_header("Figure 4b — LB calls and PE utilization, 32 PEs, 1 strongly "
               "erodible rock",
               "higher usage and 62.5% fewer LB calls under ULBA");
  constexpr std::uint64_t kSeeds = 40;
  // Two-sided 95 % quantile of Student's t with kSeeds − 1 = 39 dof.
  constexpr double kT95 = 2.0227;
  const std::vector<Method> methods{Method::kStandard, Method::kUlba};

  std::vector<erosion::AppConfig> configs;
  for (std::uint64_t s = 1; s <= kSeeds; ++s)
    for (Method m : methods) configs.push_back(scaled_app_config(32, 1, m, s));
  const std::vector<RunResult> runs = run_all(configs);

  Table table({"seed", "standard [s]", "ULBA [s]", "gain", "standard usage",
               "ULBA usage", "usage delta", "standard LB", "ULBA LB"});
  std::vector<double> gains, usage_deltas;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) {
    const RunResult& std_run = runs[2 * (s - 1)];
    const RunResult& ulba_run = runs[2 * (s - 1) + 1];
    EXPECT_LT(ulba_run.lb_count, std_run.lb_count) << "seed " << s;
    gains.push_back((std_run.total_seconds - ulba_run.total_seconds) /
                    std_run.total_seconds);
    usage_deltas.push_back(ulba_run.average_utilization -
                           std_run.average_utilization);
    table.add_row({std::to_string(s), Table::num(std_run.total_seconds, 3),
                   Table::num(ulba_run.total_seconds, 3),
                   Table::pct(gains.back(), 2),
                   Table::pct(std_run.average_utilization, 1),
                   Table::pct(ulba_run.average_utilization, 1),
                   Table::num(usage_deltas.back() * 100.0, 2) + " pp",
                   std::to_string(std_run.lb_count),
                   std::to_string(ulba_run.lb_count)});
  }
  const auto ci_low = [&](const std::vector<double>& xs) {
    return support::mean(xs) -
           kT95 * support::stddev(xs) / std::sqrt(static_cast<double>(kSeeds));
  };
  std::cout << table.render(2) << "\nmean gain "
            << Table::pct(support::mean(gains), 2) << " (95% CI low end "
            << Table::pct(ci_low(gains), 2) << "), mean usage delta "
            << Table::num(support::mean(usage_deltas) * 100.0, 2)
            << " pp (low end " << Table::num(ci_low(usage_deltas) * 100.0, 2)
            << " pp)\n";

  EXPECT_GT(ci_low(gains), 0.0);
  EXPECT_GT(ci_low(usage_deltas), 0.0);
}

// ---------------------------------------------------------------------------
// Figure 5: ULBA at α ∈ [0.1, 0.5], 1 strong rock, median of 3 seeds. α
// matters — α = 0.1 under-anticipates by at least 1 % against the best α at
// every P — and past the knee the times plateau: their spread over
// α ∈ [0.2, 0.5] stays within 2.5 × the knee gain (at least 0.5 %). The
// paper's α effect is ~14 % with a plateau above α = 0.4.
TEST(Claims, Figure5AlphaHasAKneeAndAPlateau) {
  print_header("Figure 5 — ULBA performance vs. alpha, 1 strongly erodible "
               "rock",
               "strong alpha effect (~14%), plateau above alpha = 0.4 "
               "except at 256 PEs");
  const std::vector<std::int64_t> pe_counts{32, 64, 128, 256};
  const std::vector<double> alphas{0.10, 0.15, 0.20, 0.25, 0.30,
                                   0.35, 0.40, 0.45, 0.50};
  const std::vector<std::uint64_t> seeds{11, 22, 33};

  std::vector<erosion::AppConfig> configs;
  for (std::int64_t p : pe_counts)
    for (double a : alphas)
      for (std::uint64_t s : seeds) {
        configs.push_back(scaled_app_config(p, 1, Method::kUlba, s));
        configs.back().alpha = a;
      }
  const std::vector<RunResult> runs = run_all(configs);

  // times[pi][ai]: the median over seeds of one (P, α) cell.
  std::vector<std::vector<double>> times(pe_counts.size());
  for (std::size_t pi = 0; pi < pe_counts.size(); ++pi)
    for (std::size_t ai = 0; ai < alphas.size(); ++ai)
      times[pi].push_back(median_of(
          std::span(runs).subspan((pi * alphas.size() + ai) * seeds.size(),
                                  seeds.size()),
          total_seconds));

  std::vector<std::string> headers{"alpha"};
  for (std::int64_t p : pe_counts)
    headers.push_back(std::to_string(p) + " PEs");
  Table table(headers);
  for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
    std::vector<std::string> row{Table::num(alphas[ai], 2)};
    for (const auto& y : times) row.push_back(Table::num(y[ai], 3));
    table.add_row(row);
  }
  std::cout << "Median total time [virtual s] over " << seeds.size()
            << " seeds:\n\n"
            << table.render(2) << '\n';

  for (std::size_t pi = 0; pi < pe_counts.size(); ++pi) {
    const std::span<const double> y(times[pi]);
    const double best = support::min_of(y);
    const double knee_gain = (y.front() - best) / y.front();
    const double plateau_spread =
        (support::max_of(y.subspan(2)) - support::min_of(y.subspan(2))) /
        best;
    const auto best_i = static_cast<std::size_t>(
        std::find(y.begin(), y.end(), best) - y.begin());
    std::cout << "P = " << pe_counts[pi] << ": knee gain "
              << Table::pct(knee_gain, 1) << ", plateau spread "
              << Table::pct(plateau_spread, 1) << ", best alpha "
              << Table::num(alphas[best_i], 2) << " (paper: ~0.4-0.5)\n";
    EXPECT_GE(knee_gain, 0.01) << "P = " << pe_counts[pi];
    EXPECT_LE(plateau_spread, 2.5 * std::max(knee_gain, 0.005))
        << "P = " << pe_counts[pi];
  }
}

// ---------------------------------------------------------------------------
// E-X1, beyond the paper: on 200 Table-II instances under the ULBA cost
// model, rank every interval policy by its gap to the exact DP optimum. σ⁺
// is near-optimal (mean gap in [0, 10 %)) and beats a fixed 50-iteration
// period; the paper compares σ⁺ to simulated annealing only.
TEST(Claims, AblationSigmaPlusIsNearOptimal) {
  print_header("Ablation E-X1 — LB interval policies vs. the exact DP "
               "optimum",
               "extends Section III-B (sigma+ compared to simulated "
               "annealing only)");
  constexpr std::size_t kInstances = 200;

  struct Row {
    // Gaps to the DP optimum, in %.
    double sa = 0.0, sigma = 0.0, p10 = 0.0, p25 = 0.0, p50 = 0.0, never = 0.0;
    double extra_lb_calls = 0.0;  // σ⁺'s LB count minus the DP's
  };
  const auto rows = parallel_map(kInstances, [&](std::size_t i) {
    support::Rng rng = support::Rng(777).fork(i);
    const core::ModelParams p = core::InstanceGenerator().sample(rng).params;
    const auto dp = opt::optimal_schedule(p, opt::CostModel::kUlba);
    support::Rng sa_rng = rng.fork(1);
    const auto sa =
        opt::anneal_schedule(p, opt::CostModel::kUlba, sa_rng, 15000);
    const auto gap = [&](double t) {
      return (t / dp.total_seconds - 1.0) * 100.0;
    };
    const auto gap_of = [&](const core::Schedule& s) {
      return gap(core::evaluate_ulba(p, s).total_seconds);
    };
    const core::Schedule sigma = core::sigma_plus_schedule(p);
    return Row{gap(sa.total_seconds),
               gap_of(sigma),
               gap_of(core::periodic_schedule(p.gamma, 10)),
               gap_of(core::periodic_schedule(p.gamma, 25)),
               gap_of(core::periodic_schedule(p.gamma, 50)),
               gap_of(core::Schedule::empty(p.gamma)),
               static_cast<double>(sigma.lb_count()) -
                   static_cast<double>(dp.schedule.lb_count())};
  });
  const auto column = [&](double Row::*member) {
    std::vector<double> xs;
    xs.reserve(rows.size());
    for (const Row& r : rows) xs.push_back(r.*member);
    return xs;
  };

  Table table({"policy", "mean gap vs optimal", "median", "q95", "max"});
  const auto add = [&](const char* name, const std::vector<double>& xs) {
    table.add_row({name, Table::num(support::mean(xs), 2) + "%",
                   Table::num(support::median(xs), 2) + "%",
                   Table::num(support::quantile(xs, 0.95), 2) + "%",
                   Table::num(support::max_of(xs), 2) + "%"});
  };
  add("simulated annealing", column(&Row::sa));
  add("sigma+ (paper)", column(&Row::sigma));
  add("periodic, 10 it", column(&Row::p10));
  add("periodic, 25 it", column(&Row::p25));
  add("periodic, 50 it", column(&Row::p50));
  add("never (static)", column(&Row::never));
  std::cout << "Gap to the exact DP optimum over " << kInstances
            << " Table-II instances (ULBA cost model):\n\n"
            << table.render(2) << "\navg extra LB calls of sigma+ vs optimal: "
            << Table::num(support::mean(column(&Row::extra_lb_calls)), 2)
            << '\n';

  const double sigma_mean = support::mean(column(&Row::sigma));
  EXPECT_GE(sigma_mean, 0.0);
  EXPECT_LT(sigma_mean, 10.0);
  EXPECT_LT(sigma_mean, support::mean(column(&Row::p50)));
}

// ---------------------------------------------------------------------------
// E-X2, beyond the paper: the same erosion workload (32 PEs, 1 strong rock,
// median of 3 seeds) under the adaptive trigger, fixed periods and no LB,
// for both methods. The paper adopts Zhai et al.'s adaptive trigger without
// comparing it; under the standard method it is within 5 % of the best
// fixed period, which takes an oracle sweep to find.
TEST(Claims, AblationAdaptiveTriggerMatchesTheBestPeriod) {
  print_header("Ablation E-X2 — LB trigger policies on the erosion "
               "application",
               "extends Section III-C / Zhai et al. ICS'18");
  struct Variant {
    const char* name;
    erosion::TriggerMode mode;
    std::int64_t period;
  };
  const std::vector<Variant> variants{
      {"adaptive (Zhai)", erosion::TriggerMode::kAdaptive, 0},
      {"periodic 10", erosion::TriggerMode::kPeriodic, 10},
      {"periodic 25", erosion::TriggerMode::kPeriodic, 25},
      {"periodic 50", erosion::TriggerMode::kPeriodic, 50},
      {"periodic 100", erosion::TriggerMode::kPeriodic, 100},
      {"never (static)", erosion::TriggerMode::kNever, 0},
  };
  const std::vector<std::uint64_t> seeds{11, 22, 33};
  const std::vector<Method> methods{Method::kStandard, Method::kUlba};

  std::vector<erosion::AppConfig> configs;
  for (const Variant& v : variants)
    for (Method m : methods)
      for (std::uint64_t s : seeds) {
        configs.push_back(scaled_app_config(32, 1, m, s));
        configs.back().trigger_mode = v.mode;
        if (v.period > 0) configs.back().lb_period = v.period;
      }
  const std::vector<RunResult> runs = run_all(configs);
  const auto cell = [&](std::size_t vi, std::size_t mi) {
    return std::span(runs).subspan((vi * methods.size() + mi) * seeds.size(),
                                   seeds.size());
  };
  const auto lb_calls = [](const RunResult& r) {
    return static_cast<double>(r.lb_count);
  };

  Table table({"trigger", "std time [s]", "std LB calls", "ULBA time [s]",
               "ULBA LB calls"});
  double adaptive_std = 0.0;
  double best_periodic_std = std::numeric_limits<double>::infinity();
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const double t_std = median_of(cell(vi, 0), total_seconds);
    table.add_row({variants[vi].name, Table::num(t_std, 3),
                   Table::num(median_of(cell(vi, 0), lb_calls), 0),
                   Table::num(median_of(cell(vi, 1), total_seconds), 3),
                   Table::num(median_of(cell(vi, 1), lb_calls), 0)});
    if (variants[vi].mode == erosion::TriggerMode::kAdaptive)
      adaptive_std = t_std;
    if (variants[vi].mode == erosion::TriggerMode::kPeriodic)
      best_periodic_std = std::min(best_periodic_std, t_std);
  }
  std::cout << "32 PEs, 1 strong rock, median of " << seeds.size()
            << " seeds:\n\n"
            << table.render(2);

  EXPECT_LE(adaptive_std, best_periodic_std * 1.05);
}

}  // namespace
}  // namespace ulba
