#include "cli/scenarios.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cli/serve_driver.hpp"
#include "cli/sweep.hpp"
#include "core/instance.hpp"
#include "core/intervals.hpp"
#include "core/schedule.hpp"
#include "core/schedule_query.hpp"
#include "erosion/app.hpp"
#include "opt/dp_optimal.hpp"
#include "opt/evaluate.hpp"
#include "support/histogram.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/text_plot.hpp"

namespace ulba::cli {

namespace {

/// Union of the shared ModelParams flags and `extra`.
std::set<std::string> with_model_flags(std::set<std::string> extra) {
  const auto& shared = model_param_flags();
  extra.insert(shared.begin(), shared.end());
  return extra;
}

/// One-line timeline of a schedule: '|' = LB step, '.' = plain iteration.
std::string timeline(const core::Schedule& s) {
  std::string line(static_cast<std::size_t>(s.gamma()), '.');
  for (auto step : s.steps()) line[static_cast<std::size_t>(step)] = '|';
  return line;
}

}  // namespace

core::ModelParams quickstart_defaults() {
  core::ModelParams p;
  p.P = 512;
  p.N = 32;
  p.gamma = 100;
  p.omega = 1e9;
  p.w0 = 3e9 * static_cast<double>(p.P);
  p.a = 6e4;
  p.m = 3e7;
  p.alpha = 0.5;
  p.lb_cost = 1.5;
  return p;
}

core::ModelParams intervals_defaults() {
  core::ModelParams p;
  p.P = 1024;
  p.N = 48;
  p.gamma = 100;
  p.omega = 1e9;
  p.w0 = 4e9 * static_cast<double>(p.P);
  p.a = 1e5;
  p.m = 2e7;
  p.lb_cost = 2.0;
  p.alpha = 0.0;
  return p;
}

int run_quickstart(const FlagMap& flags, std::ostream& out) {
  flags.require_known(with_model_flags({"threads", "ranks", "seed"}));
  const core::ModelParams p =
      parse_model_params(flags, quickstart_defaults());
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const std::int64_t threads = flags.get_int("threads", 1);
  const std::int64_t ranks = flags.get_int("ranks", 1);
  ULBA_REQUIRE(threads >= 1 && threads <= 256, "--threads must be in [1, 256]");
  ULBA_REQUIRE(ranks >= 1 && ranks <= 16, "--ranks must be in [1, 16]");

  out << "Application: P=" << p.P << " PEs, N=" << p.N
      << " overloading, gamma=" << p.gamma << "\n"
      << "  dW = " << p.delta_w() << " FLOP/iter, m_hat = " << p.m_hat()
      << ", a_hat = " << p.a_hat() << "\n\n";

  out << "Menon tau (standard method)   : every " << core::menon_tau(p)
      << " iterations\n";
  const core::IntervalBounds b =
      core::interval_bounds(p, 0, p.alpha, p.alpha);
  out << "ULBA sigma- (no degradation)  : " << b.lower << " iterations\n"
      << "ULBA sigma+ (recommended)     : " << b.upper << " iterations\n\n";

  const core::ScheduleCost t_std =
      core::evaluate_standard(p, core::menon_schedule(p));
  const core::ScheduleCost t_ulba =
      core::evaluate_ulba(p, core::sigma_plus_schedule(p));
  out << "standard method  : " << t_std.total_seconds << " s  ("
      << t_std.lb_count << " LB calls)\n"
      << "ULBA, alpha=" << p.alpha << ": " << t_ulba.total_seconds << " s  ("
      << t_ulba.lb_count << " LB calls)\n"
      << "anticipation gain: "
      << (t_std.total_seconds - t_ulba.total_seconds) / t_std.total_seconds *
             100.0
      << " %\n";

  // The model in practice: a miniature §IV-B erosion run (--seed, default
  // 11 like the other erosion subcommands; the shared Table-II comm
  // calibration of scaled_app_config, geometry scaled down further),
  // stepped on `--threads` host threads and `--ranks` SPMD ranks — one
  // identical virtual-time result for every combination (see
  // AppConfig::threads).
  erosion::AppConfig mini =
      scaled_app_config(16, 1, erosion::Method::kStandard, seed);
  mini.columns_per_pe = 64;
  mini.rows = 96;
  mini.rock_radius = 24;
  mini.iterations = 120;
  mini.alpha = p.alpha;
  mini.threads = threads;
  mini.ranks = ranks;
  mini.validate();
  mini.method = erosion::Method::kStandard;
  const erosion::RunResult mini_std = erosion::ErosionApp(mini).run();
  mini.method = erosion::Method::kUlba;
  const erosion::RunResult mini_ulba = erosion::ErosionApp(mini).run();
  out << "\nin practice (mini erosion run: 16 PEs, seed " << mini.seed
      << ", " << threads << " thread(s)";
  if (ranks > 1)
    out << ", " << ranks << " SPMD ranks via " << mini.partitioner;
  out << "):\n"
      << "  standard : " << mini_std.total_seconds << " s  ("
      << mini_std.lb_count << " LB calls)\n"
      << "  ULBA     : " << mini_ulba.total_seconds << " s  ("
      << mini_ulba.lb_count << " LB calls)\n"
      << "  simulated gain: "
      << (mini_std.total_seconds - mini_ulba.total_seconds) /
             mini_std.total_seconds * 100.0
      << " %\n";
  return 0;
}

int run_erosion(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"pes", "strong", "seed", "iterations", "alpha",
                       "columns-per-pe", "rows", "rock-radius", "threads",
                       "ranks"});
  const std::int64_t pe_count = flags.get_int("pes", 32);
  const std::int64_t strong = flags.get_int("strong", 1);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  const double alpha = flags.get_double("alpha", 0.4);
  const std::int64_t threads = flags.get_int("threads", 1);
  const std::int64_t ranks = flags.get_int("ranks", 1);
  ULBA_REQUIRE(pe_count >= 3,
               "--pes must be at least 3: each PE gossips to 2 peers");
  ULBA_REQUIRE(strong >= 1 && strong <= pe_count,
               "--strong must be in [1, pes]");
  ULBA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "--alpha must be in (0, 1]");
  ULBA_REQUIRE(threads >= 1 && threads <= 256, "--threads must be in [1, 256]");
  ULBA_REQUIRE(ranks >= 1 && ranks <= 64, "--ranks must be in [1, 64]");

  erosion::AppConfig cfg =
      scaled_app_config(pe_count, strong, erosion::Method::kStandard, seed);
  cfg.alpha = alpha;
  cfg.columns_per_pe = flags.get_int("columns-per-pe", cfg.columns_per_pe);
  cfg.rows = flags.get_int("rows", cfg.rows);
  cfg.rock_radius = flags.get_int("rock-radius", cfg.rock_radius);
  cfg.iterations = flags.get_int("iterations", cfg.iterations);
  cfg.threads = threads;
  cfg.ranks = ranks;
  cfg.validate();

  out << "Erosion demo: " << cfg.pe_count << " PEs, "
      << cfg.strong_rock_count << " strongly erodible rock(s), seed "
      << cfg.seed << "\n"
      << "(domain " << cfg.columns() << "x" << cfg.rows
      << " cells, rock radius " << cfg.rock_radius << ", alpha = "
      << cfg.alpha << ", " << cfg.threads << " stepping thread(s))\n";
  if (cfg.ranks > 1) {
    out << "(distributed stepping: " << cfg.ranks
        << " SPMD ranks, stripes cut by " << cfg.partitioner << ", "
        << cfg.exchange
        << " step exchange, real halo/migration messages; trajectory "
           "bit-identical to the serial run)\n";
  }
  out << "\n";

  cfg.method = erosion::Method::kStandard;
  const erosion::RunResult std_run = erosion::ErosionApp(cfg).run();
  cfg.method = erosion::Method::kUlba;
  const erosion::RunResult ulba_run = erosion::ErosionApp(cfg).run();

  const auto report = [&out](const char* name, const erosion::RunResult& r) {
    out << name << "\n"
        << "  total time      : " << r.total_seconds
        << " virtual s (compute " << r.compute_seconds << " + LB "
        << r.lb_seconds << ")\n"
        << "  LB calls        : " << r.lb_count << "\n"
        << "  avg utilization : " << r.average_utilization * 100.0 << " %\n";
    std::vector<double> util;
    util.reserve(r.iterations.size());
    for (const auto& rec : r.iterations) util.push_back(rec.utilization);
    out << "  utilization     : " << support::sparkline(util) << "\n\n";
  };
  report("standard LB method (adaptive trigger of Zhai et al.):", std_run);
  report("ULBA (anticipatory underloading):", ulba_run);

  if (cfg.ranks > 1) {
    out << "rank migration (real messages, one stripe recut per LB step):\n"
        << "  standard : " << std_run.rank_discs_moved << " disc move(s), "
        << std_run.rank_migration_bytes / 1e6 << " MB modeled, "
        << std_run.rank_observed_bytes / 1e6 << " MB on the wire\n"
        << "  ULBA     : " << ulba_run.rank_discs_moved << " disc move(s), "
        << ulba_run.rank_migration_bytes / 1e6 << " MB modeled, "
        << ulba_run.rank_observed_bytes / 1e6 << " MB on the wire\n\n";
    out << "per-step exchange (" << cfg.exchange << " mode, whole run):\n"
        << "  standard : " << std_run.rank_step_messages << " messages, "
        << std_run.rank_step_bytes / 1e6 << " MB\n"
        << "  ULBA     : " << ulba_run.rank_step_messages << " messages, "
        << ulba_run.rank_step_bytes / 1e6 << " MB\n\n";
  }

  out << "==> ULBA gain: "
      << (std_run.total_seconds - ulba_run.total_seconds) /
             std_run.total_seconds * 100.0
      << " % wall clock, "
      << (ulba_run.average_utilization - std_run.average_utilization) * 100.0
      << " pp utilization, " << std_run.lb_count - ulba_run.lb_count
      << " fewer LB calls\n";
  return 0;
}

int run_intervals(const FlagMap& flags, std::ostream& out) {
  flags.require_known(with_model_flags({"alpha-steps", "dp"}));
  const core::ModelParams p =
      parse_model_params(flags, intervals_defaults());
  const std::int64_t steps = flags.get_int("alpha-steps", 10);
  ULBA_REQUIRE(steps >= 1 && steps <= 1000,
               "--alpha-steps must be in [1, 1000]");
  const std::string dp = flags.get_string("dp", "on");
  ULBA_REQUIRE(dp == "on" || dp == "off", "--dp expects 'on' or 'off'");

  out << "Model: P=" << p.P << ", N=" << p.N << ", gamma=" << p.gamma
      << ", C=" << p.lb_cost << "s, tau_Menon=" << core::menon_tau(p)
      << "\n\n";

  support::Table table({"alpha", "sigma-", "sigma+", "LB calls",
                        "T total [s]", "vs standard"});
  const double t_std =
      core::evaluate_standard(p, core::menon_schedule(p)).total_seconds;

  double best_alpha = 0.0, best_time = t_std;
  for (std::int64_t i = 0; i <= steps; ++i) {
    core::ModelParams q = p;
    q.alpha = static_cast<double>(i) / static_cast<double>(steps);
    const auto bounds = core::interval_bounds(q, 0, q.alpha, q.alpha);
    const auto schedule = core::sigma_plus_schedule(q);
    const double t = core::evaluate_ulba(q, schedule).total_seconds;
    if (t < best_time) {
      best_time = t;
      best_alpha = q.alpha;
    }
    table.add_row({support::Table::num(q.alpha, 2),
                   std::to_string(bounds.lower),
                   support::Table::num(bounds.upper, 1),
                   std::to_string(schedule.lb_count()),
                   support::Table::num(t, 2),
                   support::Table::pct((t_std - t) / t_std, 2)});
  }
  out << table.render(2) << "\n";

  core::ModelParams q = p;
  q.alpha = best_alpha;
  const auto sigma_sched = core::sigma_plus_schedule(q);
  out << "best alpha = " << best_alpha << "\n"
      << "  sigma+ schedule  " << timeline(sigma_sched) << "   ("
      << core::evaluate_ulba(q, sigma_sched).total_seconds << " s)\n";
  if (dp == "on") {
    const auto dp = opt::optimal_schedule(q, opt::CostModel::kUlba);
    out << "  DP optimum       " << timeline(dp.schedule) << "   ("
        << dp.total_seconds << " s)\n";
  }
  out << "  standard (tau)   " << timeline(core::menon_schedule(p)) << "   ("
      << t_std << " s)\n"
      << "\n('|' marks an LB step along the " << p.gamma << " iterations)\n";
  return 0;
}

int run_alpha_tuning(const FlagMap& flags, std::ostream& out) {
  flags.require_known(
      with_model_flags({"alpha-min", "alpha-max", "alpha-step"}));
  const core::ModelParams base =
      parse_model_params(flags, quickstart_defaults());
  const double lo = flags.get_double("alpha-min", 0.05);
  const double hi = flags.get_double("alpha-max", 1.0);
  const double step = flags.get_double("alpha-step", 0.05);
  ULBA_REQUIRE(lo > 0.0 && lo <= 1.0, "--alpha-min must be in (0, 1]");
  ULBA_REQUIRE(hi >= lo && hi <= 1.0, "--alpha-max must be in [alpha-min, 1]");
  ULBA_REQUIRE(step > 0.0, "--alpha-step must be positive");

  // One ScheduleRequest carries the whole sweep; the response's grid rows
  // are the per-alpha sigma+ evaluations the loop below used to compute.
  // The grid stops at the request limit: a tiny step would otherwise grow
  // it without bound (and loop forever once a + step == a).
  core::ScheduleRequest request;
  request.mode = core::EvalMode::kSigmaGrid;
  request.params = base;
  for (double a = lo; a <= hi + 1e-12; a += step) {
    ULBA_REQUIRE(static_cast<std::int64_t>(request.alpha_grid.size()) <
                     core::kMaxGridPoints,
                 "--alpha-step gives more than " +
                     std::to_string(core::kMaxGridPoints) +
                     " alpha values in [alpha-min, alpha-max]");
    request.alpha_grid.push_back(std::min(a, 1.0));
  }

  out << "Alpha tuning: P=" << base.P << ", N=" << base.N
      << ", gamma=" << base.gamma << ", C=" << base.lb_cost << "s\n"
      << "(sweeping alpha in [" << lo << ", " << hi << "] by " << step
      << "; sigma+ schedule per alpha, Eq. (4)/(5) evaluation)\n\n";
  const core::ScheduleResponse response =
      opt::evaluate_schedule_request(request);
  const double t_std = response.standard_seconds;

  support::Table table({"alpha", "LB calls", "T total [s]", "gain"});
  std::vector<double> gains;
  std::vector<double> alphas;
  // Local best scan over the swept alphas only: the response's best_alpha
  // seeds from the alpha=0 standard fallback, which this sweep excludes.
  double best_alpha = lo, best_time = std::numeric_limits<double>::infinity();
  for (const core::GridPointEval& point : response.grid) {
    const double t = point.total_seconds;
    const double gain = (t_std - t) / t_std;
    if (t < best_time) {
      best_time = t;
      best_alpha = point.alpha;
    }
    alphas.push_back(point.alpha);
    gains.push_back(gain * 100.0);
    table.add_row({support::Table::num(point.alpha, 2),
                   std::to_string(point.lb_count),
                   support::Table::num(t, 2), support::Table::pct(gain, 2)});
  }
  out << table.render(2) << "\n";
  out << "gain vs alpha [%]: " << support::sparkline(gains) << "\n";
  out << "best alpha = " << best_alpha << "  ("
      << (t_std - best_time) / t_std * 100.0 << " % over standard, "
      << t_std << " s -> " << best_time << " s)\n";
  return 0;
}

int run_instances(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"samples", "seed", "alpha-grid"});
  const std::int64_t samples = flags.get_int("samples", 200);
  const std::uint64_t seed = flags.get_seed("seed", 20190916);
  const std::int64_t grid = flags.get_int("alpha-grid", 20);
  ULBA_REQUIRE(samples >= 1 && samples <= 100000,
               "--samples must be in [1, 100000]");
  ULBA_REQUIRE(grid >= 1 && grid <= 1000, "--alpha-grid must be in [1, 1000]");

  out << "Table-II instance sweep: ULBA vs standard over the paper's random\n"
         "application families (" << samples << " instances per PE family, "
      << "alpha grid " << grid + 1 << " points)\n\n";

  support::Table table({"P", "wins", "losses", "ties", "median gain",
                        "mean gain", "min", "max", "best-alpha gain",
                        "avg best-alpha"});
  std::int64_t total_wins = 0, total_losses = 0;
  double peak_best_gain = 0.0;
  for (const std::int64_t p : core::kTableIIPeCounts) {
    const FamilyStats s = instance_family_stats(p, samples, seed, grid);
    total_wins += s.wins;
    total_losses += s.losses;
    peak_best_gain = std::max(peak_best_gain, s.median_best_gain);
    table.add_row({std::to_string(s.pin_p), std::to_string(s.wins),
                   std::to_string(s.losses), std::to_string(s.ties),
                   support::Table::pct(s.median_gain, 2),
                   support::Table::pct(s.mean_gain, 2),
                   support::Table::pct(s.min_gain, 2),
                   support::Table::pct(s.max_gain, 2),
                   support::Table::pct(s.median_best_gain, 2),
                   support::Table::num(s.mean_best_alpha, 2)});
  }
  out << table.render(2) << "\n";
  out << "('gain' compares ULBA at the instance's drawn alpha against the "
         "standard\n method; 'best-alpha gain' tunes alpha per instance and "
         "can never lose)\n\n";
  out << "overall: " << total_wins << " wins / " << total_losses
      << " losses at the drawn alpha; median best-alpha gain up to "
      << support::Table::pct(peak_best_gain, 2)
      << " (paper Fig. 3: up to ~21 %)\n";
  return 0;
}

int run_interval_quality(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"instances", "sa-steps", "seed"});
  const std::int64_t instances = flags.get_int("instances", 200);
  const std::int64_t sa_steps = flags.get_int("sa-steps", 5000);
  const std::uint64_t seed = flags.get_seed("seed", 1215);
  ULBA_REQUIRE(instances >= 1 && instances <= 100000,
               "--instances must be in [1, 100000]");
  ULBA_REQUIRE(sa_steps >= 1 && sa_steps <= 1000000,
               "--sa-steps must be in [1, 1000000]");

  out << "Interval quality (Figure 2): gain of the sigma+ LB intervals over "
         "the\nheuristic search (simulated annealing, " << sa_steps
      << " steps) on " << instances
      << " random\nTable-II instances, bounded by the exact DP optimum.\n"
         "(paper, 1000 instances: best +1.57%, worst -5.58%, average "
         "-0.83%)\n\n";

  const std::vector<IntervalQualitySample> samples = interval_quality_sweep(
      static_cast<std::size_t>(instances), sa_steps, seed);
  std::vector<double> gains, dp_gaps, sa_gaps;
  for (const IntervalQualitySample& s : samples) {
    gains.push_back(s.gain_vs_sa * 100.0);
    dp_gaps.push_back(s.gap_vs_dp * 100.0);
    sa_gaps.push_back(s.sa_gap_vs_dp * 100.0);
  }

  out << "Gain histogram (sigma+ vs. heuristic search) [%]:\n\n"
      << support::Histogram::from_data(gains, 16).render(40) << "\n";

  const auto g = support::summarize(gains);
  out << "  best gain   : " << support::Table::num(g.max, 2) << " %\n"
      << "  worst gain  : " << support::Table::num(g.min, 2) << " %\n"
      << "  average gain: " << support::Table::num(g.mean, 2) << " %\n\n";

  out << "Distance from the exact DP optimum (the bound the paper lacked):\n"
      << "  sigma+ gap to optimal : mean "
      << support::Table::num(support::mean(dp_gaps), 2) << " %, max "
      << support::Table::num(support::max_of(dp_gaps), 2) << " %\n"
      << "  SA gap to optimal     : mean "
      << support::Table::num(support::mean(sa_gaps), 2) << " %, max "
      << support::Table::num(support::max_of(sa_gaps), 2) << " %\n\n";

  const bool shape_ok = g.mean > -5.0 && g.mean < 2.0 && g.min > -25.0;
  out << "findings:\n"
      << (shape_ok
              ? "  shape reproduced: sigma+ tracks the heuristic search "
                "(a good analytic\n   stand-in for a numeric optimizer)\n"
              : "  SHAPE MISMATCH vs. the paper's Figure 2\n");
  return shape_ok ? 0 : 1;
}

int run_serve(const FlagMap& flags, std::ostream& out) {
  flags.require_known({"clients", "requests", "distinct", "serve-batch",
                       "cache-capacity", "cache-shards", "mode", "alpha-grid",
                       "seed"});
  const std::int64_t clients = flags.get_int("clients", 4);
  const std::int64_t requests = flags.get_int("requests", 64);
  const std::int64_t distinct = flags.get_int("distinct", 16);
  const std::int64_t serve_batch = flags.get_int("serve-batch", 32);
  const std::int64_t cache_capacity = flags.get_int("cache-capacity", 4096);
  const std::int64_t cache_shards = flags.get_int("cache-shards", 8);
  const std::string mode = flags.get_string("mode", "grid");
  const std::int64_t alpha_grid = flags.get_int("alpha-grid", 10);
  const std::uint64_t seed = flags.get_seed("seed", 11);
  ULBA_REQUIRE(clients >= 1 && clients <= 64, "--clients must be in [1, 64]");
  ULBA_REQUIRE(requests >= 1 && requests <= 100000,
               "--requests must be in [1, 100000]");
  ULBA_REQUIRE(distinct >= 1 && distinct <= 10000,
               "--distinct must be in [1, 10000]");
  ULBA_REQUIRE(serve_batch >= 1 && serve_batch <= 4096,
               "--serve-batch must be in [1, 4096]");
  ULBA_REQUIRE(cache_capacity >= 1, "--cache-capacity must be at least 1");
  ULBA_REQUIRE(cache_shards >= 1 && cache_shards <= 64,
               "--cache-shards must be in [1, 64]");
  ULBA_REQUIRE(mode == "grid" || mode == "dp",
               "--mode must be 'grid' (sigma+ sweep) or 'dp' (exact DP)");
  ULBA_REQUIRE(alpha_grid >= 1 && alpha_grid <= 1000,
               "--alpha-grid must be in [1, 1000]");

  ServeTrafficOptions options;
  options.clients = static_cast<int>(clients);
  options.requests_per_client = requests;
  options.distinct = distinct;
  options.batch_limit = serve_batch;
  options.cache_capacity = cache_capacity;
  options.cache_shards = cache_shards;
  options.mode =
      mode == "dp" ? core::EvalMode::kExactDp : core::EvalMode::kSigmaGrid;
  options.alpha_grid = alpha_grid;
  options.seed = seed;

  out << "Schedule service under deterministic multi-client traffic\n"
      << "(1 server rank + " << clients << " client rank(s); " << requests
      << " requests/client drawn from a pool of " << distinct
      << " Table-II\n instances; mode " << mode << ", alpha grid "
      << alpha_grid + 1 << " points; every response is checked\n "
      << "bit-for-bit against a cold evaluation of the same request)\n\n";

  const ServeTrafficResult result = serve_traffic(options);

  out << "server (rank 0, batch limit " << serve_batch << ", cache "
      << cache_capacity << " x " << cache_shards << " shards):\n"
      << "  requests      : " << result.metrics.requests << "\n"
      << "  cache hits    : " << result.metrics.cache_hits << "\n"
      << "  cache misses  : " << result.metrics.cache_misses << "\n"
      << "  hit rate      : "
      << support::Table::pct(result.metrics.hit_rate(), 1) << "\n"
      << "  evictions     : " << result.metrics.cache_evictions << "\n"
      << "  batches       : " << result.metrics.batches
      << " (max batch " << result.metrics.max_batch << ")\n"
      << "  traffic       : " << result.metrics.request_bytes << " B in / "
      << result.metrics.response_bytes << " B out\n\n";

  out << "clients:\n"
      << "  total requests    : " << result.total_requests << "\n"
      << "  distinct queried  : " << result.distinct_queried << "\n"
      << "  hit responses     : " << result.hit_responses << "\n"
      << "  throughput        : "
      << support::Table::num(result.requests_per_second, 0)
      << " req/s (wall " << support::Table::num(result.wall_seconds, 3)
      << " s)\n\n";

  // The determinism contract, stated as verdicts (wall numbers above are
  // real; these are the structurally-checked invariants).
  const bool counts_ok =
      result.metrics.requests == result.total_requests &&
      result.metrics.cache_hits + result.metrics.cache_misses ==
          result.metrics.requests;
  const bool misses_ok = cache_capacity >= distinct
                             ? result.metrics.cache_misses ==
                                   result.distinct_queried
                             : result.metrics.cache_misses >=
                                   result.distinct_queried;
  out << "verdicts:\n"
      << "  bit-identical responses : "
      << (result.ok() ? "PASS" : "FAIL") << " (" << result.mismatched_responses
      << " mismatched)\n"
      << "  request accounting      : " << (counts_ok ? "PASS" : "FAIL")
      << "\n"
      << "  miss = distinct         : " << (misses_ok ? "PASS" : "FAIL")
      << "\n";
  const bool ok = result.ok() && counts_ok && misses_ok;
  out << "\n" << (ok ? "service contract holds" : "SERVICE CONTRACT VIOLATED")
      << "\n";
  return ok ? 0 : 1;
}

}  // namespace ulba::cli
