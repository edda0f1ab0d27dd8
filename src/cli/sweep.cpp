#include "cli/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <chrono>

#include "core/gossip.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/schedule_query.hpp"
#include "erosion/domain.hpp"
#include "lb/partitioners.hpp"
#include "opt/annealing.hpp"
#include "opt/dp_optimal.hpp"
#include "opt/evaluate.hpp"
#include "runtime/spmd.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"

namespace ulba::cli {

erosion::AppConfig scaled_app_config(std::int64_t pe_count,
                                     std::int64_t strong_rocks,
                                     erosion::Method method,
                                     std::uint64_t seed) {
  erosion::AppConfig c;
  c.pe_count = pe_count;
  c.columns_per_pe = 256;
  c.rows = 384;
  c.rock_radius = 96;
  c.strong_rock_count = strong_rocks;
  // The paper runs 400 iterations at radius 250 — erosion stays active for
  // most of the run. Erosion lifetime scales with the rock radius, so the
  // scaled domain's horizon shrinks proportionally.
  c.iterations = 180;
  c.method = method;
  c.alpha = 0.4;  // the paper's Figure-4 value
  c.seed = seed;
  c.bytes_per_cell = 256.0;  // LBM-style cell state
  // Calibration: with these constants one LB step (α gather + partition +
  // boundary broadcast + migration) costs on the order of 0.3–3 iterations,
  // i.e. Table II's z ∈ [0.1, 3] regime — the regime the paper's cluster
  // experiments live in. A faster network makes LB nearly free, at which
  // point *any* reactive balancer wins by just rebalancing constantly; a
  // slower one makes migration (∝ drift since the last step) dominate and
  // punishes long intervals beyond anything the paper's constant-C model
  // describes.
  c.comm.latency_s = 1e-4;
  c.comm.bandwidth_Bps = 2e9;
  return c;
}

support::Table gossip_latency_table(std::span<const std::int64_t> pe_counts,
                                    std::span<const std::int64_t> fanouts,
                                    std::uint64_t trials,
                                    std::uint64_t seed) {
  ULBA_REQUIRE(trials >= 1, "need at least one latency trial");
  std::vector<std::string> headers{"P"};
  for (const std::int64_t fanout : fanouts)
    headers.push_back("fanout " + std::to_string(fanout));
  headers.emplace_back("~log2(P)");
  support::Table table(std::move(headers));
  for (const std::int64_t pe_count : pe_counts) {
    std::vector<std::string> row{std::to_string(pe_count)};
    for (const std::int64_t fanout : fanouts) {
      ULBA_REQUIRE(fanout >= 1 && fanout < pe_count,
                   "fanout must lie in [1, P)");
      std::vector<double> rounds;
      for (std::uint64_t trial = 0; trial < trials; ++trial) {
        core::GossipNetwork net(pe_count, fanout);
        for (std::int64_t pe = 0; pe < pe_count; ++pe)
          net.observe_local(pe, 1.0, 0);
        rounds.push_back(static_cast<double>(net.rounds_to_full_knowledge(
            support::Rng(seed).fork(trial))));
      }
      row.push_back(support::Table::num(support::median(rounds), 1));
    }
    row.push_back(
        support::Table::num(std::log2(static_cast<double>(pe_count)), 1));
    table.add_row(row);
  }
  return table;
}

ErosionAggregate erosion_median_over_seeds(
    erosion::AppConfig cfg, std::span<const std::uint64_t> seeds) {
  ULBA_REQUIRE(!seeds.empty(), "need at least one seed");
  const auto results = parallel_map(seeds.size(), [&](std::size_t i) {
    erosion::AppConfig c = cfg;
    c.seed = seeds[i];
    return erosion::ErosionApp(c).run();
  });
  std::vector<double> t, calls, util, first_lb;
  for (const erosion::RunResult& r : results) {
    t.push_back(r.total_seconds);
    calls.push_back(static_cast<double>(r.lb_count));
    util.push_back(r.average_utilization);
    first_lb.push_back(static_cast<double>(
        r.lb_iterations.empty() ? cfg.iterations : r.lb_iterations.front()));
  }
  ErosionAggregate agg;
  agg.median_seconds = support::median(t);
  agg.median_lb_calls = support::median(calls);
  agg.median_utilization = support::median(util);
  agg.median_first_lb = support::median(first_lb);
  return agg;
}

namespace {

/// The per-sample verdict of the Table-II sweep.
struct InstanceDraw {
  double gain = 0.0;
  double best_gain = 0.0;
  double best_alpha = 0.0;
};

/// The exact ScheduleRequest of family sample `i`: the same Table-II
/// instance draw the pre-API sweep made, with the candidate grid
/// {0, 1/alpha_grid, …, 1}. Serial and served sweeps both build requests
/// through here, which is what makes them bit-identical.
core::ScheduleRequest instance_alpha_request(std::int64_t pin_p,
                                             std::uint64_t family_seed,
                                             std::size_t sample_index,
                                             std::int64_t alpha_grid) {
  support::Rng rng = support::Rng(family_seed).fork(sample_index);
  core::InstanceOptions opts;
  opts.pin_p = pin_p;
  core::ScheduleRequest request;
  request.mode = core::EvalMode::kSigmaGrid;
  request.params = core::InstanceGenerator(opts).sample(rng).params;
  request.alpha_grid.reserve(static_cast<std::size_t>(alpha_grid) + 1);
  for (std::int64_t a = 0; a <= alpha_grid; ++a)
    request.alpha_grid.push_back(static_cast<double>(a) /
                                 static_cast<double>(alpha_grid));
  return request;
}

InstanceDraw draw_from_response(const core::ScheduleResponse& response) {
  InstanceDraw d;
  d.gain = (response.standard_seconds - response.alpha_seconds) /
           response.standard_seconds;
  d.best_gain = (response.standard_seconds - response.best_seconds) /
                response.standard_seconds;
  d.best_alpha = response.best_alpha;
  return d;
}

/// Reduce one family's per-sample draws (in sample order) to its stats row.
FamilyStats family_stats_from_draws(std::int64_t pin_p, std::int64_t samples,
                                    std::span<const InstanceDraw> draws) {
  FamilyStats stats;
  stats.pin_p = pin_p;
  stats.samples = samples;
  std::vector<double> gains, best_gains, best_alphas;
  for (const InstanceDraw& d : draws) {
    gains.push_back(d.gain);
    best_gains.push_back(d.best_gain);
    best_alphas.push_back(d.best_alpha);
    constexpr double kTol = 1e-12;
    if (d.gain > kTol)
      ++stats.wins;
    else if (d.gain < -kTol)
      ++stats.losses;
    else
      ++stats.ties;
  }
  stats.median_gain = support::median(gains);
  stats.mean_gain = support::mean(gains);
  stats.min_gain = support::min_of(gains);
  stats.max_gain = support::max_of(gains);
  stats.median_best_gain = support::median(best_gains);
  stats.mean_best_alpha = support::mean(best_alphas);
  return stats;
}

std::uint64_t family_seed_for(std::int64_t pin_p, std::uint64_t base_seed) {
  return support::Rng(base_seed)
      .fork(static_cast<std::uint64_t>(pin_p))
      .seed();
}

}  // namespace

FamilyStats instance_family_stats(std::int64_t pin_p, std::int64_t samples,
                                  std::uint64_t base_seed,
                                  std::int64_t alpha_grid) {
  ULBA_REQUIRE(samples >= 1, "need at least one sample per family");
  ULBA_REQUIRE(alpha_grid >= 1, "alpha grid needs at least one step");
  const std::uint64_t seed = family_seed_for(pin_p, base_seed);
  const auto draws = parallel_map(
      static_cast<std::size_t>(samples), [&](std::size_t i) {
        return draw_from_response(opt::evaluate_schedule_request(
            instance_alpha_request(pin_p, seed, i, alpha_grid)));
      });
  return family_stats_from_draws(pin_p, samples, draws);
}

ServedSweepResult instance_sweep_served(std::span<const std::int64_t> pin_ps,
                                        std::int64_t samples,
                                        std::uint64_t base_seed,
                                        std::int64_t alpha_grid, int ranks,
                                        const serve::ServeOptions& options) {
  ULBA_REQUIRE(!pin_ps.empty(), "need at least one family");
  ULBA_REQUIRE(samples >= 1, "need at least one sample per family");
  ULBA_REQUIRE(alpha_grid >= 1, "alpha grid needs at least one step");
  ULBA_REQUIRE(ranks >= 2,
               "the served sweep needs a server rank plus at least one "
               "client rank");
  // Draw triples travel on their own channel, after the service traffic.
  constexpr int kTagDraws = 910;

  ServedSweepResult result;
  result.families.resize(pin_ps.size());
  const int clients = ranks - 1;
  runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
    if (comm.rank() == options.server_rank) {
      result.metrics = serve::serve_loop(comm, options);
      comm.barrier();
      // Reassemble each family's draws into sample order: sample i lives at
      // position i / clients of client (i mod clients) + 1's flat vector.
      for (std::size_t f = 0; f < pin_ps.size(); ++f) {
        std::vector<std::vector<double>> flat(
            static_cast<std::size_t>(clients));
        for (int r = 1; r < ranks; ++r)
          flat[static_cast<std::size_t>(r - 1)] =
              comm.recv_vector<double>(r, kTagDraws);
        std::vector<InstanceDraw> draws(static_cast<std::size_t>(samples));
        for (std::int64_t i = 0; i < samples; ++i) {
          const auto owner = static_cast<std::size_t>(i % clients);
          const auto at = static_cast<std::size_t>(i / clients) * 3;
          ULBA_REQUIRE(flat[owner].size() >= at + 3,
                       "served sweep draw vector too short");
          draws[static_cast<std::size_t>(i)] = {flat[owner][at],
                                                flat[owner][at + 1],
                                                flat[owner][at + 2]};
        }
        result.families[f] =
            family_stats_from_draws(pin_ps[f], samples, draws);
      }
      return;
    }

    // Client rank r owns the interleaved sample indices r−1, r−1+clients, …
    // of every family. Submit the whole family before awaiting anything —
    // the pipelining that gives the server real batches to drain.
    serve::ScheduleClient client(comm, options.server_rank);
    std::vector<std::vector<double>> family_draws(pin_ps.size());
    for (std::size_t f = 0; f < pin_ps.size(); ++f) {
      const std::uint64_t seed = family_seed_for(pin_ps[f], base_seed);
      std::vector<std::uint64_t> ids;
      for (std::int64_t i = comm.rank() - 1; i < samples; i += clients)
        ids.push_back(client.submit(instance_alpha_request(
            pin_ps[f], seed, static_cast<std::size_t>(i), alpha_grid)));
      for (const std::uint64_t id : ids) {
        const InstanceDraw d = draw_from_response(client.await(id));
        family_draws[f].insert(family_draws[f].end(),
                               {d.gain, d.best_gain, d.best_alpha});
      }
    }
    client.finish();
    comm.barrier();
    for (const std::vector<double>& flat : family_draws)
      comm.send_span<double>(options.server_rank, kTagDraws, flat);
  });
  return result;
}

std::vector<PartitionerQualityRow> partitioner_quality_sweep(
    std::span<const std::string> names, std::int64_t pe_count,
    std::int64_t snapshots, std::int64_t iterations_between,
    std::uint64_t seed) {
  ULBA_REQUIRE(!names.empty(), "need at least one partitioner");
  ULBA_REQUIRE(snapshots >= 0 && iterations_between >= 1,
               "quality sweep needs a forward-moving sampling plan");
  // The same scaled geometry the end-to-end sweeps run, so cutting quality
  // is measured on exactly the profiles the CLI's erosion scenario produces.
  const erosion::AppConfig cfg =
      scaled_app_config(pe_count, 1, erosion::Method::kStandard, seed);
  erosion::ErosionDomain domain(erosion::ErosionApp(cfg).make_domain());
  const std::uint64_t dynamics_seed = support::Rng(seed).fork(1).seed();
  std::int64_t iteration = 0;

  const std::vector<double> targets(
      static_cast<std::size_t>(pe_count),
      1.0 / static_cast<double>(pe_count));
  std::vector<PartitionerQualityRow> rows;
  for (std::int64_t snapshot = 0; snapshot <= snapshots; ++snapshot) {
    PartitionerQualityRow row;
    row.iteration = snapshot * iterations_between;
    const auto w = domain.column_weights();
    for (const std::string& name : names) {
      const auto partitioner = lb::make_partitioner(name);
      row.ratios.push_back(
          lb::bottleneck_ratio(w, targets, partitioner->partition(w, targets)));
    }
    rows.push_back(std::move(row));
    if (snapshot < snapshots)
      for (std::int64_t it = 0; it < iterations_between; ++it)
        (void)domain.step_counter(dynamics_seed, iteration++);
  }
  return rows;
}

std::vector<PartitionerEndToEnd> partitioner_end_to_end(
    std::span<const std::string> names, std::int64_t pe_count,
    std::int64_t strong_rocks, std::span<const std::uint64_t> seeds) {
  ULBA_REQUIRE(!names.empty() && !seeds.empty(),
               "need at least one partitioner and one seed");
  struct Case {
    std::size_t name_idx;
    erosion::Method method;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  for (std::size_t ni = 0; ni < names.size(); ++ni)
    for (const auto m : {erosion::Method::kStandard, erosion::Method::kUlba})
      for (const std::uint64_t s : seeds) cases.push_back({ni, m, s});
  const auto results = parallel_map(cases.size(), [&](std::size_t i) {
    erosion::AppConfig cfg = scaled_app_config(pe_count, strong_rocks,
                                               cases[i].method, cases[i].seed);
    cfg.partitioner = names[cases[i].name_idx];
    return erosion::ErosionApp(cfg).run().total_seconds;
  });

  std::vector<PartitionerEndToEnd> rows;
  for (std::size_t ni = 0; ni < names.size(); ++ni) {
    std::vector<double> t_std, t_ulba;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].name_idx != ni) continue;
      (cases[i].method == erosion::Method::kStandard ? t_std : t_ulba)
          .push_back(results[i]);
    }
    rows.push_back({names[ni], support::median(t_std),
                    support::median(t_ulba)});
  }
  return rows;
}

std::vector<IntervalQualitySample> interval_quality_sweep(
    std::size_t instances, std::int64_t sa_steps, std::uint64_t seed) {
  ULBA_REQUIRE(instances >= 1, "need at least one instance");
  ULBA_REQUIRE(sa_steps >= 1, "need at least one annealing step");
  return parallel_map(instances, [&](std::size_t i) {
    support::Rng rng = support::Rng(seed).fork(i);
    const core::InstanceGenerator gen;
    const core::ModelParams p = gen.sample(rng).params;

    support::Rng sa_rng = rng.fork(1);
    const auto sa =
        opt::anneal_schedule(p, opt::CostModel::kUlba, sa_rng, sa_steps);
    const double t_sigma =
        core::evaluate_ulba(p, core::sigma_plus_schedule(p)).total_seconds;
    const auto dp = opt::optimal_schedule(p, opt::CostModel::kUlba);

    IntervalQualitySample s;
    s.gain_vs_sa = (sa.total_seconds - t_sigma) / sa.total_seconds;
    s.gap_vs_dp = t_sigma / dp.total_seconds - 1.0;
    s.sa_gap_vs_dp = sa.total_seconds / dp.total_seconds - 1.0;
    return s;
  });
}

namespace {

/// Full bit-equality of two RunResults' trajectory-facing fields — the
/// determinism verdict bench_distributed_erosion reports (the distributed
/// accounting fields are deliberately excluded: they are additional by
/// design).
bool run_results_bit_equal(const erosion::RunResult& a,
                           const erosion::RunResult& b) {
  if (a.total_seconds != b.total_seconds ||
      a.compute_seconds != b.compute_seconds ||
      a.lb_seconds != b.lb_seconds || a.lb_count != b.lb_count ||
      a.fallback_count != b.fallback_count ||
      a.average_utilization != b.average_utilization ||
      a.eroded_cells != b.eroded_cells ||
      a.final_imbalance != b.final_imbalance ||
      a.lb_iterations != b.lb_iterations ||
      a.iterations.size() != b.iterations.size())
    return false;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const erosion::IterationRecord& x = a.iterations[i];
    const erosion::IterationRecord& y = b.iterations[i];
    if (x.seconds != y.seconds || x.utilization != y.utilization ||
        x.lb_performed != y.lb_performed ||
        x.degradation != y.degradation || x.threshold != y.threshold)
      return false;
  }
  return true;
}

}  // namespace

std::vector<DistributedScalingRow> distributed_erosion_scaling(
    std::span<const std::int64_t> rank_counts,
    std::span<const std::string> partitioners,
    std::span<const std::string> exchanges, std::int64_t pe_count,
    std::int64_t strong_rocks, std::uint64_t seed, std::int64_t iterations) {
  ULBA_REQUIRE(!rank_counts.empty() && !partitioners.empty() &&
                   !exchanges.empty(),
               "scaling sweep needs rank counts, partitioners, and "
               "exchange modes");
  using Clock = std::chrono::steady_clock;
  std::vector<DistributedScalingRow> rows;
  for (const std::string& name : partitioners) {
    erosion::AppConfig cfg = scaled_app_config(
        pe_count, strong_rocks, erosion::Method::kUlba, seed);
    if (iterations > 0) cfg.iterations = iterations;
    cfg.partitioner = name;
    const erosion::RunResult reference = erosion::ErosionApp(cfg).run();
    for (const std::string& exchange : exchanges) {
      for (const std::int64_t ranks : rank_counts) {
        // The exchange mode is meaningless at one rank (the serial path);
        // run that reference cell once instead of once per mode.
        if (ranks == 1 && exchange != exchanges.front()) continue;
        erosion::AppConfig rcfg = cfg;
        rcfg.ranks = ranks;
        rcfg.exchange = exchange;
        const auto t0 = Clock::now();
        const erosion::RunResult run = erosion::ErosionApp(rcfg).run();
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();
        DistributedScalingRow row;
        row.ranks = ranks;
        row.partitioner = name;
        row.exchange = exchange;
        row.wall_seconds = wall;
        row.virtual_seconds = run.total_seconds;
        row.lb_count = run.lb_count;
        row.discs_moved = run.rank_discs_moved;
        row.observed_mb = run.rank_observed_bytes / 1e6;
        row.step_messages = run.rank_step_messages;
        row.matches_serial = run_results_bit_equal(run, reference) ? 1 : 0;
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

}  // namespace ulba::cli
