// The sweep layer: the seeded experiment sweeps that the `ulba_cli`
// scenario subcommands and the bench/ harness binaries share, so both drive
// one implementation — parallel_map, the scaled erosion configuration, the
// Table-II instance families (serial and served), the Figure-2
// interval-quality sweep and the distributed-erosion scaling sweep.
// bench_common.hpp only re-exports it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "erosion/app.hpp"
#include "serve/service.hpp"
#include "support/thread_pool.hpp"

namespace ulba::cli {

/// Run `fn(i)` for i in [0, n) across `pool`; returns the results in index
/// order (R must be default-constructible). Each unit of work must be
/// independent and seeded. Index claiming keeps imbalanced sweep cases
/// (e.g. random instances of varying size) packed tightly; exceptions thrown
/// by `fn` propagate to the caller (first one wins, the rest of the range is
/// abandoned).
template <typename Fn>
auto parallel_map(support::ThreadPool& pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  // vector<bool> packs bits: adjacent out[i] writes from different threads
  // would race on one word. Return std::uint8_t (or a struct) instead.
  static_assert(!std::is_same_v<R, bool>,
                "parallel_map cannot return bool (vector<bool> bit-packing "
                "races across threads)");
  std::vector<R> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Convenience overload on a transient pool: one thread per hardware core
/// (capped at n). The sweeps use this to fan out seeds / configurations.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  support::ThreadPool pool(
      std::min(std::max<std::size_t>(n, 1),
               support::ThreadPool::hardware_threads()));
  return parallel_map(pool, n, std::forward<Fn>(fn));
}

/// The scaled-down erosion configuration every Figure-4/5 sweep shares. The
/// geometry ratios (radius/rows = 1/4, one rock per stripe) match the
/// paper; the absolute scale is reduced so a full sweep runs in seconds, and
/// the α-β constants place the LB cost in Table II's C/iteration regime
/// (~0.1–3).
[[nodiscard]] erosion::AppConfig scaled_app_config(std::int64_t pe_count,
                                                   std::int64_t strong_rocks,
                                                   erosion::Method method,
                                                   std::uint64_t seed);

// ---------------------------------------------------------------------------
// Table-II instance-family sweep (ulba_cli instances, bench_table2_instances)
// ---------------------------------------------------------------------------

/// ULBA-vs-standard statistics over one Table-II family (a pinned PE count).
struct FamilyStats {
  std::int64_t pin_p = 0;
  std::int64_t samples = 0;
  std::int64_t wins = 0;    ///< ULBA strictly faster at the instance's drawn α
  std::int64_t losses = 0;  ///< strictly slower at the drawn α
  std::int64_t ties = 0;
  double median_gain = 0.0;       ///< at the drawn α, vs. standard [fraction]
  double mean_gain = 0.0;
  double min_gain = 0.0;
  double max_gain = 0.0;
  double median_best_gain = 0.0;  ///< at the best α of the grid (never < 0)
  double mean_best_alpha = 0.0;   ///< average arg-max α over the grid
};

/// Sample `samples` instances from the Table-II generator with P pinned to
/// `pin_p`, evaluate standard-vs-ULBA analytically (Menon τ schedule vs. the
/// σ⁺ schedule), both at the instance's drawn α and at the best α over an
/// `alpha_grid`-point grid. The family's stream is forked from `base_seed`
/// and `pin_p`, so one base seed spans all families identically wherever the
/// sweep is driven from. Deterministic for a given base seed.
[[nodiscard]] FamilyStats instance_family_stats(std::int64_t pin_p,
                                                std::int64_t samples,
                                                std::uint64_t base_seed,
                                                std::int64_t alpha_grid);

/// The Table-II sweep as the schedule service's first heavy client.
struct ServedSweepResult {
  std::vector<FamilyStats> families;  ///< parallel to the pin_ps argument
  serve::ServeMetrics metrics;        ///< the server rank's counters
};

/// Fan the instance sweep out over `ranks` SPMD ranks: rank 0 runs
/// serve::serve_loop, every other rank builds the same per-sample
/// ScheduleRequests the serial sweep evaluates and pipelines them to the
/// server (client r owns the interleaved sample indices r−1, r−1+(ranks−1),
/// … of every family — non-stripe work distribution). Draws are reassembled
/// into sample order before the reduction, so every FamilyStats field is
/// bit-identical to instance_family_stats for the same inputs. `ranks` ≥ 2.
[[nodiscard]] ServedSweepResult instance_sweep_served(
    std::span<const std::int64_t> pin_ps, std::int64_t samples,
    std::uint64_t base_seed, std::int64_t alpha_grid, int ranks,
    const serve::ServeOptions& options);

// ---------------------------------------------------------------------------
// Fig-2 interval-quality sweep (ulba_cli interval-quality,
// bench_fig2_interval_quality)
// ---------------------------------------------------------------------------

/// One Table-II instance's verdict on the σ⁺ intervals: gain over the
/// simulated-annealing search, and both methods' distance from the exact DP
/// optimum (all fractions; positive gain ⇒ σ⁺ beat the heuristic).
struct IntervalQualitySample {
  double gain_vs_sa = 0.0;    ///< (T_sa − T_σ⁺)/T_sa
  double gap_vs_dp = 0.0;     ///< T_σ⁺/T_dp − 1, ≥ 0 by optimality
  double sa_gap_vs_dp = 0.0;  ///< T_sa/T_dp − 1
};

/// Evaluate σ⁺ vs. an `sa_steps`-step annealing search vs. the exact DP on
/// `instances` random Table-II instances (streams forked from `seed`).
/// Deterministic; the unit behind the paper's Figure 2.
[[nodiscard]] std::vector<IntervalQualitySample> interval_quality_sweep(
    std::size_t instances, std::int64_t sa_steps, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Distributed-erosion scaling sweep (bench_distributed_erosion;
// `erosion --ranks` drives the same ErosionApp implementation)
// ---------------------------------------------------------------------------

/// One (rank count, exchange mode) cell of the distributed scaling sweep.
struct DistributedScalingRow {
  std::int64_t ranks = 0;
  std::string exchange;          ///< "alltoall" | "neighbor"
  double wall_seconds = 0.0;     ///< measured host wall clock of the run
  double virtual_seconds = 0.0;  ///< RunResult::total_seconds (rank-invariant)
  std::int64_t lb_count = 0;
  std::int64_t discs_moved = 0;  ///< rank-ownership migrations, all LB steps
  double observed_mb = 0.0;      ///< real migration payload on the wire [MB]
  /// Per-step exchange messages over the whole run, summed across ranks —
  /// the number the neighbor-vs-all-to-all comparison is about.
  std::int64_t step_messages = 0;
  /// 1 when every trajectory-facing RunResult field (times, LB schedule,
  /// per-iteration records) is bit-identical to the ranks = 1 reference —
  /// the determinism contract.
  std::uint8_t matches_serial = 0;
};

/// Run the scaled erosion app distributed over every rank count ×
/// exchange-mode combination and compare each RunResult bit-for-bit against
/// the in-process reference. Runs sequentially (each cell already spawns
/// `ranks` SPMD threads).
[[nodiscard]] std::vector<DistributedScalingRow> distributed_erosion_scaling(
    std::span<const std::int64_t> rank_counts,
    std::span<const std::string> exchanges, std::int64_t pe_count,
    std::int64_t strong_rocks, std::uint64_t seed, std::int64_t iterations);

}  // namespace ulba::cli
