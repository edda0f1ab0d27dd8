// The sweep layer: the seeded experiment sweeps that the `ulba_cli`
// scenario subcommands and the claims suite (tests/test_claims.cpp) share,
// so both drive one implementation — parallel_map, the scaled erosion
// configuration, the Table-II instance families and the Figure-2
// interval-quality sweep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "erosion/app.hpp"
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

/// The scaled-down erosion configuration every Figure-4/5 claim shares, and
/// the one `ulba_cli erosion` starts from. The geometry ratios (radius/rows
/// = 1/4, one rock per stripe) match the paper; the absolute scale is
/// reduced so a full sweep runs in seconds, and the α-β constants place the
/// LB cost in Table II's C/iteration regime (~0.1–3).
[[nodiscard]] erosion::AppConfig scaled_app_config(std::int64_t pe_count,
                                                   std::int64_t strong_rocks,
                                                   erosion::Method method,
                                                   std::uint64_t seed);

// ---------------------------------------------------------------------------
// Table-II instance-family sweep (ulba_cli instances)
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

// ---------------------------------------------------------------------------
// Fig-2 interval-quality sweep (ulba_cli interval-quality, which the claims
// suite runs at the paper's 1000 instances)
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

}  // namespace ulba::cli
