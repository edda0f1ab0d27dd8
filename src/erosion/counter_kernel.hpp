// The erosion step kernel — ONE per-disc pass shared by both domains
// (ErosionDomain and each rank of DistributedDomain), serial or pooled.
//
// Every Bernoulli draw is addressed by (disc, iteration, cell index) through
// support::CounterRng, so NOTHING in the step depends on evaluation order.
// A disc's step touches only that disc's state, and one pass does all of
// it: decide each pre-step frontier cell off the disc's own frontier
// (decisions are taken against the pre-step grid), compact the survivors in
// place, flip the eroded cells to refined and append the newly exposed
// rock. The decision is an integer compare: the per-disc trials -> threshold
// table ceil((1-(1-p)^trials) * 2^53) (trials <= 8) makes it
// `draw >> 11 < threshold`, with no pow() and no int -> double conversion
// per cell, while staying bit-equal to `uniform01(draw) < p_eff` (scaling
// by 2^53 is exact).
//
// The disc is the unit of parallel work: without a pool the passes run in a
// plain loop, with one each disc is one parallel_for task (the pool claims
// tasks dynamically, so a large disc does not hold up the others). The
// paper places one rock per PE, and at paper scale (32 PEs, radius 250) no
// disc ever holds more than about 3.4 % of the frontier, so discs pack
// evenly onto a handful of threads. Pool parallelism is capped at the
// number of discs a rank holds: a rank with fewer discs than threads leaves
// threads idle.
//
// The caller commits the per-column workload accounting afterwards from
// CounterWorkspace::erode. The commit is itself order-independent (every
// eroded cell credits the same constant to a column accumulator — the same
// property the distributed halo exchange relies on), so the whole step is
// bit-identical for every thread count and rank count by construction.
// Locked by test_counter_rng and the sweeps of test_distributed_erosion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "erosion/disc.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// Reusable per-disc buffers of counter_decide_apply — kept across steps so
/// the hot loop never allocates once the frontiers reach steady state.
struct CounterWorkspace {
  /// Per-disc eroded cells (frontier order), the caller's commit input.
  /// Entry k belongs to discs[k].
  std::vector<std::vector<std::int32_t>> erode;
};

/// One counter-addressed step of every disc in `discs` at `iteration`.
/// `disc_ids[k]` is the GLOBAL id of discs[k] — the RNG stream key — so a
/// rank stepping a subset produces exactly the draws the full-domain
/// stepper would. Pass pool == nullptr for a plain serial loop, or a pool
/// to run one task per disc; results are bit-identical either way. Returns
/// the number of cells eroded across `discs`; per-disc detail stays in
/// ws.erode.
std::int64_t counter_decide_apply(std::span<DiscState> discs,
                                  std::span<const std::size_t> disc_ids,
                                  std::uint64_t seed, std::int64_t iteration,
                                  support::ThreadPool* pool,
                                  CounterWorkspace& ws);

}  // namespace ulba::erosion
