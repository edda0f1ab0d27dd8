// The erosion step kernel — ONE decide+apply pass shared by both steppers
// (the in-process ErosionDomain, serial or pooled, and the distributed
// DistributedDomain).
//
// Every Bernoulli draw is addressed by (disc, iteration, cell index) through
// support::CounterRng, so NOTHING in the step depends on evaluation order:
//
//   A. flatten — the per-disc pre-step frontiers are copied into one
//      contiguous SoA array (cell indices + per-disc offsets), and the
//      per-disc trials -> threshold table ceil((1-(1-p)^trials) * 2^53) is
//      precomputed once (trials <= 8): the per-cell decision collapses to
//      `draw >> 11 < threshold`, with no pow() and no int -> double
//      conversion per cell, while staying bit-equal to
//      `uniform01(draw) < p_eff` (scaling by 2^53 is exact);
//   B. decide — one batched pass over the flat array, chunked across the
//      ThreadPool (contiguous ranges, NOT per-cell tasks: parallel_for
//      claims indices under a mutex and is sized for coarse items). Each
//      cell's draw is CounterRng(seed, disc_id).draw(iteration, cell), so
//      any chunking yields identical flags;
//   C. apply — per-disc compaction of the flagged cells (in frontier
//      order) + apply_disc, one task per disc across the pool. Disc state
//      is disc-local, so discs are independent.
//
// Without a pool the flatten/compact round-trip is skipped entirely: the
// serial path decides straight off each disc's frontier into ws.erode —
// same position-addressed draws, same bits, half the memory traffic.
//
// The caller commits the per-column workload accounting afterwards from
// CounterWorkspace::erode. The commit is itself order-independent (every
// eroded cell credits the same constant to a column accumulator — the same
// property the distributed halo exchange relies on), so the whole step is
// bit-identical for every thread count and rank count by construction.
// Locked by test_counter_rng and the sweeps of test_distributed_erosion.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "erosion/disc.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// Reusable flat buffers of counter_decide_apply — kept across steps so the
/// hot loop never allocates once the frontiers reach steady state.
struct CounterWorkspace {
  std::vector<std::size_t> offsets;   ///< per-disc [start, end) into cells
  std::vector<std::int32_t> cells;    ///< flattened pre-step frontiers
  std::vector<std::uint8_t> flags;    ///< 1 = cell erodes; parallel to cells
  /// Per disc: trials -> ceil(p_eff * 2^53), the integer Bernoulli gate.
  std::vector<std::array<std::uint64_t, 9>> thresh;
  /// Per-disc eroded cells (frontier order), the caller's commit input.
  /// Entry k belongs to discs[k].
  std::vector<std::vector<std::int32_t>> erode;
};

/// One counter-addressed decide+apply pass over `discs` at `iteration`.
/// `disc_ids[k]` is the GLOBAL id of discs[k] — the RNG stream key — so a
/// rank stepping a subset produces exactly the draws the full-domain
/// stepper would. Pass pool == nullptr (or a pool of 1) for the inline
/// serial path; results are bit-identical either way. Returns the number of
/// cells eroded across `discs`; per-disc detail stays in ws.erode.
std::int64_t counter_decide_apply(std::span<DiscState> discs,
                                  std::span<const std::size_t> disc_ids,
                                  std::uint64_t seed, std::int64_t iteration,
                                  support::ThreadPool* pool,
                                  CounterWorkspace& ws);

}  // namespace ulba::erosion
