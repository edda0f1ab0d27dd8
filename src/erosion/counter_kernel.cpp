#include "erosion/counter_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "support/counter_rng.hpp"
#include "support/require.hpp"

namespace ulba::erosion {

namespace {

/// Fluid faces a frontier cell presents to (lx, ly). "Each fluid cell
/// computes a probabilistic erosion of neighboring rock cells": a rock cell
/// takes one erosion trial per adjacent fluid face. A refined neighbour
/// consists of four finer cells, two of which border the rock cell, so it
/// counts two trials — the paper's "creating even more imbalance"
/// acceleration.
inline int fluid_faces(const DiscState& d, std::int64_t lx, std::int64_t ly) {
  switch (d.at(lx, ly)) {
    case Cell::kOutside:
      return 1;
    case Cell::kRefined:
      return 2;
    default:
      return 0;
  }
}

/// trials -> ceil((1-(1-p)^trials) * 2^53). `draw >> 11 < thresh[trials]`
/// decides exactly like `CounterRng::uniform01 < p_eff`: draw >> 11 is an
/// integer below 2^53, p_eff * 2^53 is an exact power-of-two rescale, and
/// x < ceil(y) == x < y for integer x. p_eff == 1 maps to 2^53 itself,
/// above every possible draw — certain erosion stays certain.
std::array<std::uint64_t, 9> threshold_table(double erosion_prob) {
  std::array<std::uint64_t, 9> thresh{};
  const double keep = 1.0 - erosion_prob;
  double pow_keep = 1.0;
  for (std::size_t t = 0; t < thresh.size(); ++t) {
    thresh[t] = static_cast<std::uint64_t>(
        std::ceil((1.0 - pow_keep) * 0x1p53));
    pow_keep *= keep;
  }
  return thresh;
}

/// The pre-step trial count of one frontier cell.
inline int cell_trials(const DiscState& d, std::int32_t idx) {
  const std::int64_t lx = idx % d.side;
  const std::int64_t ly = idx / d.side;
  return fluid_faces(d, lx - 1, ly) + fluid_faces(d, lx + 1, ly) +
         fluid_faces(d, lx, ly - 1) + fluid_faces(d, lx, ly + 1);
}

/// Decide flags for the flat positions [begin, end): locate the owning disc
/// via the offsets (amortized pointer walk — ranges are contiguous), look
/// the threshold up by trial count, and take the draw addressed by
/// (iteration, cell index). Writes only flags[begin..end), so concurrent
/// chunks never touch the same byte.
void decide_range(std::span<const DiscState> discs,
                  std::span<const std::size_t> disc_ids, std::uint64_t seed,
                  std::uint64_t iteration, const CounterWorkspace& ws,
                  std::span<std::uint8_t> flags, std::size_t begin,
                  std::size_t end) {
  if (begin >= end) return;
  // Last disc whose slice starts at or before `begin`; empty slices are
  // skipped by the advance below.
  std::size_t k = static_cast<std::size_t>(
                      std::distance(ws.offsets.begin(),
                                    std::upper_bound(ws.offsets.begin(),
                                                     ws.offsets.end(), begin))) -
                  1;
  const DiscState* d = &discs[k];
  support::CounterRng rng(seed, static_cast<std::uint64_t>(disc_ids[k]));
  for (std::size_t j = begin; j < end; ++j) {
    while (j >= ws.offsets[k + 1]) {
      ++k;
      d = &discs[k];
      rng = support::CounterRng(seed,
                                static_cast<std::uint64_t>(disc_ids[k]));
    }
    const std::int32_t idx = ws.cells[j];
    const int trials = cell_trials(*d, idx);
    const std::uint64_t draw =
        rng.draw(iteration, static_cast<std::uint64_t>(idx)) >> 11;
    if (draw < ws.thresh[k][static_cast<std::size_t>(trials)]) flags[j] = 1;
  }
}

}  // namespace

std::int64_t counter_decide_apply(std::span<DiscState> discs,
                                  std::span<const std::size_t> disc_ids,
                                  std::uint64_t seed, std::int64_t iteration,
                                  support::ThreadPool* pool,
                                  CounterWorkspace& ws) {
  const std::size_t n = discs.size();
  ULBA_REQUIRE(disc_ids.size() == n,
               "counter kernel needs one global id per disc");
  ULBA_REQUIRE(iteration >= 0, "iteration must be non-negative");
  const auto iter = static_cast<std::uint64_t>(iteration);

  ws.thresh.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    ws.thresh[k] = threshold_table(discs[k].erosion_prob);
  ws.erode.resize(n);

  std::size_t total = 0;
  for (const DiscState& d : discs) total += d.frontier.size();
  const std::size_t threads = pool ? pool->thread_count() : 1;

  // Serial path — no flatten/compact round-trip: decide straight off each
  // disc's frontier. The draws are position-addressed, so this produces
  // exactly the bits the chunked path below produces.
  if (threads <= 1 || total < 2048) {
    std::int64_t eroded = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const DiscState& d = discs[k];
      std::vector<std::int32_t>& out = ws.erode[k];
      out.clear();
      const support::CounterRng rng(seed,
                                    static_cast<std::uint64_t>(disc_ids[k]));
      const auto& thresh = ws.thresh[k];
      for (const std::int32_t idx : d.frontier) {
        const int trials = cell_trials(d, idx);
        const std::uint64_t draw =
            rng.draw(iter, static_cast<std::uint64_t>(idx)) >> 11;
        if (draw < thresh[static_cast<std::size_t>(trials)]) out.push_back(idx);
      }
      apply_disc(discs[k], out);
      eroded += static_cast<std::int64_t>(out.size());
    }
    return eroded;
  }

  // Phase A — flatten the pre-step frontiers into the SoA arrays. Serial,
  // O(frontier).
  ws.offsets.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k)
    ws.offsets[k + 1] = ws.offsets[k] + discs[k].frontier.size();
  ws.cells.resize(total);
  ws.flags.assign(total, 0);
  for (std::size_t k = 0; k < n; ++k)
    std::copy(discs[k].frontier.begin(), discs[k].frontier.end(),
              ws.cells.begin() + static_cast<std::ptrdiff_t>(ws.offsets[k]));

  // Phase B — batched Bernoulli decisions over the flat array, in a few
  // contiguous chunks per thread (coarse items — parallel_for claims one
  // index per lock). Flags are position-addressed, so any chunking produces
  // identical bits.
  const std::size_t chunks = std::min(total, threads * 4);
  pool->parallel_for(chunks, [&](std::size_t c) {
    decide_range(discs, disc_ids, seed, iter, ws, ws.flags,
                 c * total / chunks, (c + 1) * total / chunks);
  });

  // Phase C — compact each disc's flagged cells (frontier order, matching
  // the serial path) and apply. Discs are pairwise disjoint, so one task per
  // disc is race-free.
  pool->parallel_for(n, [&](std::size_t k) {
    std::vector<std::int32_t>& out = ws.erode[k];
    out.clear();
    for (std::size_t j = ws.offsets[k]; j < ws.offsets[k + 1]; ++j)
      if (ws.flags[j] != 0) out.push_back(ws.cells[j]);
    apply_disc(discs[k], out);
  });

  std::int64_t eroded = 0;
  for (const auto& e : ws.erode) eroded += static_cast<std::int64_t>(e.size());
  return eroded;
}

}  // namespace ulba::erosion
