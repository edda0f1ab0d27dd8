#include "erosion/counter_kernel.hpp"

#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "support/counter_rng.hpp"
#include "support/require.hpp"

namespace ulba::erosion {

namespace {

/// Erosion trials one neighbour in the box presents to a frontier cell, by
/// its state. "Each fluid cell computes a probabilistic erosion of
/// neighboring rock cells": a rock cell takes one trial per adjacent fluid
/// face. A refined neighbour consists of four finer cells, two of which
/// border the rock cell, so it counts two trials — the paper's "creating
/// even more imbalance" acceleration. Rock (interior or frontier) counts
/// none; a neighbour outside the box is fluid.
constexpr std::array<std::uint8_t, 4> kFaceTrials{1, 0, 0, 2};

inline unsigned face_trials(const Cell* cells, std::int32_t idx) {
  return kFaceTrials[static_cast<std::size_t>(cells[idx])];
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

/// One disc's whole step. Pass 1 decides every pre-step frontier cell
/// against the untouched cell grid (only pass 2 writes it), appending the
/// eroding cells to `erode_out` and compacting the survivors to the front of
/// the frontier in order. Pass 2 flips each eroded cell to refined and
/// appends its newly exposed rock neighbours (left, right, up, down) — the
/// frontier ends as [survivors in frontier order] + [exposed in expose
/// order]. A neighbour lookup tests the box's left and right edges on
/// idx % side and its top and bottom on the index range [0, side²), so no
/// row index is computed; side² cells fit an int32 as the frontier entries
/// require (deserialize_disc bounds side by 46340).
void erode_disc(DiscState& d, const support::CounterRng& rng,
                std::uint64_t iteration, std::vector<std::int32_t>& erode_out) {
  // The pass works on local vectors, moved in and back once: pushing
  // through the vector headers, which sit next to other tasks' headers in
  // the disc array and the workspace, false-shares.
  std::vector<std::int32_t> frontier = std::move(d.frontier);
  std::vector<std::int32_t> erode = std::move(erode_out);
  erode.clear();
  const std::array<std::uint64_t, 9> thresh =
      threshold_table(d.erosion_prob);
  const auto side = static_cast<std::int32_t>(d.side);
  const auto count = static_cast<std::int32_t>(d.cells.size());
  Cell* const cells = d.cells.data();

  std::size_t kept = 0;
  for (const std::int32_t idx : frontier) {
    const std::int32_t lx = idx % side;
    const unsigned trials =
        (lx > 0 ? face_trials(cells, idx - 1) : 1u) +
        (lx < side - 1 ? face_trials(cells, idx + 1) : 1u) +
        (idx >= side ? face_trials(cells, idx - side) : 1u) +
        (idx < count - side ? face_trials(cells, idx + side) : 1u);
    const std::uint64_t draw =
        rng.draw(iteration, static_cast<std::uint64_t>(idx)) >> 11;
    if (draw < thresh[trials])
      erode.push_back(idx);
    else
      frontier[kept++] = idx;
  }
  frontier.resize(kept);

  const auto expose = [&](std::int32_t idx) {
    if (cells[idx] == Cell::kRockInterior) {
      cells[idx] = Cell::kRockFrontier;
      frontier.push_back(idx);
    }
  };
  for (const std::int32_t idx : erode) {
    cells[idx] = Cell::kRefined;
    const std::int32_t lx = idx % side;
    if (lx > 0) expose(idx - 1);
    if (lx < side - 1) expose(idx + 1);
    if (idx >= side) expose(idx - side);
    if (idx < count - side) expose(idx + side);
  }
  d.rock_remaining -= static_cast<std::int64_t>(erode.size());
  d.frontier = std::move(frontier);
  erode_out = std::move(erode);
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
  ws.erode.resize(n);

  // One task per disc: discs share no state.
  const auto pass = [&](std::size_t k) {
    erode_disc(discs[k],
               support::CounterRng(seed,
                                   static_cast<std::uint64_t>(disc_ids[k])),
               iter, ws.erode[k]);
  };
  if (pool != nullptr)
    pool->parallel_for(n, pass);
  else
    for (std::size_t k = 0; k < n; ++k) pass(k);

  std::int64_t eroded = 0;
  for (const auto& e : ws.erode) eroded += static_cast<std::int64_t>(e.size());
  return eroded;
}

}  // namespace ulba::erosion
