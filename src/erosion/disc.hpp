// Disc-local erosion state, shared by both domains — ErosionDomain and the
// per-rank DistributedDomain — which step it through ONE kernel
// (erosion/counter_kernel.hpp):
//
//   * disc_half_width   — the rock rule: which cells of a disc are rock;
//   * build_disc_state  — rasterize a RockDisc into its bounding-box cell
//                         grid and initial frontier;
//   * serialize_disc /  — byte-exact migration format, so a disc can change
//     deserialize_disc    owner as one real message between address spaces.
//
// A disc's state is fully self-contained (discs are pairwise disjoint by
// DomainConfig::validate), which is what makes ownership migration a plain
// state transfer: no neighbour stitching is ever needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ulba::erosion {

struct RockDisc;

/// Cell states of one disc's bounding-box grid.
enum class Cell : std::uint8_t {
  kOutside = 0,       ///< inside the bounding box but not rock (fluid)
  kRockInterior = 1,  ///< rock with no fluid contact yet
  kRockFrontier = 2,  ///< rock touching fluid — erodible this step
  kRefined = 3,       ///< eroded: refinement_factor finer fluid cells
};

/// The materialized state of one rock disc: its bounding-box cell grid plus
/// the compacted frontier list.
struct DiscState {
  std::int64_t x0 = 0, y0 = 0;  ///< bounding-box origin in the domain
  std::int64_t side = 0;        ///< box is side × side
  double erosion_prob = 0.0;
  std::vector<Cell> cells;             ///< box cell states
  std::vector<std::int32_t> frontier;  ///< indices of kRockFrontier cells
  std::int64_t rock_remaining = 0;

  [[nodiscard]] Cell at(std::int64_t lx, std::int64_t ly) const {
    if (lx < 0 || ly < 0 || lx >= side || ly >= side) return Cell::kOutside;
    return cells[static_cast<std::size_t>(ly * side + lx)];
  }
};

/// The rock rule of a disc of radius `radius`: the cells within the
/// Euclidean radius are rock, so at offset `d` from the center along one
/// axis (|d| ≤ radius) rock spans offsets −h … h along the other, with
/// h = ⌊√(radius² − d²)⌋, returned here. Every rock count in this module
/// derives from it.
[[nodiscard]] std::int64_t disc_half_width(std::int64_t radius,
                                           std::int64_t d);

/// Rasterize `disc` (rock by disc_half_width, row by row; boundary rock with
/// any non-rock 4-neighbour starts on the frontier).
[[nodiscard]] DiscState build_disc_state(const RockDisc& disc);

/// Half-open column interval [first, last) of the disc's bounding box — the
/// only columns its erosion can ever credit. Derivable from the RockDisc
/// alone (no materialized state), matching build_disc_state's box exactly;
/// this is what lets every rank compute halo-neighbor sets from replicated
/// metadata without holding remote DiscStates.
[[nodiscard]] std::pair<std::int64_t, std::int64_t> disc_column_span(
    const RockDisc& disc);

/// Byte-exact wire format for migrating disc ownership between ranks.
/// `disc_id` travels with the state so the receiver can verify it got the
/// hand-off it expected.
[[nodiscard]] std::vector<std::byte> serialize_disc(std::size_t disc_id,
                                                    const DiscState& d);

/// Inverse of serialize_disc; throws std::invalid_argument on a malformed
/// payload, on an inconsistent disc (the frontier must list every
/// kRockFrontier cell exactly once and rock_remaining must count the rock
/// cells), or when the embedded disc id differs from `expected_disc_id`.
[[nodiscard]] DiscState deserialize_disc(std::span<const std::byte> payload,
                                         std::size_t expected_disc_id);

}  // namespace ulba::erosion
