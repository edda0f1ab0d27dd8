#include "erosion/disc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "erosion/domain.hpp"
#include "support/require.hpp"

namespace ulba::erosion {

std::pair<std::int64_t, std::int64_t> disc_column_span(const RockDisc& disc) {
  return {disc.cx - disc.radius, disc.cx + disc.radius + 1};
}

std::int64_t disc_half_width(std::int64_t radius, std::int64_t d) {
  ULBA_REQUIRE(d >= -radius && d <= radius,
               "offset must lie within the disc radius");
  const std::int64_t span2 = radius * radius - d * d;
  // The double square root can land one off the integer floor for large
  // arguments; settle on the exact floor.
  auto h = static_cast<std::int64_t>(std::sqrt(static_cast<double>(span2)));
  while (h * h > span2) --h;
  while ((h + 1) * (h + 1) <= span2) ++h;
  return h;
}

DiscState build_disc_state(const RockDisc& disc) {
  DiscState d;
  d.side = 2 * disc.radius + 1;
  d.x0 = disc.cx - disc.radius;
  d.y0 = disc.cy - disc.radius;
  d.erosion_prob = disc.erosion_prob;
  d.cells.assign(static_cast<std::size_t>(d.side * d.side), Cell::kOutside);

  for (std::int64_t ly = 0; ly < d.side; ++ly) {
    const std::int64_t h = disc_half_width(disc.radius, ly - disc.radius);
    const auto center = d.cells.begin() + ly * d.side + disc.radius;
    std::fill(center - h, center + h + 1, Cell::kRockInterior);
    d.rock_remaining += 2 * h + 1;
  }

  // Promote boundary rock (any non-rock 4-neighbour) to frontier.
  for (std::int64_t ly = 0; ly < d.side; ++ly) {
    for (std::int64_t lx = 0; lx < d.side; ++lx) {
      const auto idx = static_cast<std::size_t>(ly * d.side + lx);
      if (d.cells[idx] != Cell::kRockInterior) continue;
      const bool touches_fluid =
          d.at(lx - 1, ly) == Cell::kOutside ||
          d.at(lx + 1, ly) == Cell::kOutside ||
          d.at(lx, ly - 1) == Cell::kOutside ||
          d.at(lx, ly + 1) == Cell::kOutside;
      if (touches_fluid) {
        d.cells[idx] = Cell::kRockFrontier;
        d.frontier.push_back(static_cast<std::int32_t>(idx));
      }
    }
  }
  return d;
}

namespace {

// Wire layout: 1 × int64 format version + 6 × int64 header {disc_id, x0,
// y0, side, rock_remaining, frontier_count} + 1 × double erosion_prob +
// side² cell bytes + frontier_count × int32. Everything little-endian host
// order — the runtime's ranks share one machine (BitwisePortable
// discipline). The version leads so a stale peer fails loudly on the very
// first read instead of misparsing the header.
constexpr std::int64_t kDiscFormatVersion = 1;
constexpr std::size_t kHeaderInts = 7;
/// Largest box side whose side² cells are all addressable by the int32
/// frontier entries.
constexpr std::int64_t kMaxSide = 46340;
static_assert(kMaxSide * kMaxSide - 1 <=
              std::numeric_limits<std::int32_t>::max());

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t size) {
  if (size == 0) return;  // memcpy's source is declared nonnull
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

template <typename T>
void append_raw(std::vector<std::byte>& out, const T& value) {
  append_bytes(out, &value, sizeof(T));
}

template <typename T>
T read_raw(std::span<const std::byte>& in) {
  ULBA_REQUIRE(in.size() >= sizeof(T), "disc payload truncated");
  T value;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}

}  // namespace

std::vector<std::byte> serialize_disc(std::size_t disc_id,
                                      const DiscState& d) {
  std::vector<std::byte> out;
  out.reserve(kHeaderInts * sizeof(std::int64_t) + sizeof(double) +
              d.cells.size() + d.frontier.size() * sizeof(std::int32_t));
  append_raw(out, kDiscFormatVersion);
  append_raw(out, static_cast<std::int64_t>(disc_id));
  append_raw(out, d.x0);
  append_raw(out, d.y0);
  append_raw(out, d.side);
  append_raw(out, d.rock_remaining);
  append_raw(out, static_cast<std::int64_t>(d.frontier.size()));
  append_raw(out, d.erosion_prob);
  append_bytes(out, d.cells.data(), d.cells.size());
  append_bytes(out, d.frontier.data(),
               d.frontier.size() * sizeof(std::int32_t));
  return out;
}

DiscState deserialize_disc(std::span<const std::byte> payload,
                           std::size_t expected_disc_id) {
  const auto version = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(version == kDiscFormatVersion,
               "unsupported disc payload format version");
  const auto disc_id = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(disc_id == static_cast<std::int64_t>(expected_disc_id),
               "disc hand-off id does not match the expected disc");
  DiscState d;
  d.x0 = read_raw<std::int64_t>(payload);
  d.y0 = read_raw<std::int64_t>(payload);
  d.side = read_raw<std::int64_t>(payload);
  d.rock_remaining = read_raw<std::int64_t>(payload);
  const auto frontier_count = read_raw<std::int64_t>(payload);
  d.erosion_prob = read_raw<double>(payload);
  // Bounds first, arithmetic after: side ≤ kMaxSide keeps side² exact and
  // every cell index an int32, and frontier_count ≤ side² keeps the byte
  // count below from wrapping.
  ULBA_REQUIRE(d.side >= 1 && d.side <= kMaxSide, "malformed disc header");
  const std::int64_t cell_count = d.side * d.side;
  ULBA_REQUIRE(frontier_count >= 0 && frontier_count <= cell_count,
               "malformed disc header");
  ULBA_REQUIRE(payload.size() ==
                   static_cast<std::size_t>(cell_count) +
                       static_cast<std::size_t>(frontier_count) *
                           sizeof(std::int32_t),
               "disc payload size does not match its header");
  d.cells.resize(static_cast<std::size_t>(cell_count));
  std::memcpy(d.cells.data(), payload.data(), d.cells.size());
  payload = payload.subspan(d.cells.size());
  std::int64_t rock_cells = 0;
  std::int64_t frontier_cells = 0;
  for (const Cell c : d.cells) {
    ULBA_REQUIRE(c <= Cell::kRefined,
                 "disc payload holds an unknown cell state");
    if (c == Cell::kRockInterior) ++rock_cells;
    if (c == Cell::kRockFrontier) {
      ++rock_cells;
      ++frontier_cells;
    }
  }
  ULBA_REQUIRE(d.rock_remaining == rock_cells,
               "disc payload rock count does not match its cells");
  ULBA_REQUIRE(frontier_count == frontier_cells,
               "disc payload frontier size does not match its frontier cells");
  d.frontier.resize(static_cast<std::size_t>(frontier_count));
  // A fully eroded disc migrates with an empty frontier: both memcpy
  // pointers would be null there, and both are declared nonnull.
  if (!d.frontier.empty())
    std::memcpy(d.frontier.data(), payload.data(),
                d.frontier.size() * sizeof(std::int32_t));
  // The stepping kernel indexes cells by frontier entry unchecked, and
  // erodes a cell listed twice twice. Each entry must name a frontier cell
  // no earlier entry named — entries already seen are parked as interior
  // rock, then restored — so with the count above the frontier lists every
  // frontier cell exactly once.
  for (const std::int32_t idx : d.frontier) {
    ULBA_REQUIRE(idx >= 0 && idx < cell_count &&
                     d.cells[static_cast<std::size_t>(idx)] ==
                         Cell::kRockFrontier,
                 "disc payload frontier entry is not a frontier cell, or "
                 "is listed twice");
    d.cells[static_cast<std::size_t>(idx)] = Cell::kRockInterior;
  }
  for (const std::int32_t idx : d.frontier)
    d.cells[static_cast<std::size_t>(idx)] = Cell::kRockFrontier;
  return d;
}

}  // namespace ulba::erosion
