#include "erosion/domain.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/require.hpp"

namespace ulba::erosion {

void DomainConfig::validate() const {
  ULBA_REQUIRE(columns >= 1 && rows >= 1, "domain must be non-empty");
  ULBA_REQUIRE(flop_per_cell > 0.0, "cell cost must be positive");
  ULBA_REQUIRE(bytes_per_cell > 0.0, "cell size must be positive");
  ULBA_REQUIRE(refinement_factor >= 1.0,
               "refinement must not shrink workload");
  for (const RockDisc& d : discs) {
    ULBA_REQUIRE(d.radius >= 1, "disc radius must be at least one cell");
    ULBA_REQUIRE(d.erosion_prob >= 0.0 && d.erosion_prob <= 1.0,
                 "erosion probability out of [0, 1]");
    // Discs must sit strictly inside the domain (with a one-cell fluid
    // margin) so frontier logic never has to consider domain borders.
    ULBA_REQUIRE(d.cx - d.radius >= 1 && d.cx + d.radius < columns - 1 &&
                     d.cy - d.radius >= 1 && d.cy + d.radius < rows - 1,
                 "disc must lie strictly inside the domain");
  }
  // Pairwise disjoint with a one-cell margin, so discs never share frontiers.
  for (std::size_t i = 0; i < discs.size(); ++i) {
    for (std::size_t j = i + 1; j < discs.size(); ++j) {
      const double dx = static_cast<double>(discs[i].cx - discs[j].cx);
      const double dy = static_cast<double>(discs[i].cy - discs[j].cy);
      const double dist = std::hypot(dx, dy);
      ULBA_REQUIRE(dist >= static_cast<double>(discs[i].radius +
                                               discs[j].radius + 2),
                   "discs must not touch each other");
    }
  }
}

std::vector<double> initial_column_weights(const DomainConfig& config) {
  std::vector<double> weights(
      static_cast<std::size_t>(config.columns),
      config.flop_per_cell * static_cast<double>(config.rows));
  // One subtraction per rock cell, row span by row span, rather than one
  // product per column: for a fractional cell cost the two round
  // differently, and recorded runs hold the per-cell result.
  for (const RockDisc& disc : config.discs)
    for (std::int64_t dy = -disc.radius; dy <= disc.radius; ++dy) {
      const std::int64_t h = disc_half_width(disc.radius, dy);
      for (std::int64_t x = disc.cx - h; x <= disc.cx + h; ++x)
        weights[static_cast<std::size_t>(x)] -= config.flop_per_cell;
    }
  return weights;
}

ErosionDomain::ErosionDomain(DomainConfig config) : config_(std::move(config)) {
  config_.validate();
  weights_ = initial_column_weights(config_);
  discs_.reserve(config_.discs.size());
  for (const RockDisc& d : config_.discs) {
    discs_.push_back(build_disc_state(d));
    rock_remaining_ += discs_.back().rock_remaining;
  }
  for (double w : weights_) total_ += w;
}

std::int64_t ErosionDomain::step_counter(std::uint64_t seed,
                                         std::int64_t iteration,
                                         support::ThreadPool* pool) {
  if (counter_ids_.size() != discs_.size()) {
    counter_ids_.resize(discs_.size());
    std::iota(counter_ids_.begin(), counter_ids_.end(), std::size_t{0});
  }
  (void)counter_decide_apply(discs_, counter_ids_, seed, iteration, pool,
                             counter_ws_);
  // The commit is order-independent (each eroded cell adds the same
  // constant to a column accumulator), so the disc-order loop below is a
  // convention, not a serialization requirement — see counter_kernel.hpp.
  std::int64_t eroded = 0;
  for (std::size_t i = 0; i < discs_.size(); ++i)
    eroded += commit_disc(discs_[i], counter_ws_.erode[i]);
  eroded_ += eroded;
  return eroded;
}

std::int64_t ErosionDomain::commit_disc(
    const DiscState& d, const std::vector<std::int32_t>& to_erode) {
  const double gained = config_.refinement_factor * config_.flop_per_cell;
  for (const std::int32_t idx : to_erode) {
    const std::int64_t lx = idx % d.side;
    weights_[static_cast<std::size_t>(d.x0 + lx)] += gained;
    total_ += gained;
    --rock_remaining_;
  }
  return static_cast<std::int64_t>(to_erode.size());
}

std::vector<double> ErosionDomain::column_bytes() const {
  // Data volume is proportional to workload: both count
  // (plain fluid + refinement_factor · refined) cells.
  const double scale = config_.bytes_per_cell / config_.flop_per_cell;
  std::vector<double> bytes(weights_.size());
  for (std::size_t x = 0; x < weights_.size(); ++x)
    bytes[x] = weights_[x] * scale;
  return bytes;
}

std::int64_t ErosionDomain::frontier_size() const noexcept {
  std::int64_t n = 0;
  for (const DiscState& d : discs_)
    n += static_cast<std::int64_t>(d.frontier.size());
  return n;
}

std::int64_t ErosionDomain::disc_rock_remaining(std::size_t disc) const {
  ULBA_REQUIRE(disc < discs_.size(), "disc index out of range");
  return discs_[disc].rock_remaining;
}

}  // namespace ulba::erosion
