#include "core/wir_database.hpp"

#include <algorithm>
#include <bit>

#include "support/require.hpp"

namespace ulba::core {

namespace {

/// The PE count as a vector size, checked before any member allocates.
std::size_t checked_pe_count(std::int64_t pe_count) {
  ULBA_REQUIRE(pe_count >= 1, "database needs at least one PE");
  return static_cast<std::size_t>(pe_count);
}

}  // namespace

WirDatabase::WirDatabase(std::int64_t pe_count)
    : stamps_(checked_pe_count(pe_count), kUnknown),
      wirs_(stamps_.size(), 0.0) {}

void WirDatabase::update(std::int64_t pe, double wir, std::int64_t iteration) {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count(), "PE index out of range");
  ULBA_REQUIRE(iteration >= 0 && iteration < kStampLimit,
               "iteration stamp must lie in [0, 2^62)");
  const auto i = static_cast<std::size_t>(pe);
  if (iteration >= stamps_[i]) {
    wirs_[i] = wir;
    stamps_[i] = iteration;
  }
}

WirDatabase::Entry WirDatabase::entry(std::int64_t pe) const {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count(), "PE index out of range");
  const auto i = static_cast<std::size_t>(pe);
  return Entry{wirs_[i], stamps_[i]};
}

std::size_t WirDatabase::merge_from(const WirDatabase& other) {
  ULBA_REQUIRE(other.pe_count() == pe_count(),
               "databases must describe the same PE set");
  const std::size_t n = stamps_.size();
  std::int64_t* stamp = stamps_.data();
  double* wir = wirs_.data();
  const std::int64_t* their_stamp = other.stamps_.data();
  const double* their_wir = other.wirs_.data();
  std::uint64_t adopted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // All ones when theirs is strictly fresher (mine − theirs < 0), else
    // zero: a select without a branch, so the loop vectorizes.
    const auto take =
        static_cast<std::uint64_t>((stamp[i] - their_stamp[i]) >> 63);
    stamp[i] = static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(stamp[i]) & ~take) |
        (static_cast<std::uint64_t>(their_stamp[i]) & take));
    wir[i] = std::bit_cast<double>(
        (std::bit_cast<std::uint64_t>(wir[i]) & ~take) |
        (std::bit_cast<std::uint64_t>(their_wir[i]) & take));
    adopted += take & 1;
  }
  return static_cast<std::size_t>(adopted);
}

std::int64_t WirDatabase::unknown_count() const noexcept {
  return static_cast<std::int64_t>(
      std::count(stamps_.begin(), stamps_.end(), kUnknown));
}

std::int64_t WirDatabase::max_staleness(std::int64_t now) const noexcept {
  std::int64_t worst = 0;
  for (const std::int64_t stamp : stamps_) {
    const std::int64_t age = stamp != kUnknown ? now - stamp : now + 1;
    worst = std::max(worst, age);
  }
  return worst;
}

}  // namespace ulba::core
