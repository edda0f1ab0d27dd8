#include "core/detector.hpp"

#include <algorithm>

#include "support/require.hpp"
#include "support/stats.hpp"

namespace ulba::core {

OverloadDetector::OverloadDetector(double threshold) : threshold_(threshold) {
  ULBA_REQUIRE(threshold > 0.0, "z-score threshold must be positive");
}

bool OverloadDetector::is_overloading(double own_wir,
                                      std::span<const double> all) const {
  ULBA_REQUIRE(!all.empty(), "detector needs a non-empty WIR population");
  return support::z_score(own_wir, all) > threshold_;
}

std::int64_t OverloadDetector::count_overloading(
    std::span<const double> all) const {
  if (all.empty()) return 0;
  // support::z_score's arithmetic, with the spread and the mean taken once.
  const double sd = support::stddev_population(all);
  if (sd == 0.0) return 0;
  const double mu = support::mean(all);
  return std::count_if(all.begin(), all.end(), [&](double w) {
    return (w - mu) / sd > threshold_;
  });
}

}  // namespace ulba::core
