#include "core/detector.hpp"

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
  std::int64_t n = 0;
  for (double w : all)
    if (is_overloading(w, all)) ++n;
  return n;
}

}  // namespace ulba::core
