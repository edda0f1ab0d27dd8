#include "support/text_plot.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ulba::support {

std::string sparkline(std::span<const double> y) {
  static constexpr const char* kBlocks[] = {" ", ".", ":", "-", "=",
                                            "+", "*", "#", "@"};
  if (y.empty()) return {};
  double lo = y[0], hi = y[0];
  for (double v : y) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::ostringstream os;
  for (double v : y) {
    const double t = hi == lo ? 0.5 : (v - lo) / (hi - lo);
    os << kBlocks[static_cast<std::size_t>(std::lround(t * 8.0))];
  }
  return os.str();
}

}  // namespace ulba::support
