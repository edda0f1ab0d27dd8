// Terminal sparklines: the erosion report draws each run's per-iteration
// utilization trace, and `intervals` its gain landscape, on one line
// without any plotting dependency.
#pragma once

#include <span>
#include <string>

namespace ulba::support {

/// Compact one-line sparkline of a series using block glyphs.
[[nodiscard]] std::string sparkline(std::span<const double> y);

}  // namespace ulba::support
