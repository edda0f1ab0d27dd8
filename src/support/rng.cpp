#include "support/rng.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace ulba::support {

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  ULBA_REQUIRE(k <= n, "cannot sample more elements than the population");
  // Partial Fisher–Yates over the virtual pool 0, 1, …, n−1. Slot i < k
  // lives in out[i]; a slot j ≥ k holds j until a swap moves a value into
  // it, and `moved` keeps those (slot, value) pairs — at most min(k, n − k).
  std::vector<std::size_t> out(k);
  std::iota(out.begin(), out.end(), std::size_t{0});
  std::vector<std::pair<std::size_t, std::size_t>> moved;
  moved.reserve(std::min(k, n - k));
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    if (j < k) {
      std::swap(out[i], out[j]);
      continue;
    }
    const auto slot = std::find_if(moved.begin(), moved.end(),
                                   [j](const auto& m) { return m.first == j; });
    if (slot == moved.end()) {
      moved.emplace_back(j, out[i]);
      out[i] = j;
    } else {
      std::swap(out[i], slot->second);
    }
  }
  return out;
}

}  // namespace ulba::support
