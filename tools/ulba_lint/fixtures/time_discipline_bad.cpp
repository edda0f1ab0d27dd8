// Fixture: time-discipline must fire on wall-clock reads outside the
// serve-metrics modules. NOT part of the build — parsed by ulba_lint
// only.
#include <chrono>

namespace fixture {

double virtual_time_step(double model_seconds) {
  // A virtual-time path peeking at the wall clock: exactly the leak the
  // rule exists to catch.
  const auto t0 = std::chrono::steady_clock::now();   // finding
  (void)t0;
  const auto wall = std::chrono::system_clock::now(); // finding
  (void)wall;
  return model_seconds;
}

// Mentions in comments or strings must not fire: steady_clock.

}  // namespace fixture
