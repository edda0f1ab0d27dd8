// Calibrated busy-work: the knob that turns modeled FLOP into real
// wall-clock time. The measured-time SPMD distributed mode burns through
// this one implementation, for the per-iteration stripe workload and the
// per-LB-step migration payload alike, so both share one "seconds per unit
// workload".
#pragma once

#include <chrono>
#include <cstdint>

namespace ulba::support {

/// Seconds elapsed since `t0` on the steady clock — the measurement
/// companion every burn-calibrated substrate times its phases with.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point t0) noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Upper bound on the loop trip count one burn() call will run. Chosen so
/// `steps` arithmetic can never overflow and a run can still be cancelled by
/// a test timeout long before the loop ends (~1 ns per step ⇒ ~36 years).
inline constexpr std::int64_t kMaxBurnSteps =
    std::int64_t{1} << 60;  // exactly representable as a double

/// The loop trip count burn() runs for `flop · ns_scale`: the product
/// rounded toward zero, clamped to [0, kMaxBurnSteps]. NaN maps to 0.
///
/// Deliberately std::int64_t, not `long`: on LLP64 targets (Windows) `long`
/// is 32 bits, so a cast of a large product would be undefined and in
/// practice truncated or negative — a burn that should take minutes would
/// finish instantly (or skip entirely).
[[nodiscard]] std::int64_t burn_steps(double flop, double ns_scale) noexcept;

/// Busy-burn `burn_steps(flop, ns_scale)` multiply-add loop steps (~1 ns
/// each on the calibration hardware).
void burn(double flop, double ns_scale) noexcept;

}  // namespace ulba::support
