// Random application instances — Table II of the paper.
//
// Every model-level experiment (Figures 2 and 3) draws application instances
// from the distributions of Table II:
//
//   P        uniform over {256, 512, 1024, 2048}
//   N        P·v,               v ~ U(0.01, 0.2)
//   γ        100
//   Wtot(0)  U(52·10⁷·P, 1165·10⁷·P)          [52–1165 FLOP × 10⁷ cells/PE]
//   ΔW       (Wtot(0)/P)·x,     x ~ U(0.01, 0.3)
//   a        (ΔW/P)·(1−y),      y ~ U(0.8, 1.0)
//   m        (ΔW/N)·y
//   α        U(0, 1)
//   C        (Wtot(0)/P)·z,     z ~ U(0.1, 3.0)   [FLOP; seconds = /ω]
//
// ω is fixed to 1 GFLOPS as in the paper's simulations. Note the identity
// ΔW = a·P + m·N holds exactly by construction. The generator optionally pins
// P, the overloading fraction N/P, or α — Figure 3 sweeps those externally.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "core/params.hpp"
#include "support/rng.hpp"

namespace ulba::core {

/// The four PE counts Table II samples from.
inline constexpr std::array<std::int64_t, 4> kTableIIPeCounts = {256, 512,
                                                                 1024, 2048};

/// A sampled application instance: the model parameters plus the raw draws,
/// kept for the distribution-validation tests (test_instance).
struct Instance {
  ModelParams params;
  double v = 0.0;  ///< overloading fraction draw (N = P·v)
  double x = 0.0;  ///< ΔW draw (fraction of per-PE workload)
  double y = 0.0;  ///< growth split draw (m gets y, a gets 1−y)
  double z = 0.0;  ///< LB-cost draw (fraction of one iteration's work)
};

/// Configuration for the Table-II sampler. Unset optionals mean "draw from
/// the paper's distribution".
struct InstanceOptions {
  std::int64_t gamma = 100;
  double omega = 1e9;  ///< 1 GFLOPS, as in the paper's simulations
  std::optional<std::int64_t> pin_p;
  std::optional<double> pin_overloading_fraction;  ///< pins N = max(1,⌊P·f⌉)
  std::optional<double> pin_alpha;
};

/// Samples instances per Table II; deterministic for a given Rng stream.
class InstanceGenerator {
 public:
  explicit InstanceGenerator(InstanceOptions options = {});

  [[nodiscard]] const InstanceOptions& options() const noexcept {
    return options_;
  }

  /// Draw one instance. The returned params are already validated.
  [[nodiscard]] Instance sample(support::Rng& rng) const;

 private:
  InstanceOptions options_;
};

}  // namespace ulba::core
