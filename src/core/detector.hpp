// The z-score overload detector — paper §III-C.
//
// "A PE is considered overloading if the z-score of its WIR in the
//  distribution of the WIR created from the database exceeds 3.0."
#pragma once

#include <cstdint>
#include <span>

namespace ulba::core {

class OverloadDetector {
 public:
  /// `threshold` is the z-score above which a PE counts as overloading; the
  /// paper uses 3.0.
  explicit OverloadDetector(double threshold = 3.0);

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  /// Is a PE with WIR `own_wir` overloading within the WIR population `all`?
  /// A degenerate population (zero spread) never flags anybody.
  [[nodiscard]] bool is_overloading(double own_wir,
                                    std::span<const double> all) const;

  /// Number of overloading PEs in the population — the runtime estimate of
  /// the model's N; 0 for an empty population. Exactly the PEs
  /// `is_overloading` flags, found in one pass after one mean and one σ.
  [[nodiscard]] std::int64_t count_overloading(
      std::span<const double> all) const;

 private:
  double threshold_;
};

}  // namespace ulba::core
