// The repo's one stripe cutter: the paper's §IV-B greedy prefix scan
// (`partition_by_weight`) behind a small object, so the centralized LB step
// (CentralizedLb) and the rank stripes of the distributed stepper
// (erosion::DistributedDomain) share one cutting code path. The ULBA weight
// policy (Algorithm 2) produces per-PE *target fractions*; the scan realizes
// them over the weighted columns.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "lb/stripe_partitioner.hpp"

namespace ulba::lb {

/// The paper's greedy prefix-scan stripe technique (§IV-B).
class Partitioner {
 public:
  /// Cut `column_weights` into stripes approximating `target_fractions`
  /// (positive, summing to ≈1): non-empty ordered stripes, see
  /// partition_by_weight.
  [[nodiscard]] StripeBoundaries partition(
      std::span<const double> column_weights,
      std::span<const double> target_fractions) const {
    return partition_by_weight(column_weights, target_fractions);
  }
};

/// Factory by name: "greedy" is the only cutter. Throws
/// std::invalid_argument on anything else, naming the accepted one.
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(
    const std::string& name);

}  // namespace ulba::lb
