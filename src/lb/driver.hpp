// The centralized LB step — Algorithm 2 end to end, with virtual-time costs.
//
// One call gathers the per-PE α values at the main PE, computes the
// Algorithm-2 weight targets, cuts new stripes against the current column
// weights, and accounts the step's cost under the α-β model:
//
//     C = gather(α's) + partition scan + broadcast(boundaries) + migration
//
// The same driver serves both methods: the standard method simply submits
// all-zero α's (even targets).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "bsp/comm_model.hpp"
#include "core/policy.hpp"
#include "lb/migration.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"

namespace ulba::lb {

struct LbCostBreakdown {
  double gather_seconds = 0.0;     ///< α collection at the main PE
  double partition_seconds = 0.0;  ///< weight scan on the main PE
  double broadcast_seconds = 0.0;  ///< boundary distribution
  double migration_seconds = 0.0;  ///< bottleneck-PE data movement
  double rebuild_seconds = 0.0;    ///< bottleneck-PE subdomain rebuild
  [[nodiscard]] double total() const noexcept {
    return gather_seconds + partition_seconds + broadcast_seconds +
           migration_seconds + rebuild_seconds;
  }
};

struct LbStepResult {
  StripeBoundaries boundaries;          ///< the new decomposition
  core::WeightAssignment assignment;    ///< Algorithm-2 targets used
  MigrationVolume migration;            ///< data volume of the move
  LbCostBreakdown cost;                 ///< virtual seconds, per phase
};

/// Default throughput at which a PE re-derives its local data structures
/// (unpack, mesh/neighbour-list reconstruction, halo setup) after a
/// repartitioning. This is the *fixed* part of an LB step's cost — it is
/// paid on the PE's whole new subdomain regardless of how far the
/// boundaries moved, and on real machines it is what keeps LB steps
/// expensive even over fast networks (cf. the paper's refs [3], [4] on how
/// hard LB cost is to predict).
inline constexpr double kDefaultRebuildBps = 2e9;

class CentralizedLb {
 public:
  /// `flops` is the main PE's speed (for the partition scan);
  /// `partition_flops_per_column` the modeled cost of scanning one column;
  /// `rebuild_Bps` the post-migration subdomain rebuild throughput.
  CentralizedLb(bsp::CommModel comm, double flops,
                double partition_flops_per_column = 8.0,
                double rebuild_Bps = kDefaultRebuildBps);

  /// Perform one LB step.
  ///   alphas         — per-PE α (all zero ⇒ standard method)
  ///   column_weights — current per-column workload [FLOP]
  ///   column_bytes   — current per-column data size [bytes]
  ///   current        — the decomposition in effect before this step
  [[nodiscard]] LbStepResult step(std::span<const double> alphas,
                                  std::span<const double> column_weights,
                                  std::span<const double> column_bytes,
                                  const StripeBoundaries& current) const;

  [[nodiscard]] const bsp::CommModel& comm() const noexcept { return comm_; }

  /// Share a partitioner with another driver (the paper's greedy scan
  /// either way).
  void set_partitioner(std::shared_ptr<const Partitioner> partitioner);

 private:
  bsp::CommModel comm_;
  double flops_;
  double partition_flops_per_column_;
  double rebuild_Bps_;
  std::shared_ptr<const Partitioner> partitioner_ =
      std::make_shared<const Partitioner>();
};

}  // namespace ulba::lb
