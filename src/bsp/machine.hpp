// Bulk-synchronous virtual-time machine.
//
// The paper's application is bulk-synchronous: every iteration, all PEs
// compute their share and synchronize. On such an application the parallel
// time of an iteration is exactly max_p(w_p/ω) plus any synchronized
// communication — quantities this machine computes deterministically from
// modeled per-PE workloads, letting us "run" P = 32 … 2048 PEs on one node
// in place of the paper's Baobab cluster.
//
// The machine also tracks the paper's Figure-4b metric: average PE
// utilization, i.e. mean(w_p) / max(w_p) per iteration.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm_model.hpp"

namespace ulba::bsp {

/// Report of one superstep (= one application iteration).
struct StepReport {
  double seconds = 0.0;       ///< max compute + synchronized comm
  double utilization = 0.0;   ///< mean(compute) / max(compute), 1 = balanced
  std::int64_t slowest_pe = 0;
};

class Machine {
 public:
  Machine(std::int64_t pe_count, double flops_per_pe, CommModel comm = {});

  [[nodiscard]] std::int64_t pe_count() const noexcept { return pe_count_; }
  [[nodiscard]] double flops() const noexcept { return flops_; }
  [[nodiscard]] const CommModel& comm() const noexcept { return comm_; }

  /// Execute one bulk-synchronous iteration whose PE p performs
  /// `workloads[p]` FLOP, plus `sync_comm_seconds` of synchronized
  /// communication (e.g. the per-iteration gossip push).
  StepReport run_superstep(std::span<const double> workloads,
                           double sync_comm_seconds = 0.0);

  /// Charge a globally synchronizing special phase (an LB step: partition
  /// computation + broadcast + migration) of the given duration.
  void charge_global(double seconds);

  /// Virtual wall-clock since construction.
  [[nodiscard]] double elapsed_seconds() const noexcept { return elapsed_; }

  /// Σ over PEs of busy compute seconds (excludes waits and comm).
  [[nodiscard]] double busy_pe_seconds() const noexcept { return busy_; }

  /// Machine-wide average utilization: busy / (P · elapsed).
  [[nodiscard]] double average_utilization() const noexcept;

  [[nodiscard]] std::int64_t supersteps() const noexcept { return steps_; }

  void reset();

 private:
  std::int64_t pe_count_;
  double flops_;
  CommModel comm_;
  double elapsed_ = 0.0;
  double busy_ = 0.0;
  std::int64_t steps_ = 0;
};

}  // namespace ulba::bsp
