// α-β (latency/bandwidth) communication cost model.
//
// The paper ran on a cluster; we substitute a virtual-time machine.
// Message costs follow the classic postal model:
//
//     t(b bytes) = latency + b / bandwidth
//
// and tree-based collectives pay ⌈log₂ P⌉ rounds. The constants default to
// conservative commodity-cluster values (1 µs latency, 10 GB/s) and are knobs
// of every experiment binary, so LB cost vs. iteration cost can be placed in
// the paper's regime.
#pragma once

#include <cstdint>

namespace ulba::bsp {

struct CommModel {
  double latency_s = 1e-6;        ///< per-message latency α [seconds]
  double bandwidth_Bps = 10e9;    ///< bandwidth β⁻¹ [bytes/second]

  /// Point-to-point cost of one b-byte message.
  [[nodiscard]] double p2p(std::int64_t bytes) const;

  /// Binomial-tree broadcast of b bytes to P ranks.
  [[nodiscard]] double broadcast(std::int64_t bytes, std::int64_t p) const;

  /// Gather of one b-byte contribution from each of P ranks (root pays the
  /// serialized receive volume).
  [[nodiscard]] double gather(std::int64_t bytes_each, std::int64_t p) const;

  /// All-reduce of b bytes across P ranks (recursive doubling).
  [[nodiscard]] double allreduce(std::int64_t bytes, std::int64_t p) const;

  /// Data migration where the busiest PE sends/receives `max_bytes_on_a_pe`
  /// bytes — migrations proceed in parallel, the bottleneck PE dominates.
  [[nodiscard]] double migrate(std::int64_t max_bytes_on_a_pe) const;

  void validate() const;
};

/// ⌈log₂ p⌉ for p ≥ 1.
[[nodiscard]] std::int64_t ceil_log2(std::int64_t p);

}  // namespace ulba::bsp
