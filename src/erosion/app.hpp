// The full erosion application — paper §IV-B — tying every subsystem
// together on the virtual-time BSP machine:
//
//   erosion dynamics (this module)  → per-column workloads
//   stripe partitioner + Algorithm 2 (ulba::lb, ulba::core) → decomposition
//   WIR monitoring + gossip + z-score detector (ulba::core) → who overloads
//   Zhai-style degradation trigger (ulba::core)             → when to balance
//   α-β comm model (ulba::bsp)                              → LB cost
//
// Both methods of the paper's Figure 4 run through this one driver:
//   * Method::kStandard — the standard LB method with the adaptive trigger of
//     Zhai et al. (all-zero α: even targets);
//   * Method::kUlba     — ULBA with a user-defined α (overloading PEs are
//     underloaded per Algorithm 2).
//
// Both methods see bit-identical erosion dynamics for a given seed (the
// dynamics stream is independent of LB decisions), so time differences are
// attributable to load balancing alone. Every time in a RunResult is virtual
// BSP-machine time: the erosion layer reads no wall clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bsp/comm_model.hpp"
#include "erosion/domain.hpp"

namespace ulba::erosion {

enum class Method {
  kStandard,  ///< even redistribution (Zhai-adaptive trigger), α ≡ 0
  kUlba,      ///< anticipatory underloading with the configured α
};

/// When to invoke the load balancer (the ablation knob of E-X2; the paper
/// always uses the adaptive trigger).
enum class TriggerMode {
  kAdaptive,  ///< Zhai-style degradation accounting (Algorithm 1)
  kPeriodic,  ///< every `lb_period` iterations (the §II strawman)
  kNever,     ///< static decomposition: no LB at all
};

struct AppConfig {
  std::int64_t pe_count = 32;
  std::int64_t columns_per_pe = 1000;  ///< paper: 1000 (1 M cells/PE)
  std::int64_t rows = 1000;            ///< paper: 1000
  std::int64_t rock_radius = 250;      ///< paper: 250
  std::int64_t strong_rock_count = 1;  ///< paper sweeps 1–3
  double flop_per_cell = 52.0;         ///< [14]: 52–1165 FLOP per cell
  double bytes_per_cell = 64.0;
  std::int64_t iterations = 400;
  double flops = 1e9;  ///< PE speed ω
  Method method = Method::kStandard;
  double alpha = 0.4;  ///< paper's Figure-4 value
  double zscore_threshold = 3.0;
  std::int64_t gossip_fanout = 2;
  double wir_smoothing = 0.5;  ///< EMA factor on raw per-iteration WIR
  bsp::CommModel comm{};
  std::uint64_t seed = 1;
  /// Host threads stepping the erosion dynamics (per rank when ranks > 1).
  /// 1 = inline serial stepping; any value > 1 steps the discs (of each
  /// rank) on a thread pool, one task per disc, so no more threads than
  /// discs do work. The draws are addressed by (disc, iteration, cell), so
  /// the trajectory is bit-identical for every thread count.
  std::int64_t threads = 1;
  /// Add Eq. (11)'s anticipated underloading overhead to the trigger
  /// threshold (ULBA only) — §III-C: "the load balancer is called every time
  /// the degradation … overcomes the average LB cost plus the overhead of
  /// ULBA".
  bool anticipate_overhead_in_trigger = true;

  TriggerMode trigger_mode = TriggerMode::kAdaptive;
  std::int64_t lb_period = 50;  ///< used by TriggerMode::kPeriodic

  /// Cutting algorithm, by lb::make_partitioner name. "greedy" (the paper's
  /// §IV-B stripe technique) is the only one; it cuts both the centralized
  /// LB technique's stripes and — when `ranks` > 1 — the rank stripes of
  /// the distributed stepper.
  std::string partitioner = "greedy";

  /// SPMD ranks stepping the erosion dynamics through the message-passing
  /// runtime (erosion::DistributedDomain): each rank owns a contiguous
  /// column stripe plus the discs centered in it — no shared state — and
  /// halo deltas, frontier metadata, and LB-step migrations travel as real
  /// runtime::Mailbox messages. 1 = the in-process ErosionDomain. The
  /// trajectory and the final report are bit-identical to the in-process
  /// run for every (ranks, threads) combination; `threads` > 1 gives each
  /// rank its own stepping pool.
  std::int64_t ranks = 1;

  /// Per-step exchange protocol of the distributed stepper, by
  /// erosion::exchange_mode_from_name name. "neighbor" is the only one:
  /// halo deltas travel only to the ranks the partition cut makes halo
  /// neighbors, global counters via one reduction + broadcast. validate()
  /// rejects any other name.
  std::string exchange = "neighbor";

  void validate() const;

  /// Derived: domain width = pe_count · columns_per_pe.
  [[nodiscard]] std::int64_t columns() const noexcept {
    return pe_count * columns_per_pe;
  }
};

/// Per-iteration trace entry (Figure 4b's raw material).
struct IterationRecord {
  double seconds = 0.0;
  double utilization = 0.0;   ///< mean(load)/max(load) of this iteration
  bool lb_performed = false;  ///< an LB step followed this iteration
  double degradation = 0.0;   ///< trigger accumulator after this iteration
  /// The threshold the adaptive trigger compared `degradation` against this
  /// iteration: average LB cost, plus — for ULBA with
  /// `anticipate_overhead_in_trigger` — the Eq. (11) overhead at
  /// AppConfig::alpha for the overloading PEs the main PE's database shows.
  double threshold = 0.0;
};

struct RunResult {
  double total_seconds = 0.0;    ///< virtual wall clock incl. LB steps
  double compute_seconds = 0.0;  ///< Σ iteration times
  double lb_seconds = 0.0;       ///< Σ LB step costs
  std::int64_t lb_count = 0;
  std::int64_t fallback_count = 0;  ///< ULBA steps demoted by the ≥50 % rule
  double average_utilization = 0.0;  ///< machine-wide busy/(P·elapsed)
  std::int64_t eroded_cells = 0;
  double final_imbalance = 0.0;  ///< max/avg stripe load at the end
  std::vector<IterationRecord> iterations;
  std::vector<std::int64_t> lb_iterations;
  /// Distributed stepping only (ranks > 1): discs that changed rank across
  /// all rank-stripe recuts, the summed analytic migration volume of those
  /// recuts, and the real message payload bytes the migrations put on the
  /// wire (column weights + serialized disc states).
  std::int64_t rank_discs_moved = 0;
  double rank_migration_bytes = 0.0;
  double rank_observed_bytes = 0.0;
  /// Distributed stepping only: per-step exchange traffic summed over all
  /// ranks and iterations (halo + reduction/broadcast legs; see
  /// DistributedDomain for the per-step message count).
  std::int64_t rank_step_messages = 0;
  double rank_step_bytes = 0.0;
  /// Distributed stepping only: the HemoCell-style fractional load
  /// imbalance (max rank load − avg)/avg of the FINAL rank stripes, over
  /// per-rank sums of the local stripe weights. 0 when perfectly balanced.
  double rank_fractional_imbalance = 0.0;
};

class ErosionApp {
 public:
  explicit ErosionApp(AppConfig config);

  [[nodiscard]] const AppConfig& config() const noexcept { return config_; }

  /// Build the domain this config describes: pe_count discs of the given
  /// radius, centered in each initial stripe, `strong_rock_count` of them
  /// strongly erodible (chosen by the placement stream of `seed`). Erosion
  /// probabilities are the paper's: 0.4 for a strong disc, 0.02 otherwise.
  [[nodiscard]] DomainConfig make_domain() const;

  /// Execute the full run. Deterministic for a given config.
  [[nodiscard]] RunResult run() const;

 private:
  AppConfig config_;
};

}  // namespace ulba::erosion
