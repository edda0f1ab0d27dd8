// Distributed erosion domain — the erosion workload over the SPMD
// message-passing runtime, one instance per runtime::Comm rank. ErosionApp
// steps every run through it, a one-rank run included.
//
// Where ErosionDomain holds the whole domain, DistributedDomain shares no
// state at all: each rank holds exactly the column weights of its
// contiguous stripe plus the materialized DiscStates of the discs whose
// centers fall in that stripe. Everything that crosses a stripe boundary is
// a real runtime::Mailbox message:
//
//   * per step, each rank sends its halo neighbors — the owners of any
//     column a local disc's bounding box covers — the (column,
//     eroded-cell-count) deltas that land in their stripes, one message per
//     neighbor; its eroded total and the updated frontier sizes of its own
//     discs (the replicated frontier_size() observer) converge on rank 0,
//     which broadcasts the global count and the full frontier vector back.
//     A step therefore sends Σ_r |halo_send_neighbors(r)| + 2·(R − 1)
//     messages over R ranks;
//   * per rebalance, the stripes are recut by the paper's greedy scan
//     (lb::Partitioner) and both column weights and whole DiscStates change
//     owner as serialized messages, with the analytic lb::migration_volume
//     prediction validated against the columns that were actually exchanged.
//
// Determinism contract (locked by tests/test_distributed_erosion): for
// EVERY (rank count, stripe cut, per-rank thread count) the trajectory and
// the final domain report are BIT-identical to ErosionDomain::step_counter
// on an undistributed copy. Two properties make this hold by construction:
// every draw is addressed by (global disc id, iteration, cell), so no RNG
// state exists to position or communicate; and every eroded cell credits
// the same constant to its column, so halo arrival order cannot perturb the
// floating-point weights.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "erosion/counter_kernel.hpp"
#include "erosion/disc.hpp"
#include "erosion/domain.hpp"
#include "lb/migration.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "runtime/comm.hpp"
#include "support/thread_pool.hpp"

namespace ulba::erosion {

/// The per-step exchange protocol: the neighbor exchange of the file
/// header. It is the only one; the type and its parser remain because
/// AppConfig::exchange and the bench/e2e trace replica still name them.
enum class ExchangeMode {
  kNeighbor,
};

/// Parse "neighbor" (the AppConfig::exchange vocabulary); throws
/// std::invalid_argument on anything else.
[[nodiscard]] ExchangeMode exchange_mode_from_name(const std::string& name);

/// Outcome of one distributed rebalance (identical on every rank).
struct DistributedReshardResult {
  /// The new rank → column-range map.
  lb::StripeBoundaries boundaries;
  std::int64_t discs_moved = 0;     ///< discs that changed rank ownership
  /// The analytic Eq.-C accounting: what migrating from the old to the new
  /// stripes costs given the per-column data sizes (the same model the
  /// virtual-time LB step charges).
  lb::MigrationVolume predicted;
  /// Modeled bytes of the columns ACTUALLY exchanged as messages, summed
  /// per rank (sent + received, mirroring MigrationVolume::per_pe_bytes) —
  /// computed from the weights carried by the migration messages, so a test
  /// can validate the analytic prediction against observed traffic.
  std::vector<double> observed_per_rank_bytes;
  /// Σ modeled bytes over exchanged columns, each counted once (the
  /// observed counterpart of MigrationVolume::total_bytes).
  double observed_column_bytes = 0.0;
  /// Real payload bytes this rank put on / took off the wire during the
  /// rebalance (column weights + serialized discs), summed over all ranks.
  double observed_payload_bytes = 0.0;
};

class DistributedDomain {
 public:
  /// Collective: every rank of `comm` constructs with the same `config` and
  /// an equivalent `partitioner`. The initial stripes are cut against the
  /// initial column weights (even targets). The step exchange has one
  /// protocol, so the `ExchangeMode` argument is not read.
  DistributedDomain(DomainConfig config, runtime::Comm& comm,
                    std::shared_ptr<const lb::Partitioner> partitioner,
                    ExchangeMode exchange = ExchangeMode::kNeighbor);

  /// Collective: one erosion iteration, local discs stepped inline or
  /// across `pool` (a rank-local pool). Draws are addressed by (global disc
  /// id, iteration, cell) through support::CounterRng, so the per-step cost
  /// of a rank is O(its own frontier). Returns the GLOBAL eroded-cell count
  /// — the value ErosionDomain::step_counter on an undistributed copy
  /// returns, for every (rank count, stripe cut, pool size).
  std::int64_t step_counter(std::uint64_t seed, std::int64_t iteration,
                            support::ThreadPool* pool = nullptr);

  /// Collective: recut the rank stripes against `full_weights` (even
  /// targets) and migrate column weights + disc ownership as real messages.
  /// Every rank must pass identical full-width contents, such as the result
  /// of `allgather_column_weights()`. The stepping trajectory is unaffected.
  DistributedReshardResult rebalance(std::span<const double> full_weights);

  // ---- observers (rank-local, no communication) --------------------------

  [[nodiscard]] const DomainConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::int64_t columns() const noexcept {
    return config_.columns;
  }
  [[nodiscard]] int rank() const noexcept { return comm_->rank(); }
  [[nodiscard]] int ranks() const noexcept { return comm_->size(); }

  /// Current rank → column-range boundaries (size ranks + 1, replicated).
  [[nodiscard]] const lb::StripeBoundaries& rank_boundaries() const noexcept {
    return boundaries_;
  }
  /// The ranks my halo deltas go to each step (ascending) — the owners of
  /// any column a local disc's bounding box covers — and the ranks whose
  /// discs overlap MY stripe (who therefore message me each step). Both
  /// recomputed from the partition cut after every rebalance; empty at one
  /// rank.
  [[nodiscard]] std::span<const int> halo_send_neighbors() const noexcept {
    return send_neighbors_;
  }
  [[nodiscard]] std::span<const int> halo_recv_neighbors() const noexcept {
    return recv_neighbors_;
  }
  /// Messages/payload THIS rank put on the wire inside step() so far (halo
  /// deltas + reduction/broadcast legs; rebalance traffic excluded). Sum
  /// over ranks for the per-step totals of the file header's count.
  [[nodiscard]] std::uint64_t step_messages_sent() const noexcept {
    return step_messages_;
  }
  [[nodiscard]] std::uint64_t step_payload_bytes_sent() const noexcept {
    return step_payload_bytes_;
  }
  /// Global indices of the discs this rank owns, ascending.
  [[nodiscard]] std::span<const std::size_t> local_discs() const noexcept {
    return local_disc_ids_;
  }
  /// The rank owning disc `disc` (replicated knowledge).
  [[nodiscard]] int owner_of_disc(std::size_t disc) const;
  /// The rank owning column `x`.
  [[nodiscard]] int owner_of_column(std::int64_t x) const;

  /// The first column of this rank's stripe.
  [[nodiscard]] std::int64_t first_column() const noexcept {
    return my_col0_;
  }

  /// Collective: the HemoCell-style fractional load imbalance of the
  /// current decomposition, (max rank load − avg)/avg over the per-rank
  /// sums of the local column weights. Identical on every rank; 0 when
  /// perfectly balanced.
  [[nodiscard]] double fractional_load_imbalance() const;

  /// Replicated global counters — all bit-identical to the serial domain.
  [[nodiscard]] double total_workload() const noexcept { return total_; }
  [[nodiscard]] std::int64_t eroded_cells() const noexcept { return eroded_; }
  [[nodiscard]] std::int64_t rock_cells_remaining() const noexcept {
    return rock_remaining_;
  }
  [[nodiscard]] std::int64_t frontier_size() const noexcept;

  // ---- collectives -------------------------------------------------------

  /// Collective: reassemble the full-width column weights at `root` (every
  /// rank must call; non-roots return {}). This is the real-message
  /// counterpart of ErosionDomain::column_weights() for the monitoring and
  /// LB layers: the concatenated per-rank stripes, bit-identical to the
  /// serial incremental weights.
  [[nodiscard]] std::vector<double> gather_column_weights(int root) const;

  /// Collective: reassemble the full-width column weights on EVERY rank
  /// (gather at rank 0 + broadcast).
  [[nodiscard]] std::vector<double> allgather_column_weights() const;

 private:
  /// Recompute disc_owner_/local ids from the current stripes (disc → rank
  /// whose stripe holds its center column).
  void assign_local_discs();
  /// Recompute send/recv halo-neighbor sets from the stripes + disc_owner_
  /// + the disc bounding boxes (all replicated) — must follow every
  /// boundary or ownership change.
  void recompute_neighbors();
  /// Apply `count` eroded cells to column `x` of my stripe, one cell at a
  /// time (the serial commit's per-cell accounting, so FP results agree).
  void credit_column(std::int64_t x, std::int64_t count);
  /// The exchange tail of a step — commit my columns, bucket and exchange
  /// halo deltas + frontier metadata + the eroded reduction, fold the
  /// replicated global accounting. `erode[k]` holds the cells the k-th
  /// LOCAL disc eroded this step. Returns the global eroded count.
  std::int64_t finish_step(std::span<const std::vector<std::int32_t>> erode);
  /// Record one step()-phase send of `bytes` payload bytes.
  void count_step_send(std::size_t bytes) noexcept {
    ++step_messages_;
    step_payload_bytes_ += bytes;
  }

  DomainConfig config_;
  runtime::Comm* comm_;
  std::shared_ptr<const lb::Partitioner> partitioner_;
  lb::StripeBoundaries boundaries_;
  std::vector<int> send_neighbors_;  ///< ascending
  std::vector<int> recv_neighbors_;  ///< ascending
  std::uint64_t step_messages_ = 0;
  std::uint64_t step_payload_bytes_ = 0;

  std::vector<std::size_t> local_disc_ids_;  ///< ascending global ids
  std::vector<DiscState> local_discs_;       ///< parallel to local_disc_ids_
  std::vector<int> disc_owner_;              ///< replicated, per global disc
  std::vector<std::int64_t> frontier_sizes_; ///< replicated, per global disc

  std::vector<double> weights_;  ///< my stripe's columns
  std::int64_t my_col0_ = 0;     ///< first column of my stripe
  double total_ = 0.0;           ///< replicated global Wtot

  std::int64_t rock_remaining_ = 0;
  std::int64_t eroded_ = 0;
  CounterWorkspace counter_ws_;  ///< step_counter's per-disc erode lists
};

}  // namespace ulba::erosion
