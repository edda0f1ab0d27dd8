#include "erosion/distributed_domain.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "support/require.hpp"

namespace ulba::erosion {

namespace {

// Message channels of the distributed domain (user tags — non-negative, and
// offset well clear of any ad-hoc tags application drivers might pick).
constexpr int kTagStep = 100;          ///< per-step halo deltas
constexpr int kTagGatherWeights = 101; ///< stripe → root weight gather
constexpr int kTagMigrateColumns = 102;
constexpr int kTagMigrateDisc = 103;
constexpr int kTagStepReduce = 104;    ///< per-step eroded/frontier → 0

/// Overlap [max(a0,b0), min(a1,b1)) of two half-open column intervals.
std::pair<std::int64_t, std::int64_t> interval_overlap(std::int64_t a0,
                                                       std::int64_t a1,
                                                       std::int64_t b0,
                                                       std::int64_t b1) {
  return {std::max(a0, b0), std::min(a1, b1)};
}

}  // namespace

ExchangeMode exchange_mode_from_name(const std::string& name) {
  if (name == "neighbor") return ExchangeMode::kNeighbor;
  throw std::invalid_argument("unknown exchange mode '" + name +
                              "' (accepted: neighbor)");
}

DistributedDomain::DistributedDomain(
    DomainConfig config, runtime::Comm& comm,
    std::shared_ptr<const lb::Partitioner> partitioner,
    ExchangeMode /*exchange*/)
    : config_(std::move(config)),
      comm_(&comm),
      partitioner_(std::move(partitioner)) {
  ULBA_REQUIRE(partitioner_ != nullptr, "distribution needs a partitioner");
  config_.validate();
  const int R = comm_->size();
  ULBA_REQUIRE(static_cast<std::int64_t>(R) <= config_.columns,
               "rank count must not exceed the column count");
  const std::vector<double> full = replay_initial_weights();

  // Initial cut: even targets against the initial weights.
  const std::vector<double> targets(static_cast<std::size_t>(R),
                                    1.0 / static_cast<double>(R));
  boundaries_ = partitioner_->partition(full, targets);
  assign_local_discs();
  local_discs_.reserve(local_disc_ids_.size());
  for (const std::size_t id : local_disc_ids_)
    local_discs_.push_back(build_disc_state(config_.discs[id]));

  const auto r = static_cast<std::size_t>(comm_->rank());
  my_col0_ = boundaries_[r];
  weights_.assign(full.begin() + boundaries_[r],
                  full.begin() + boundaries_[r + 1]);
  recompute_neighbors();
}

std::vector<double> DistributedDomain::replay_initial_weights() {
  const std::size_t n = config_.discs.size();
  frontier_sizes_.assign(n, 0);
  std::vector<double> full(
      static_cast<std::size_t>(config_.columns),
      config_.flop_per_cell * static_cast<double>(config_.rows));
  for (std::size_t i = 0; i < n; ++i) {
    const DiscState d = build_disc_state(config_.discs[i]);
    frontier_sizes_[i] = static_cast<std::int64_t>(d.frontier.size());
    rock_remaining_ += d.rock_remaining;
    for (std::int64_t ly = 0; ly < d.side; ++ly)
      for (std::int64_t lx = 0; lx < d.side; ++lx)
        if (d.at(lx, ly) != Cell::kOutside)
          full[static_cast<std::size_t>(d.x0 + lx)] -= config_.flop_per_cell;
  }
  total_ = 0.0;
  for (const double w : full) total_ += w;
  return full;
}

void DistributedDomain::recompute_neighbors() {
  send_neighbors_.clear();
  recv_neighbors_.clear();
  if (ranks() == 1) return;
  const int R = ranks();
  const int r = rank();
  std::vector<std::uint8_t> send_to(static_cast<std::size_t>(R), 0);
  std::vector<std::uint8_t> recv_from(static_cast<std::size_t>(R), 0);
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const auto [lo, hi] = disc_column_span(config_.discs[i]);
    const std::int64_t clo = std::max<std::int64_t>(lo, 0);
    const std::int64_t chi = std::min<std::int64_t>(hi, config_.columns);
    if (clo >= chi) continue;
    // Stripes are contiguous and ascending, so a disc's box covers exactly
    // the owner range [first, last] — the one predicate both the sender and
    // the receiver sides evaluate, which keeps the sets mutually consistent
    // across ranks (rank q sends to me iff I expect to receive from q).
    const int first = owner_of_column(clo);
    const int last = owner_of_column(chi - 1);
    if (disc_owner_[i] == r) {
      for (int q = first; q <= last; ++q)
        if (q != r) send_to[static_cast<std::size_t>(q)] = 1;
    } else if (first <= r && r <= last) {
      recv_from[static_cast<std::size_t>(disc_owner_[i])] = 1;
    }
  }
  for (int q = 0; q < R; ++q) {
    if (send_to[static_cast<std::size_t>(q)]) send_neighbors_.push_back(q);
    if (recv_from[static_cast<std::size_t>(q)]) recv_neighbors_.push_back(q);
  }
}

void DistributedDomain::assign_local_discs() {
  local_disc_ids_.clear();
  disc_owner_.assign(config_.discs.size(), 0);
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const int owner = owner_of_column(config_.discs[i].cx);
    disc_owner_[i] = owner;
    if (owner == rank()) local_disc_ids_.push_back(i);
  }
}

int DistributedDomain::owner_of_disc(std::size_t disc) const {
  ULBA_REQUIRE(disc < disc_owner_.size(), "disc index out of range");
  return disc_owner_[disc];
}

int DistributedDomain::owner_of_column(std::int64_t x) const {
  ULBA_REQUIRE(x >= 0 && x < config_.columns, "column out of range");
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  return static_cast<int>(std::distance(boundaries_.begin(), it) - 1);
}

std::int64_t DistributedDomain::frontier_size() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t f : frontier_sizes_) total += f;
  return total;
}

void DistributedDomain::credit_column(std::int64_t x, std::int64_t count) {
  const double gained = config_.refinement_factor * config_.flop_per_cell;
  const auto local = static_cast<std::size_t>(x - first_column());
  ULBA_CHECK(local < weights_.size(),
             "erosion delta landed outside the owning stripe");
  // One addition per eroded cell — the serial commit's accounting, so the
  // floating-point result is bit-equal regardless of message arrival order.
  for (std::int64_t c = 0; c < count; ++c) weights_[local] += gained;
}

std::int64_t DistributedDomain::step_counter(std::uint64_t seed,
                                             std::int64_t iteration,
                                             support::ThreadPool* pool) {
  // Decide + apply the local discs; draws are addressed by global disc id.
  (void)counter_decide_apply(local_discs_, local_disc_ids_, seed, iteration,
                             pool, counter_ws_);
  return finish_step(counter_ws_.erode);
}

std::int64_t DistributedDomain::finish_step(
    std::span<const std::vector<std::int32_t>> erode) {
  const int R = ranks();
  const int r = rank();
  ULBA_CHECK(erode.size() == local_discs_.size(),
             "finish_step needs one erode list per local disc");

  // Phase 3 — commit my columns; bucket the halo deltas (eroded cells in
  // columns another rank owns: a disc straddling a stripe boundary) per
  // destination rank.
  std::int64_t my_eroded = 0;
  std::vector<std::map<std::int64_t, std::int64_t>> halo(
      static_cast<std::size_t>(R));
  for (std::size_t k = 0; k < local_discs_.size(); ++k) {
    const DiscState& d = local_discs_[k];
    my_eroded += static_cast<std::int64_t>(erode[k].size());
    for (const std::int32_t idx : erode[k]) {
      const std::int64_t x = d.x0 + idx % d.side;
      const int owner = owner_of_column(x);
      if (owner == r)
        credit_column(x, 1);
      else
        ++halo[static_cast<std::size_t>(owner)][x];
    }
  }

  // The replicated frontier metadata of my own discs updates locally (peers
  // learn it through the reduction and broadcast below).
  for (std::size_t k = 0; k < local_disc_ids_.size(); ++k)
    frontier_sizes_[local_disc_ids_[k]] =
        static_cast<std::int64_t>(local_discs_[k].frontier.size());

  // Phase 4a — halo deltas travel to neighbors ONLY: one (possibly empty)
  // message per send-neighbor, so the matching blocking receives stay
  // deterministic. Any delta column lies inside a local disc's bounding
  // box, whose owners are exactly the send-neighbor set.
  for (int s = 0; s < R; ++s)
    ULBA_CHECK(halo[static_cast<std::size_t>(s)].empty() ||
                   std::binary_search(send_neighbors_.begin(),
                                      send_neighbors_.end(), s),
               "halo delta addressed to a non-neighbor rank");
  for (const int s : send_neighbors_) {
    std::vector<std::int64_t> msg;
    const auto& deltas = halo[static_cast<std::size_t>(s)];
    msg.reserve(2 * deltas.size());
    for (const auto& [x, count] : deltas) {
      msg.push_back(x);
      msg.push_back(count);
    }
    comm_->send_span<std::int64_t>(s, kTagStep, msg);
    count_step_send(msg.size() * sizeof(std::int64_t));
  }

  // Phase 4b — reduction leg: my eroded total plus my discs' updated
  // frontier sizes converge on rank 0.
  if (r != 0) {
    std::vector<std::int64_t> msg;
    msg.reserve(1 + 2 * local_disc_ids_.size());
    msg.push_back(my_eroded);
    for (std::size_t k = 0; k < local_disc_ids_.size(); ++k) {
      msg.push_back(static_cast<std::int64_t>(local_disc_ids_[k]));
      msg.push_back(static_cast<std::int64_t>(local_discs_[k].frontier.size()));
    }
    comm_->send_span<std::int64_t>(0, kTagStepReduce, msg);
    count_step_send(msg.size() * sizeof(std::int64_t));
  }

  // Phase 5a — drain the neighbor halo messages (ascending rank order;
  // per-cell credits commute, so arrival order cannot perturb FP state).
  for (const int s : recv_neighbors_) {
    const auto msg = comm_->recv_vector<std::int64_t>(s, kTagStep);
    ULBA_CHECK(msg.size() % 2 == 0, "malformed halo message");
    for (std::size_t at = 0; at < msg.size(); at += 2)
      credit_column(msg[at], msg[at + 1]);
  }

  // Phase 5b — rank 0 folds the eroded totals in rank order (exact integer
  // sum), merges the frontier updates, and broadcasts the global count plus
  // the complete frontier vector back out.
  std::int64_t global_eroded = my_eroded;
  std::vector<std::int64_t> bcast;
  if (r == 0) {
    for (int s = 1; s < R; ++s) {
      const auto msg = comm_->recv_vector<std::int64_t>(s, kTagStepReduce);
      ULBA_CHECK(msg.size() % 2 == 1, "malformed step-reduce message");
      global_eroded += msg[0];
      for (std::size_t at = 1; at < msg.size(); at += 2) {
        const auto id = static_cast<std::size_t>(msg[at]);
        ULBA_CHECK(id < frontier_sizes_.size(), "frontier update out of range");
        frontier_sizes_[id] = msg[at + 1];
      }
    }
    bcast.reserve(1 + frontier_sizes_.size());
    bcast.push_back(global_eroded);
    bcast.insert(bcast.end(), frontier_sizes_.begin(), frontier_sizes_.end());
    for (int s = 1; s < R; ++s)
      count_step_send(bcast.size() * sizeof(std::int64_t));
  }
  comm_->broadcast_vector(bcast, 0);
  if (r != 0) {
    ULBA_CHECK(bcast.size() == 1 + frontier_sizes_.size(),
               "malformed step broadcast");
    global_eroded = bcast[0];
    std::copy(bcast.begin() + 1, bcast.end(), frontier_sizes_.begin());
  }

  // Phase 6 — replicated global accounting (one increment per eroded cell,
  // matching the serial commit's FP trajectory).
  const double gained = config_.refinement_factor * config_.flop_per_cell;
  for (std::int64_t c = 0; c < global_eroded; ++c) total_ += gained;
  rock_remaining_ -= global_eroded;
  eroded_ += global_eroded;
  return global_eroded;
}

std::vector<double> DistributedDomain::gather_column_weights(int root) const {
  const int R = comm_->size();
  const int r = comm_->rank();
  if (r != root) {
    comm_->send_span<double>(root, kTagGatherWeights, weights_);
    return {};
  }
  std::vector<double> full(static_cast<std::size_t>(config_.columns), 0.0);
  std::copy(weights_.begin(), weights_.end(),
            full.begin() + boundaries_[static_cast<std::size_t>(r)]);
  for (int s = 0; s < R; ++s) {
    if (s == root) continue;
    const auto stripe = comm_->recv_vector<double>(s, kTagGatherWeights);
    const auto begin = boundaries_[static_cast<std::size_t>(s)];
    ULBA_CHECK(static_cast<std::int64_t>(stripe.size()) ==
                   boundaries_[static_cast<std::size_t>(s) + 1] - begin,
               "gathered stripe size does not match the boundaries");
    std::copy(stripe.begin(), stripe.end(), full.begin() + begin);
  }
  return full;
}

std::vector<double> DistributedDomain::allgather_column_weights() const {
  std::vector<double> full = gather_column_weights(0);
  comm_->broadcast_vector(full, 0);
  return full;
}

DistributedReshardResult DistributedDomain::rebalance() {
  // Reassemble the full weights on every rank: the recut, the analytic
  // migration model, and the per-rank observed accounting all need the
  // global view (this mirrors the centralized LB step's gather/broadcast).
  return rebalance(allgather_column_weights());
}

DistributedReshardResult DistributedDomain::rebalance(
    std::span<const double> full) {
  const int R = ranks();
  const int r = rank();
  ULBA_REQUIRE(static_cast<std::int64_t>(full.size()) == config_.columns,
               "rebalance needs the full-width column weights");
  // Recut — deterministic and identical on every rank.
  const lb::StripeBoundaries before = boundaries_;
  const std::vector<int> owners_before = disc_owner_;
  const std::vector<double> targets(static_cast<std::size_t>(R),
                                    1.0 / static_cast<double>(R));
  boundaries_ = partitioner_->partition(full, targets);
  const lb::StripeBoundaries& after = boundaries_;

  const double scale = config_.bytes_per_cell / config_.flop_per_cell;
  double sent_model = 0.0, recv_model = 0.0;
  double sent_payload = 0.0, recv_payload = 0.0;

  // Column hand-off, sends: for each peer q, the columns I owned before
  // that q owns now travel as one weights message.
  const std::int64_t ob = before[static_cast<std::size_t>(r)];
  const std::int64_t oe = before[static_cast<std::size_t>(r) + 1];
  for (int q = 0; q < R; ++q) {
    if (q == r) continue;
    const auto [lo, hi] = interval_overlap(
        ob, oe, after[static_cast<std::size_t>(q)],
        after[static_cast<std::size_t>(q) + 1]);
    if (lo >= hi) continue;
    const std::span<const double> cols(
        weights_.data() + (lo - ob), static_cast<std::size_t>(hi - lo));
    comm_->send_span<double>(q, kTagMigrateColumns, cols);
    sent_payload += static_cast<double>(cols.size_bytes());
    for (const double w : cols) sent_model += w * scale;
  }

  // Column hand-off, receives: my new stripe = the kept overlap of my
  // old stripe plus one message per peer that used to own part of it. The
  // new weight vector is rebuilt strictly from retained state and received
  // messages — the reassembled `full` view is only consulted by the models.
  const std::int64_t nb = after[static_cast<std::size_t>(r)];
  const std::int64_t ne = after[static_cast<std::size_t>(r) + 1];
  std::vector<double> neww(static_cast<std::size_t>(ne - nb), 0.0);
  {
    const auto [lo, hi] = interval_overlap(ob, oe, nb, ne);
    for (std::int64_t x = lo; x < hi; ++x)
      neww[static_cast<std::size_t>(x - nb)] =
          weights_[static_cast<std::size_t>(x - ob)];
  }
  for (int p = 0; p < R; ++p) {
    if (p == r) continue;
    const auto [lo, hi] = interval_overlap(
        before[static_cast<std::size_t>(p)],
        before[static_cast<std::size_t>(p) + 1], nb, ne);
    if (lo >= hi) continue;
    const auto cols = comm_->recv_vector<double>(p, kTagMigrateColumns);
    ULBA_CHECK(static_cast<std::int64_t>(cols.size()) == hi - lo,
               "migrated column block size mismatch");
    recv_payload += static_cast<double>(cols.size() * sizeof(double));
    for (std::int64_t x = lo; x < hi; ++x) {
      const double w = cols[static_cast<std::size_t>(x - lo)];
      neww[static_cast<std::size_t>(x - nb)] = w;
      recv_model += w * scale;
    }
  }

  // Disc hand-off: a disc follows its center column's owner; whole
  // DiscStates travel as serialized messages, in ascending disc order.
  // boundaries_ already holds the `after` cut, so owner_of_column gives the
  // new owner — the one lookup both sender and receiver loops must share.
  std::map<std::size_t, DiscState> mine;
  for (std::size_t k = 0; k < local_disc_ids_.size(); ++k) {
    const std::size_t id = local_disc_ids_[k];
    const int new_owner = owner_of_column(config_.discs[id].cx);
    if (new_owner == r) {
      mine.emplace(id, std::move(local_discs_[k]));
    } else {
      const auto payload = serialize_disc(id, local_discs_[k]);
      comm_->send_bytes(new_owner, kTagMigrateDisc, payload);
      sent_payload += static_cast<double>(payload.size());
    }
  }
  std::int64_t discs_moved = 0;
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const int new_owner = owner_of_column(config_.discs[i].cx);
    if (new_owner == owners_before[i]) continue;
    ++discs_moved;
    if (new_owner == r) {
      const runtime::Message msg =
          comm_->recv_message(owners_before[i], kTagMigrateDisc);
      recv_payload += static_cast<double>(msg.payload.size());
      mine.emplace(i, deserialize_disc(msg.payload, i));
    }
  }

  // Commit the new ownership (and refresh the halo-neighbor sets, which
  // depend on both the cut and the disc ownership).
  assign_local_discs();
  local_discs_.clear();
  local_discs_.reserve(local_disc_ids_.size());
  for (const std::size_t id : local_disc_ids_) {
    const auto it = mine.find(id);
    ULBA_CHECK(it != mine.end(), "disc hand-off left an owned disc behind");
    local_discs_.push_back(std::move(it->second));
  }
  weights_ = std::move(neww);
  my_col0_ = nb;
  recompute_neighbors();

  // Accounting: the analytic prediction on the full view, and the
  // observed traffic reduced across ranks.
  DistributedReshardResult result;
  result.boundaries = boundaries_;
  result.discs_moved = discs_moved;
  std::vector<double> bytes(full.size());
  for (std::size_t x = 0; x < full.size(); ++x) bytes[x] = full[x] * scale;
  result.predicted = lb::migration_volume(before, after, bytes);
  result.observed_per_rank_bytes = comm_->allgather(sent_model + recv_model);
  result.observed_column_bytes = comm_->allreduce(sent_model);
  result.observed_payload_bytes = comm_->allreduce(sent_payload + recv_payload);
  return result;
}

double DistributedDomain::fractional_load_imbalance() const {
  // HemoCell's monitoring metric: (max PE load - avg) / avg over the
  // per-rank sums of the local stripe weights.
  double local = 0.0;
  for (const double w : weights_) local += w;
  const std::vector<double> loads = comm_->allgather(local);
  double max = 0.0, sum = 0.0;
  for (const double l : loads) {
    max = std::max(max, l);
    sum += l;
  }
  const double avg = sum / static_cast<double>(loads.size());
  return avg > 0.0 ? (max - avg) / avg : 0.0;
}

}  // namespace ulba::erosion
