// Partition-invariance property suite for erosion::DistributedDomain.
//
// The load-bearing claim: for EVERY (rank count, stripe cut, per-rank thread
// count), stepping the domain distributed over the SPMD runtime is
// BIT-identical to ErosionDomain::step_counter on one process —
// the same global counters and the same per-column FLOP accounting (exact
// FP equality) — and this survives mid-run rebalances that migrate disc
// ownership and column weights as real runtime::Mailbox messages, including
// recuts against a random profile that put the greedy scan's stripes where
// the real weights never would. On top of that, each step must send exactly
// the neighbor exchange's message count, and the analytic
// lb::migration_volume prediction must match the bytes the rebalance
// actually exchanged.
#include "erosion/distributed_domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli/sweep.hpp"
#include "erosion/app.hpp"
#include "erosion/domain.hpp"
#include "lb/partitioners.hpp"
#include "runtime/spmd.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

namespace ulba::erosion {
namespace {

std::shared_ptr<const lb::Partitioner> greedy() {
  return lb::make_partitioner("greedy");
}

/// A seeded random full-width column profile, heavy-tailed so the greedy
/// cut against it lands far from the cut of the real weights. Built before
/// spmd_run, so every rank passes identical contents to rebalance(span).
std::vector<double> random_skew(std::int64_t columns, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> skew(static_cast<std::size_t>(columns));
  for (double& w : skew) {
    const double u = rng.uniform(0.0, 1.0);
    w = u * u * u;
  }
  return skew;
}

/// Serial ErosionDomain reference: the domain after `steps` iterations.
struct SerialReference {
  std::vector<double> weights;
  double total = 0.0;
  std::int64_t eroded = 0;
  std::int64_t rock_remaining = 0;
  std::int64_t frontier = 0;
};

SerialReference serial_reference(const DomainConfig& cfg, std::uint64_t seed,
                                 int steps) {
  ErosionDomain domain(cfg);
  for (int s = 0; s < steps; ++s) (void)domain.step_counter(seed, s);
  SerialReference ref;
  ref.weights.assign(domain.column_weights().begin(),
                     domain.column_weights().end());
  ref.total = domain.total_workload();
  ref.eroded = domain.eroded_cells();
  ref.rock_remaining = domain.rock_cells_remaining();
  ref.frontier = domain.frontier_size();
  return ref;
}

/// Every rank checks its replicated report against the serial reference;
/// rank 0 additionally gathers and compares the full per-column weights
/// bit-for-bit.
void expect_matches_reference(const SerialReference& ref,
                              const DistributedDomain& domain,
                              const std::string& what) {
  EXPECT_EQ(ref.eroded, domain.eroded_cells()) << what;
  EXPECT_EQ(ref.rock_remaining, domain.rock_cells_remaining()) << what;
  EXPECT_EQ(ref.frontier, domain.frontier_size()) << what;
  EXPECT_EQ(ref.total, domain.total_workload()) << what;
  const std::vector<double> full = domain.gather_column_weights(0);
  if (domain.rank() == 0) {
    ASSERT_EQ(ref.weights.size(), full.size()) << what;
    for (std::size_t x = 0; x < full.size(); ++x)
      ASSERT_EQ(ref.weights[x], full[x]) << what << " — column " << x;
  }
}

/// Rank 0 collects every rank's local disc ids and asserts they form a
/// complete disjoint cover consistent with the stripe boundaries.
void expect_complete_disjoint_cover(runtime::Comm& comm,
                                    const DistributedDomain& domain) {
  const auto local = domain.local_discs();
  // Consistency of the replicated ownership view with my local set.
  for (const std::size_t disc : local)
    EXPECT_EQ(domain.owner_of_disc(disc), domain.rank());
  // Boundaries must partition the column range.
  const auto& b = domain.rank_boundaries();
  ASSERT_EQ(static_cast<int>(b.size()), domain.ranks() + 1);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), domain.columns());
  for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LT(b[i], b[i + 1]);
  // Gather the local id sets at rank 0 (simple tagged exchange).
  constexpr int kTag = 7;
  std::vector<std::int64_t> ids(local.begin(), local.end());
  if (domain.rank() != 0) {
    comm.send_span<std::int64_t>(0, kTag, ids);
    return;
  }
  std::vector<int> owners(domain.config().discs.size(), 0);
  const auto count_ids = [&](const std::vector<std::int64_t>& rank_ids,
                             int rank) {
    for (const std::int64_t id : rank_ids) {
      ASSERT_LT(static_cast<std::size_t>(id), owners.size());
      ++owners[static_cast<std::size_t>(id)];
      // The owning stripe must hold the disc's center column.
      const std::int64_t cx =
          domain.config().discs[static_cast<std::size_t>(id)].cx;
      EXPECT_GE(cx, b[static_cast<std::size_t>(rank)]);
      EXPECT_LT(cx, b[static_cast<std::size_t>(rank) + 1]);
    }
  };
  count_ids(ids, 0);
  for (int s = 1; s < domain.ranks(); ++s)
    count_ids(comm.recv_vector<std::int64_t>(s, kTag), s);
  for (std::size_t disc = 0; disc < owners.size(); ++disc)
    EXPECT_EQ(owners[disc], 1)
        << "disc " << disc << " covered by " << owners[disc] << " ranks";
}

/// A domain whose discs straddle rank-stripe boundaries by construction:
/// radius-10 discs over 64 columns, so the 8-rank greedy cut (stripes 7–9
/// columns wide) slices straight through both bounding boxes — every step
/// then exchanges halo deltas for columns owned by up to three other ranks.
DomainConfig adversarial_boundary_config() {
  DomainConfig cfg;
  cfg.columns = 64;
  cfg.rows = 72;
  cfg.discs = {{16, 16, 10, 0.35}, {40, 48, 10, 0.3}};
  cfg.validate();
  return cfg;
}

TEST(DistributedErosion, CoverIsCompleteAndDisjointAcrossRanks) {
  support::Rng config_rng(2024);
  for (int trial = 0; trial < 4; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    for (const int ranks : {1, 2, 3, 5, 8}) {
      if (ranks > cfg.columns) continue;
      runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
        DistributedDomain domain(cfg, comm, greedy());
        expect_complete_disjoint_cover(comm, domain);
      });
    }
  }
}

/// One serial trajectory must be reproduced bit for bit by every (rank
/// count, per-rank pool) combination, across mid-run
/// rebalances that migrate disc ownership as real messages: one recut
/// against the real weights, then one against a random profile
/// (rebalance(span) cuts against the vector it is given but migrates the
/// real weights).
TEST(DistributedErosion, BitIdenticalToSerialForEveryRankExchangePool) {
  constexpr int kSteps = 14;
  support::Rng config_rng(4242);
  for (int trial = 0; trial < 2; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 8000 + static_cast<std::uint64_t>(trial);

    const SerialReference ref = serial_reference(cfg, seed, kSteps);
    const std::vector<double> skew = random_skew(cfg.columns, seed);

    for (const int ranks : {1, 2, 4, 8}) {
      for (const std::size_t threads : {1u, 2u}) {
        runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
          DistributedDomain domain(cfg, comm, greedy());
          std::optional<support::ThreadPool> pool;
          if (threads > 1) pool.emplace(threads);
          std::int64_t eroded_total = 0;
          for (int s = 0; s < kSteps; ++s) {
            eroded_total +=
                domain.step_counter(seed, s, pool ? &*pool : nullptr);
            if (s == kSteps / 2)
              (void)domain.rebalance(domain.allgather_column_weights());
            if (s == 3 * kSteps / 4) (void)domain.rebalance(skew);
          }
          EXPECT_EQ(eroded_total, ref.eroded);
          std::string what = "trial " + std::to_string(trial);
          what += ", ranks " + std::to_string(ranks);
          what += ", threads " + std::to_string(threads);
          expect_matches_reference(ref, domain, what);
        });
      }
    }
  }
}

TEST(DistributedErosion, MidRunMigrationKeepsTrajectoryAndCover) {
  constexpr int kSteps = 24;
  support::Rng config_rng(5150);
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 42 + static_cast<std::uint64_t>(trial);
    const SerialReference ref = serial_reference(cfg, seed, kSteps);

    const int ranks = 4;
    if (ranks > cfg.columns) continue;
    runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
      DistributedDomain domain(cfg, comm, greedy());
      support::ThreadPool pool(2);
      for (int s = 0; s < kSteps; ++s) {
        (void)domain.step_counter(seed, s, &pool);
        if (s % 6 == 5) {
          const DistributedReshardResult res =
              domain.rebalance(domain.allgather_column_weights());
          EXPECT_EQ(res.boundaries.size(),
                    static_cast<std::size_t>(ranks) + 1);
          EXPECT_GE(res.discs_moved, 0);
          expect_complete_disjoint_cover(comm, domain);
        }
      }
      expect_matches_reference(ref, domain,
                               "rebalance, trial " + std::to_string(trial));
    });
  }
}

/// Each step sends one halo message per send-neighbor plus the reduction
/// and broadcast legs — Σ_r |halo_send_neighbors(r)| + 2·(R − 1) messages —
/// and the runtime-layer traffic counters confirm the domain's own
/// accounting message for message and byte for byte.
TEST(DistributedErosion, StepSendsExactlyTheNeighborExchangeMessages) {
  // The golden-config geometry: 16 discs of radius 16 on 48-column stripes.
  DomainConfig cfg;
  cfg.columns = 16 * 48;
  cfg.rows = 64;
  for (std::int64_t i = 0; i < 16; ++i)
    cfg.discs.push_back({i * 48 + 24, 32, 16, i == 7 ? 0.4 : 0.02});
  cfg.validate();
  constexpr int kSteps = 10;

  for (const int ranks : {2, 4, 8}) {
    runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
      DistributedDomain domain(cfg, comm, greedy());
      // The traffic counters are world-global, so each snapshot sits in a
      // barrier-bracketed quiescent window (a lone barrier is not enough:
      // released ranks race ahead into their next sends).
      comm.barrier();
      const runtime::TrafficCounters before = comm.traffic();
      comm.barrier();
      for (int s = 0; s < kSteps; ++s) (void)domain.step_counter(4, s);
      comm.barrier();
      const runtime::TrafficCounters after = comm.traffic();
      comm.barrier();
      const auto my_msgs =
          static_cast<std::int64_t>(domain.step_messages_sent());
      const auto my_bytes =
          static_cast<std::int64_t>(domain.step_payload_bytes_sent());
      const auto my_neighbors =
          static_cast<std::int64_t>(domain.halo_send_neighbors().size());
      const std::int64_t total_msgs = comm.allreduce(my_msgs);
      const std::int64_t total_bytes = comm.allreduce(my_bytes);
      const std::int64_t neighbor_pairs = comm.allreduce(my_neighbors);
      if (comm.rank() != 0) return;
      const std::string what = "ranks " + std::to_string(ranks);
      // No rebalance runs, so the neighbor sets hold for every step.
      EXPECT_EQ(total_msgs, kSteps * (neighbor_pairs + 2 * (ranks - 1)))
          << what;
      // The pure step loop sends nothing but the exchange itself, so the
      // runtime counters must agree exactly with the domain's accounting
      // (minus the allreduce/barrier bracket, which runs after `after` was
      // snapshotted).
      EXPECT_EQ(after.messages - before.messages,
                static_cast<std::uint64_t>(total_msgs))
          << what;
      EXPECT_EQ(after.payload_bytes - before.payload_bytes,
                static_cast<std::uint64_t>(total_bytes))
          << what;
    });
  }
}

/// Neighbor sets are derived from replicated state, so the send set of rank
/// q must mirror the recv set of every rank it targets.
TEST(DistributedErosion, HaloNeighborSetsAreMutuallyConsistent) {
  const DomainConfig cfg = adversarial_boundary_config();
  runtime::spmd_run(8, [&](runtime::Comm& comm) {
    DistributedDomain domain(cfg, comm, greedy());
    // Exchange the send sets (one small message per peer) and verify each
    // against the local recv set.
    std::vector<std::int64_t> mine(domain.halo_send_neighbors().begin(),
                                   domain.halo_send_neighbors().end());
    for (int q = 0; q < domain.ranks(); ++q)
      if (q != domain.rank()) comm.send_span<std::int64_t>(q, 9, mine);
    for (int q = 0; q < domain.ranks(); ++q) {
      if (q == domain.rank()) continue;
      const auto theirs = comm.recv_vector<std::int64_t>(q, 9);
      const bool q_sends_to_me =
          std::find(theirs.begin(), theirs.end(),
                    static_cast<std::int64_t>(domain.rank())) != theirs.end();
      const auto& rn = domain.halo_recv_neighbors();
      const bool i_expect_q = std::find(rn.begin(), rn.end(), q) != rn.end();
      EXPECT_EQ(q_sends_to_me, i_expect_q)
          << "rank " << domain.rank() << " vs rank " << q;
    }
    // The adversarial discs straddle stripes, so SOMEONE has neighbors.
    const auto any = comm.allreduce(
        static_cast<std::int64_t>(domain.halo_send_neighbors().size()));
    EXPECT_GT(any, 0);
  });
}

TEST(DistributedErosion, HaloExchangeOnAdversarialBoundaryDiscs) {
  // Both discs straddle several 7–9-column stripes, so every step routes
  // eroded-cell deltas to several owning ranks; the weights must still be
  // bit-equal to the serial run, column by column.
  const DomainConfig cfg = adversarial_boundary_config();
  constexpr int kSteps = 18;
  const std::uint64_t seed = 99;
  const SerialReference ref = serial_reference(cfg, seed, kSteps);

  runtime::spmd_run(8, [&](runtime::Comm& comm) {
    DistributedDomain domain(cfg, comm, greedy());
    // Sanity: under the greedy cut the first disc's bounding box [6, 26]
    // really does span several stripes.
    EXPECT_NE(domain.owner_of_column(6), domain.owner_of_column(25));
    for (int s = 0; s < kSteps; ++s) (void)domain.step_counter(seed, s);
    expect_matches_reference(ref, domain, "adversarial boundary discs");
  });
}

TEST(DistributedErosion, RebalanceMigratesStateAsMessagesAndMatchesModel) {
  // Erode with a strongly erodible disc so the weight profile skews and a
  // weighted recut MUST move boundaries (and with them columns and at least
  // one disc) away from the initial even cut.
  DomainConfig cfg;
  cfg.columns = 96;
  cfg.rows = 64;
  cfg.discs = {{14, 32, 11, 0.5},
               {44, 32, 11, 0.02},
               {76, 32, 11, 0.02}};
  cfg.validate();

  runtime::spmd_run(4, [&](runtime::Comm& comm) {
    // The greedy partitioner cuts against the CURRENT weights, so after the
    // strong disc erodes (and gains refined workload) the recut must move
    // the boundaries it chose for the initial profile.
    DistributedDomain domain(cfg, comm, greedy());
    for (int s = 0; s < 16; ++s) (void)domain.step_counter(7, s);

    const lb::StripeBoundaries before = domain.rank_boundaries();
    const DistributedReshardResult res =
        domain.rebalance(domain.allgather_column_weights());
    EXPECT_NE(before, res.boundaries)
        << "the skewed profile should move the even cut";
    EXPECT_GE(res.discs_moved, 1)
        << "the recut should hand at least one disc to a new owner";

    // The analytic prediction must match the columns actually exchanged —
    // totals and the per-rank sent+received vector.
    ASSERT_EQ(res.observed_per_rank_bytes.size(),
              res.predicted.per_pe_bytes.size());
    const double tol = 1e-9 * (1.0 + res.predicted.total_bytes);
    EXPECT_NEAR(res.predicted.total_bytes, res.observed_column_bytes, tol);
    for (std::size_t p = 0; p < res.observed_per_rank_bytes.size(); ++p)
      EXPECT_NEAR(res.predicted.per_pe_bytes[p],
                  res.observed_per_rank_bytes[p], tol)
          << "rank " << p;
    // Real payload crossed the wire: at least one weight column's 8 bytes
    // per moved column, plus full serialized discs when ownership moved.
    EXPECT_GT(res.observed_payload_bytes, 0.0);

    // Trajectory unaffected: continue stepping and compare against serial.
    for (int s = 16; s < 24; ++s) (void)domain.step_counter(7, s);
    const SerialReference ref = serial_reference(cfg, 7, 24);
    expect_matches_reference(ref, domain, "post-migration stepping");
  });
}

/// The decomposition-level imbalance (max rank load − avg)/avg is one value
/// on every rank, bit-equal to the same fold over the per-rank stripe sums
/// of the gathered weights — also after a mid-run rebalance moved the cut.
TEST(DistributedErosion, FractionalLoadImbalanceMatchesGatheredStripeSums) {
  support::Rng config_rng(1313);
  bool any_imbalanced = false;
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 60 + static_cast<std::uint64_t>(trial);
    for (const int ranks : {2, 4}) {
      if (ranks > cfg.columns) continue;
      runtime::spmd_run(ranks, [&](runtime::Comm& comm) {
        DistributedDomain domain(cfg, comm, greedy());
        for (int s = 0; s < 10; ++s) {
          (void)domain.step_counter(seed, s);
          if (s == 4)
            (void)domain.rebalance(domain.allgather_column_weights());
        }
        const double imbalance = domain.fractional_load_imbalance();
        const std::vector<double> every_rank = comm.allgather(imbalance);
        const std::vector<double> full = domain.gather_column_weights(0);
        if (comm.rank() != 0) return;
        const std::string what = "trial " + std::to_string(trial) +
                                 ", ranks " + std::to_string(ranks);
        for (const double v : every_rank) EXPECT_EQ(v, imbalance) << what;
        // Stripe sums left to right, then the same max/sum fold in rank
        // order as the collective.
        const auto& b = domain.rank_boundaries();
        double max = 0.0, sum = 0.0;
        for (std::size_t r = 0; r + 1 < b.size(); ++r) {
          double load = 0.0;
          for (auto x = b[r]; x < b[r + 1]; ++x)
            load += full[static_cast<std::size_t>(x)];
          max = std::max(max, load);
          sum += load;
        }
        const double avg = sum / static_cast<double>(ranks);
        EXPECT_EQ(imbalance, avg > 0.0 ? (max - avg) / avg : 0.0) << what;
        EXPECT_GE(imbalance, 0.0) << what;
        any_imbalanced = any_imbalanced || imbalance > 0.0;
      });
    }
  }
  EXPECT_TRUE(any_imbalanced) << "no trial exercised a nonzero imbalance";
}

TEST(DistributedErosion, DiscHandOffRoundTripsBitExactly) {
  support::Rng config_rng(123);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  std::vector<DiscState> discs{build_disc_state(cfg.discs[0])};
  const std::size_t id = 0;
  CounterWorkspace ws;
  for (int s = 0; s < 5; ++s)
    (void)counter_decide_apply(discs, {&id, 1}, 3, s, nullptr, ws);
  const DiscState& d = discs[0];
  const auto payload = serialize_disc(4, d);
  const DiscState back = deserialize_disc(payload, 4);
  EXPECT_EQ(d.x0, back.x0);
  EXPECT_EQ(d.y0, back.y0);
  EXPECT_EQ(d.side, back.side);
  EXPECT_EQ(d.erosion_prob, back.erosion_prob);
  EXPECT_EQ(d.rock_remaining, back.rock_remaining);
  EXPECT_EQ(d.cells, back.cells);
  EXPECT_EQ(d.frontier, back.frontier);
  EXPECT_THROW((void)deserialize_disc(payload, 5), std::invalid_argument);
  EXPECT_THROW((void)deserialize_disc(
                   std::span<const std::byte>(payload).first(10), 4),
               std::invalid_argument);

  // Malformed headers and bodies: each patches one field of the valid
  // payload (layout: int64 version, id, x0, y0, side, rock_remaining,
  // frontier_count; double erosion_prob; side² cell bytes; int32 frontier)
  // of an uneroded disc, whose frontier is never empty.
  const DiscState fresh = build_disc_state(cfg.discs[0]);
  const auto fresh_payload = serialize_disc(4, fresh);
  ASSERT_NO_THROW((void)deserialize_disc(fresh_payload, 4));
  const std::size_t cells_at = 8 * sizeof(std::int64_t);
  const std::size_t frontier_at = cells_at + fresh.cells.size();
  const auto patched = [&fresh_payload](std::size_t at, auto value) {
    std::vector<std::byte> bad = fresh_payload;
    std::memcpy(bad.data() + at, &value, sizeof(value));
    return bad;
  };
  const auto cell_count = static_cast<std::int64_t>(fresh.cells.size());
  const auto frontier_count = static_cast<std::int64_t>(fresh.frontier.size());
  // Well-formed bytes of an inconsistent disc: the kernel would erode a
  // cell listed twice twice, and credit its column twice.
  const auto inconsistent = [&fresh](auto&& spoil) {
    DiscState bad = fresh;
    spoil(bad);
    return serialize_disc(4, bad);
  };
  const std::vector<std::vector<std::byte>> malformed{
      // One frontier cell listed twice.
      inconsistent([](DiscState& b) { b.frontier.push_back(b.frontier[0]); }),
      // A rock count the cells do not hold.
      inconsistent([](DiscState& b) { b.rock_remaining = 1000000; }),
      // A frontier cell missing from the frontier.
      inconsistent([](DiscState& b) { b.frontier.pop_back(); }),
      // side² overflows int64.
      patched(4 * sizeof(std::int64_t), std::int64_t{1} << 40),
      // side² cell indices no longer fit the int32 frontier entries.
      patched(4 * sizeof(std::int64_t), std::int64_t{46341}),
      // frontier_count · 4 wraps around to the true byte count.
      patched(6 * sizeof(std::int64_t),
              (std::int64_t{1} << 62) + frontier_count),
      // An unknown cell state.
      patched(cells_at, std::uint8_t{7}),
      // Frontier entries outside the box, or on a non-frontier cell (the
      // box corner lies outside the disc).
      patched(frontier_at, static_cast<std::int32_t>(cell_count)),
      patched(frontier_at, std::int32_t{-1}),
      patched(frontier_at, std::int32_t{0}),
  };
  for (std::size_t i = 0; i < malformed.size(); ++i)
    EXPECT_THROW((void)deserialize_disc(malformed[i], 4),
                 std::invalid_argument)
        << "malformed payload " << i;
}

/// App level: AppConfig::threads > 1 steps the same trajectory on a pool,
/// and every rank count runs the SAME virtual-time LB machinery
/// (LbController) on rank 0, so the whole RunResult — times, LB schedule,
/// recorded thresholds — must be BIT-identical to the one-rank, one-thread
/// run for every variant; only the rank-migration accounting, 0 at one
/// rank, is additional. Checked on a small domain and on the scaled
/// Figure-4 configuration the sweeps run (32 PEs, 120 iterations).
TEST(DistributedErosion, AppRunResultBitIdenticalToSerial) {
  erosion::AppConfig small;
  small.pe_count = 16;
  small.columns_per_pe = 48;
  small.rows = 64;
  small.rock_radius = 16;
  small.iterations = 60;
  small.seed = 3;
  small.method = Method::kUlba;
  small.bytes_per_cell = 256.0;
  small.comm.latency_s = 1e-4;
  small.comm.bandwidth_Bps = 2e9;
  erosion::AppConfig scaled = cli::scaled_app_config(32, 1, Method::kUlba, 11);
  scaled.iterations = 120;

  struct Variant {
    std::int64_t threads;
    std::int64_t ranks;
  };
  struct Case {
    std::string name;
    AppConfig cfg;
    std::vector<Variant> variants;
  };
  const Case small_case{"small", small, {{4, 1}, {1, 2}, {2, 4}, {1, 8}}};
  const Case scaled_case{"scaled", scaled, {{1, 2}, {1, 4}, {1, 8}}};
  for (const Case& c : {small_case, scaled_case}) {
    const RunResult serial = ErosionApp(c.cfg).run();
    ASSERT_GE(serial.lb_count, 1)
        << c.name << ": the reference run must exercise a mid-run LB step";
    EXPECT_EQ(serial.rank_discs_moved, 0)
        << c.name << ": a one-rank run moves no disc between ranks";

    for (const Variant v : c.variants) {
      AppConfig variant_cfg = c.cfg;
      variant_cfg.threads = v.threads;
      variant_cfg.ranks = v.ranks;
      const RunResult got = ErosionApp(variant_cfg).run();
      std::string what = c.name + ", threads " + std::to_string(v.threads);
      what += ", ranks " + std::to_string(v.ranks);

      EXPECT_EQ(serial.total_seconds, got.total_seconds) << what;
      EXPECT_EQ(serial.compute_seconds, got.compute_seconds) << what;
      EXPECT_EQ(serial.lb_seconds, got.lb_seconds) << what;
      EXPECT_EQ(serial.lb_count, got.lb_count) << what;
      EXPECT_EQ(serial.fallback_count, got.fallback_count) << what;
      EXPECT_EQ(serial.average_utilization, got.average_utilization) << what;
      EXPECT_EQ(serial.eroded_cells, got.eroded_cells) << what;
      EXPECT_EQ(serial.final_imbalance, got.final_imbalance) << what;
      EXPECT_EQ(serial.lb_iterations, got.lb_iterations) << what;
      ASSERT_EQ(serial.iterations.size(), got.iterations.size()) << what;
      for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
        EXPECT_EQ(serial.iterations[i].seconds, got.iterations[i].seconds)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].utilization,
                  got.iterations[i].utilization)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].degradation,
                  got.iterations[i].degradation)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].threshold, got.iterations[i].threshold)
            << what << " — iteration " << i;
        EXPECT_EQ(serial.iterations[i].lb_performed,
                  got.iterations[i].lb_performed)
            << what << " — iteration " << i;
      }
      if (v.ranks > 1) {
        // The distributed accounting is additional: the distributed run
        // recut its stripes at every LB step.
        EXPECT_GE(got.rank_migration_bytes, 0.0) << what;
        EXPECT_GT(got.rank_observed_bytes, 0.0)
            << what << " — an LB step fired, so migrations crossed the wire";
      }
    }
  }
}

/// App level: RunResult::rank_fractional_imbalance rates the final rank cut
/// — 0 at one rank, finite and nonnegative over R ranks, and
/// untouched by the per-rank stepping pools (one trajectory, one cut).
TEST(DistributedErosion, AppRankFractionalImbalanceIsThreadInvariant) {
  erosion::AppConfig cfg;
  cfg.pe_count = 16;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 40;
  cfg.seed = 3;
  cfg.method = Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;

  EXPECT_EQ(ErosionApp(cfg).run().rank_fractional_imbalance, 0.0);
  for (const std::int64_t ranks : {2, 4}) {
    AppConfig one_thread = cfg;
    one_thread.ranks = ranks;
    AppConfig two_threads = one_thread;
    two_threads.threads = 2;
    const double a = ErosionApp(one_thread).run().rank_fractional_imbalance;
    const double b = ErosionApp(two_threads).run().rank_fractional_imbalance;
    const std::string what = "ranks " + std::to_string(ranks);
    EXPECT_TRUE(std::isfinite(a)) << what;
    EXPECT_GE(a, 0.0) << what;
    EXPECT_EQ(a, b) << what;
  }
}

TEST(DistributedErosion, AppConfigRejectsOutOfRangeRanks) {
  erosion::AppConfig cfg;
  cfg.ranks = cfg.pe_count + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ranks = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DistributedErosion, AppConfigValidatesExchange) {
  erosion::AppConfig cfg;
  cfg.ranks = 2;
  cfg.exchange = "broadcast-tree";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The neighbor exchange is the only protocol.
  cfg.exchange = "alltoall";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.exchange = "neighbor";
  cfg.validate();
  EXPECT_THROW((void)exchange_mode_from_name("hypercube"),
               std::invalid_argument);
  EXPECT_EQ(exchange_mode_from_name("neighbor"), ExchangeMode::kNeighbor);
}

TEST(DistributedErosion, RejectsDegenerateConfigurations) {
  support::Rng config_rng(99);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  runtime::spmd_run(2, [&](runtime::Comm& comm) {
    EXPECT_THROW(DistributedDomain(cfg, comm, nullptr),
                 std::invalid_argument);
  });
  DomainConfig tiny;
  tiny.columns = 8;
  tiny.rows = 16;
  tiny.discs = {{4, 8, 1, 0.1}};
  tiny.validate();
  runtime::spmd_run(9, [&](runtime::Comm& comm) {
    EXPECT_THROW(DistributedDomain(tiny, comm, greedy()),
                 std::invalid_argument);
  });
}

}  // namespace
}  // namespace ulba::erosion
