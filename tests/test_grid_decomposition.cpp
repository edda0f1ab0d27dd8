// Decomposition-invariance suite for the 2D grid mode of
// erosion::DistributedDomain — the tentpole lock of the tile-grid PR.
//
// The load-bearing claims:
//   * the tile bounds form a complete disjoint cover of the domain, and
//     every disc is owned by exactly the tile holding its center — for 1xC,
//     Rx1, and RxC shapes alike;
//   * the trajectory is BIT-identical to the serial run for every grid
//     shape x exchange mode x per-rank pool (through the rank-0 monitor
//     protocol), across mid-run rebalances — and a 1xC grid without the
//     tuner IS the 1D stripe decomposition, byte for byte;
//   * 2D neighbor sets (edge AND corner neighbors) are mutually consistent,
//     survive damped tuner moves, route corner-straddling discs correctly,
//     and make the neighbor exchange strictly cheaper than all-to-all for
//     R >= 4 — cross-validated against the runtime traffic counters;
//   * the CLI surface: `erosion --decomp grid --grid 2x2` golden reports
//     (recut and tuner), and the flag-combination rejections.
#include "erosion/distributed_domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "erosion/app.hpp"
#include "erosion/domain.hpp"
#include "lb/grid.hpp"
#include "lb/partitioners.hpp"
#include "runtime/spmd.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

#ifndef ULBA_GOLDEN_DIR
#error "ULBA_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace ulba::erosion {
namespace {

std::shared_ptr<const lb::Partitioner> shared_partitioner(
    const std::string& name) {
  return std::shared_ptr<const lb::Partitioner>(lb::make_partitioner(name));
}

GridOptions grid_options(std::int64_t rows, std::int64_t cols,
                         bool tuner = false) {
  GridOptions grid;
  grid.grid_rows = rows;
  grid.grid_cols = cols;
  grid.tuner = tuner;
  return grid;
}

/// Serial in-process reference trajectory.
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

/// Monotone bounds that partition [0, extent) with >= 1 cell per band.
void expect_valid_bounds(const std::vector<std::int64_t>& b,
                         std::int64_t extent, std::int64_t bands,
                         const std::string& what) {
  ASSERT_EQ(b.size(), static_cast<std::size_t>(bands) + 1) << what;
  EXPECT_EQ(b.front(), 0) << what;
  EXPECT_EQ(b.back(), extent) << what;
  for (std::size_t j = 0; j + 1 < b.size(); ++j)
    EXPECT_LT(b[j], b[j + 1]) << what << " — band " << j;
}

/// Rank 0 collects every rank's local disc ids and asserts they form a
/// complete disjoint cover with each disc owned by the tile holding its
/// center (grid mode) or the stripe holding its center column (the 1xC
/// delegation path).
void expect_grid_cover(runtime::Comm& comm, const DistributedDomain& domain,
                       const std::string& what) {
  if (domain.grid_mode()) {
    expect_valid_bounds(domain.grid_row_bounds(), domain.config().rows,
                        domain.grid_rows(), what + " — row bounds");
    expect_valid_bounds(domain.grid_col_bounds(), domain.columns(),
                        domain.grid_cols(), what + " — col bounds");
  } else {
    expect_valid_bounds(domain.rank_boundaries(), domain.columns(),
                        domain.ranks(), what + " — stripe bounds");
  }
  const auto local = domain.local_discs();
  for (const std::size_t disc : local)
    EXPECT_EQ(domain.owner_of_disc(disc), domain.rank()) << what;
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
      ASSERT_LT(static_cast<std::size_t>(id), owners.size()) << what;
      ++owners[static_cast<std::size_t>(id)];
      const RockDisc& d = domain.config().discs[static_cast<std::size_t>(id)];
      if (domain.grid_mode())
        EXPECT_EQ(domain.owner_of_cell(d.cx, d.cy), rank)
            << what << " — disc " << id;
      else
        EXPECT_EQ(domain.owner_of_column(d.cx), rank)
            << what << " — disc " << id;
    }
  };
  count_ids(ids, 0);
  for (int s = 1; s < domain.ranks(); ++s)
    count_ids(comm.recv_vector<std::int64_t>(s, kTag), s);
  for (std::size_t disc = 0; disc < owners.size(); ++disc)
    EXPECT_EQ(owners[disc], 1)
        << what << " — disc " << disc << " covered by " << owners[disc]
        << " ranks";
}

/// Exchange send sets between all rank pairs and assert q's send set mirrors
/// my recv set — the mutual-consistency contract of the replicated 2D
/// neighbor derivation.
void expect_mutual_neighbor_sets(runtime::Comm& comm,
                                 const DistributedDomain& domain,
                                 const std::string& what) {
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
        << what << " — rank " << domain.rank() << " vs rank " << q;
  }
}

/// The grid shapes every 4-rank suite sweeps: a 1xC stripe-degenerate grid,
/// an Rx1 row-stripe grid, and the genuinely 2D near-square tile grid.
const std::vector<lb::GridShape> kFourRankShapes{{1, 4}, {4, 1}, {2, 2}};

std::string shape_label(const lb::GridShape& s) {
  return std::to_string(s.rows) + "x" + std::to_string(s.cols);
}

TEST(GridDecomposition, TileCoverIsCompleteAndDisjoint) {
  support::Rng config_rng(31);
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    for (const std::string name : {"greedy", "stripe"}) {
      for (const lb::GridShape& shape : kFourRankShapes) {
        if (shape.cols > cfg.columns || shape.rows > cfg.rows) continue;
        runtime::spmd_run(4, [&](runtime::Comm& comm) {
          DistributedDomain domain(cfg, comm, shared_partitioner(name),
                                   ExchangeMode::kNeighbor,
                                   grid_options(shape.rows, shape.cols));
          // 1xC without the tuner IS the stripe decomposition.
          EXPECT_EQ(domain.grid_mode(), shape.rows > 1);
          expect_grid_cover(comm, domain,
                            "trial " + std::to_string(trial) + ", " + name +
                                ", shape " + shape_label(shape));
        });
      }
    }
  }
}

TEST(GridDecomposition, BitIdenticalAcrossShapesExchangesPools) {
  constexpr int kSteps = 12;
  support::Rng config_rng(613);
  for (int trial = 0; trial < 2; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 9100 + static_cast<std::uint64_t>(trial);
    const SerialReference ref = serial_reference(cfg, seed, kSteps);
    for (const std::string name : {"greedy", "stripe"}) {
      for (const lb::GridShape& shape : kFourRankShapes) {
        for (const ExchangeMode mode :
             {ExchangeMode::kAllToAll, ExchangeMode::kNeighbor}) {
          for (const std::size_t threads : {1u, 2u}) {
            runtime::spmd_run(4, [&](runtime::Comm& comm) {
              DistributedDomain domain(cfg, comm, shared_partitioner(name),
                                       mode,
                                       grid_options(shape.rows, shape.cols));
              std::optional<support::ThreadPool> pool;
              if (threads > 1) pool.emplace(threads);
              std::int64_t eroded_total = 0;
              for (int s = 0; s < kSteps; ++s) {
                eroded_total +=
                    domain.step_counter(seed, s, pool ? &*pool : nullptr);
                if (s == kSteps / 2) (void)domain.rebalance();
              }
              EXPECT_EQ(eroded_total, ref.eroded);
              expect_matches_reference(
                  ref, domain,
                  "trial " + std::to_string(trial) + ", " + name +
                      ", shape " + shape_label(shape) + ", exchange " +
                      exchange_mode_name(mode) + ", threads " +
                      std::to_string(threads));
            });
          }
        }
      }
    }
  }
}

/// A skewed domain whose strong disc concentrates refined workload in the
/// top-left tile — the damped tuner must move boundaries to chase it.
DomainConfig skewed_grid_config() {
  DomainConfig cfg;
  cfg.columns = 96;
  cfg.rows = 64;
  cfg.discs = {{14, 14, 11, 0.5}, {44, 32, 11, 0.02}, {76, 48, 11, 0.02}};
  cfg.validate();
  return cfg;
}

TEST(GridDecomposition, NeighborSetsStayMutualAcrossTunerRebalances) {
  const DomainConfig cfg = skewed_grid_config();
  runtime::spmd_run(4, [&](runtime::Comm& comm) {
    DistributedDomain domain(cfg, comm, shared_partitioner("stripe"),
                             ExchangeMode::kNeighbor,
                             grid_options(2, 2, /*tuner=*/true));
    std::int64_t iter = 0;
    bool any_tuned = false;
    for (int round = 0; round < 3; ++round) {
      for (int s = 0; s < 8; ++s) (void)domain.step_counter(5, iter++);
      const std::vector<std::int64_t> rb = domain.grid_row_bounds();
      const std::vector<std::int64_t> cb = domain.grid_col_bounds();
      const DistributedReshardResult res = domain.rebalance();
      EXPECT_TRUE(res.tuner_ran) << "round " << round;
      any_tuned |= res.tuned_cols.iterations + res.tuned_rows.iterations > 0;
      // Damping: every boundary stays inside its per-rebalance envelope.
      for (std::size_t j = 1; j + 1 < rb.size(); ++j)
        EXPECT_LE(std::llabs(domain.grid_row_bounds()[j] - rb[j]),
                  lb::boundary_move_limit(rb, j, 0.05))
            << "round " << round << " — row boundary " << j;
      for (std::size_t j = 1; j + 1 < cb.size(); ++j)
        EXPECT_LE(std::llabs(domain.grid_col_bounds()[j] - cb[j]),
                  lb::boundary_move_limit(cb, j, 0.05))
            << "round " << round << " — col boundary " << j;
      expect_mutual_neighbor_sets(comm, domain,
                                  "round " + std::to_string(round));
      expect_grid_cover(comm, domain, "round " + std::to_string(round));
    }
    // The skew is strong enough that at least one rebalance must tune.
    EXPECT_TRUE(any_tuned);
    // The tuner moves boundaries, never the trajectory.
    const SerialReference ref = serial_reference(cfg, 5, 24);
    expect_matches_reference(ref, domain, "post-tuner trajectory");
  });
}

/// One disc dead on the 2x2 tile-grid corner: its bounding rectangle spans
/// all four tiles, so the owner must send halos to BOTH edge neighbors AND
/// the corner neighbor — and the weights must still be bit-equal to serial.
TEST(GridDecomposition, CornerStraddlingDiscReachesCornerNeighbor) {
  DomainConfig cfg;
  cfg.columns = 64;
  cfg.rows = 64;
  cfg.discs = {{32, 32, 10, 0.35}, {14, 14, 8, 0.3}};
  cfg.validate();
  constexpr int kSteps = 18;
  const std::uint64_t seed = 424;
  const SerialReference ref = serial_reference(cfg, seed, kSteps);

  runtime::spmd_run(4, [&](runtime::Comm& comm) {
    DistributedDomain domain(cfg, comm, shared_partitioner("stripe"),
                             ExchangeMode::kNeighbor, grid_options(2, 2));
    // The even stripe cut puts the 2x2 corner at (32, 32): the first disc's
    // bounding box [22, 42]^2 touches four distinct tiles.
    const int owner = domain.owner_of_cell(32, 32);
    EXPECT_EQ(domain.owner_of_cell(22, 22), 0);
    EXPECT_NE(domain.owner_of_cell(22, 22), domain.owner_of_cell(42, 22));
    EXPECT_NE(domain.owner_of_cell(22, 22), domain.owner_of_cell(22, 42));
    EXPECT_NE(domain.owner_of_cell(42, 22), domain.owner_of_cell(42, 42));
    if (domain.rank() == owner) {
      // The owner's send set covers the other three tiles — the diagonal
      // one included (a set no 1D stripe decomposition can produce).
      const auto& sn = domain.halo_send_neighbors();
      for (const int q : {0, 1, 2})
        EXPECT_NE(std::find(sn.begin(), sn.end(), q), sn.end())
            << "corner-disc owner must send to tile " << q;
    }
    expect_mutual_neighbor_sets(comm, domain, "corner disc");
    for (int s = 0; s < kSteps; ++s) (void)domain.step_counter(seed, s);
    expect_matches_reference(ref, domain, "corner-straddling disc");
  });
}

/// The 2D message-count claim: with localized discs the neighbor exchange
/// sends strictly fewer per-step messages than the all-to-all reference for
/// every R >= 4 grid, and the domain's own accounting agrees message for
/// message (and byte for byte) with the runtime traffic counters.
TEST(GridDecomposition, NeighborExchangeStrictlyCheaperIn2D) {
  DomainConfig cfg;
  cfg.columns = 16 * 48;
  cfg.rows = 64;
  for (std::int64_t i = 0; i < 16; ++i)
    cfg.discs.push_back({i * 48 + 24, 32, 16, i == 7 ? 0.4 : 0.02});
  cfg.validate();
  constexpr int kSteps = 10;

  struct Case {
    int ranks;
    lb::GridShape shape;
  };
  for (const Case& c : {Case{4, {2, 2}}, Case{8, {2, 4}}}) {
    std::uint64_t msgs[2] = {0, 0};
    std::uint64_t bytes[2] = {0, 0};
    for (const ExchangeMode mode :
         {ExchangeMode::kAllToAll, ExchangeMode::kNeighbor}) {
      const auto m =
          static_cast<std::size_t>(mode == ExchangeMode::kNeighbor);
      runtime::spmd_run(c.ranks, [&](runtime::Comm& comm) {
        DistributedDomain domain(cfg, comm, shared_partitioner("stripe"),
                                 mode,
                                 grid_options(c.shape.rows, c.shape.cols));
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
        const std::int64_t total_msgs = comm.allreduce(my_msgs);
        const std::int64_t total_bytes = comm.allreduce(my_bytes);
        if (comm.rank() == 0) {
          msgs[m] = static_cast<std::uint64_t>(total_msgs);
          bytes[m] = static_cast<std::uint64_t>(total_bytes);
          EXPECT_EQ(after.messages - before.messages,
                    static_cast<std::uint64_t>(total_msgs))
              << shape_label(c.shape) << ", " << exchange_mode_name(mode);
          EXPECT_EQ(after.payload_bytes - before.payload_bytes,
                    static_cast<std::uint64_t>(total_bytes))
              << shape_label(c.shape) << ", " << exchange_mode_name(mode);
        }
      });
    }
    EXPECT_LT(msgs[1], msgs[0])
        << shape_label(c.shape)
        << " — neighbor mode must send strictly fewer step messages";
    EXPECT_LE(bytes[1], bytes[0]) << shape_label(c.shape);
    EXPECT_EQ(msgs[0], static_cast<std::uint64_t>(c.ranks) *
                           static_cast<std::uint64_t>(c.ranks - 1) * kSteps);
  }
}

erosion::AppConfig grid_app_config() {
  erosion::AppConfig cfg;
  cfg.pe_count = 16;
  cfg.columns_per_pe = 48;
  cfg.rows = 64;
  cfg.rock_radius = 16;
  cfg.iterations = 50;
  cfg.seed = 3;
  cfg.method = Method::kUlba;
  cfg.bytes_per_cell = 256.0;
  cfg.comm.latency_s = 1e-4;
  cfg.comm.bandwidth_Bps = 2e9;
  return cfg;
}

/// App level: `decomp = grid` must reproduce the serial RunResult bit for
/// bit — every trajectory-facing field — with and without the damped tuner
/// (which may only touch the imbalance accounting, never the trajectory).
TEST(GridDecomposition, AppRunResultBitIdenticalToSerial) {
  const erosion::AppConfig serial_cfg = grid_app_config();
  const RunResult serial = ErosionApp(serial_cfg).run();
  ASSERT_GE(serial.lb_count, 1)
      << "the reference run must exercise at least one mid-run LB step";
  for (const bool tuner : {false, true}) {
    AppConfig dist_cfg = serial_cfg;
    dist_cfg.ranks = 4;
    dist_cfg.decomp = "grid";
    dist_cfg.grid_rows = 2;
    dist_cfg.grid_cols = 2;
    dist_cfg.tuner = tuner;
    const RunResult dist = ErosionApp(dist_cfg).run();
    const std::string what = tuner ? "tuner" : "recut";
    EXPECT_EQ(serial.total_seconds, dist.total_seconds) << what;
    EXPECT_EQ(serial.compute_seconds, dist.compute_seconds) << what;
    EXPECT_EQ(serial.lb_seconds, dist.lb_seconds) << what;
    EXPECT_EQ(serial.lb_count, dist.lb_count) << what;
    EXPECT_EQ(serial.fallback_count, dist.fallback_count) << what;
    EXPECT_EQ(serial.average_utilization, dist.average_utilization) << what;
    EXPECT_EQ(serial.eroded_cells, dist.eroded_cells) << what;
    EXPECT_EQ(serial.final_imbalance, dist.final_imbalance) << what;
    EXPECT_EQ(serial.lb_iterations, dist.lb_iterations) << what;
    EXPECT_EQ(serial.lb_alphas, dist.lb_alphas) << what;
    ASSERT_EQ(serial.iterations.size(), dist.iterations.size()) << what;
    for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
      EXPECT_EQ(serial.iterations[i].seconds, dist.iterations[i].seconds)
          << what << " — iteration " << i;
      EXPECT_EQ(serial.iterations[i].utilization,
                dist.iterations[i].utilization)
          << what << " — iteration " << i;
      EXPECT_EQ(serial.iterations[i].lb_performed,
                dist.iterations[i].lb_performed)
          << what << " — iteration " << i;
    }
    // The grid accounting is additional, never trajectory-facing.
    EXPECT_GE(dist.rank_fractional_imbalance, 0.0) << what;
    if (!tuner) {
      EXPECT_EQ(dist.grid_tuner_iterations, 0) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// CLI surface: golden reports + flag rejections
// ---------------------------------------------------------------------------

std::string run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  const int exit_code = cli::run(args, out);
  EXPECT_EQ(exit_code, 0) << "args[0] = " << (args.empty() ? "" : args[0]);
  return out.str();
}

void expect_matches_golden(const std::string& name,
                           const std::vector<std::string>& args) {
  const std::string text = run_cli(args);
  const std::string path = std::string(ULBA_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("ULBA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << text;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with ULBA_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  EXPECT_EQ(text, expected.str())
      << "output of `ulba_cli " << name << "` drifted from " << path
      << " — regenerate with ULBA_UPDATE_GOLDEN=1 if intentional";
}

TEST(GridDecomposition, CliGoldenGridReport) {
  expect_matches_golden(
      "erosion_grid",
      {"erosion", "--pes", "16", "--iterations", "60", "--columns-per-pe",
       "48", "--rows", "64", "--rock-radius", "16", "--seed", "3", "--ranks",
       "4", "--decomp", "grid", "--grid", "2x2", "--threads", "2"});
}

TEST(GridDecomposition, CliGoldenGridReportTuner) {
  expect_matches_golden(
      "erosion_grid_counter",
      {"erosion", "--pes", "16", "--iterations", "60", "--columns-per-pe",
       "48", "--rows", "64", "--rock-radius", "16", "--seed", "3", "--ranks",
       "4", "--decomp", "grid", "--grid", "2x2", "--tuner"});
}

TEST(GridDecomposition, CliRejectsBadGridFlagCombinations) {
  std::ostringstream out;
  // --grid / --tuner knobs are grid-decomposition vocabulary.
  EXPECT_THROW(cli::run({"erosion", "--ranks", "4", "--grid", "2x2"}, out),
               std::invalid_argument);
  EXPECT_THROW(cli::run({"erosion", "--ranks", "4", "--tuner"}, out),
               std::invalid_argument);
  EXPECT_THROW(
      cli::run({"erosion", "--ranks", "4", "--decomp", "grid", "--tuner-cap",
                "0.1"},
               out),
      std::invalid_argument);
  // The decomposition vocabulary is closed, and grid needs the SPMD ranks.
  EXPECT_THROW(
      cli::run({"erosion", "--ranks", "4", "--decomp", "hilbert"}, out),
      std::invalid_argument);
  EXPECT_THROW(cli::run({"erosion", "--decomp", "grid"}, out),
               std::invalid_argument);
  // Non-factorable shapes are rejected, never silently adjusted.
  EXPECT_THROW(cli::run({"erosion", "--ranks", "4", "--decomp", "grid",
                         "--grid", "3x2"},
                        out),
               std::invalid_argument);
  EXPECT_THROW(cli::run({"erosion", "--ranks", "4", "--decomp", "grid",
                         "--grid", "2x"},
                        out),
               std::invalid_argument);
  // The valid combinations still parse: both explicit and derived shapes.
  EXPECT_EQ(cli::run({"erosion", "--ranks", "4", "--decomp", "grid",
                      "--iterations", "8", "--pes", "8", "--columns-per-pe",
                      "48", "--rows", "48", "--rock-radius", "12"},
                     out),
            0);
}

}  // namespace
}  // namespace ulba::erosion
