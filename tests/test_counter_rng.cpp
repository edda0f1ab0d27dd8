// support::CounterRng and the counter-kernel fast path.
//
// Three layers of guarantees, weakest to strongest:
//   1. The Philox4x32-10 block function matches the published Random123
//      known-answer vectors — the implementation is THE Philox, not a
//      lookalike (any future "optimization" that changes a round shows up
//      here first).
//   2. Draws are position-addressed: the value at (disc, iteration, cell)
//      is independent of evaluation order, repetition, thread, and of which
//      other draws are taken at all.
//   3. erosion::counter_decide_apply produces bit-identical domains for
//      every pool size and for every partition of the disc set — the
//      property the app-level threads/ranks invariance rests on — and its
//      per-disc pass is pinned without Philox values at p = 1 and p = 0.
#include "support/counter_rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "erosion/counter_kernel.hpp"
#include "erosion/domain.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_helpers.hpp"

namespace ulba::support {
namespace {

// Random123 kat_vectors, philox4x32x10 rows: counter/key -> output.
TEST(CounterRng, PhiloxKnownAnswers) {
  using Block = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;
  EXPECT_EQ(CounterRng::philox4x32({0u, 0u, 0u, 0u}, Key{0u, 0u}),
            (Block{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu, 0x9b00dbd8u}));
  EXPECT_EQ(CounterRng::philox4x32({0xffffffffu, 0xffffffffu, 0xffffffffu,
                                    0xffffffffu},
                                   Key{0xffffffffu, 0xffffffffu}),
            (Block{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u, 0x6d5451fdu}));
  EXPECT_EQ(CounterRng::philox4x32({0x243f6a88u, 0x85a308d3u, 0x13198a2eu,
                                    0x03707344u},
                                   Key{0xa4093822u, 0x299f31d0u}),
            (Block{0xd16cfe09u, 0x94fdccebu, 0x5001e420u, 0x24126ea1u}));
}

TEST(CounterRng, KeyDerivationMatchesRngFork) {
  // Both stream-splitting facilities must keep using the same SplitMix64
  // recipe, so per-disc streams are decorrelated like forked streams.
  for (const std::uint64_t seed : {0ull, 11ull, 0xdeadbeefcafeull}) {
    for (const std::uint64_t stream : {0ull, 1ull, 57ull}) {
      const std::uint64_t forked = Rng(seed).fork(stream).seed();
      const auto key = CounterRng(seed, stream).key();
      EXPECT_EQ(key[0], static_cast<std::uint32_t>(forked));
      EXPECT_EQ(key[1], static_cast<std::uint32_t>(forked >> 32));
    }
  }
}

TEST(CounterRng, DrawsArePositionAddressedNotOrderDependent) {
  const CounterRng rng(42, 7);
  // Reference: row-major evaluation of a grid of positions.
  std::vector<std::uint64_t> reference;
  for (std::uint64_t hi = 0; hi < 8; ++hi)
    for (std::uint64_t lo = 0; lo < 64; ++lo)
      reference.push_back(rng.draw(hi, lo));

  // Same positions, shuffled evaluation order, some evaluated repeatedly,
  // on a fresh instance with the same (seed, stream).
  const CounterRng again(42, 7);
  std::vector<std::size_t> order(reference.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffler(3);
  std::shuffle(order.begin(), order.end(), shuffler);
  for (const std::size_t i : order) {
    const std::uint64_t hi = i / 64, lo = i % 64;
    (void)again.draw(hi ^ 5, lo + 1000);  // unrelated interleaved draws
    EXPECT_EQ(reference[i], again.draw(hi, lo)) << "position " << i;
    EXPECT_EQ(reference[i], again.draw(hi, lo)) << "repeated " << i;
  }

  // Distinct positions and distinct streams actually differ.
  EXPECT_NE(rng.draw(0, 0), rng.draw(0, 1));
  EXPECT_NE(rng.draw(0, 0), rng.draw(1, 0));
  EXPECT_NE(rng.draw(0, 0), CounterRng(42, 8).draw(0, 0));
  EXPECT_NE(rng.draw(0, 0), CounterRng(43, 7).draw(0, 0));
}

TEST(CounterRng, Uniform01BoundsAndMean) {
  const CounterRng rng(9, 0);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform01(0, static_cast<std::uint64_t>(i));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  // Bernoulli edge cases at any position: p = 0 never, p = 1 always.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0, 1, static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(rng.bernoulli(1.0, 1, static_cast<std::uint64_t>(i)));
  }
}

}  // namespace
}  // namespace ulba::support

namespace ulba::erosion {
namespace {

/// Full-domain counter trajectory snapshot after `steps` iterations.
struct CounterSnapshot {
  std::vector<double> weights;
  double total = 0.0;
  std::int64_t eroded = 0;
  std::int64_t rock_remaining = 0;
  std::int64_t frontier = 0;
};

CounterSnapshot counter_snapshot(const DomainConfig& cfg, std::uint64_t seed,
                                 int steps, support::ThreadPool* pool) {
  ErosionDomain domain(cfg);
  for (int s = 0; s < steps; ++s)
    (void)domain.step_counter(seed, s, pool);
  CounterSnapshot snap;
  snap.weights.assign(domain.column_weights().begin(),
                      domain.column_weights().end());
  snap.total = domain.total_workload();
  snap.eroded = domain.eroded_cells();
  snap.rock_remaining = domain.rock_cells_remaining();
  snap.frontier = domain.frontier_size();
  return snap;
}

void expect_snapshots_equal(const CounterSnapshot& a, const CounterSnapshot& b,
                            const std::string& what) {
  EXPECT_EQ(a.eroded, b.eroded) << what;
  EXPECT_EQ(a.rock_remaining, b.rock_remaining) << what;
  EXPECT_EQ(a.frontier, b.frontier) << what;
  EXPECT_EQ(a.total, b.total) << what;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << what;
  for (std::size_t x = 0; x < a.weights.size(); ++x)
    ASSERT_EQ(a.weights[x], b.weights[x]) << what << " — column " << x;
}

TEST(CounterKernel, BitIdenticalForEveryPoolSize) {
  constexpr int kSteps = 16;
  support::Rng config_rng(314);
  for (int trial = 0; trial < 3; ++trial) {
    const DomainConfig cfg = testing::random_domain_config(config_rng);
    const std::uint64_t seed = 60 + static_cast<std::uint64_t>(trial);
    const CounterSnapshot ref = counter_snapshot(cfg, seed, kSteps, nullptr);
    // The incremental accounting stays consistent with itself.
    const double sum =
        std::accumulate(ref.weights.begin(), ref.weights.end(), 0.0);
    EXPECT_NEAR(sum, ref.total, 1e-9 * ref.total);
    EXPECT_EQ(ref.rock_remaining + ref.eroded,
              ErosionDomain(cfg).rock_cells_remaining());
    for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
      support::ThreadPool pool(threads);
      const CounterSnapshot got = counter_snapshot(cfg, seed, kSteps, &pool);
      expect_snapshots_equal(ref, got,
                             "trial " + std::to_string(trial) + ", " +
                                 std::to_string(threads) + " threads");
    }
  }
}

TEST(CounterKernel, SubsetPartitioningCannotChangeTheDraws) {
  // Stepping disc subsets through separate kernel calls (a rank's view of
  // the domain) must reproduce the full-set pass exactly:
  // the draw at (disc, iteration, cell) does not know which call evaluated
  // it, as long as the GLOBAL disc ids are passed through. This is the
  // micro-version of the ranks invariance.
  support::Rng config_rng(1618);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  const std::uint64_t seed = 123;
  constexpr int kSteps = 10;

  std::vector<DiscState> whole;
  for (const RockDisc& d : cfg.discs) whole.push_back(build_disc_state(d));
  std::vector<DiscState> split = whole;
  const std::size_t n = whole.size();
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const std::size_t cut = n / 3;

  CounterWorkspace ws_whole, ws_front, ws_back;
  std::int64_t eroded_whole = 0, eroded_split = 0;
  for (int s = 0; s < kSteps; ++s) {
    eroded_whole += counter_decide_apply(whole, ids, seed, s, nullptr,
                                         ws_whole);
    // Two kernel calls over an uneven split of the disc set, back subset
    // first — neither the grouping nor the call order may matter.
    eroded_split += counter_decide_apply(
        std::span<DiscState>(split).subspan(cut),
        std::span<const std::size_t>(ids).subspan(cut), seed, s, nullptr,
        ws_back);
    eroded_split += counter_decide_apply(
        std::span<DiscState>(split).first(cut),
        std::span<const std::size_t>(ids).first(cut), seed, s, nullptr,
        ws_front);
  }

  EXPECT_GT(eroded_whole, 0) << "the trial domain never eroded anything";
  EXPECT_EQ(eroded_whole, eroded_split);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(whole[k].rock_remaining, split[k].rock_remaining) << "disc " << k;
    EXPECT_EQ(whole[k].frontier, split[k].frontier) << "disc " << k;
    ASSERT_EQ(whole[k].cells, split[k].cells) << "disc " << k;
  }
}

/// Steps raw disc states through counter_decide_apply for `steps`
/// iterations with no pool and with a pool of each size in `pools`, in
/// lockstep, and requires every pooled pass to leave exactly the serial
/// pass's state: each disc's frontier (order included), cells and
/// rock_remaining, and each erode list.
void expect_pooled_passes_match_serial(const DomainConfig& cfg,
                                       std::span<const std::size_t> pools,
                                       int steps) {
  cfg.validate();
  std::vector<DiscState> serial;
  for (const RockDisc& d : cfg.discs) serial.push_back(build_disc_state(d));
  const std::size_t n = serial.size();
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});

  struct Pooled {
    Pooled(std::size_t threads, std::vector<DiscState> start)
        : pool(threads), discs(std::move(start)) {}
    support::ThreadPool pool;
    std::vector<DiscState> discs;
    CounterWorkspace ws;
  };
  std::vector<std::unique_ptr<Pooled>> pooled;
  for (const std::size_t threads : pools)
    pooled.push_back(std::make_unique<Pooled>(threads, serial));

  CounterWorkspace ws;
  std::int64_t eroded_total = 0;
  for (int s = 0; s < steps; ++s) {
    const std::int64_t eroded =
        counter_decide_apply(serial, ids, 29, s, nullptr, ws);
    eroded_total += eroded;
    for (std::size_t p = 0; p < pooled.size(); ++p) {
      Pooled& run = *pooled[p];
      const std::string what = std::to_string(pools[p]) + " threads, step " +
                               std::to_string(s);
      ASSERT_EQ(eroded, counter_decide_apply(run.discs, ids, 29, s,
                                             &run.pool, run.ws))
          << what;
      ASSERT_EQ(run.ws.erode.size(), n) << what;
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(ws.erode[k], run.ws.erode[k]) << what << ", disc " << k;
        ASSERT_EQ(serial[k].frontier, run.discs[k].frontier)
            << what << ", disc " << k;
        ASSERT_EQ(serial[k].rock_remaining, run.discs[k].rock_remaining)
            << what << ", disc " << k;
        ASSERT_EQ(serial[k].cells, run.discs[k].cells)
            << what << ", disc " << k;
      }
    }
  }
  EXPECT_GT(eroded_total, 0) << "the trial domain never eroded anything";
}

TEST(CounterKernel, PooledPassMatchesSerialStateForState) {
  // Twelve discs of radius 40-46, one strong: thousands of frontier cells,
  // so each pool runs twelve concurrent disc tasks of real size.
  DomainConfig cfg;
  cfg.columns = 12 * 100;
  cfg.rows = 100;
  for (std::int64_t i = 0; i < 12; ++i)
    cfg.discs.push_back(RockDisc{50 + 100 * i, 50, 40 + 2 * (i % 4),
                                 i == 5 ? 0.4 : 0.02 + 0.01 * (i % 3)});
  std::size_t frontier = 0;
  for (const RockDisc& d : cfg.discs)
    frontier += build_disc_state(d).frontier.size();
  ASSERT_GT(frontier, 2048u);
  const std::array<std::size_t, 3> pools{2, 3, 8};
  expect_pooled_passes_match_serial(cfg, pools, 30);

  // Fewer discs than threads: six of the eight threads find no task.
  DomainConfig pair;
  pair.columns = 200;
  pair.rows = 100;
  pair.discs = {RockDisc{50, 50, 44, 0.4}, RockDisc{150, 50, 40, 0.05}};
  const std::array<std::size_t, 1> eight{8};
  expect_pooled_passes_match_serial(pair, eight, 30);
}

TEST(CounterKernel, CertainErosionPeelsTheFrontierInOrder) {
  // At p = 1 every threshold with a fluid face is 2^53, above every draw,
  // so the pass is fixed without looking at a single Philox value.
  const RockDisc disc{10, 10, 3, 1.0};
  std::vector<DiscState> discs{build_disc_state(disc)};
  const DiscState before = discs[0];
  ASSERT_EQ(before.rock_remaining, 29);
  ASSERT_EQ(before.frontier.size(), 16u);
  const std::size_t id = 0;
  CounterWorkspace ws;

  // The ring the initial frontier exposes: each eroded cell's rock-interior
  // neighbours, left, right, up, down, in frontier order, each once.
  const std::int64_t side = before.side;
  std::vector<Cell> cells = before.cells;
  for (const std::int32_t idx : before.frontier)
    cells[static_cast<std::size_t>(idx)] = Cell::kRefined;
  std::vector<std::int32_t> ring;
  for (const std::int32_t idx : before.frontier) {
    const std::int64_t lx = idx % side;
    const std::int64_t ly = idx / side;
    const std::array<std::array<std::int64_t, 2>, 4> around{
        {{lx - 1, ly}, {lx + 1, ly}, {lx, ly - 1}, {lx, ly + 1}}};
    for (const auto& [nx, ny] : around) {
      if (nx < 0 || ny < 0 || nx >= side || ny >= side) continue;
      const auto n = static_cast<std::size_t>(ny * side + nx);
      if (cells[n] != Cell::kRockInterior) continue;
      cells[n] = Cell::kRockFrontier;
      ring.push_back(static_cast<std::int32_t>(n));
    }
  }
  ASSERT_EQ(ring.size(), 8u);

  EXPECT_EQ(counter_decide_apply(discs, {&id, 1}, 5, 0, nullptr, ws), 16);
  EXPECT_EQ(ws.erode[0], before.frontier);
  EXPECT_EQ(discs[0].frontier, ring);
  EXPECT_EQ(discs[0].cells, cells);
  EXPECT_EQ(discs[0].rock_remaining, 13);

  // Then the ring, the four cells around the centre, and the centre.
  std::int64_t iteration = 1;
  for (const std::int64_t expected : {8, 4, 1}) {
    const std::vector<std::int32_t> front = discs[0].frontier;
    EXPECT_EQ(counter_decide_apply(discs, {&id, 1}, 5, iteration++, nullptr,
                                   ws),
              expected);
    EXPECT_EQ(ws.erode[0], front);
  }
  EXPECT_TRUE(discs[0].frontier.empty());
  EXPECT_EQ(discs[0].rock_remaining, 0);
}

TEST(CounterKernel, ExposeOrderIsLeftRightUpDown) {
  // No frontier cell of the fresh radius-3 disc above has interior rock on
  // two opposite sides, so a hand-built 3 x 3 box pins the rest of the
  // order: rock everywhere but one fluid face of the centre, its only
  // frontier cell. At p = 1 the centre erodes and exposes its three rock
  // neighbours in the kernel's fixed order.
  constexpr std::int32_t kUp = 1, kLeft = 3, kRight = 5, kDown = 7;
  struct Case {
    std::int32_t fluid;
    std::vector<std::int32_t> exposed;
  };
  const std::size_t id = 0;
  for (const Case& c : {Case{kUp, {kLeft, kRight, kDown}},
                        Case{kLeft, {kRight, kUp, kDown}},
                        Case{kRight, {kLeft, kUp, kDown}},
                        Case{kDown, {kLeft, kRight, kUp}}}) {
    DiscState d;
    d.side = 3;
    d.erosion_prob = 1.0;
    d.cells.assign(9, Cell::kRockInterior);
    d.cells[static_cast<std::size_t>(c.fluid)] = Cell::kOutside;
    d.cells[4] = Cell::kRockFrontier;
    d.frontier = {4};
    d.rock_remaining = 8;
    std::vector<DiscState> discs{d};
    CounterWorkspace ws;
    EXPECT_EQ(counter_decide_apply(discs, {&id, 1}, 5, 0, nullptr, ws), 1);
    EXPECT_EQ(discs[0].frontier, c.exposed) << "fluid cell " << c.fluid;
    EXPECT_EQ(discs[0].rock_remaining, 7);
  }
}

TEST(CounterKernel, ZeroProbabilityNeverErodes) {
  const RockDisc disc{10, 10, 3, 0.0};
  std::vector<DiscState> discs{build_disc_state(disc)};
  const DiscState before = discs[0];
  const std::size_t id = 0;
  CounterWorkspace ws;
  for (int s = 0; s < 20; ++s) {
    EXPECT_EQ(counter_decide_apply(discs, {&id, 1}, 5, s, nullptr, ws), 0);
    EXPECT_TRUE(ws.erode[0].empty());
  }
  EXPECT_EQ(discs[0].frontier, before.frontier);
  EXPECT_EQ(discs[0].cells, before.cells);
  EXPECT_EQ(discs[0].rock_remaining, before.rock_remaining);
}

TEST(CounterKernel, RepeatingAnIterationRepeatsItsDraws) {
  // The iteration number is part of the address: two domains stepped with
  // the same (seed, iteration) sequence agree, and reusing an iteration
  // number replays its decisions (the resume/checkpoint property).
  support::Rng config_rng(99);
  const DomainConfig cfg = testing::random_domain_config(config_rng);
  ErosionDomain a(cfg);
  ErosionDomain b(cfg);
  const std::int64_t ea = a.step_counter(8, 0);
  const std::int64_t eb = b.step_counter(8, 0);
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(a.frontier_size(), b.frontier_size());
  // Different iteration numbers address different draws (overwhelmingly).
  ErosionDomain c(cfg);
  ErosionDomain d(cfg);
  std::int64_t diverged = 0;
  for (std::int64_t s = 0; s < 6; ++s) {
    const std::int64_t ec = c.step_counter(8, s);
    const std::int64_t ed = d.step_counter(8, s + 100);
    if (ec != ed) ++diverged;
  }
  EXPECT_GT(diverged, 0) << "iteration is not reaching the draw addresses";
}

}  // namespace
}  // namespace ulba::erosion
