// WIR database freshness semantics and epidemic dissemination.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "core/gossip.hpp"
#include "core/wir_database.hpp"
#include "test_helpers.hpp"

namespace ulba::core {
namespace {

TEST(WirDatabase, StartsUnknown) {
  const WirDatabase db(4);
  EXPECT_EQ(db.pe_count(), 4);
  EXPECT_EQ(db.unknown_count(), 4);
  EXPECT_FALSE(db.entry(0).known());
  EXPECT_EQ(db.wirs(), (std::vector<double>{0.0, 0.0, 0.0, 0.0}));
}

TEST(WirDatabase, UpdateAndRead) {
  WirDatabase db(3);
  db.update(1, 42.0, 7);
  EXPECT_TRUE(db.entry(1).known());
  EXPECT_DOUBLE_EQ(db.entry(1).wir, 42.0);
  EXPECT_EQ(db.entry(1).iteration, 7);
  EXPECT_EQ(db.unknown_count(), 2);
}

TEST(WirDatabase, StaleUpdateIsIgnored) {
  WirDatabase db(2);
  db.update(0, 10.0, 5);
  db.update(0, 99.0, 3);  // older measurement
  EXPECT_DOUBLE_EQ(db.entry(0).wir, 10.0);
  db.update(0, 20.0, 5);  // same-age refresh wins
  EXPECT_DOUBLE_EQ(db.entry(0).wir, 20.0);
}

TEST(WirDatabase, MergeKeepsFreshest) {
  WirDatabase a(3), b(3);
  a.update(0, 1.0, 10);
  a.update(1, 2.0, 3);
  b.update(1, 5.0, 8);
  b.update(2, 6.0, 1);
  const std::size_t adopted = a.merge_from(b);
  EXPECT_EQ(adopted, 2u);  // entries 1 and 2
  EXPECT_DOUBLE_EQ(a.entry(0).wir, 1.0);
  EXPECT_DOUBLE_EQ(a.entry(1).wir, 5.0);
  EXPECT_DOUBLE_EQ(a.entry(2).wir, 6.0);
}

TEST(WirDatabase, MergeIsIdempotent) {
  WirDatabase a(2), b(2);
  b.update(0, 4.0, 2);
  (void)a.merge_from(b);
  EXPECT_EQ(a.merge_from(b), 0u);
}

TEST(WirDatabase, MergeRejectsSizeMismatch) {
  WirDatabase a(2);
  const WirDatabase b(3);
  EXPECT_THROW((void)a.merge_from(b), std::invalid_argument);
}

TEST(WirDatabase, StalenessTracking) {
  WirDatabase db(2);
  db.update(0, 1.0, 4);
  EXPECT_EQ(db.max_staleness(10), 11);  // PE 1 unknown ⇒ now + 1
  db.update(1, 1.0, 9);
  EXPECT_EQ(db.max_staleness(10), 6);  // PE 0 is 6 iterations old
}

TEST(WirDatabase, BoundsChecked) {
  WirDatabase db(2);
  EXPECT_THROW(db.update(2, 1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)db.entry(-1), std::invalid_argument);
  EXPECT_THROW(db.update(0, 1.0, -3), std::invalid_argument);
  EXPECT_THROW(WirDatabase(0), std::invalid_argument);
}

TEST(Gossip, ConstructionChecks) {
  EXPECT_THROW(GossipNetwork(1, 1), std::invalid_argument);
  EXPECT_THROW(GossipNetwork(4, 0), std::invalid_argument);
  EXPECT_THROW(GossipNetwork(4, 4), std::invalid_argument);
  EXPECT_NO_THROW(GossipNetwork(4, 3));
}

TEST(Gossip, ObserveLocalLandsInOwnDatabase) {
  GossipNetwork net(4, 1);
  net.observe_local(2, 7.5, 0);
  EXPECT_DOUBLE_EQ(net.database(2).entry(2).wir, 7.5);
  EXPECT_EQ(net.database(0).unknown_count(), 4);
}

TEST(Gossip, OneStepSpreadsToFanoutPeers) {
  GossipNetwork net(8, 2);
  net.observe_local(0, 1.0, 0);
  support::Rng rng(1);
  net.step(rng);
  int informed = 0;
  for (std::int64_t pe = 0; pe < 8; ++pe)
    if (net.database(pe).entry(0).known()) ++informed;
  // The origin plus at most fanout new peers (snapshot semantics: one round
  // cannot relay).
  EXPECT_GE(informed, 2);
  EXPECT_LE(informed, 3);
}

TEST(Gossip, EventuallyEveryoneKnowsEverything) {
  GossipNetwork net(16, 2);
  for (std::int64_t pe = 0; pe < 16; ++pe)
    net.observe_local(pe, static_cast<double>(pe), 0);
  support::Rng rng(2);
  for (int round = 0; round < 64 && [&] {
         for (std::int64_t pe = 0; pe < 16; ++pe)
           if (net.database(pe).unknown_count() > 0) return true;
         return false;
       }();
       ++round) {
    net.step(rng);
  }
  for (std::int64_t pe = 0; pe < 16; ++pe) {
    EXPECT_EQ(net.database(pe).unknown_count(), 0) << "PE " << pe;
    for (std::int64_t src = 0; src < 16; ++src)
      EXPECT_DOUBLE_EQ(net.database(pe).entry(src).wir,
                       static_cast<double>(src));
  }
}

TEST(Gossip, RoundsToFullKnowledgeIsLogarithmicish) {
  // Epidemic dissemination reaches everyone in O(log P) rounds w.h.p.
  // Allow a generous constant: ≤ 4·log2(P) + 8 for fanout 2.
  for (std::int64_t pe_count : {8, 32, 128}) {
    GossipNetwork net(pe_count, 2);
    for (std::int64_t pe = 0; pe < pe_count; ++pe)
      net.observe_local(pe, 1.0, 0);
    const auto rounds = net.rounds_to_full_knowledge(support::Rng(3));
    const double limit = 4.0 * std::log2(static_cast<double>(pe_count)) + 8.0;
    EXPECT_LE(static_cast<double>(rounds), limit) << "P = " << pe_count;
    EXPECT_GE(rounds, 1);
  }
}

TEST(Gossip, RoundsToFullKnowledgeThrowsWithoutObservations) {
  const GossipNetwork net(4, 1);  // nobody ever observed anything
  EXPECT_THROW((void)net.rounds_to_full_knowledge(support::Rng(4)),
               std::invalid_argument);
}

TEST(Gossip, DeterministicForFixedSeed) {
  // After one round, which entries each PE knows depends only on the seed:
  // same seed ⇒ same knowledge pattern; different seed ⇒ (almost surely)
  // different pattern. Values converge to the same fixed point either way,
  // so the comparison must look at the knowledge mask, not the values.
  const auto run = [](std::uint64_t seed) {
    GossipNetwork net(12, 2);
    for (std::int64_t pe = 0; pe < 12; ++pe)
      net.observe_local(pe, static_cast<double>(pe * pe), 0);
    support::Rng rng(seed);
    net.step(rng);
    std::vector<bool> known;
    for (std::int64_t pe = 0; pe < 12; ++pe)
      for (std::int64_t src = 0; src < 12; ++src)
        known.push_back(net.database(pe).entry(src).known());
    return known;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Gossip, RandomizedConvergenceWithinSmoothingImpliedBound) {
  // Every PE's WIR evolves by the app's EMA, w(t) = s·target + (1−s)·w(t−1)
  // from w(−1) = 0, so w(t) = target·(1 − (1−s)^(t+1)). Gossip delivers a
  // snapshot that is `lag` iterations stale; the EMA contraction implies
  //   |w(now) − w(now−lag)| = target·(1−s)^(now−lag+1)·(1 − (1−s)^lag)
  //                         ≤ target·(1−s)^(now−lag+1).
  // After enough rounds every estimate must sit inside that bound of the
  // centralized (fresh) value — the quantitative version of the paper's
  // "principle of persistence". Randomized over PE counts, fanouts,
  // smoothing factors, and seeds.
  support::Rng meta(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t pe_count = meta.uniform_int(4, 64);
    const std::int64_t fanout =
        meta.uniform_int(1, std::min<std::int64_t>(4, pe_count - 1));
    const double s = meta.uniform(0.2, 1.0);
    GossipNetwork net(pe_count, fanout);
    std::vector<double> w(static_cast<std::size_t>(pe_count), 0.0);
    std::vector<double> target(static_cast<std::size_t>(pe_count));
    for (auto& t : target) t = meta.uniform(0.5, 10.0);
    support::Rng rng(meta());

    const std::int64_t rounds =
        4 * static_cast<std::int64_t>(
                std::log2(static_cast<double>(pe_count))) +
        20;
    for (std::int64_t t = 0; t < rounds; ++t) {
      for (std::int64_t pe = 0; pe < pe_count; ++pe) {
        const auto i = static_cast<std::size_t>(pe);
        w[i] = s * target[i] + (1.0 - s) * w[i];
        net.observe_local(pe, w[i], t);
      }
      net.step(rng);
    }

    const std::int64_t now = rounds - 1;
    for (std::int64_t pe = 0; pe < pe_count; ++pe) {
      for (std::int64_t src = 0; src < pe_count; ++src) {
        const WirDatabase::Entry& e = net.database(pe).entry(src);
        ASSERT_TRUE(e.known())
            << "P=" << pe_count << " f=" << fanout << " pe=" << pe
            << " src=" << src;
        const std::int64_t lag = now - e.iteration;
        ASSERT_GE(lag, 0);
        const double bound =
            target[static_cast<std::size_t>(src)] *
                std::pow(1.0 - s, static_cast<double>(now - lag + 1)) +
            1e-12;
        EXPECT_LE(std::abs(w[static_cast<std::size_t>(src)] - e.wir), bound)
            << "P=" << pe_count << " f=" << fanout << " s=" << s
            << " lag=" << lag;
      }
    }
  }
}

TEST(Gossip, RandomizedStalenessStaysLogarithmicish) {
  // After the warm-up, no entry should be older than a generous multiple of
  // the epidemic dissemination time O(log_{f+1} P).
  support::Rng meta(123);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t pe_count = meta.uniform_int(8, 96);
    const std::int64_t fanout =
        meta.uniform_int(1, std::min<std::int64_t>(3, pe_count - 1));
    GossipNetwork net(pe_count, fanout);
    support::Rng rng(meta());
    const std::int64_t rounds =
        6 * static_cast<std::int64_t>(
                std::log2(static_cast<double>(pe_count))) +
        24;
    for (std::int64_t t = 0; t < rounds; ++t) {
      for (std::int64_t pe = 0; pe < pe_count; ++pe)
        net.observe_local(pe, 1.0, t);
      net.step(rng);
    }
    const double limit =
        8.0 * std::log2(static_cast<double>(pe_count)) /
            std::log2(static_cast<double>(fanout + 1)) +
        16.0;
    for (std::int64_t pe = 0; pe < pe_count; ++pe) {
      EXPECT_LE(static_cast<double>(net.database(pe).max_staleness(rounds - 1)),
                limit)
          << "P=" << pe_count << " f=" << fanout << " pe=" << pe;
    }
  }
}

TEST(Gossip, FresherObservationsOverwriteDuringDissemination) {
  GossipNetwork net(4, 3);  // full fanout: one round reaches everyone
  net.observe_local(0, 1.0, 0);
  support::Rng rng(5);
  net.step(rng);
  net.observe_local(0, 2.0, 1);  // PE 0 measures again, fresher
  net.step(rng);
  for (std::int64_t pe = 0; pe < 4; ++pe)
    EXPECT_DOUBLE_EQ(net.database(pe).entry(0).wir, 2.0) << "PE " << pe;
}

TEST(WirDatabase, NegativeSizeIsInvalidArgument) {
  // Checked before the vectors allocate, which would throw length_error.
  EXPECT_THROW(WirDatabase(-3), std::invalid_argument);
}

TEST(Gossip, NegativeSizeIsInvalidArgument) {
  EXPECT_THROW(GossipNetwork(-5, 1), std::invalid_argument);
}

TEST(WirDatabase, StampBound) {
  // Stamps stay below 2^62, so the merge's stamp difference cannot overflow.
  WirDatabase db(2);
  EXPECT_THROW(db.update(0, 1.0, 1LL << 62), std::invalid_argument);
  constexpr std::int64_t kLast = (1LL << 62) - 1;
  db.update(0, 3.0, kLast);
  const WirDatabase empty(2);
  WirDatabase learner(2);
  EXPECT_EQ(learner.merge_from(db), 1u);  // the fresh entry crosses over
  EXPECT_EQ(learner.entry(0).iteration, kLast);
  EXPECT_DOUBLE_EQ(learner.entry(0).wir, 3.0);
  EXPECT_EQ(db.merge_from(empty), 0u);  // and kUnknown never wins
  EXPECT_EQ(db.entry(0).iteration, kLast);
  EXPECT_DOUBLE_EQ(db.entry(0).wir, 3.0);
  EXPECT_FALSE(db.entry(1).known());
}

// The push round as first written, on plain vectors: a full snapshot of
// every database, then each PE in order draws its targets with the pool
// sampler and pushes its snapshot to them, merged by a strict `>` select.
struct PushRoundOracle {
  std::vector<std::vector<std::int64_t>> stamps;
  std::vector<std::vector<double>> wirs;

  explicit PushRoundOracle(std::size_t n)
      : stamps(n, std::vector<std::int64_t>(n, WirDatabase::kUnknown)),
        wirs(n, std::vector<double>(n, 0.0)) {}

  void observe(std::size_t pe, double wir, std::int64_t iteration) {
    if (iteration >= stamps[pe][pe]) {
      stamps[pe][pe] = iteration;
      wirs[pe][pe] = wir;
    }
  }

  void step(support::Rng& rng, std::size_t fanout) {
    const auto snap_stamps = stamps;
    const auto snap_wirs = wirs;
    const std::size_t n = stamps.size();
    for (std::size_t src = 0; src < n; ++src) {
      const std::int64_t* from_stamp = snap_stamps[src].data();
      const double* from_wir = snap_wirs[src].data();
      for (std::size_t slot : ulba::testing::pool_sample(rng, n - 1, fanout)) {
        const std::size_t dst = slot >= src ? slot + 1 : slot;
        std::int64_t* to_stamp = stamps[dst].data();
        double* to_wir = wirs[dst].data();
        for (std::size_t i = 0; i < n; ++i) {
          if (from_stamp[i] > to_stamp[i]) {
            to_stamp[i] = from_stamp[i];
            to_wir[i] = from_wir[i];
          }
        }
      }
    }
  }
};

TEST(Gossip, PullRoundEqualsSnapshotPushRound) {
  // Stamps advance every third round, so a PE re-observes at the same stamp
  // with a new value and peers hold equal stamps with different WIRs: the
  // merge order then decides which value a receiver keeps. Every seventh PE
  // never observes, and every fifth round observes nothing.
  for (const std::int64_t pe_count : {2, 3, 17, 64, 384}) {
    // fanout ∈ {1, 2, P − 1}, each below P.
    const std::set<std::int64_t> fanouts{
        1, std::min<std::int64_t>(2, pe_count - 1), pe_count - 1};
    for (const std::int64_t fanout : fanouts) {
      const auto n = static_cast<std::size_t>(pe_count);
      GossipNetwork net(pe_count, fanout);
      PushRoundOracle oracle(n);
      support::Rng rng(static_cast<std::uint64_t>(pe_count * 1000 + fanout));
      support::Rng oracle_rng = rng;
      support::Rng values(7);
      // Full fanout at P = 384 costs 56 M entry merges a round on each side,
      // and there every owner reaches every receiver itself, so no tie ever
      // reaches a staler receiver: two rounds check the 383-sender merge and
      // keep the sanitizer build quick. The smaller cases hit the ties.
      const std::int64_t rounds = pe_count * fanout > 10'000 ? 2 : 60;
      for (std::int64_t round = 0; round < rounds; ++round) {
        if (round % 5 != 4) {
          for (std::size_t pe = 0; pe < n; ++pe) {
            if (pe % 7 == 3) continue;
            const double wir = values.uniform(0.0, 10.0);
            net.observe_local(static_cast<std::int64_t>(pe), wir, round / 3);
            oracle.observe(pe, wir, round / 3);
          }
        }
        net.step(rng);
        oracle.step(oracle_rng, static_cast<std::size_t>(fanout));
        for (std::size_t pe = 0; pe < n; ++pe) {
          const WirDatabase& db = net.database(static_cast<std::int64_t>(pe));
          for (std::size_t src = 0; src < n; ++src) {
            const WirDatabase::Entry e =
                db.entry(static_cast<std::int64_t>(src));
            if (e.iteration != oracle.stamps[pe][src] ||
                std::bit_cast<std::uint64_t>(e.wir) !=
                    std::bit_cast<std::uint64_t>(oracle.wirs[pe][src]))
              FAIL() << "P=" << pe_count << " f=" << fanout
                     << " round=" << round << " pe=" << pe << " src=" << src
                     << ": (" << e.iteration << ", " << e.wir
                     << ") against the push round's ("
                     << oracle.stamps[pe][src] << ", "
                     << oracle.wirs[pe][src] << ")";
          }
        }
        support::Rng next = rng;
        support::Rng oracle_next = oracle_rng;
        ASSERT_EQ(next(), oracle_next())
            << "P=" << pe_count << " f=" << fanout << " round=" << round;
      }
    }
  }
}

}  // namespace
}  // namespace ulba::core
