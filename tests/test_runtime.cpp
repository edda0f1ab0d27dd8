// The thread-backed message-passing runtime: point-to-point semantics,
// collectives, and SPMD error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/spmd.hpp"

namespace ulba::runtime {
namespace {

TEST(Mailbox, FifoPerChannel) {
  Mailbox box;
  for (int i = 0; i < 5; ++i)
    box.push(Message{0, 7, {static_cast<std::byte>(i)}});
  for (int i = 0; i < 5; ++i) {
    const Message m = box.pop(0, 7);
    EXPECT_EQ(m.payload[0], static_cast<std::byte>(i));
  }
}

TEST(Mailbox, MatchingSkipsNonMatching) {
  Mailbox box;
  box.push(Message{0, 1, {std::byte{10}}});
  box.push(Message{0, 2, {std::byte{20}}});
  const Message m = box.pop(0, 2);
  EXPECT_EQ(m.payload[0], std::byte{20});
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, Wildcards) {
  Mailbox box;
  box.push(Message{3, 9, {std::byte{1}}});
  EXPECT_EQ(box.pop(kAnySource, kAnyTag).source, 3);
  Message out;
  EXPECT_FALSE(box.try_pop(kAnySource, kAnyTag, out));
}

TEST(Spmd, RanksSeeCorrectIdentity) {
  std::vector<int> seen(8, -1);
  spmd_run(8, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(Spmd, SingleRankWorks) {
  int calls = 0;
  spmd_run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Spmd, ExceptionFromRankPropagates) {
  EXPECT_THROW(
      spmd_run(4,
               [](Comm& comm) {
                 // All ranks throw: no rank blocks on a peer, and the first
                 // error must surface to the caller.
                 throw std::runtime_error("rank failure " +
                                          std::to_string(comm.rank()));
               }),
      std::runtime_error);
}

TEST(Spmd, RejectsBadArguments) {
  EXPECT_THROW(spmd_run(0, [](Comm&) {}), std::invalid_argument);
  EXPECT_THROW(spmd_run(2, nullptr), std::invalid_argument);
}

TEST(PointToPoint, PingPong) {
  spmd_run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, 42);
      EXPECT_EQ(comm.recv<int>(1, 6), 43);
    } else {
      EXPECT_EQ(comm.recv<int>(0, 5), 42);
      comm.send(0, 6, 43);
    }
  });
}

TEST(PointToPoint, VectorPayload) {
  spmd_run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{1.5, 2.5, 3.5};
      comm.send_span<double>(1, 0, data);
    } else {
      EXPECT_EQ(comm.recv_vector<double>(0, 0),
                (std::vector<double>{1.5, 2.5, 3.5}));
    }
  });
}

TEST(PointToPoint, AnySourceReceivesFromEveryone) {
  spmd_run(5, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> heard(5, false);
      for (int i = 0; i < 4; ++i) {
        const Message m = comm.recv_message(kAnySource, 3);
        heard[static_cast<std::size_t>(m.source)] = true;
      }
      for (int r = 1; r < 5; ++r) EXPECT_TRUE(heard[static_cast<std::size_t>(r)]);
    } else {
      comm.send(0, 3, comm.rank());
    }
  });
}

TEST(PointToPoint, MessagesBetweenPairsDoNotOvertake) {
  spmd_run(2, [](Comm& comm) {
    constexpr int kCount = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.send(1, 0, i);
    } else {
      for (int i = 0; i < kCount; ++i) EXPECT_EQ(comm.recv<int>(0, 0), i);
    }
  });
}

TEST(PointToPoint, TagValidation) {
  spmd_run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send(1, -5, 1), std::invalid_argument);
      EXPECT_THROW(comm.send(9, 0, 1), std::invalid_argument);
      comm.send(1, 0, 7);  // unblock the peer
    } else {
      EXPECT_EQ(comm.recv<int>(0, 0), 7);
    }
  });
}

TEST(Collectives, BarrierSeparatesPhases) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  spmd_run(8, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 8) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Collectives, BroadcastScalarFromEveryRoot) {
  for (int root = 0; root < 4; ++root) {
    spmd_run(4, [root](Comm& comm) {
      int value = comm.rank() == root ? 1234 : -1;
      comm.broadcast(value, root);
      EXPECT_EQ(value, 1234);
    });
  }
}

TEST(Collectives, BroadcastVectorResizesReceivers) {
  spmd_run(4, [](Comm& comm) {
    std::vector<std::int64_t> v;
    if (comm.rank() == 0) v = {5, 6, 7, 8, 9};
    comm.broadcast_vector(v, 0);
    EXPECT_EQ(v, (std::vector<std::int64_t>{5, 6, 7, 8, 9}));
  });
}

TEST(Collectives, GatherCollectsInRankOrder) {
  spmd_run(6, [](Comm& comm) {
    const auto all = comm.gather(comm.rank() * 10, 2);
    if (comm.rank() == 2) {
      ASSERT_EQ(all.size(), 6u);
      for (int r = 0; r < 6; ++r)
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Collectives, AllgatherEveryoneGetsEverything) {
  spmd_run(5, [](Comm& comm) {
    const auto all = comm.allgather(comm.rank() + 100);
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 100);
  });
}

TEST(Collectives, ReduceSumAndAllreduce) {
  spmd_run(6, [](Comm& comm) {
    const int sum = comm.reduce(comm.rank() + 1, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(sum, 21);
    }
    const int total = comm.allreduce(comm.rank() + 1);
    EXPECT_EQ(total, 21);
  });
}

TEST(Collectives, AllreduceMax) {
  spmd_run(4, [](Comm& comm) {
    const double local = static_cast<double>((comm.rank() * 7) % 5);
    const double max = comm.allreduce(
        local, [](double a, double b) { return std::max(a, b); });
    EXPECT_DOUBLE_EQ(max, 4.0);  // ranks give 0,2,4,1
  });
}

TEST(Collectives, RepeatedCollectivesDoNotCrosstalk) {
  spmd_run(4, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      int v = comm.rank() == 0 ? round : -1;
      comm.broadcast(v, 0);
      EXPECT_EQ(v, round);
      const int s = comm.allreduce(round);
      EXPECT_EQ(s, 4 * round);
    }
  });
}

TEST(PointToPoint, TryRecvIsNonBlocking) {
  spmd_run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Message out;
      // Rank 1 blocks at the first barrier until we arrive, so nothing can
      // have been sent when this probes (racing the send here was a flake:
      // a fast rank 1 made the probe consume the message early).
      EXPECT_FALSE(comm.try_recv_message(1, 9, out));
      comm.barrier();  // now rank 1 may send…
      comm.barrier();  // …and its send precedes this barrier's completion
      EXPECT_TRUE(comm.try_recv_message(1, 9, out));
      EXPECT_EQ(out.payload.size(), sizeof(int));
    } else {
      comm.barrier();  // rank 0 probed empty
      comm.send(0, 9, 42);
      comm.barrier();  // publish the send to rank 0's second probe
    }
  });
}

TEST(Stress, ManyRanksRandomizedTraffic) {
  spmd_run(16, [](Comm& comm) {
    // Ring exchange with varying payloads; repeated to shake out races.
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int round = 0; round < 30; ++round) {
      std::vector<int> payload(static_cast<std::size_t>(round + 1),
                               comm.rank());
      comm.send_span<int>(next, round, payload);
      const auto got = comm.recv_vector<int>(prev, round);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(round + 1));
      for (int v : got) EXPECT_EQ(v, prev);
      comm.barrier();
    }
  });
}

}  // namespace
}  // namespace ulba::runtime
