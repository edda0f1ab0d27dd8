#include "core/gossip.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace ulba::core {

GossipNetwork::GossipNetwork(std::int64_t pe_count, std::int64_t fanout)
    : dbs_(static_cast<std::size_t>(pe_count),
           WirDatabase(std::max<std::int64_t>(pe_count, 1))),
      fanout_(fanout) {
  ULBA_REQUIRE(pe_count >= 2, "gossip needs at least two PEs");
  ULBA_REQUIRE(fanout >= 1 && fanout < pe_count,
               "fanout must lie in [1, pe_count)");
}

WirDatabase& GossipNetwork::database(std::int64_t pe) {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count(), "PE index out of range");
  return dbs_[static_cast<std::size_t>(pe)];
}

const WirDatabase& GossipNetwork::database(std::int64_t pe) const {
  ULBA_REQUIRE(pe >= 0 && pe < pe_count(), "PE index out of range");
  return dbs_[static_cast<std::size_t>(pe)];
}

void GossipNetwork::observe_local(std::int64_t pe, double wir,
                                  std::int64_t iteration) {
  database(pe).update(pe, wir, iteration);
}

void GossipNetwork::step(support::Rng& rng) {
  // Merge against the pre-round snapshot: all messages of a round carry the
  // state each PE had when the round began.
  const std::vector<WirDatabase> snapshot = dbs_;
  const auto n = static_cast<std::size_t>(pe_count());
  for (std::size_t src = 0; src < n; ++src) {
    // `fanout` distinct targets other than src: sample from n−1 slots and
    // skip over src.
    const auto picks = rng.sample_without_replacement(
        n - 1, static_cast<std::size_t>(fanout_));
    for (std::size_t slot : picks) {
      const std::size_t dst = slot >= src ? slot + 1 : slot;
      dbs_[dst].merge_from(snapshot[src]);
    }
  }
}

std::int64_t GossipNetwork::rounds_to_full_knowledge(support::Rng rng) const {
  GossipNetwork copy = *this;
  const auto fully_known = [&copy]() {
    for (std::int64_t pe = 0; pe < copy.pe_count(); ++pe)
      if (copy.database(pe).unknown_count() > 0) return false;
    return true;
  };
  std::int64_t rounds = 0;
  // 4·P rounds is far beyond the O(log P) expectation; reaching it means the
  // caller seeded a network where some PE never observed anything locally.
  const std::int64_t limit = 4 * copy.pe_count();
  while (!fully_known()) {
    ULBA_REQUIRE(rounds < limit,
                 "gossip cannot converge: some PE has no local observation");
    copy.step(rng);
    ++rounds;
  }
  return rounds;
}

}  // namespace ulba::core
