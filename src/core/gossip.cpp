#include "core/gossip.hpp"

#include <algorithm>
#include <numeric>

#include "support/require.hpp"

namespace ulba::core {

namespace {

/// The PE count as a vector size, checked before any member allocates.
std::size_t checked_pe_count(std::int64_t pe_count, std::int64_t fanout) {
  ULBA_REQUIRE(pe_count >= 2, "gossip needs at least two PEs");
  ULBA_REQUIRE(fanout >= 1 && fanout < pe_count,
               "fanout must lie in [1, pe_count)");
  return static_cast<std::size_t>(pe_count);
}

}  // namespace

GossipNetwork::GossipNetwork(std::int64_t pe_count, std::int64_t fanout)
    : dbs_(checked_pe_count(pe_count, fanout), WirDatabase(pe_count)),
      next_(dbs_),
      fanout_(fanout),
      targets_(dbs_.size() * static_cast<std::size_t>(fanout)),
      first_(dbs_.size() + 1),
      inbound_(targets_.size()) {}

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
  const std::size_t n = dbs_.size();
  const auto fanout = static_cast<std::size_t>(fanout_);
  // `fanout` distinct targets per sender other than itself: sample from n−1
  // slots and skip over the sender.
  for (std::size_t src = 0; src < n; ++src) {
    const auto picks = rng.sample_without_replacement(n - 1, fanout);
    for (std::size_t r = 0; r < fanout; ++r)
      targets_[src * fanout + r] = picks[r] >= src ? picks[r] + 1 : picks[r];
  }

  // Counting sort of the senders by receiver. first_[d] counts up to the end
  // of d's block; placing the senders in descending order at --first_[d]
  // leaves each block ascending and first_[d] at its start.
  std::fill(first_.begin(), first_.end(), std::size_t{0});
  for (const std::size_t dst : targets_) ++first_[dst];
  std::partial_sum(first_.begin(), first_.end() - 1, first_.begin());
  first_[n] = targets_.size();
  for (std::size_t e = targets_.size(); e-- > 0;)
    inbound_[--first_[targets_[e]]] = e / fanout;

  // Pull: each receiver starts from its own pre-round database and merges
  // its senders' pre-round databases in ascending sender order — the push
  // round's merge sequence, so same-stamp ties resolve as a push would.
  for (std::size_t dst = 0; dst < n; ++dst) {
    next_[dst] = dbs_[dst];
    for (std::size_t e = first_[dst]; e < first_[dst + 1]; ++e)
      next_[dst].merge_from(dbs_[inbound_[e]]);
  }
  dbs_.swap(next_);
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
