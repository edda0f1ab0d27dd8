// Push-gossip dissemination of the WIR databases — paper §III-C.
//
// "one dissemination step is done at each iteration to mitigate the overhead
//  due to the WIR communication"
//
// Every round, each PE pushes its whole database to `fanout` uniformly chosen
// peers, which epidemically merge it. With fanout f, a fresh rumor reaches
// all P PEs in O(log_{f+1} P) rounds w.h.p. — the classic epidemic result
// (Demers et al. 1987), which the property tests verify empirically.
#pragma once

#include <cstdint>
#include <vector>

#include "core/wir_database.hpp"
#include "support/rng.hpp"

namespace ulba::core {

class GossipNetwork {
 public:
  /// A network of `pe_count` databases, all initially empty.
  GossipNetwork(std::int64_t pe_count, std::int64_t fanout);

  [[nodiscard]] std::int64_t pe_count() const noexcept {
    return static_cast<std::int64_t>(dbs_.size());
  }
  [[nodiscard]] std::int64_t fanout() const noexcept { return fanout_; }

  /// PE `pe`'s database. The reference is valid until the next `step`.
  [[nodiscard]] WirDatabase& database(std::int64_t pe);
  [[nodiscard]] const WirDatabase& database(std::int64_t pe) const;

  /// Record PE `pe`'s own WIR measurement at `iteration` into its local
  /// database (what Algorithm 1 does before disseminating).
  void observe_local(std::int64_t pe, double wir, std::int64_t iteration);

  /// One dissemination round: every PE pushes its database to `fanout`
  /// distinct random peers (≠ itself). Target selection draws from `rng`, in
  /// PE order. The round is bulk-synchronous, as on a real machine where all
  /// sends happen before any receive of the same superstep: every message
  /// carries the state its sender had when the round began.
  ///
  /// It runs in pull form. Each receiver's new database is its pre-round one
  /// merged with its senders' pre-round ones, in ascending sender order (the
  /// order that settles same-stamp ties), written once into a second buffer
  /// that then swaps in. No snapshot is copied, and a round allocates nothing
  /// of size P.
  void step(support::Rng& rng);

  /// Rounds taken until every database knows every PE — the dissemination
  /// latency the property tests bound by O(log P); runs on a copy, leaves
  /// the network untouched.
  [[nodiscard]] std::int64_t rounds_to_full_knowledge(support::Rng rng) const;

 private:
  std::vector<WirDatabase> dbs_;   ///< the current databases
  std::vector<WirDatabase> next_;  ///< where a round writes the next ones
  std::int64_t fanout_;
  /// The round's targets, `fanout` per sender in sender order.
  std::vector<std::size_t> targets_;
  /// The senders of receiver d are inbound_[first_[d] .. first_[d + 1]),
  /// ascending.
  std::vector<std::size_t> first_;
  std::vector<std::size_t> inbound_;
};

}  // namespace ulba::core
