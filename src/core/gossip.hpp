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

  [[nodiscard]] WirDatabase& database(std::int64_t pe);
  [[nodiscard]] const WirDatabase& database(std::int64_t pe) const;

  /// Record PE `pe`'s own WIR measurement at `iteration` into its local
  /// database (what Algorithm 1 does before disseminating).
  void observe_local(std::int64_t pe, double wir, std::int64_t iteration);

  /// One dissemination round: every PE pushes its database to `fanout`
  /// distinct random peers (≠ itself). Target selection draws from `rng`;
  /// merges are applied against the pre-round snapshot so the round is
  /// order-independent (a bulk-synchronous exchange, as on a real machine
  /// where all sends happen before any receive of the same superstep).
  void step(support::Rng& rng);

  /// Rounds taken until every database knows every PE — the dissemination
  /// latency the property tests bound by O(log P); runs on a copy, leaves
  /// the network untouched.
  [[nodiscard]] std::int64_t rounds_to_full_knowledge(support::Rng rng) const;

 private:
  std::vector<WirDatabase> dbs_;
  std::int64_t fanout_;
};

}  // namespace ulba::core
