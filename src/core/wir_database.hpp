// The per-PE workload-increase-rate (WIR) database — paper §III-C.
//
// "each PE keeps a database that stores the WIR of every PE. Each PE
//  evaluates its WIR and propagates it (as well as the most recent WIRs in
//  its database) to the other PEs using a dissemination algorithm."
//
// A database holds, for every PE, the most recent WIR observation it has
// heard of, stamped with the iteration at which that observation was made.
// Merging two databases keeps the fresher entry per PE — exactly the rumor-
// mongering merge of epidemic/gossip protocols (Demers et al.). The principle
// of persistence makes slightly stale entries acceptable.
//
// Storage is two flat arrays, one of stamps and one of WIRs, so a merge is
// one branch-free pass the compiler vectorizes.
#pragma once

#include <cstdint>
#include <vector>

namespace ulba::core {

class WirDatabase {
 public:
  /// One observation: a PE's WIR measured at some iteration.
  struct Entry {
    double wir = 0.0;
    std::int64_t iteration = kUnknown;  ///< when it was measured

    [[nodiscard]] bool known() const noexcept { return iteration != kUnknown; }
  };

  static constexpr std::int64_t kUnknown = -1;
  /// Stamps lie in [kUnknown, kStampLimit), so the merge's stamp difference
  /// cannot overflow.
  static constexpr std::int64_t kStampLimit = std::int64_t{1} << 62;

  explicit WirDatabase(std::int64_t pe_count);

  [[nodiscard]] std::int64_t pe_count() const noexcept {
    return static_cast<std::int64_t>(stamps_.size());
  }

  /// Record a locally measured WIR for `pe` at `iteration`, which must lie
  /// in [0, kStampLimit). Overwrites only if at least as fresh as the stored
  /// entry.
  void update(std::int64_t pe, double wir, std::int64_t iteration);

  [[nodiscard]] Entry entry(std::int64_t pe) const;

  /// Epidemic merge: adopt every entry of `other` that is strictly fresher
  /// than ours. Returns the number of entries adopted.
  std::size_t merge_from(const WirDatabase& other);

  /// All WIR values, one per PE — the distribution the z-score overload
  /// detector runs on. A still-unknown PE reads 0.0. The reference stays
  /// valid as long as the database, and sees later updates and merges.
  [[nodiscard]] const std::vector<double>& wirs() const noexcept {
    return wirs_;
  }

  /// Number of PEs whose WIR is still unknown.
  [[nodiscard]] std::int64_t unknown_count() const noexcept;

  /// Age (in iterations) of the stalest known entry relative to `now`;
  /// returns `now + 1` when some entry is still unknown.
  [[nodiscard]] std::int64_t max_staleness(std::int64_t now) const noexcept;

 private:
  std::vector<std::int64_t> stamps_;  ///< kUnknown until first heard of
  std::vector<double> wirs_;          ///< 0.0 while the stamp is kUnknown
};

}  // namespace ulba::core
