// Distributed-erosion scaling — the erosion workload over the SPMD runtime
// (erosion::DistributedDomain through `ErosionApp` with AppConfig::ranks),
// swept over rank counts × step-exchange modes.
//
// Two claims are on trial:
//   (a) determinism — every cell's RunResult must be BIT-identical to the
//       in-process reference (the distributed partition-invariance
//       contract, here exercised on the full app path: monitoring, gossip,
//       adaptive trigger, Algorithm-2 LB, and the per-LB-step stripe recut
//       with real column/disc migration messages);
//   (b) the migration accounting — real payload bytes on the wire per recut
//       — scales with the rank count, giving the Eq.-C cost term of
//       Boulmier et al. a measured, message-level counterpart (cf. the
//       two-level distributed LB design of Mohammed et al., 1911.06714).
//
// The sweep lives in the shared cli::sweep layer, so this harness drives
// the same implementation as `ulba_cli erosion --ranks`.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/table.hpp"

int main() {
  using namespace ulba;
  bench::print_header(
      "Distributed erosion — SPMD ranks, real halo/migration messages",
      "extends Boulmier et al. SectionIV-B beyond one address space "
      "(the per-rank column-stripe decomposition)");

  const std::vector<std::int64_t> rank_counts{1, 2, 4, 8};
  const std::vector<std::string> exchanges{"alltoall", "neighbor"};
  std::printf("\n32 PEs, 1 strong rock, 120 iterations, ULBA alpha 0.4; "
              "every cell vs. the\nin-process reference "
              "(matches = bit-identical RunResult):\n\n");

  const auto rows = bench::distributed_erosion_scaling(
      rank_counts, exchanges, /*pe_count=*/32, /*strong_rocks=*/1,
      /*seed=*/11, /*iterations=*/120);

  support::Table table({"exchange", "ranks", "wall [s]", "virtual [s]",
                        "LB calls", "disc moves", "wire [MB]", "step msgs",
                        "matches"});
  bool all_match = true;
  bool neighbor_cheaper = true;
  for (const auto& row : rows) {
    all_match &= row.matches_serial != 0;
    table.add_row({row.exchange, std::to_string(row.ranks),
                   support::Table::num(row.wall_seconds, 3),
                   support::Table::num(row.virtual_seconds, 3),
                   std::to_string(row.lb_count),
                   std::to_string(row.discs_moved),
                   support::Table::num(row.observed_mb, 4),
                   std::to_string(row.step_messages),
                   row.matches_serial != 0 ? "yes" : "NO"});
  }
  // Cross-check the neighbor exchange cell by cell: for every ranks >= 4 it
  // must send fewer step messages than the all-to-all reference.
  for (const auto& a : rows) {
    if (a.exchange != "alltoall" || a.ranks < 4) continue;
    for (const auto& n : rows)
      if (n.exchange == "neighbor" && n.ranks == a.ranks)
        neighbor_cheaper &= n.step_messages < a.step_messages;
  }
  std::printf("%s\n", table.render(2).c_str());

  std::printf("  (wall clock is host time for the whole standard run — the "
              "SPMD ranks are\n   threads here, so scaling is bounded by "
              "the machine's cores; the virtual\n   seconds and the LB "
              "schedule are rank- and exchange-invariant by "
              "construction)\n");

  std::printf("\n  verdict: %s; %s\n",
              all_match
                  ? "DETERMINISM HOLDS (every rank count bit-matches the "
                    "in-process run)"
                  : "DETERMINISM VIOLATED",
              neighbor_cheaper
                  ? "neighbor exchange strictly cheaper for R >= 4"
                  : "NEIGHBOR EXCHANGE NOT CHEAPER (regression)");
  return all_match && neighbor_cheaper ? 0 : 1;
}
