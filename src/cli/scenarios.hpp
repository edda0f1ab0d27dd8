// The scenarios behind the `ulba_cli` subcommands.
//
// Each scenario takes its already-parsed FlagMap, writes its report to the
// given stream, and returns a process exit code.
#pragma once

#include <ostream>

#include "cli/args.hpp"

namespace ulba::cli {

/// Default ModelParams of `intervals` (a 1024-PE model, configured α = 0.5)
/// — exposed so its help text renders the real defaults.
[[nodiscard]] core::ModelParams intervals_defaults();

/// `erosion` — the §IV-B erosion application under the standard method and
/// under ULBA, in virtual time; `--threads` and `--ranks` choose how the
/// dynamics are stepped, never what they compute.
int run_erosion(const FlagMap& flags, std::ostream& out);

/// `intervals` — the one report of the analytic model: ΔW, m̂, â and Menon
/// τ; an α sweep of σ⁻/σ⁺/LB calls/total time (one kSigmaGrid
/// ScheduleRequest) with its gain sparkline; the time and gain at `--alpha`;
/// and the best α with the σ⁺, exact DP-optimal and Menon schedules.
int run_intervals(const FlagMap& flags, std::ostream& out);

/// `instances` — Table-II-style sweep over the InstanceGenerator families
/// (one per pinned PE count): win/loss/gain statistics of ULBA vs. the
/// standard method, at the drawn α and at the per-instance best α.
int run_instances(const FlagMap& flags, std::ostream& out);

/// `interval-quality` — Figure 2: gain of the σ⁺ LB intervals over the
/// simulated-annealing search on random Table-II instances, with the exact
/// DP optimum bounding both methods.
int run_interval_quality(const FlagMap& flags, std::ostream& out);

/// `serve` — the schedule service under deterministic multi-client traffic:
/// rank 0 runs serve::serve_loop (batched mailbox wakeups, sharded memoized
/// cache), the client ranks replay a seeded query mix and check every
/// response bit-for-bit against a cold evaluation of the same request.
/// Reports hit-rate/throughput headline metrics plus PASS/FAIL verdicts for
/// the cached-answer determinism contract; wall-clock numbers are real —
/// structurally checked, not golden-matched. Exit 0 iff the verdicts pass.
int run_serve(const FlagMap& flags, std::ostream& out);

}  // namespace ulba::cli
