// The scenarios behind the `ulba_cli` subcommands.
//
// Each scenario takes its already-parsed FlagMap, writes its report to the
// given stream, and returns a process exit code.  The `examples/` binaries
// remain as minimal API walkthroughs; these functions are the configurable,
// single-entry-point versions the ROADMAP's scenario growth builds on.
#pragma once

#include <ostream>

#include "cli/args.hpp"

namespace ulba::cli {

/// Default ModelParams of `quickstart` and `alpha-tuning` (the quickstart's
/// 512-PE application) — exposed so help texts render the real defaults.
[[nodiscard]] core::ModelParams quickstart_defaults();

/// Default ModelParams of `intervals` (the interval explorer's 1024-PE
/// model, α = 0).
[[nodiscard]] core::ModelParams intervals_defaults();

/// `quickstart` — analytic model in a nutshell: Menon τ vs. ULBA [σ⁻, σ⁺]
/// and the total-time comparison of the two methods (mini Figure 3).
int run_quickstart(const FlagMap& flags, std::ostream& out);

/// `erosion` — the §IV-B erosion application under the standard method and
/// under ULBA, in virtual time; `--threads` and `--ranks` choose how the
/// dynamics are stepped, never what they compute.
int run_erosion(const FlagMap& flags, std::ostream& out);

/// `intervals` — α sweep of σ⁻/σ⁺/schedule/total time with the exact DP
/// optimum as the reference line (the interval-explorer scenario).
int run_intervals(const FlagMap& flags, std::ostream& out);

/// `alpha-tuning` — fine α sweep reporting the best α for the model and the
/// gain landscape vs. the standard method (analytic Figure-5 counterpart).
int run_alpha_tuning(const FlagMap& flags, std::ostream& out);

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
