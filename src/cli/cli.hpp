// `ulba_cli` — the unified scenario driver.
//
//   ulba_cli <subcommand> [--flag value]…
//
// Subcommands: erosion, intervals, instances, interval-quality, serve (plus
// `help`).
// `run()` is argv-free and stream-parameterized so the dispatcher is
// directly unit-testable; main.cpp is a thin adapter that also maps the
// ULBA_REQUIRE exceptions to exit code 2 + a usage hint.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace ulba::cli {

/// Everything after argv[0].  Returns the process exit code; throws
/// std::invalid_argument (via ULBA_REQUIRE) on unknown subcommands, unknown
/// flags, or malformed values.
int run(const std::vector<std::string>& args, std::ostream& out);

/// The top-level usage text (also what `ulba_cli help` prints).
[[nodiscard]] std::string usage();

/// The per-subcommand help text; throws std::invalid_argument when `command`
/// is not a subcommand.
[[nodiscard]] std::string subcommand_help(const std::string& command);

/// Names of all registered subcommands, in display order.
[[nodiscard]] std::vector<std::string> subcommand_names();

}  // namespace ulba::cli
