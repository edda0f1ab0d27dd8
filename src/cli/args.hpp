// Flag parsing for the unified `ulba_cli` scenario driver.
//
// The grammar is deliberately small:  `ulba_cli <subcommand> [--flag value |
// --flag=value]…`, and every flag takes a value.  Every subcommand declares
// the flags it accepts; anything else is rejected via ULBA_REQUIRE
// (std::invalid_argument) so misuse is reportable and testable.  The
// ModelParams flags (--P, --N, --gamma, …) are the analytic model's one
// parameter vocabulary: a scenario that evaluates the model reads these
// flags instead of growing ad-hoc argv conventions of its own.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/params.hpp"

namespace ulba::cli {

/// Parsed `--flag value` / `--flag=value` pairs.
class FlagMap {
 public:
  /// Parse everything after the subcommand.  Every `--flag` consumes the
  /// following token (or the text after `=`).  Throws std::invalid_argument
  /// on a positional token or a valueless flag — one at the end of `args` or
  /// one followed by another `--flag`.
  explicit FlagMap(const std::vector<std::string>& args);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters: return `fallback` when the flag is absent; throw
  /// std::invalid_argument when the value does not parse or (for the checked
  /// variants) is out of domain.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::uint64_t get_seed(const std::string& name,
                                       std::uint64_t fallback) const;

  /// Throws std::invalid_argument when a parsed flag is not in `known` —
  /// call once per subcommand after pulling the values it understands.
  void require_known(const std::set<std::string>& known) const;

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Names of the shared ModelParams flags, for building per-subcommand
/// `known` sets: {"P", "N", "gamma", "w0", "a", "m", "alpha", "omega",
/// "lb-cost"}.
[[nodiscard]] const std::set<std::string>& model_param_flags();

/// Overlay the shared ModelParams flags onto `defaults` and validate the
/// result (throws std::invalid_argument on a bad combination).
[[nodiscard]] core::ModelParams parse_model_params(
    const FlagMap& flags, const core::ModelParams& defaults);

/// One line per ModelParams flag, for subcommand help texts.
[[nodiscard]] std::string model_param_help(const core::ModelParams& defaults);

}  // namespace ulba::cli
