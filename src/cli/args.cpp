#include "cli/args.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/require.hpp"

namespace ulba::cli {

namespace {

/// "--flag" → "flag"; anything not starting with "--" is not a flag.
bool strip_dashes(const std::string& token, std::string* name) {
  if (token.size() < 3 || token[0] != '-' || token[1] != '-') return false;
  *name = token.substr(2);
  return true;
}

}  // namespace

FlagMap::FlagMap(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string name;
    ULBA_REQUIRE(strip_dashes(args[i], &name),
                 "unexpected positional argument '" + args[i] +
                     "' (flags look like --name value or --name=value)");
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      const std::string value = name.substr(eq + 1);
      name = name.substr(0, eq);
      ULBA_REQUIRE(!name.empty(), "empty flag name in '" + args[i] + "'");
      values_[name] = value;
      continue;
    }
    // A following flag is not a value: `--alpha --P 8` leaves --alpha
    // valueless. Negative numbers ("-0.5") still pass.
    ULBA_REQUIRE(i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0,
                 "flag --" + name + " expects a value");
    values_[name] = args[++i];
  }
}

bool FlagMap::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string FlagMap::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t FlagMap::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  ULBA_REQUIRE(end != it->second.c_str() && *end == '\0' && errno != ERANGE,
               "flag --" + name + " expects an integer, got '" + it->second +
                   "'");
  return static_cast<std::int64_t>(v);
}

double FlagMap::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  // strtod also accepts "inf" and "nan", which no numeric knob can take.
  ULBA_REQUIRE(end != it->second.c_str() && *end == '\0' &&
                   errno != ERANGE && std::isfinite(v),
               "flag --" + name + " expects a finite number, got '" +
                   it->second + "'");
  return v;
}

std::uint64_t FlagMap::get_seed(const std::string& name,
                                std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // strtoull silently wraps negative input, so reject '-' ourselves.
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  ULBA_REQUIRE(end != it->second.c_str() && *end == '\0' &&
                   errno != ERANGE &&
                   it->second.find('-') == std::string::npos,
               "flag --" + name + " expects a non-negative integer, got '" +
                   it->second + "'");
  return static_cast<std::uint64_t>(v);
}

void FlagMap::require_known(const std::set<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    (void)value;
    ULBA_REQUIRE(known.count(name) != 0, "unknown flag --" + name);
  }
}

const std::set<std::string>& model_param_flags() {
  static const std::set<std::string> kFlags{
      "P", "N", "gamma", "w0", "a", "m", "alpha", "omega", "lb-cost"};
  return kFlags;
}

core::ModelParams parse_model_params(const FlagMap& flags,
                                     const core::ModelParams& defaults) {
  core::ModelParams p = defaults;
  p.P = flags.get_int("P", p.P);
  p.N = flags.get_int("N", p.N);
  p.gamma = flags.get_int("gamma", p.gamma);
  p.w0 = flags.get_double("w0", p.w0);
  p.a = flags.get_double("a", p.a);
  p.m = flags.get_double("m", p.m);
  p.alpha = flags.get_double("alpha", p.alpha);
  p.omega = flags.get_double("omega", p.omega);
  p.lb_cost = flags.get_double("lb-cost", p.lb_cost);
  p.validate();
  return p;
}

std::string model_param_help(const core::ModelParams& defaults) {
  std::ostringstream os;
  os << "model parameters (Table I):\n"
     << "  --P <int>        processing elements        [" << defaults.P
     << "]\n"
     << "  --N <int>        overloading PEs            [" << defaults.N
     << "]\n"
     << "  --gamma <int>    application iterations     [" << defaults.gamma
     << "]\n"
     << "  --w0 <flop>      initial total workload     [" << defaults.w0
     << "]\n"
     << "  --a <flop/it>    per-PE growth rate         [" << defaults.a
     << "]\n"
     << "  --m <flop/it>    extra overloading growth   [" << defaults.m
     << "]\n"
     << "  --alpha <0..1>   ULBA underloading fraction [" << defaults.alpha
     << "]\n"
     << "  --omega <flops>  PE speed                   [" << defaults.omega
     << "]\n"
     << "  --lb-cost <s>    LB call cost C             [" << defaults.lb_cost
     << "]\n";
  return os.str();
}

}  // namespace ulba::cli
