// ulba_cli — flag parsing, subcommand dispatch, and usage errors.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace ulba::cli {
namespace {

// ---------------------------------------------------------------------------
// FlagMap grammar
// ---------------------------------------------------------------------------
TEST(FlagMap, ParsesSpaceAndEqualsForms) {
  const FlagMap flags({"--P", "64", "--alpha=0.25"});
  EXPECT_EQ(flags.get_int("P", 0), 64);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 0.25);
}

TEST(FlagMap, FallbacksApplyWhenAbsent) {
  const FlagMap flags({});
  EXPECT_EQ(flags.get_int("P", 7), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.5), 0.5);
  EXPECT_EQ(flags.get_string("mode", "dp"), "dp");
  EXPECT_EQ(flags.get_seed("seed", 11u), 11u);
}

TEST(FlagMap, RejectsPositionalArguments) {
  EXPECT_THROW(FlagMap({"512"}), std::invalid_argument);
}

TEST(FlagMap, RejectsTrailingValuelessFlag) {
  EXPECT_THROW(FlagMap({"--P"}), std::invalid_argument);
}

TEST(FlagMap, RejectsAFlagAsAValue) {
  // A token that starts with "--" is the next flag, never a value, so the
  // flag before it is valueless — however the next flag is spelled.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--alpha", "--P", "8"},
                                             {"--alpha", "--P=8"},
                                             {"--alpha", "--P"}}) {
    try {
      const FlagMap flags(args);
      ADD_FAILURE() << args[1] << " must not parse as the value of --alpha";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("flag --alpha expects a value"),
                std::string::npos)
          << e.what();
    }
  }
  // A single dash is not a flag: negative numbers stay values.
  const FlagMap negative({"--alpha", "-0.5"});
  EXPECT_DOUBLE_EQ(negative.get_double("alpha", 0.0), -0.5);
}

TEST(FlagMap, RejectsMalformedNumbers) {
  const FlagMap flags({"--P", "12abc", "--alpha", "zero"});
  EXPECT_THROW((void)flags.get_int("P", 0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("alpha", 0.0), std::invalid_argument);
  // strtod parses these, but no numeric knob takes a non-finite value.
  for (const std::string value : {"inf", "-inf", "nan"}) {
    const FlagMap non_finite({"--lb-cost", value});
    try {
      (void)non_finite.get_double("lb-cost", 1.0);
      ADD_FAILURE() << value << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("expects a finite number"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FlagMap, RejectsNegativeSeedAndOverflow) {
  const FlagMap flags({"--seed", "-1", "--P", "99999999999999999999"});
  EXPECT_THROW((void)flags.get_seed("seed", 0u), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("P", 0), std::invalid_argument);
}

TEST(FlagMap, RequireKnownRejectsStrangers) {
  const FlagMap flags({"--P", "8", "--typo", "1"});
  EXPECT_THROW(flags.require_known({"P"}), std::invalid_argument);
  EXPECT_NO_THROW(flags.require_known({"P", "typo"}));
}

// ---------------------------------------------------------------------------
// Shared ModelParams parsing
// ---------------------------------------------------------------------------
TEST(ModelParamFlags, OverlayOntoDefaults) {
  core::ModelParams defaults;
  defaults.P = 512;
  defaults.N = 32;
  defaults.gamma = 100;
  defaults.w0 = 1e12;
  defaults.a = 1.0;
  defaults.m = 2.0;
  defaults.alpha = 0.5;
  defaults.lb_cost = 1.0;
  const FlagMap flags({"--P", "128", "--lb-cost", "2.5"});
  const core::ModelParams p = parse_model_params(flags, defaults);
  EXPECT_EQ(p.P, 128);
  EXPECT_DOUBLE_EQ(p.lb_cost, 2.5);
  EXPECT_EQ(p.N, 32);          // untouched default survives
  EXPECT_DOUBLE_EQ(p.alpha, 0.5);
}

TEST(ModelParamFlags, ValidationRejectsBadCombinations) {
  core::ModelParams defaults;
  defaults.P = 16;
  defaults.N = 4;
  defaults.gamma = 10;
  defaults.w0 = 1e9;
  defaults.alpha = 0.5;
  defaults.lb_cost = 1.0;
  // N ≥ P is out of domain — ModelParams::validate() must throw.
  const FlagMap flags({"--N", "16"});
  EXPECT_THROW((void)parse_model_params(flags, defaults),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------
TEST(Cli, NoArgumentsPrintsUsageAndFails) {
  std::ostringstream out;
  EXPECT_EQ(run({}, out), 2);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(Cli, HelpSubcommandSucceeds) {
  std::ostringstream out;
  EXPECT_EQ(run({"help"}, out), 0);
  EXPECT_EQ(subcommand_names(),
            (std::vector<std::string>{"erosion", "intervals", "instances",
                                      "interval-quality", "serve"}));
  for (const auto& name : subcommand_names())
    EXPECT_NE(out.str().find(name), std::string::npos)
        << "usage() must list " << name;
}

TEST(Cli, EverySubcommandHasHelp) {
  for (const auto& name : subcommand_names()) {
    std::ostringstream out;
    EXPECT_EQ(run({name, "--help"}, out), 0) << name;
    EXPECT_NE(out.str().find("usage: ulba_cli " + name), std::string::npos)
        << name;
  }
}

TEST(Cli, UnknownSubcommandThrows) {
  std::ostringstream out;
  EXPECT_THROW(run({"frobnicate"}, out), std::invalid_argument);
}

TEST(Cli, UnknownFlagThrows) {
  std::ostringstream out;
  EXPECT_THROW(run({"intervals", "--frobnicate", "1"}, out),
               std::invalid_argument);
}

TEST(Cli, IntervalsDispatchesWithSmallSweep) {
  std::ostringstream out;
  EXPECT_EQ(run({"intervals", "--gamma", "40", "--alpha-steps", "2", "--dp",
                 "off"},
                out),
            0);
  EXPECT_NE(out.str().find("sigma+"), std::string::npos);
  EXPECT_NE(out.str().find("best alpha"), std::string::npos);
}

TEST(Cli, IntervalsAlphaZeroRowIsTheStandardMethod) {
  // tau_Menon = 14.84: the standard method balances every round(tau) = 15
  // iterations, and the alpha = 0 row is that method, not a sigma+ schedule
  // stepping by floor(tau) = 14.
  std::ostringstream out;
  EXPECT_EQ(run({"intervals", "--lb-cost", "2.1", "--alpha-steps", "4",
                 "--dp", "off"},
                out),
            0);
  EXPECT_NE(out.str().find("  0.00   0       14.8    6         430.60       "
                           "0.00% "),
            std::string::npos)
      << out.str();
}

TEST(Cli, IntervalsReportsTheConfiguredAlpha) {
  const auto report = [](const std::string& alpha) {
    std::ostringstream out;
    EXPECT_EQ(run({"intervals", "--gamma", "40", "--alpha-steps", "4",
                   "--alpha", alpha},
                  out),
              0);
    return out.str();
  };
  const std::string low = report("0.3");
  const std::string high = report("0.7");
  EXPECT_NE(low, high);
  EXPECT_NE(low.find("at the configured alpha (--alpha 0.3)"),
            std::string::npos)
      << low;
  EXPECT_NE(high.find("at the configured alpha (--alpha 0.7)"),
            std::string::npos)
      << high;
}

TEST(Cli, IntervalsReportsTheModelAtTableIValues) {
  // The 512-PE application of Table I: every number the report prints of it.
  const auto report = [](const std::string& steps) {
    std::ostringstream out;
    EXPECT_EQ(run({"intervals", "--P", "512", "--N", "32", "--gamma", "100",
                   "--w0", "1.536e12", "--a", "6e4", "--m", "3e7",
                   "--lb-cost", "1.5", "--alpha", "0.5", "--alpha-steps",
                   steps},
                  out),
              0);
    return out.str();
  };
  const std::string ten = report("10");
  for (const char* expected :
       {"tau_Menon=10.328\n",
        "  dW = 9.9072e+08 FLOP/iter, m_hat = 2.8125e+07, a_hat = 1.935e+06\n",
        "  0.50   53      63.7    2         319.86       4.73%",
        "  standard method  : 335.735 s  (9 LB calls)\n",
        "  ULBA             : 319.859 s\n",
        "  anticipation gain: 4.72866 %\n"})
    EXPECT_NE(ten.find(expected), std::string::npos) << expected << ten;
  const std::string five = report("5");
  for (const char* expected :
       {"  0.20   21      31.5    3         319.32       4.89%",
        "  0.40   42      52.6    2         318.48       5.14%",
        "  0.60   64      74.8    2         320.75       4.46%",
        "  0.80   85      95.9    1         319.52       4.83%",
        "gain vs alpha [%]: ",
        "best alpha = 0.4\n  gain             5.13826 % over standard "
        "(335.735 s -> 318.484 s)\n"})
    EXPECT_NE(five.find(expected), std::string::npos) << expected << five;
}

TEST(Cli, IntervalsRejectsBadFlagValues) {
  std::ostringstream out;
  EXPECT_THROW(run({"intervals", "--gamma", "40", "--dp", "Off"}, out),
               std::invalid_argument);
  for (const std::string steps : {"0", "1001"}) {
    try {
      (void)run({"intervals", "--alpha-steps", steps}, out);
      ADD_FAILURE() << "--alpha-steps " << steps << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--alpha-steps"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, ErosionDispatchesOnTinyDomain) {
  std::ostringstream out;
  EXPECT_EQ(run({"erosion", "--pes", "4", "--iterations", "12",
                 "--columns-per-pe", "32", "--rows", "48", "--rock-radius",
                 "12"},
                out),
            0);
  EXPECT_NE(out.str().find("ULBA gain"), std::string::npos);
  EXPECT_NE(out.str().find("LB calls"), std::string::npos);
}

TEST(Cli, ErosionRejectsOutOfDomainFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"erosion", "--alpha", "1.5"}, out),
               std::invalid_argument);
  // Two PEs leave no room for the gossip fanout of 2; the usage error names
  // the flag the user set, not the config field behind it.
  try {
    (void)run({"erosion", "--pes", "2"}, out);
    ADD_FAILURE() << "--pes 2 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--pes"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ulba::cli
