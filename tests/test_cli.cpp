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
  EXPECT_THROW(run({"quickstart", "--frobnicate", "1"}, out),
               std::invalid_argument);
}

TEST(Cli, QuickstartDispatchesAndReports) {
  std::ostringstream out;
  EXPECT_EQ(run({"quickstart", "--P", "64", "--N", "4", "--gamma", "50",
                 "--w0", "1e11", "--a", "6e4", "--m", "3e7", "--alpha",
                 "0.5", "--lb-cost", "1.0"},
                out),
            0);
  EXPECT_NE(out.str().find("P=64"), std::string::npos);
  EXPECT_NE(out.str().find("anticipation gain"), std::string::npos);
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

TEST(Cli, AlphaTuningDispatchesAndFindsBestAlpha) {
  std::ostringstream out;
  EXPECT_EQ(run({"alpha-tuning", "--alpha-min", "0.2", "--alpha-max", "0.6",
                 "--alpha-step", "0.2"},
                out),
            0);
  EXPECT_NE(out.str().find("best alpha"), std::string::npos);
}

TEST(Cli, IntervalsRejectsMistypedDpValue) {
  std::ostringstream out;
  EXPECT_THROW(run({"intervals", "--gamma", "40", "--dp", "Off"}, out),
               std::invalid_argument);
}

TEST(Cli, AlphaTuningRejectsBadRanges) {
  std::ostringstream out;
  EXPECT_THROW(run({"alpha-tuning", "--alpha-min", "0.8", "--alpha-max",
                    "0.2"},
                   out),
               std::invalid_argument);
  // A step too fine for the request's grid limit is a usage error of the
  // flag itself, raised before the grid grows past the limit.
  try {
    (void)run({"alpha-tuning", "--alpha-step", "1e-6"}, out);
    ADD_FAILURE() << "--alpha-step 1e-6 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--alpha-step"), std::string::npos)
        << e.what();
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
