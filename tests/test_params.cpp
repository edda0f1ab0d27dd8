// ModelParams — Table I quantities and their identities.
#include "core/params.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.hpp"

namespace ulba::core {
namespace {

using ulba::testing::tiny_params;

TEST(Params, DeltaWIdentity) {
  const ModelParams p = tiny_params();
  // ΔW = a·P + m·N = 2·10 + 15·2 = 50
  EXPECT_DOUBLE_EQ(p.delta_w(), 50.0);
}

TEST(Params, MenonRates) {
  const ModelParams p = tiny_params();
  // â = a + mN/P = 2 + 15·2/10 = 5 ;  m̂ = m(P−N)/P = 15·8/10 = 12
  EXPECT_DOUBLE_EQ(p.a_hat(), 5.0);
  EXPECT_DOUBLE_EQ(p.m_hat(), 12.0);
}

TEST(Params, RateDecompositionIsConsistent) {
  // â + m̂·(N/(P−N))·…: the simplest cross-check is ΔW = â·P + m̂·P − m̂·P +…
  // Use the defining identity instead: â·P = aP + mN and m̂·P = m(P−N).
  const ModelParams p = tiny_params();
  EXPECT_DOUBLE_EQ(p.a_hat() * static_cast<double>(p.P), p.delta_w());
  EXPECT_DOUBLE_EQ(p.m_hat() * static_cast<double>(p.P),
                   p.m * static_cast<double>(p.P - p.N));
}

TEST(Params, WorkloadEvolutionEq1) {
  const ModelParams p = tiny_params();
  EXPECT_DOUBLE_EQ(p.wtot(0), 1000.0);
  EXPECT_DOUBLE_EQ(p.wtot(1), 1050.0);
  EXPECT_DOUBLE_EQ(p.wtot(10), 1500.0);
}

TEST(Params, BalancedShare) {
  const ModelParams p = tiny_params();
  EXPECT_DOUBLE_EQ(p.balanced_share(0), 100.0);
  EXPECT_DOUBLE_EQ(p.balanced_share(10), 150.0);
}

TEST(Params, ValidateAcceptsGoodParams) {
  EXPECT_NO_THROW(tiny_params().validate());
  EXPECT_NO_THROW(ulba::testing::paper_scale_params().validate());
}

TEST(Params, ValidateRejectsBadValues) {
  auto with = [](auto mutate) {
    ModelParams p = tiny_params();
    mutate(p);
    return p;
  };
  EXPECT_THROW(with([](auto& p) { p.P = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.N = -1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.N = p.P; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.gamma = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.w0 = -1.0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.a = -0.5; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.m = -0.5; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.alpha = 1.5; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.alpha = -0.1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.omega = 0.0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.lb_cost = -1.0; }).validate(),
               std::invalid_argument);
  // Non-finite values pass every sign check, so they are rejected by name.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(with([](auto& p) { p.w0 = kInf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.a = kInf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.m = kInf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.omega = kInf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.lb_cost = kInf; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](auto& p) { p.lb_cost = kNan; }).validate(),
               std::invalid_argument);
}

TEST(Params, ZeroOverloadersMeansNoExtraRate) {
  ModelParams p = tiny_params();
  p.N = 0;
  p.alpha = 0.0;
  p.validate();
  EXPECT_DOUBLE_EQ(p.m_hat(), p.m);  // m̂ = m·P/P = m when N = 0
  EXPECT_DOUBLE_EQ(p.a_hat(), p.a);
  EXPECT_DOUBLE_EQ(p.delta_w(), p.a * static_cast<double>(p.P));
}

}  // namespace
}  // namespace ulba::core
