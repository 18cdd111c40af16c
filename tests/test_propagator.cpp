// Step-propagator kernels: the folded dense operator, applied by
// TransientSimulator's panel lane, must match an implicit-Euler LU
// oracle written in the tests (euler_oracle.hpp) to rounding error
// (1e-9 C) across floorplan sizes, power patterns and hold lengths.
#include "thermal/propagator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/platform.hpp"
#include "euler_oracle.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient.hpp"

namespace ds::thermal {
namespace {

using testing::EulerOracle;

double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Deterministic per-core power pattern with spatial variation.
std::vector<double> PowerPattern(std::size_t n, std::size_t phase) {
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = 1.0 + 2.0 * ((i * 7 + phase * 3) % 5) / 4.0;  // 1..3 W
  return p;
}

TEST(StepPropagator, MatchesLuPathAcrossFloorplanSizes) {
  for (const std::size_t cores : {4u, 16u, 49u, 100u}) {
    const RcModel model(Floorplan::MakeGrid(cores, 5.1));
    TransientSimulator sim(model, 1e-3);
    EulerOracle oracle(model, 1e-3);
    // Time-varying powers so the input operator is exercised too.
    for (std::size_t s = 0; s < 50; ++s) {
      const std::vector<double> p = PowerPattern(cores, s / 10);
      sim.Step(p);
      oracle.Step(p);
    }
    EXPECT_LT(MaxAbsDiff(sim.state(), oracle.state()), 1e-9)
        << cores << " cores";
    EXPECT_NEAR(sim.time(), 50e-3, 1e-12);
  }
}

TEST(StepPropagator, HoldMatchesExplicitStepsToRoundingError) {
  const std::size_t cores = 36;
  const RcModel model(Floorplan::MakeGrid(cores, 5.1));
  const std::vector<double> p = PowerPattern(cores, 0);
  // Warm start at another pattern (one pass: powers do not depend on
  // temperature).
  const std::vector<double> warm = SteadyStateSolver(model).WarmStart(
      [&](std::span<const double>, std::span<double> out) {
        const std::vector<double> p1 = PowerPattern(cores, 1);
        std::copy(p1.begin(), p1.end(), out.begin());
      },
      1);
  for (const std::size_t k : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    TransientSimulator held(model, 1e-3);
    TransientSimulator stepped(model, 1e-3);
    // Start from a non-trivial state so t_op is exercised.
    held.SetState(warm);
    stepped.SetState(warm);
    held.StepN(p, k);
    for (std::size_t s = 0; s < k; ++s) stepped.Step(p);
    EXPECT_LT(MaxAbsDiff(held.state(), stepped.state()), 1e-9) << "k=" << k;
    EXPECT_NEAR(held.time(), stepped.time(), 1e-12);
  }
}

TEST(StepPropagator, HoldMatchesLegacyLuSteps) {
  const std::size_t cores = 16;
  const RcModel model(Floorplan::MakeGrid(cores, 5.1));
  const std::vector<double> p = PowerPattern(cores, 2);
  TransientSimulator sim(model, 1e-3);
  EulerOracle oracle(model, 1e-3);
  sim.StepN(p, 200);  // one Hold(200) application
  for (std::size_t s = 0; s < 200; ++s) oracle.Step(p);
  EXPECT_LT(MaxAbsDiff(sim.state(), oracle.state()), 1e-9);
}

TEST(StepPropagator, StepNRoutesThroughHoldWithIdenticalSemantics) {
  const std::size_t cores = 16;
  const RcModel model(Floorplan::MakeGrid(cores, 5.1));
  const std::vector<double> p = PowerPattern(cores, 0);
  TransientSimulator a(model, 1e-3);
  TransientSimulator b(model, 1e-3);
  a.StepN(p, 25);
  for (std::size_t s = 0; s < 25; ++s) b.Step(p);
  EXPECT_LT(MaxAbsDiff(a.state(), b.state()), 1e-9);
  EXPECT_NEAR(a.time(), 25e-3, 1e-12);
  a.StepN(p, 0);  // no-op
  EXPECT_NEAR(a.time(), 25e-3, 1e-12);
}

TEST(StepPropagator, HoldOperatorsAreMemoized) {
  const RcModel model(Floorplan::MakeGrid(9, 5.1));
  const StepPropagator prop(model, 1e-3);
  const auto h1 = prop.Hold(37);
  const auto h2 = prop.Hold(37);
  EXPECT_EQ(h1.get(), h2.get());
  EXPECT_EQ(h1->k, 37u);
  EXPECT_EQ(h1->t_op.rows(), model.num_nodes());
  EXPECT_EQ(h1->in_op.cols(), model.num_cores());
}

TEST(StepPropagator, RejectsNonPositiveDt) {
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  EXPECT_THROW(StepPropagator(model, 0.0), std::invalid_argument);
  EXPECT_THROW(StepPropagator(model, -1.0), std::invalid_argument);
}

TEST(PropagatorSet, SharesOneInstancePerDt) {
  const RcModel model(Floorplan::MakeGrid(4, 5.1));
  const PropagatorSet set;
  const auto a = set.For(model, 1e-3);
  const auto b = set.For(model, 1e-3);
  const auto c = set.For(model, 2e-3);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(set.size(), 2u);
}

TEST(PropagatorSet, RejectsASecondModel) {
  const RcModel m1(Floorplan::MakeGrid(4, 5.1));
  const RcModel m2(Floorplan::MakeGrid(9, 5.1));
  const PropagatorSet set;
  (void)set.For(m1, 1e-3);
  EXPECT_THROW((void)set.For(m2, 1e-3), std::invalid_argument);
}

TEST(PropagatorSet, PlatformMakeTransientSharesPropagators) {
  const arch::Platform platform(power::TechNode::N16, 16);
  TransientSimulator a = platform.MakeTransient(1e-3);
  TransientSimulator b = platform.MakeTransient(1e-3);
  // Every simulator at one dt shares one fold, made by the first.
  EXPECT_EQ(platform.propagators()->size(), 1u);
  TransientSimulator c = platform.MakeTransient(5e-3);
  EXPECT_EQ(platform.propagators()->size(), 2u);
  const std::vector<double> p(16, 2.0);
  a.StepN(p, 64);
  b.StepN(p, 64);
  c.StepN(p, 64);
  // a and b advanced identically off the shared operators.
  EXPECT_LT(MaxAbsDiff(a.state(), b.state()), 1e-15);
}

TEST(StepPropagator, OperatorShapesAndFiniteness) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const StepPropagator prop(model, 1e-3);
  EXPECT_EQ(prop.num_nodes(), model.num_nodes());
  EXPECT_EQ(prop.num_cores(), model.num_cores());
  EXPECT_EQ(prop.state_operator().rows(), model.num_nodes());
  EXPECT_EQ(prop.state_operator().cols(), model.num_nodes());
  EXPECT_EQ(prop.input_operator().rows(), model.num_nodes());
  EXPECT_EQ(prop.input_operator().cols(), model.num_cores());
  EXPECT_EQ(prop.ambient_operator().size(), model.num_nodes());
  // The zero-power, ambient-start fixed point: ambient state must map
  // exactly back to ambient (M_state*T_amb + c_amb == T_amb) -- checked
  // through the simulator at tight tolerance.
  TransientSimulator sim(model, 1e-3);
  const std::vector<double> zero(model.num_cores(), 0.0);
  sim.Step(zero);
  for (const double t : sim.state()) EXPECT_NEAR(t, model.ambient_c(), 1e-9);
}

}  // namespace
}  // namespace ds::thermal
