// Step-propagator kernels: the folded dense operator, applied by
// TransientSimulator's panel lane, must match an implicit-Euler LU
// oracle written in the tests (euler_oracle.hpp) to rounding error
// (1e-9 C) across floorplan sizes, power patterns and step counts.
#include "thermal/propagator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/platform.hpp"
#include "euler_oracle.hpp"
#include "thermal/batch_propagator.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
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

TEST(StepPropagator, ConstantPowerStepsMatchLegacyLuSteps) {
  const std::size_t cores = 16;
  const RcModel model(Floorplan::MakeGrid(cores, 5.1));
  const std::vector<double> p = PowerPattern(cores, 2);
  TransientSimulator sim(model, 1e-3);
  EulerOracle oracle(model, 1e-3);
  for (std::size_t s = 0; s < 200; ++s) {
    sim.Step(p);
    oracle.Step(p);
  }
  EXPECT_LT(MaxAbsDiff(sim.state(), oracle.state()), 1e-9);
  EXPECT_NEAR(sim.time(), 200e-3, 1e-12);
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
  for (std::size_t s = 0; s < 64; ++s) {
    a.Step(p);
    b.Step(p);
    c.Step(p);
  }
  // a and b advanced identically off the shared operators.
  EXPECT_LT(MaxAbsDiff(a.state(), b.state()), 1e-15);
}

TEST(StepPropagator, OperatorShapesAndFiniteness) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const StepPropagator prop(model, 1e-3);
  EXPECT_EQ(prop.num_nodes(), model.num_nodes());
  EXPECT_EQ(prop.num_cores(), model.num_cores());
  EXPECT_EQ(prop.state_operator_t().rows(), model.num_nodes());
  EXPECT_EQ(prop.state_operator_t().cols(), model.num_nodes());
  EXPECT_EQ(prop.input_operator_t().rows(), model.num_cores());
  EXPECT_EQ(prop.input_operator_t().cols(), model.num_nodes());
  EXPECT_EQ(prop.ambient_operator().size(), model.num_nodes());
  for (const double x : prop.state_operator_t().data())
    ASSERT_TRUE(std::isfinite(x));
  for (const double x : prop.input_operator_t().data())
    ASSERT_TRUE(std::isfinite(x));
  // The zero-power, ambient-start fixed point: ambient state must map
  // exactly back to ambient (M_state*T_amb + c_amb == T_amb) -- checked
  // through the simulator at tight tolerance.
  TransientSimulator sim(model, 1e-3);
  const std::vector<double> zero(model.num_cores(), 0.0);
  sim.Step(zero);
  for (const double t : sim.state()) EXPECT_NEAR(t, model.ambient_c(), 1e-9);
}

TEST(StepPropagator, ImmutableAfterConstruction) {
  const RcModel model(Floorplan::MakeGrid(16, 5.1));
  const auto prop = std::make_shared<const StepPropagator>(model, 1e-3);
  const std::size_t n = model.num_nodes();
  const std::size_t cores = model.num_cores();
  // Exactly the operators the panel kernels read: M_state^T, M_in^T and
  // c_amb. Stepping a cohort over the propagator builds nothing more.
  const std::size_t folded = sizeof(double) * (n * n + cores * n + n);
  EXPECT_EQ(prop->ApproxBytes(), folded);
  BatchStepPropagator cohort(prop, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t m =
        cohort.AddMember(std::vector<double>(n, model.ambient_c()));
    cohort.SetPowers(m, PowerPattern(cores, j));
  }
  for (std::size_t s = 0; s < 10; ++s) cohort.Step();
  EXPECT_EQ(prop->ApproxBytes(), folded);
}

}  // namespace
}  // namespace ds::thermal
