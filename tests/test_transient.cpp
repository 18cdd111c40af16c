#include "thermal/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "util/matrix.hpp"

namespace ds::thermal {
namespace {

/// `n` steps of `sim` under constant powers `p`.
void StepTimes(TransientSimulator& sim, std::span<const double> p,
               std::size_t n) {
  for (std::size_t s = 0; s < n; ++s) sim.Step(p);
}

class TransientTest : public ::testing::Test {
 protected:
  TransientTest() : model_(Floorplan::MakeGrid(16, 5.1)), solver_(model_) {}
  /// One-pass warm start at constant powers: the steady state of `p`.
  std::vector<double> SteadyState(const std::vector<double>& p) const {
    return solver_.WarmStart(
        [&](std::span<const double>, std::span<double> out) {
          std::copy(p.begin(), p.end(), out.begin());
        },
        1);
  }
  RcModel model_;
  SteadyStateSolver solver_;
};

TEST_F(TransientTest, StartsAtAmbient) {
  const TransientSimulator sim(model_);
  for (const double t : sim.DieTemps())
    EXPECT_DOUBLE_EQ(t, model_.ambient_c());
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
}

TEST_F(TransientTest, RejectsNonPositiveStep) {
  EXPECT_THROW(TransientSimulator(model_, 0.0), std::invalid_argument);
  EXPECT_THROW(TransientSimulator(model_, -1e-3), std::invalid_argument);
}

TEST_F(TransientTest, StepResponseIsMonotoneHeating) {
  TransientSimulator sim(model_, 1e-2);
  const std::vector<double> p(16, 3.0);
  double prev_peak = sim.PeakDieTemp();
  for (int i = 0; i < 50; ++i) {
    sim.Step(p);
    const double peak = sim.PeakDieTemp();
    EXPECT_GE(peak, prev_peak - 1e-12);
    prev_peak = peak;
  }
  EXPECT_GT(prev_peak, model_.ambient_c() + 1.0);
}

TEST_F(TransientTest, ConvergesToSteadyState) {
  TransientSimulator sim(model_, 0.1);
  std::vector<double> p(16, 0.0);
  p[5] = 4.0;
  p[6] = 2.0;
  // 600 steps of 0.1 s = 60 s >> the 14 s package time constant.
  StepTimes(sim, p, 600);
  const SteadyStateSolver solver(model_);
  const std::vector<double> steady = solver.Solve(p);
  const std::vector<double> transient = sim.DieTemps();
  EXPECT_LT(util::MaxAbsDiffVec(transient, steady), 0.05);
}

// The warm start installed with SetState (powers independent of
// temperature, so one pass is the exact steady state) does not drift.
TEST_F(TransientTest, WarmStartStateIsAFixedPoint) {
  TransientSimulator sim(model_, 1e-3);
  std::vector<double> p(16, 2.5);
  sim.SetState(SteadyState(p));
  const std::vector<double> before = sim.DieTemps();
  StepTimes(sim, p, 10);
  EXPECT_LT(util::MaxAbsDiffVec(sim.DieTemps(), before), 1e-9);
}

TEST_F(TransientTest, CoolsBackTowardAmbientWhenPowerRemoved) {
  TransientSimulator sim(model_, 0.1);
  const std::vector<double> p(16, 4.0);
  sim.SetState(SteadyState(p));
  const double hot = sim.PeakDieTemp();
  const std::vector<double> zero(16, 0.0);
  StepTimes(sim, zero, 600);  // 60 s, ~4 package time constants
  EXPECT_LT(sim.PeakDieTemp(), hot);
  // The slow convection capacitance leaves a sub-Kelvin tail.
  EXPECT_NEAR(sim.PeakDieTemp(), model_.ambient_c(), 1.0);
  EXPECT_LT(sim.PeakDieTemp() - model_.ambient_c(),
            0.1 * (hot - model_.ambient_c()));
}

TEST_F(TransientTest, ResetRestoresAmbient) {
  TransientSimulator sim(model_, 1e-2);
  StepTimes(sim, std::vector<double>(16, 5.0), 20);
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
  for (const double t : sim.DieTemps())
    EXPECT_DOUBLE_EQ(t, model_.ambient_c());
}

TEST_F(TransientTest, TimeAdvancesByDt) {
  TransientSimulator sim(model_, 2e-3);
  StepTimes(sim, std::vector<double>(16, 1.0), 5);
  EXPECT_NEAR(sim.time(), 1e-2, 1e-12);
}

TEST_F(TransientTest, HalvingTheStepChangesLittle) {
  // Backward Euler is first-order: halving dt must give nearly the
  // same trajectory at matched times (convergence in dt).
  std::vector<double> p(16, 0.0);
  p[0] = 6.0;
  TransientSimulator coarse(model_, 0.02);
  TransientSimulator fine(model_, 0.01);
  StepTimes(coarse, p, 100);  // 2 s
  StepTimes(fine, p, 200);    // 2 s
  EXPECT_LT(util::MaxAbsDiffVec(coarse.DieTemps(), fine.DieTemps()), 0.05);
}

TEST_F(TransientTest, FasterThanPackageTimeConstantDieHeatsFirst) {
  // After a few milliseconds the die is measurably warm while the sink
  // barely moved -- the separation of time scales the boosting loop
  // exploits.
  TransientSimulator sim(model_, 1e-3);
  const std::vector<double> p(16, 5.0);
  StepTimes(sim, p, 20);  // 20 ms
  const double die = sim.state()[model_.DieNode(5)];
  const double sink = sim.state()[model_.SinkNode(5)];
  EXPECT_GT(die - model_.ambient_c(), 10.0 * (sink - model_.ambient_c()));
}

}  // namespace
}  // namespace ds::thermal
