#include "sim/chip_sim.hpp"

#include <gtest/gtest.h>

#include "arch/platform.hpp"

namespace ds::sim {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

SimConfig Quick(double duration = 1.0, double rate = 1.0) {
  SimConfig cfg;
  cfg.duration_s = duration;
  cfg.arrival_rate = rate;
  cfg.seed = 3;
  return cfg;
}

TEST(ChipSim, DeterministicInSeed) {
  const ChipSimulator sim(Plat16(), Quick());
  const FullSimResult a = sim.Run();
  const FullSimResult b = sim.Run();
  EXPECT_DOUBLE_EQ(a.avg_gips, b.avg_gips);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
}

TEST(ChipSim, GovernorKeepsTemperatureControlled) {
  SimConfig cfg = Quick(2.0, 2.0);  // heavy load
  const ChipSimulator sim(Plat16(), cfg);
  const FullSimResult r = sim.Run();
  // One control step of overshoot at most.
  EXPECT_LT(r.max_temp_c, Plat16().tdtm_c() + 1.5);
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(ChipSim, EnergyEqualsAvgPowerTimesDuration) {
  const SimConfig cfg = Quick(1.5);
  const ChipSimulator sim(Plat16(), cfg);
  const FullSimResult r = sim.Run();
  EXPECT_NEAR(r.energy_j, r.avg_power_w * cfg.duration_s,
              1e-6 * r.energy_j);
}

TEST(ChipSim, BoostRaisesPerformanceUnderLightLoad) {
  SimConfig boost = Quick(1.5, 0.3);
  boost.enable_boost = true;
  SimConfig fixed = boost;
  fixed.enable_boost = false;
  const FullSimResult rb = ChipSimulator(Plat16(), boost).Run();
  const FullSimResult rf = ChipSimulator(Plat16(), fixed).Run();
  // A lightly loaded chip has headroom: boosting must help (same
  // arrival sequence by construction of the seed).
  EXPECT_GE(rb.avg_gips, rf.avg_gips);
  EXPECT_GT(rb.avg_gips, 0.0);
}

TEST(ChipSim, NocAccountingAddsPower) {
  SimConfig with = Quick(1.0, 1.0);
  with.enable_noc = true;
  SimConfig without = with;
  without.enable_noc = false;
  const FullSimResult rw = ChipSimulator(Plat16(), with).Run();
  const FullSimResult ro = ChipSimulator(Plat16(), without).Run();
  EXPECT_GT(rw.avg_noc_power_w, 0.0);
  EXPECT_EQ(ro.avg_noc_power_w, 0.0);
}

TEST(ChipSim, TraceIsSampledPerEpoch) {
  SimConfig cfg = Quick(1.0);
  const FullSimResult r = ChipSimulator(Plat16(), cfg).Run();
  const std::size_t expected = static_cast<std::size_t>(
      cfg.duration_s / cfg.scheduler_period_s);
  EXPECT_EQ(r.trace.size(), expected);
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_GT(r.trace[i].time_s, r.trace[i - 1].time_s);
}

TEST(ChipSim, JobsConserved) {
  const FullSimResult r = ChipSimulator(Plat16(), Quick(2.0, 1.5)).Run();
  EXPECT_LE(r.jobs_completed, r.jobs_arrived);
  EXPECT_GT(r.jobs_arrived, 0u);
}

TEST(ChipSim, AgingAccruesAndStaysBalancedUnderRotation) {
  // Arrival/departure churn naturally rotates placements; wear
  // imbalance should stay moderate.
  const FullSimResult r = ChipSimulator(Plat16(), Quick(2.0, 1.0)).Run();
  EXPECT_GE(r.aging_imbalance, 1.0);
  EXPECT_LT(r.aging_imbalance, 3.0);
}

// 0.4 ms at a 1 ms control period rounds to zero control steps; the
// averages would divide by it.
TEST(ChipSim, RejectsDurationCoveringNoControlStep) {
  SimConfig cfg = Quick(4e-4);
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  EXPECT_THROW(ChipSimulator(Plat16(), cfg), std::invalid_argument);
  cfg.duration_s = 1e-3;
  EXPECT_NO_THROW(cfg.Validate());
}

}  // namespace
}  // namespace ds::sim
