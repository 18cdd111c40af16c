#include "core/boosting.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"

namespace ds::core {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

class BoostingTest : public ::testing::Test {
 protected:
  BoostingTest() : sim_(Plat16(), apps::AppByName("x264"), 12, 8) {}
  BoostingSimulator sim_;
};

TEST_F(BoostingTest, RejectsOversizedWorkload) {
  EXPECT_THROW(
      BoostingSimulator(Plat16(), apps::AppByName("x264"), 13, 8),
      std::invalid_argument);
}

TEST_F(BoostingTest, MaxSafeConstantLevelIsThermallySafeAndMaximal) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const Estimate safe = sim_.SteadyAtLevel(level);
  EXPECT_FALSE(safe.thermal_violation);
  if (level + 1 < Plat16().ladder().size()) {
    const Estimate above = sim_.SteadyAtLevel(level + 1);
    EXPECT_TRUE(above.thermal_violation || above.total_power_w > 500.0);
  }
}

TEST_F(BoostingTest, ConstantTraceIsFlat) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const BoostTrace t = sim_.RunConstant(level, 2.0);
  ASSERT_FALSE(t.gips.empty());
  for (const double g : t.gips) EXPECT_DOUBLE_EQ(g, t.avg_gips);
  EXPECT_NEAR(t.energy_j, t.avg_power_w * 2.0, 1e-6);
}

TEST_F(BoostingTest, BoostingStaysNearThresholdAndBeatsConstant) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const BoostTrace constant = sim_.RunConstant(level, 3.0);
  const BoostTrace boost =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 3.0);
  // The paper's observation 3: boosting achieves a (slightly) higher
  // average performance...
  EXPECT_GE(boost.avg_gips, constant.avg_gips);
  // ...while oscillating around the threshold (one control step of
  // overshoot is inherent to the 1 ms loop)...
  EXPECT_LT(boost.max_temp_c, Plat16().tdtm_c() + 2.0);
  // ...at a higher peak power.
  EXPECT_GT(boost.max_power_w, constant.max_power_w);
}

TEST_F(BoostingTest, BoostingRespectsPowerCap) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const double cap = sim_.SteadyAtLevel(level).total_power_w + 5.0;
  const BoostTrace boost =
      sim_.RunBoosting(level, Plat16().tdtm_c(), cap, 1.0);
  EXPECT_LE(boost.max_power_w, cap + 1e-6);
}

TEST_F(BoostingTest, QuasiSteadyMatchesTransientAverages) {
  // The analytical boost model (used by the Fig. 12/13 sweeps) must
  // agree with the full transient to a few percent.
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const auto qs = sim_.EstimateBoosting(Plat16().tdtm_c(), 500.0);
  const BoostTrace tr =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 5.0);
  EXPECT_NEAR(qs.avg_gips, tr.avg_gips, 0.05 * tr.avg_gips);
  EXPECT_NEAR(qs.avg_power_w, tr.avg_power_w, 0.10 * tr.avg_power_w);
}

TEST_F(BoostingTest, QuasiSteadyDutyInUnitInterval) {
  const auto qs = sim_.EstimateBoosting(Plat16().tdtm_c(), 500.0);
  EXPECT_GE(qs.duty, 0.0);
  EXPECT_LE(qs.duty, 1.0);
  EXPECT_GE(qs.peak_power_w, qs.avg_power_w - 1e-9);
}

TEST_F(BoostingTest, TightPowerCapDisablesBoosting) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const double cap = sim_.SteadyAtLevel(level).total_power_w + 1.0;
  const auto qs = sim_.EstimateBoosting(Plat16().tdtm_c(), cap);
  EXPECT_FALSE(qs.boosted);
  EXPECT_NEAR(qs.avg_gips, sim_.GipsAtLevel(level), 1e-9);
}

TEST_F(BoostingTest, PerInstanceDomainsBeatChipWideDvfs) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const core::BoostTrace global =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 3.0);
  const core::BoostTrace per_inst =
      sim_.RunPerInstanceBoosting(level, Plat16().tdtm_c(), 500.0, 3.0);
  // Finer DVFS granularity can only help under the same constraint --
  // cool edge domains keep boost levels the chip-wide loop gives up.
  EXPECT_GE(per_inst.avg_gips, 0.99 * global.avg_gips);
  EXPECT_LT(per_inst.max_temp_c, Plat16().tdtm_c() + 2.0);
  EXPECT_LE(per_inst.max_power_w, 500.0 + 50.0);
}

TEST_F(BoostingTest, RaplRespectsPowerLimits) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const double pl1 = 220.0, pl2 = 290.0;
  const core::BoostTrace r =
      sim_.RunRaplBoosting(level, pl1, pl2, 1.0, Plat16().tdtm_c(), 3.0);
  // Instantaneous power never exceeds PL2 plus one step of slack;
  // the long-run average tracks PL1.
  EXPECT_LE(r.max_power_w, pl2 + 40.0);
  EXPECT_LE(r.avg_power_w, pl1 * 1.10);
  EXPECT_LT(r.max_temp_c, Plat16().tdtm_c() + 1.5);
}

TEST_F(BoostingTest, GenerousRaplDegeneratesToThermalTrigger) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const core::BoostTrace thermal =
      sim_.RunBoosting(level, Plat16().tdtm_c(), 500.0, 2.0);
  const core::BoostTrace rapl = sim_.RunRaplBoosting(
      level, 500.0, 500.0, 1.0, Plat16().tdtm_c(), 2.0);
  EXPECT_NEAR(rapl.avg_gips, thermal.avg_gips, 0.03 * thermal.avg_gips);
}

TEST_F(BoostingTest, TightRaplLimitCostsPerformance) {
  std::size_t level = 0;
  ASSERT_TRUE(sim_.MaxSafeConstantLevel(500.0, &level));
  const core::BoostTrace loose = sim_.RunRaplBoosting(
      level, 300.0, 380.0, 1.0, Plat16().tdtm_c(), 2.0);
  const core::BoostTrace tight = sim_.RunRaplBoosting(
      level, 180.0, 220.0, 1.0, Plat16().tdtm_c(), 2.0);
  EXPECT_LT(tight.avg_gips, loose.avg_gips);
  EXPECT_LT(tight.avg_power_w, loose.avg_power_w);
}

TEST_F(BoostingTest, GipsAtLevelScalesWithFrequency) {
  const double g0 = sim_.GipsAtLevel(0);
  const double g1 = sim_.GipsAtLevel(1);
  const double f0 = Plat16().ladder()[0].freq;
  const double f1 = Plat16().ladder()[1].freq;
  EXPECT_NEAR(g1 / g0, f1 / f0, 1e-9);
}

TEST_F(BoostingTest, FewActiveCoresNeverThrottle) {
  // A single instance is thermally trivial: the safe constant level is
  // the ladder top and quasi-steady boosting cannot go higher.
  const BoostingSimulator small(Plat16(), apps::AppByName("x264"), 1, 8);
  std::size_t level = 0;
  ASSERT_TRUE(small.MaxSafeConstantLevel(500.0, &level));
  EXPECT_EQ(level, Plat16().ladder().size() - 1);
  const auto qs = small.EstimateBoosting(Plat16().tdtm_c(), 500.0);
  EXPECT_NEAR(qs.avg_gips, small.GipsAtLevel(level), 1e-9);
}

/// Checks both level searches against a full scan of the ladder (the
/// linear algorithm they replaced) at several power caps, including one
/// below level 0's power.
void ExpectSearchesMatchScan(const arch::Platform& plat,
                             const apps::AppProfile& app,
                             std::size_t instances, std::size_t threads) {
  const BoostingSimulator sim(plat, app, instances, threads);
  std::vector<Estimate> scan;  // every level below the first runaway
  for (std::size_t level = 0; level < plat.ladder().size(); ++level) {
    try {
      scan.push_back(sim.SteadyAtLevel(level));
    } catch (const std::runtime_error&) {
      break;
    }
  }
  ASSERT_FALSE(scan.empty());
  const std::vector<double> caps = {50.0, 200.0, 500.0, 1e9,
                                    0.5 * scan[0].total_power_w};
  for (const double cap : caps) {
    std::optional<std::size_t> constant;
    std::size_t base = 0;
    for (std::size_t level = 0; level < scan.size(); ++level) {
      const Estimate& e = scan[level];
      if (e.total_power_w > cap) continue;
      if (!e.thermal_violation) constant = level;
      if (e.peak_temp_c <= plat.tdtm_c()) base = level;
    }
    std::size_t level = 0;
    const bool found = sim.MaxSafeConstantLevel(cap, &level);
    const std::string what = app.name + " x" + std::to_string(instances) +
                             "/" + std::to_string(threads) + " cap " +
                             std::to_string(cap);
    ASSERT_EQ(found, constant.has_value()) << what;
    if (found) {
      EXPECT_EQ(level, *constant) << what;
    }
    // The quasi-steady mix must start from the base level's own estimate.
    const auto qs = sim.EstimateBoosting(plat.tdtm_c(), cap);
    EXPECT_EQ(qs.base_level, base) << what;
    EXPECT_DOUBLE_EQ(qs.avg_power_w,
                     (1.0 - qs.duty) * scan[base].total_power_w +
                         qs.duty * qs.peak_power_w)
        << what;
  }
}

TEST(BoostingSearch, LevelSearchesMatchFullLadderScan) {
  const std::size_t cores = Plat16().num_cores();
  for (const apps::AppProfile& app : apps::ParsecSuite())
    for (const std::size_t threads : {2UL, 8UL})
      for (const std::size_t instances :
           {std::size_t{1}, cores / threads / 2, cores / threads})
        ExpectSearchesMatchScan(Plat16(), app, instances, threads);
  // A 50 MHz ladder has about four times as many levels.
  const arch::Platform fine(power::TechNode::N16, 100, 0.05);
  for (const std::size_t instances : {1UL, 6UL, 12UL})
    ExpectSearchesMatchScan(fine, apps::AppByName("x264"), instances, 8);
  // On a 1 K/W heat sink x264 x12 runs away from level 14 on. With
  // T_DTM above every converged peak, the first runaway level is what
  // ends the safe prefix.
  arch::Platform weak(power::TechNode::N16, 100);
  thermal::PackageParams pkg;
  pkg.convection_resistance = 1.0;
  const auto rc =
      std::make_shared<const thermal::RcModel>(weak.floorplan(), pkg);
  weak.AdoptThermalAssets(
      rc, std::make_shared<const thermal::SteadyStateSolver>(*rc));
  weak.set_tdtm_c(1000.0);
  for (const std::size_t instances : {6UL, 12UL})
    ExpectSearchesMatchScan(weak, apps::AppByName("x264"), instances, 8);
}

}  // namespace
}  // namespace ds::core
