// Cross-module property and fuzz tests: randomized inputs, invariant
// assertions. These complement the per-module unit tests by exercising
// combinations a hand-written case would miss.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "core/tsp.hpp"
#include "noc/mesh.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "util/matrix.hpp"

namespace ds {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

/// Random-power thermal superposition: T(a*P1 + b*P2) - T_amb equals
/// a*(T(P1)-T_amb) + b*(T(P2)-T_amb) for arbitrary vectors.
class ThermalLinearityFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ThermalLinearityFuzz, SuperpositionHolds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> dist(0.0, 5.0);
  const auto& solver = Plat16().solver();
  const double amb = Plat16().thermal_model().ambient_c();
  std::vector<double> p1(100), p2(100), mix(100);
  const double a = 0.7, b = 1.4;
  for (std::size_t i = 0; i < 100; ++i) {
    p1[i] = dist(rng);
    p2[i] = dist(rng);
    mix[i] = a * p1[i] + b * p2[i];
  }
  const auto t1 = solver.Solve(p1);
  const auto t2 = solver.Solve(p2);
  const auto tm = solver.Solve(mix);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_NEAR(tm[i] - amb, a * (t1[i] - amb) + b * (t2[i] - amb), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThermalLinearityFuzz,
                         ::testing::Values(1, 2, 3));

/// Random mappings: TSP budget run at exactly the budget always pins
/// the peak at T_DTM, never above.
class TspRandomMappingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TspRandomMappingFuzz, BudgetIsTight) {
  std::mt19937_64 rng(100 + GetParam());
  std::vector<std::size_t> all(100);
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), rng);
  const std::size_t m = 20 + static_cast<std::size_t>(rng() % 60);
  std::vector<std::size_t> mapping(all.begin(),
                                   all.begin() + static_cast<long>(m));
  const core::Tsp tsp(Plat16());
  const double budget = tsp.ForMapping(mapping);
  EXPECT_GT(budget, 0.0);
  const double peak = [&] {
    std::vector<double> p(
        100, Plat16().power_model().DarkCorePower(Plat16().tdtm_c()));
    for (const std::size_t c : mapping) p[c] = budget;
    return util::MaxElement(Plat16().solver().Solve(p));
  }();
  EXPECT_NEAR(peak, Plat16().tdtm_c(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TspRandomMappingFuzz,
                         ::testing::Range(0, 6));

/// Estimator monotonicity sweeps across all apps and thread counts.
class EstimatorMonotonicityFuzz
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(EstimatorMonotonicityFuzz, ActiveCoresMonotoneInTdp) {
  const auto [app_idx, threads] = GetParam();
  const apps::AppProfile& app = apps::ParsecSuite()[app_idx];
  const core::DarkSiliconEstimator est(Plat16());
  const std::size_t level = Plat16().ladder().NominalLevel();
  std::size_t prev = 0;
  for (double tdp = 60.0; tdp <= 260.0; tdp += 40.0) {
    const apps::Workload w =
        est.PlanUnderPowerBudget(app, threads, level, tdp);
    EXPECT_GE(w.TotalCores(), prev) << app.name << " tdp " << tdp;
    prev = w.TotalCores();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndThreads, EstimatorMonotonicityFuzz,
    ::testing::Combine(::testing::Range<std::size_t>(0, 7),
                       ::testing::Values(2UL, 4UL, 8UL)));

TEST(PropertyFuzz, SpreadAlwaysAtOrBelowContiguousPeak) {
  // For any count, the spread mapping's uniform-power peak never
  // exceeds the contiguous mapping's.
  const auto& a = Plat16().solver().InfluenceMatrix();
  auto peak_per_watt = [&](const std::vector<std::size_t>& set) {
    double worst = 0.0;
    for (const std::size_t i : set) {
      double row = 0.0;
      for (const std::size_t j : set) row += a(i, j);
      worst = std::max(worst, row);
    }
    return worst;
  };
  for (const std::size_t count : {10UL, 30UL, 55UL, 80UL, 95UL}) {
    const auto spread =
        core::SelectCores(Plat16(), count, core::MappingPolicy::kSpread);
    const auto contig =
        core::SelectCores(Plat16(), count, core::MappingPolicy::kContiguous);
    EXPECT_LE(peak_per_watt(spread), peak_per_watt(contig) + 1e-9) << count;
  }
}

TEST(PropertyFuzz, NocPowerLinearInWorkloadSplit) {
  // Evaluating two disjoint workload halves separately must sum to the
  // combined evaluation (flow accumulation is linear) minus one set of
  // static router power.
  const noc::MeshNoc mesh(Plat16().floorplan());
  const apps::AppProfile& a1 = apps::AppByName("dedup");
  const apps::AppProfile& a2 = apps::AppByName("ferret");
  apps::Workload w1, w2, both;
  w1.Add({&a1, 8, 3.6, 1.11});
  w2.Add({&a2, 8, 3.6, 1.11});
  both.Add({&a1, 8, 3.6, 1.11});
  both.Add({&a2, 8, 3.6, 1.11});
  const std::vector<std::size_t> s1 = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::size_t> s2 = {90, 91, 92, 93, 94, 95, 96, 97};
  std::vector<std::size_t> s12 = s1;
  s12.insert(s12.end(), s2.begin(), s2.end());
  const double static_total =
      100.0 * mesh.params().router_static_w;
  const double p1 = mesh.Evaluate(w1, s1).total_power_w - static_total;
  const double p2 = mesh.Evaluate(w2, s2).total_power_w - static_total;
  const double p12 = mesh.Evaluate(both, s12).total_power_w - static_total;
  EXPECT_NEAR(p12, p1 + p2, 1e-9);
}

TEST(PropertyFuzz, EstimateTempsConsistentWithPeak) {
  // Estimate.core_temps must contain the reported peak and respect the
  // violation flag, for every app at two levels.
  const core::DarkSiliconEstimator est(Plat16());
  for (const apps::AppProfile& app : apps::ParsecSuite()) {
    for (const std::size_t level : {5UL, Plat16().ladder().NominalLevel()}) {
      const core::Estimate e =
          est.UnderPowerBudget(app, 8, level, 185.0);
      if (e.active_cores == 0) continue;
      ASSERT_EQ(e.core_temps.size(), 100u);
      EXPECT_NEAR(util::MaxElement(e.core_temps), e.peak_temp_c, 1e-9);
      EXPECT_EQ(e.thermal_violation,
                e.peak_temp_c > Plat16().tdtm_c() + 1e-6);
    }
  }
}

/// Steady power and peak temperature never fall as the chip-wide DVFS
/// level rises, and once a level runs away thermally every higher level
/// does too. The level searches in BoostingSimulator bisect on this.
/// Returns whether any level ran away.
bool ExpectSteadyMonotoneInLevel(const arch::Platform& plat,
                                 const apps::AppProfile& app,
                                 std::size_t instances) {
  const core::BoostingSimulator sim(plat, app, instances, 8);
  bool runaway = false;
  double prev_power = 0.0, prev_peak = 0.0;
  for (std::size_t level = 0; level < plat.ladder().size(); ++level) {
    core::Estimate e;
    try {
      e = sim.SteadyAtLevel(level);
    } catch (const std::runtime_error&) {
      runaway = true;
      continue;
    }
    EXPECT_FALSE(runaway) << app.name << " x" << instances << " level "
                          << level << " solved above a runaway level";
    EXPECT_GE(e.total_power_w, prev_power)
        << app.name << " x" << instances << " level " << level;
    EXPECT_GE(e.peak_temp_c, prev_peak)
        << app.name << " x" << instances << " level " << level;
    prev_power = e.total_power_w;
    prev_peak = e.peak_temp_c;
  }
  return runaway;
}

TEST(PropertyFuzz, SteadyStateMonotoneInDvfsLevel) {
  const std::size_t max16 = Plat16().num_cores() / 8;
  for (const apps::AppProfile& app : apps::ParsecSuite())
    for (const std::size_t instances : {max16 / 2, max16})
      ExpectSteadyMonotoneInLevel(Plat16(), app, instances);
  const arch::Platform plat8 =
      arch::Platform::PaperPlatform(power::TechNode::N8);
  const std::size_t max8 = plat8.num_cores() / 8;
  for (const std::size_t instances : {max8 / 2, max8})
    ExpectSteadyMonotoneInLevel(plat8, apps::AppByName("x264"), instances);
  // The paper platforms converge at every level; on a 1 K/W heat sink
  // x264 x6 and x12 run away from levels 17 and 14 on.
  arch::Platform weak(power::TechNode::N16, 100);
  thermal::PackageParams pkg;
  pkg.convection_resistance = 1.0;
  const auto rc =
      std::make_shared<const thermal::RcModel>(weak.floorplan(), pkg);
  weak.AdoptThermalAssets(
      rc, std::make_shared<const thermal::SteadyStateSolver>(*rc));
  for (const std::size_t instances : {6UL, 12UL})
    EXPECT_TRUE(
        ExpectSteadyMonotoneInLevel(weak, apps::AppByName("x264"), instances));
}

}  // namespace
}  // namespace ds
