// Pins of the closed control loops over the 16 nm paper platform: the
// boost family (chip-wide, per-instance, RAPL), DTM under both
// policies, the sprint search and a 3-member boost_transient cohort.
// Each case's aggregates are pinned to 1e-12 relative, so a refactor
// of the warm start or the loop skeletons must reproduce them exactly.
// The warm starts run on the platform's shared steady-state solver, so
// once it and the step propagator exist a loop factors nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/boosting.hpp"
#include "core/dtm.hpp"
#include "core/sprint.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/scenarios.hpp"
#include "runtime/sweep_spec.hpp"
#include "telemetry/telemetry.hpp"

namespace ds {
namespace {

using Aggregates = std::vector<std::pair<std::string, double>>;

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

const core::BoostingSimulator& X264Boost() {
  static const core::BoostingSimulator sim(Plat16(), apps::AppByName("x264"),
                                           12, 8);
  return sim;
}

std::size_t SafeLevel() {
  std::size_t level = 0;
  EXPECT_TRUE(X264Boost().MaxSafeConstantLevel(500.0, &level));
  return level;
}

Aggregates OfTrace(const core::BoostTrace& t) {
  return {{"avg_gips", t.avg_gips},
          {"avg_power_w", t.avg_power_w},
          {"energy_j", t.energy_j},
          {"max_power_w", t.max_power_w},
          {"max_temp_c", t.max_temp_c},
          {"samples", static_cast<double>(t.time_s.size())}};
}

Aggregates OfDtm(const core::DtmResult& r) {
  return {{"avg_gips", r.avg_gips},
          {"nominal_gips", r.nominal_gips},
          {"max_temp_c", r.max_temp_c},
          {"min_freq_ghz", r.min_freq_ghz},
          {"time_above_critical_s", r.time_above_critical_s},
          {"cores_shut_down", static_cast<double>(r.cores_shut_down)},
          {"final_dark_fraction", r.final_dark_fraction},
          {"samples", static_cast<double>(r.time_s.size())}};
}

Aggregates RunDtm(core::DtmPolicy policy) {
  const core::DtmSimulator sim(Plat16(), apps::AppByName("swaptions"), 8, 8);
  return OfDtm(sim.Run(policy, Plat16().ladder().NominalLevel(), 1.0));
}

Aggregates RunSprint(double idle_fraction) {
  const core::SprintAnalysis sprint(Plat16());
  const core::SprintResult r =
      sprint.Measure(apps::AppByName("swaptions"), 8, 8,
                     Plat16().ladder().size() - 1, idle_fraction);
  return {{"duration_s", r.duration_s},
          {"unlimited", r.unlimited ? 1.0 : 0.0},
          {"steady_peak_c", r.steady_peak_c},
          {"start_peak_c", r.start_peak_c},
          {"sprint_gips", r.sprint_gips}};
}

/// Three cohort members that differ in power cap, stepped in lockstep
/// (cohort mode: a non-null detach predicate that never fires).
Aggregates RunCohort() {
  const runtime::SweepSpec spec = runtime::SweepSpec::FromJsonText(R"({
    "name": "pin_cohort", "kind": "boost_transient", "seed": 1,
    "base": {"node": "16nm", "app": "x264", "instances": 12, "threads": 8,
             "duration_s": 1.0, "control_ms": 1.0},
    "axes": {"power_cap_w": [250, 350, 500]}
  })");
  const std::vector<runtime::SweepJob> jobs = spec.Jobs();
  std::vector<runtime::JobResult> results(jobs.size());
  std::vector<const runtime::SweepJob*> job_ptrs;
  std::vector<runtime::JobResult*> result_ptrs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    job_ptrs.push_back(&jobs[i]);
    result_ptrs.push_back(&results[i]);
  }
  runtime::ModelCache cache;
  std::vector<bool> detached(jobs.size(), false);
  runtime::RunBoostTransientCohort(
      job_ptrs, cache, result_ptrs, [](std::size_t) { return false; },
      &detached);
  Aggregates out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(detached[i]);
    EXPECT_TRUE(results[i].ok && !results[i].skipped) << "member " << i;
    for (const auto& [name, value] : results[i].metrics)
      out.emplace_back("m" + std::to_string(i) + "." + name, value);
  }
  return out;
}

struct PinCase {
  const char* loop;
  std::function<Aggregates()> run;
  Aggregates expected;
};

std::string Listing(const Aggregates& a) {
  std::string s;
  char buf[96];
  for (const auto& [name, value] : a) {
    std::snprintf(buf, sizeof(buf), "{\"%s\", %.17g},\n", name.c_str(),
                  value);
    s += buf;
  }
  return s;
}

TEST(ControllerPins, AggregatesMatchTo1e12Relative) {
  const double tdtm = Plat16().tdtm_c();
  const std::vector<PinCase> cases = {
      {"RunBoosting",
       [&] {
         return OfTrace(
             X264Boost().RunBoosting(SafeLevel(), tdtm, 500.0, 1.0));
       },
       {{"avg_gips", 251.8049032258071},
        {"avg_power_w", 256.29423099903784},
        {"energy_j", 256.29423099903784},
        {"max_power_w", 352.57655463418848},
        {"max_temp_c", 80.37828192663693},
        {"samples", 1000}}},
      {"RunPerInstanceBoosting",
       [&] {
         return OfTrace(X264Boost().RunPerInstanceBoosting(SafeLevel(), tdtm,
                                                           500.0, 1.0));
       },
       {{"avg_gips", 265.67143225806899},
        {"avg_power_w", 297.72649834259965},
        {"energy_j", 297.72649834259965},
        {"max_power_w", 392.87316192389932},
        {"max_temp_c", 80.647378095271179},
        {"samples", 1000}}},
      {"RunRaplBoosting",
       [&] {
         return OfTrace(X264Boost().RunRaplBoosting(SafeLevel(), 220.0, 290.0,
                                                    0.25, tdtm, 1.0));
       },
       {{"avg_gips", 231.8975999999997},
        {"avg_power_w", 215.3805939079237},
        {"energy_j", 215.3805939079237},
        {"max_power_w", 271.76188786534101},
        {"max_temp_c", 79.045408672634068},
        {"samples", 1000}}},
      {"Dtm.throttle-global",
       [] { return RunDtm(core::DtmPolicy::kThrottleGlobal); },
       {{"avg_gips", 245.90769230769845},
        {"nominal_gips", 265.84615384615387},
        {"max_temp_c", 80.966740956809204},
        {"min_freq_ghz", 2.8000000000000003},
        {"time_above_critical_s", 0.0040000000000000001},
        {"cores_shut_down", 0},
        {"final_dark_fraction", 0.35999999999999999},
        {"samples", 500}}},
      {"Dtm.shutdown-hottest",
       [] { return RunDtm(core::DtmPolicy::kShutdownHottest); },
       {{"avg_gips", 216.27415384615387},
        {"nominal_gips", 265.84615384615387},
        {"max_temp_c", 81.03720056228299},
        {"min_freq_ghz", 3.600000000000001},
        {"time_above_critical_s", 0.012000000000000004},
        {"cores_shut_down", 12},
        {"final_dark_fraction", 0.47999999999999998},
        {"samples", 500}}},
      {"Sprint.idle0",
       [] { return RunSprint(0.0); },
       {{"duration_s", 6.3299999999999095},
        {"unlimited", 0},
        {"steady_peak_c", 115.69253975188167},
        {"start_peak_c", 38.104235828511264},
        {"sprint_gips", 324.92307692307702}}},
      {"Sprint.idle0.5",
       [] { return RunSprint(0.5); },
       {{"duration_s", 0.040000000000000001},
        {"unlimited", 0},
        {"steady_peak_c", 115.69253975188167},
        {"start_peak_c", 73.096870638397903},
        {"sprint_gips", 324.92307692307702}}},
      {"BoostTransientCohort",
       RunCohort,
       {{"m0.avg_gips", 245.2645161290358},
        {"m0.avg_power_w", 238.83214025709771},
        {"m0.energy_j", 238.83214025709771},
        {"m0.max_power_w", 238.83393444645685},
        {"m0.max_temp_c", 79.205996407648328},
        {"m0.final_peak_c", 79.205996407648328},
        {"m0.final_freq_ghz", 3.600000000000001},
        {"m1.avg_gips", 251.76402580645225},
        {"m1.avg_power_w", 256.17869114222748},
        {"m1.energy_j", 256.17869114222748},
        {"m1.max_power_w", 310.22852183936635},
        {"m1.max_temp_c", 80.291664717107082},
        {"m1.final_peak_c", 79.809864260308089},
        {"m1.final_freq_ghz", 3.600000000000001},
        {"m2.avg_gips", 251.8049032258071},
        {"m2.avg_power_w", 256.29423099903778},
        {"m2.energy_j", 256.29423099903778},
        {"m2.max_power_w", 352.57655463418808},
        {"m2.max_temp_c", 80.378281926636149},
        {"m2.final_peak_c", 80.271468510282844},
        {"m2.final_freq_ghz", 4.0000000000000009}}},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE(c.loop);
    const Aggregates got = c.run();
    if (got.size() != c.expected.size()) {
      ADD_FAILURE() << "aggregates now:\n" << Listing(got);
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, c.expected[i].first);
      const double want = c.expected[i].second;
      EXPECT_LE(std::abs(got[i].second - want),
                1e-12 * std::max(std::abs(got[i].second), std::abs(want)))
          << got[i].first << ": got " << got[i].second << ", pinned "
          << want;
    }
  }
}

class WarmStartTest : public ::testing::Test {
 protected:
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::Registry().ResetValues();
  }
};

TEST_F(WarmStartTest, ControlLoopsFactorNothing) {
  // The platform's solver exists and the control periods' propagators
  // are folded (a fold factors G + C/dt): what remains of a run is the
  // warm start and the loop.
  const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  plat.solver();
  plat.propagators()->For(plat.thermal_model(), 1e-3);
  plat.propagators()->For(plat.thermal_model(), 1e-2);  // sprint's dt
  const apps::AppProfile& x264 = apps::AppByName("x264");
  const core::BoostingSimulator boost(plat, x264, 12, 8);
  std::size_t level = 0;
  ASSERT_TRUE(boost.MaxSafeConstantLevel(500.0, &level));
  const core::DtmSimulator dtm(plat, apps::AppByName("swaptions"), 8, 8);
  const core::SprintAnalysis sprint(plat);
  const double tdtm = plat.tdtm_c();

  const std::vector<std::pair<const char*, std::function<void()>>> runs = {
      {"RunBoosting",
       [&] { boost.RunBoosting(level, tdtm, 500.0, 0.05); }},
      {"RunPerInstanceBoosting",
       [&] { boost.RunPerInstanceBoosting(level, tdtm, 500.0, 0.05); }},
      {"RunRaplBoosting",
       [&] { boost.RunRaplBoosting(level, 220.0, 290.0, 0.25, tdtm, 0.05); }},
      {"DtmSimulator::Run",
       [&] {
         dtm.Run(core::DtmPolicy::kThrottleGlobal,
                 plat.ladder().NominalLevel(), 0.05);
       }},
      {"SprintAnalysis::Measure",
       [&] {
         sprint.Measure(x264, 12, 8, plat.ladder().size() - 1, 0.5);
       }},
  };
  telemetry::SetEnabled(true);
  telemetry::Counter& factorizations =
      telemetry::Registry().GetCounter("lu.factorizations");
  for (const auto& [name, run] : runs) {
    const std::uint64_t before = factorizations.value();
    run();
    EXPECT_EQ(factorizations.value() - before, 0u) << name;
  }
}

}  // namespace
}  // namespace ds
