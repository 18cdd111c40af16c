#include "core/dtm.hpp"

#include <gtest/gtest.h>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"

namespace ds::core {
namespace {

const arch::Platform& Plat16() {
  static const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  return plat;
}

TEST(Dtm, RejectsOversizedWorkload) {
  EXPECT_THROW(DtmSimulator(Plat16(), apps::AppByName("x264"), 13, 8),
               std::invalid_argument);
}

TEST(Dtm, ColdWorkloadIsUntouched) {
  // A small workload never reaches T_DTM: DTM must not interfere.
  const DtmSimulator sim(Plat16(), apps::AppByName("x264"), 4, 8);
  const std::size_t nominal = Plat16().ladder().NominalLevel();
  const DtmResult r =
      sim.Run(DtmPolicy::kThrottleGlobal, nominal, 1.0);
  EXPECT_EQ(r.cores_shut_down, 0u);
  EXPECT_NEAR(r.avg_gips, r.nominal_gips, 1e-6);
  EXPECT_NEAR(r.performance_loss, 0.0, 1e-9);
  EXPECT_NEAR(r.min_freq_ghz, Plat16().ladder()[nominal].freq, 1e-9);
}

class HotDtmTest : public ::testing::TestWithParam<DtmPolicy> {};

TEST_P(HotDtmTest, ContainsTheViolation) {
  // 8 swaptions instances at nominal violate T_DTM in steady state;
  // both DTM policies must bring and keep the chip near/below the
  // threshold at the cost of performance.
  const DtmSimulator sim(Plat16(), apps::AppByName("swaptions"), 8, 8);
  const std::size_t nominal = Plat16().ladder().NominalLevel();
  const DtmResult r = sim.Run(GetParam(), nominal, 3.0);
  EXPECT_GT(r.performance_loss, 0.0);
  // The trace must end controlled: final samples below threshold plus
  // one control step of slack.
  EXPECT_LT(r.peak_temp_c.back(), Plat16().tdtm_c() + 0.5);
  if (GetParam() == DtmPolicy::kShutdownHottest) {
    EXPECT_GT(r.cores_shut_down, 0u);
    EXPECT_GT(r.final_dark_fraction, 1.0 - 64.0 / 100.0);  // extra dark
  } else {
    EXPECT_LT(r.min_freq_ghz, Plat16().ladder()[nominal].freq);
    EXPECT_EQ(r.cores_shut_down, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, HotDtmTest,
                         ::testing::Values(DtmPolicy::kThrottleGlobal,
                                           DtmPolicy::kShutdownHottest),
                         [](const ::testing::TestParamInfo<DtmPolicy>& info) {
                           return info.param == DtmPolicy::kThrottleGlobal
                                      ? "throttle"
                                      : "shutdown";
                         });

TEST(Dtm, ShutdownCreatesMoreDarkSiliconThanAdmitted) {
  // The paper's claim: DTM powering down cores yields *more* dark
  // silicon than the TDP-time estimate.
  const DtmSimulator sim(Plat16(), apps::AppByName("swaptions"), 8, 8);
  const std::size_t nominal = Plat16().ladder().NominalLevel();
  const DtmResult r = sim.Run(DtmPolicy::kShutdownHottest, nominal, 3.0);
  const double admitted_dark = 1.0 - 64.0 / 100.0;
  EXPECT_GT(r.final_dark_fraction, admitted_dark);
}

TEST(Dtm, PolicyNames) {
  EXPECT_STREQ(DtmPolicyName(DtmPolicy::kThrottleGlobal), "throttle-global");
  EXPECT_STREQ(DtmPolicyName(DtmPolicy::kShutdownHottest),
               "shutdown-hottest");
}

// A duration shorter than half a control period runs zero steps, and
// the average GIPS would divide by that.
TEST(Dtm, RejectsDurationCoveringNoControlStep) {
  const DtmSimulator sim(Plat16(), apps::AppByName("x264"), 4, 8);
  const std::size_t nominal = Plat16().ladder().NominalLevel();
  EXPECT_THROW(sim.Run(DtmPolicy::kThrottleGlobal, nominal, 4e-4),
               std::invalid_argument);
}

}  // namespace
}  // namespace ds::core
