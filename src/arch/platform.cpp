#include "arch/platform.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace ds::arch {

Platform::Platform(power::TechNode node, std::size_t num_cores,
                   double ladder_step_ghz)
    : tech_(&power::Tech(node)),
      floorplan_(
          thermal::Floorplan::MakeGrid(num_cores, tech_->core_area_mm2)),
      ladder_(*tech_, 1.0, tech_->boost_max_freq, ladder_step_ghz),
      power_model_(*tech_),
      vf_curve_(*tech_) {
  DS_REQUIRE(num_cores >= 1, "Platform: core count must be >= 1");
  DS_REQUIRE(ladder_step_ghz > 0.0 && std::isfinite(ladder_step_ghz),
             "Platform: ladder step " << ladder_step_ghz
                                      << " GHz must be positive");
}

Platform Platform::PaperPlatform(power::TechNode node) {
  switch (node) {
    case power::TechNode::N16:
      return Platform(node, 100);
    case power::TechNode::N11:
      return Platform(node, 198);
    case power::TechNode::N8:
      return Platform(node, 361);
    case power::TechNode::N22:
      break;
  }
  throw std::invalid_argument(
      "Platform::PaperPlatform: 22 nm is the calibration node only");
}

const thermal::RcModel& Platform::thermal_model() const {
  if (!rc_) rc_ = std::make_shared<const thermal::RcModel>(floorplan_);
  return *rc_;
}

const thermal::SteadyStateSolver& Platform::solver() const {
  if (!solver_)
    solver_ =
        std::make_shared<const thermal::SteadyStateSolver>(thermal_model());
  return *solver_;
}

std::shared_ptr<const thermal::PropagatorSet> Platform::propagators() const {
  if (!propagators_)
    propagators_ = std::make_shared<const thermal::PropagatorSet>();
  return propagators_;
}

thermal::TransientSimulator Platform::MakeTransient(double dt_s) const {
  return thermal::TransientSimulator(thermal_model(), dt_s, propagators());
}

void Platform::AdoptThermalAssets(
    std::shared_ptr<const thermal::RcModel> rc,
    std::shared_ptr<const thermal::SteadyStateSolver> solver,
    std::shared_ptr<const thermal::PropagatorSet> propagators) {
  DS_REQUIRE(rc != nullptr && solver != nullptr,
             "Platform::AdoptThermalAssets: null asset");
  DS_REQUIRE(&solver->model() == rc.get(),
             "Platform::AdoptThermalAssets: solver not factored from rc");
  const thermal::Floorplan& fp = rc->floorplan();
  DS_REQUIRE(fp.rows() == floorplan_.rows() && fp.cols() == floorplan_.cols(),
             "Platform::AdoptThermalAssets: grid "
                 << fp.rows() << "x" << fp.cols() << " != platform "
                 << floorplan_.rows() << "x" << floorplan_.cols());
  DS_REQUIRE(fp.core_width_mm() == floorplan_.core_width_mm() &&
                 fp.core_height_mm() == floorplan_.core_height_mm(),
             "Platform::AdoptThermalAssets: core tile geometry differs");
  // A PropagatorSet is tied to one RcModel instance: adopting a new
  // model invalidates any private set built against the old one.
  if (propagators != nullptr) {
    propagators_ = std::move(propagators);
  } else if (rc_.get() != rc.get()) {
    propagators_.reset();
  }
  rc_ = std::move(rc);
  solver_ = std::move(solver);
}

}  // namespace ds::arch
