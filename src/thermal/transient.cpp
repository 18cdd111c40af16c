#include "thermal/transient.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::thermal {
namespace {

/// Folds (or fetches the shared) step propagator, after checking dt
/// here so a bad step names this class, not the propagator.
std::shared_ptr<const StepPropagator> FoldFor(
    const RcModel& model, double dt_s,
    const std::shared_ptr<const PropagatorSet>& shared) {
  DS_REQUIRE(dt_s > 0.0 && std::isfinite(dt_s),
             "TransientSimulator: step dt " << dt_s << " s must be positive");
  return shared != nullptr ? shared->For(model, dt_s)
                           : std::make_shared<const StepPropagator>(model,
                                                                    dt_s);
}

}  // namespace

// dt is contract-checked by FoldFor, before the lane is built.
TransientSimulator::TransientSimulator(  // ds_lint: allow(missing-contract)
    const RcModel& model, double dt_s,
    std::shared_ptr<const PropagatorSet> shared)
    : model_(&model),
      dt_(dt_s),
      lane_(FoldFor(model, dt_s, shared), /*k_max=*/1) {
  lane_.AddMember(
      std::vector<double>(model.num_nodes(), model.ambient_c()));
}

void TransientSimulator::Reset() {
  SetState(std::vector<double>(model_->num_nodes(), model_->ambient_c()));
}

void TransientSimulator::SetState(std::span<const double> state) {
  lane_.SetState(0, state);
  time_ = 0.0;
}

void TransientSimulator::Step(std::span<const double> core_powers) {
  DS_TELEM_COUNT("thermal.transient_steps", 1);
  DS_TELEM_TIMER("thermal.transient_step_us");
  lane_.SetPowers(0, core_powers);  // size and finiteness checks
  lane_.Step();
  time_ += dt_;
}

std::vector<double> TransientSimulator::DieTemps() const {
  const std::span<const double> s = state();
  return {s.begin(),
          s.begin() + static_cast<std::ptrdiff_t>(model_->num_cores())};
}

double TransientSimulator::PeakDieTemp() const {
  return lane_.PeakDieTemp(0);
}

}  // namespace ds::thermal
