#include "thermal/transient.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "thermal/steady_state.hpp"
#include "util/contracts.hpp"
#include "util/lu.hpp"

namespace ds::thermal {
namespace {

bool AllFinite(std::span<const double> v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

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
  lane_.SetState(0, std::vector<double>(model_->num_nodes(),
                                        model_->ambient_c()));
  time_ = 0.0;
}

void TransientSimulator::InitializeSteadyState(
    std::span<const double> core_powers) {
  const SteadyStateSolver solver(*model_);
  lane_.SetState(0, solver.SolveFull(core_powers));
  time_ = 0.0;
}

bool TransientSimulator::InitializeSteadyStateRobust(
    std::span<const double> core_powers, bool inject_failure) {
  DS_TELEM_SPAN("thermal", "warm_start", ds::telemetry::TraceLevel::kSpan);
  try {
    if (inject_failure)
      throw util::SolverError(
          "InitializeSteadyStateRobust: injected non-convergence");
    const SteadyStateSolver solver(*model_);
    std::vector<double> solution = solver.SolveFull(core_powers);
    if (!AllFinite(solution))
      throw util::SolverError(
          "InitializeSteadyStateRobust: non-finite steady state");
    lane_.SetState(0, solution);
    time_ = 0.0;
    return false;
  } catch (const util::SolverError&) {
    // Retry with perturbed pivoting: regularizes a (near-)singular
    // conductance factorization at O(pivot_floor) accuracy cost.
    DS_TELEM_COUNT("thermal.solver_retries", 1);
    ds::telemetry::EmitInstant("thermal", "solver_retry",
                               ds::telemetry::TraceLevel::kDecision);
    const util::LuFactorization lu(model_->conductance(),
                                   /*pivot_floor=*/1e-10);
    std::vector<double> rhs = model_->ExpandPower(core_powers);
    const auto& amb_g = model_->ambient_conductance();
    const double t_amb = model_->ambient_c();
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += amb_g[i] * t_amb;
    std::vector<double> solution = lu.Solve(rhs);
    if (!AllFinite(solution))
      throw util::SolverError(
          "InitializeSteadyStateRobust: steady-state solve failed even "
          "with perturbed pivoting");
    lane_.SetState(0, solution);
    time_ = 0.0;
    return true;
  }
}

void TransientSimulator::Step(std::span<const double> core_powers) {
  DS_TELEM_COUNT("thermal.transient_steps", 1);
  DS_TELEM_TIMER("thermal.transient_step_us");
  lane_.SetPowers(0, core_powers);  // size and finiteness checks
  lane_.Step();
  time_ += dt_;
}

void TransientSimulator::StepN(std::span<const double> core_powers,
                               std::size_t n) {
  if (n == 0) return;
  DS_TELEM_TIMER("thermal.transient_hold_us");
  lane_.SetPowers(0, core_powers);
  lane_.StepN(n);
  time_ += static_cast<double>(n) * dt_;
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
