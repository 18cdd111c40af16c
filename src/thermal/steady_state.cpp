#include "thermal/steady_state.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::thermal {

SteadyStateSolver::SteadyStateSolver(const RcModel& model)
    : model_(&model), lu_(model.conductance()) {}

std::vector<double> SteadyStateSolver::SolveFull(
    std::span<const double> core_powers) const {
  for (std::size_t i = 0; i < core_powers.size(); ++i)
    DS_REQUIRE(std::isfinite(core_powers[i]) && core_powers[i] >= 0.0,
               "SteadyStateSolver: power " << core_powers[i] << " W at core "
                                           << i
                                           << " (heat sources are >= 0)");
  DS_TELEM_COUNT("thermal.steady_solves", 1);
  DS_TELEM_TIMER("thermal.steady_solve_us");
  std::vector<double> temps = lu_.Solve(Rhs(core_powers));
  const double t_amb = model_->ambient_c();
  // Physical sanity of the solution: with non-negative sources, an
  // M-matrix network can only sit at or above the ambient.
  for (std::size_t i = 0; i < temps.size(); ++i)
    DS_ENSURE(std::isfinite(temps[i]) && temps[i] >= t_amb - 1e-6,
              "SteadyStateSolver: node " << i << " solved to " << temps[i]
                                         << " C below ambient " << t_amb);
  return temps;
}

std::vector<double> SteadyStateSolver::Rhs(
    std::span<const double> core_powers) const {
  std::vector<double> rhs = model_->ExpandPower(core_powers);
  const auto& amb_g = model_->ambient_conductance();
  const double t_amb = model_->ambient_c();
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += amb_g[i] * t_amb;
  return rhs;
}

std::vector<double> SteadyStateSolver::WarmStart(
    const PowersAtTemps& powers_at, int passes, const WarmStartHooks& hooks,
    std::vector<double>* powers_out) const {
  DS_REQUIRE(passes >= 1,
             "SteadyStateSolver::WarmStart: " << passes << " passes");
  const std::size_t n = model_->num_cores();
  std::vector<double> powers(n);
  std::vector<double> state(model_->num_nodes(), model_->ambient_c());
  for (int pass = 0; pass < passes; ++pass) {
    powers_at(std::span<const double>(state).first(n), powers);
    try {
      if (hooks.inject_failure && hooks.inject_failure())
        throw util::SolverError(
            "SteadyStateSolver::WarmStart: injected non-convergence");
      // A non-finite direct solution fails SolveFull's postcondition.
      state = SolveFull(powers);
    } catch (const util::SolverError&) {
      // Retry with perturbed pivoting: regularizes a (near-)singular
      // conductance factorization at O(pivot_floor) accuracy cost.
      DS_TELEM_COUNT("thermal.solver_retries", 1);
      ds::telemetry::EmitInstant("thermal", "solver_retry",
                                 ds::telemetry::TraceLevel::kDecision);
      const util::LuFactorization lu(model_->conductance(),
                                     /*pivot_floor=*/1e-10);
      state = lu.Solve(Rhs(powers));
      for (const double t : state)
        if (!std::isfinite(t))
          throw util::SolverError(
              "SteadyStateSolver::WarmStart: steady-state solve failed "
              "even with perturbed pivoting");
      if (hooks.on_retry) hooks.on_retry();
    }
  }
  if (powers_out != nullptr) *powers_out = std::move(powers);
  return state;
}

std::vector<double> SteadyStateSolver::Solve(
    std::span<const double> core_powers) const {
  std::vector<double> full = SolveFull(core_powers);
  full.resize(model_->num_cores());  // die nodes are the first N
  return full;
}

std::vector<double> SteadyStateSolver::SolveWithFeedback(
    const std::function<double(std::size_t, double)>& power_at_temp,
    std::vector<double>* out_powers, int max_iters, double tol_c) const {
  const std::size_t n = model_->num_cores();
  std::vector<double> temps(n, model_->ambient_c());
  std::vector<double> powers(n, 0.0);
  for (int iter = 0; iter < max_iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) powers[i] = power_at_temp(i, temps[i]);
    // Cold fixed-point iteration (a handful of rounds at setup, not the
    // per-millisecond stepping path); Solve returns by value anyway.
    // ds_lint: allow(alloc-in-loop)
    std::vector<double> next = Solve(powers);
    const double delta = util::MaxAbsDiffVec(next, temps);
    temps = std::move(next);
    if (delta < tol_c) {
      if (out_powers) *out_powers = std::move(powers);
      return temps;
    }
  }
  throw util::SolverError(
      "SteadyStateSolver::SolveWithFeedback: no convergence "
      "(thermal runaway?)");
}

const util::Matrix& SteadyStateSolver::InfluenceMatrix() const {
  std::call_once(influence_once_, [this] {
    DS_TELEM_SPAN("thermal", "influence_matrix_build",
                  ds::telemetry::TraceLevel::kSpan);
    DS_TELEM_TIMER("thermal.influence_build_us");
    const std::size_t n = model_->num_cores();
    auto a = std::make_unique<util::Matrix>(n, n);
    // One blocked multi-RHS solve over all unit-injection columns at
    // once, instead of num_cores permuted one-column solves each
    // re-allocating a full-node RHS.
    util::Matrix rhs(model_->num_nodes(), n);
    for (std::size_t j = 0; j < n; ++j) rhs(model_->DieNode(j), j) = 1.0;
    lu_.SolveMany(&rhs);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t node = model_->DieNode(i);
      for (std::size_t j = 0; j < n; ++j) (*a)(i, j) = rhs(node, j);
    }
    influence_ = std::move(a);
  });
  return *influence_;
}

double SteadyStateSolver::PeakTempUniform(
    std::span<const std::size_t> active, double p_each) const {
  DS_REQUIRE(p_each >= 0.0 && std::isfinite(p_each),
             "SteadyStateSolver::PeakTempUniform: power " << p_each);
  for (const std::size_t j : active)
    DS_REQUIRE(j < model_->num_cores(),
               "SteadyStateSolver::PeakTempUniform: core " << j << " of "
                   << model_->num_cores());
  const util::Matrix& a = InfluenceMatrix();
  double worst = 0.0;
  // Peak is attained on an active core (A is diagonally dominant in the
  // die block), but scan all rows for robustness.
  for (std::size_t i = 0; i < model_->num_cores(); ++i) {
    double row_sum = 0.0;
    for (const std::size_t j : active) row_sum += a(i, j);
    worst = std::max(worst, row_sum);
  }
  return model_->ambient_c() + p_each * worst;
}

}  // namespace ds::thermal
