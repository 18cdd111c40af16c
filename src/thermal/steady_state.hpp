// Steady-state thermal solver and the die-to-die influence matrix.
//
// G T = P + g_amb T_amb, with G factored once per platform. Since the
// network is linear, die temperatures decompose as
//
//     T_die = T_amb * 1 + A * P_core
//
// where A[i][j] = dT_i/dP_j is the (symmetric, positive) influence
// matrix. TSP and the mapping policies in src/core are built directly on
// A: the peak temperature of any uniform-power mapping is a row-sum over
// the active set, which turns thermal feasibility checks into O(N^2)
// arithmetic instead of repeated linear solves.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "thermal/rc_model.hpp"
#include "util/lu.hpp"

namespace ds::thermal {

/// Per-core powers [W] at die temperatures [C], written into `powers`;
/// both spans are num_cores long. The leakage feedback of a warm start.
using PowersAtTemps = std::function<void(std::span<const double> die_temps,
                                         std::span<double> powers)>;

/// Optional fault hooks of SteadyStateSolver::WarmStart, per pass:
/// `inject_failure` is asked before the solve (true forces the retry),
/// `on_retry` is told when the retry produced the pass's state.
struct WarmStartHooks {
  std::function<bool()> inject_failure;
  std::function<void()> on_retry;
};

class SteadyStateSolver {
 public:
  /// Factors the conductance matrix of `model` (O(n^3), done once).
  /// The model must outlive the solver.
  explicit SteadyStateSolver(const RcModel& model);

  /// Die temperatures [C] for the given per-core powers [W].
  std::vector<double> Solve(std::span<const double> core_powers) const;

  /// All node temperatures [C] (die, TIM, spreader, sink, borders).
  std::vector<double> SolveFull(std::span<const double> core_powers) const;

  /// Steady state with temperature-dependent core power. `power_at_temp`
  /// maps (core index, core temperature) to that core's total power; the
  /// solver iterates power -> temperature to a fixed point.
  /// Returns die temperatures; `out_powers` (optional) receives the
  /// converged per-core powers. Throws util::SolverError if the
  /// iteration fails to converge (thermal runaway).
  std::vector<double> SolveWithFeedback(
      const std::function<double(std::size_t, double)>& power_at_temp,
      std::vector<double>* out_powers = nullptr, int max_iters = 50,
      double tol_c = 1e-4) const;

  /// Leakage/temperature warm start: from ambient die temperatures,
  /// `passes` rounds of powers_at(T) -> steady state. A pass whose solve
  /// throws util::SolverError, or that hooks.inject_failure forces, is
  /// retried once on a perturbed-pivot factorization of G; a non-finite
  /// retry throws util::SolverError. Returns all node temperatures of
  /// the last pass (install with TransientSimulator::SetState) and
  /// writes that pass's powers to `powers_out` (optional). Without a
  /// retry the result is bitwise independent of which solver instance
  /// of the model runs it.
  std::vector<double> WarmStart(const PowersAtTemps& powers_at, int passes,
                                const WarmStartHooks& hooks = {},
                                std::vector<double>* powers_out = nullptr)
      const;

  /// Lazily computed influence matrix A (num_cores x num_cores).
  /// Thread-safe: concurrent first calls build A exactly once (solvers
  /// are shared across sweep jobs by runtime::ModelCache).
  const util::Matrix& InfluenceMatrix() const;

  /// Peak die temperature for a uniform power `p_each` on `active` cores
  /// (all other cores fully dark, zero power): closed form from A.
  double PeakTempUniform(std::span<const std::size_t> active,
                         double p_each) const;

  const RcModel& model() const { return *model_; }

 private:
  /// Right-hand side of G T = P + g_amb T_amb for the core powers.
  std::vector<double> Rhs(std::span<const double> core_powers) const;

  const RcModel* model_;
  util::LuFactorization lu_;
  mutable std::once_flag influence_once_;
  mutable std::unique_ptr<util::Matrix> influence_;  // lazy cache
};

}  // namespace ds::thermal
