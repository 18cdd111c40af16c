// Transient thermal simulation via implicit (backward) Euler.
//
//   C dT/dt = -G T + P + g_amb T_amb
//   (C/dt + G) T_{k+1} = (C/dt) T_k + P_{k+1} + g_amb T_amb
//
// Backward Euler is unconditionally stable, which matters here: the sink
// time constant (R_conv * C_conv ~ 14 s) and the die time constant
// (~ms) differ by four orders of magnitude. The 1 ms default step
// aligns with the paper's Turbo-Boost control period.
//
// The step is folded once per (model, dt) into dense operators
// T' = M_state T + M_in P + c_amb (thermal/propagator.hpp), and a
// TransientSimulator is the k = 1 lane of a BatchStepPropagator
// (thermal/batch_propagator.hpp): its state is the lane's one panel
// column, and every Step / StepN runs the same panel kernels as a
// sweep cohort. A simulator's trajectory is therefore bitwise equal to
// the same scenario's inside a cohort of any width. Propagators are
// shared across simulators (and sweep threads) through PropagatorSet.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "thermal/batch_propagator.hpp"
#include "thermal/propagator.hpp"
#include "thermal/rc_model.hpp"

namespace ds::thermal {

class TransientSimulator {
 public:
  /// Prepares stepping at fixed step `dt_s` (seconds) by folding the
  /// step propagator. `shared` (optional) memoizes propagators across
  /// simulators of the same model -- pass arch::Platform::propagators()
  /// or the set from runtime::ModelCache so sweeps fold each (model, dt)
  /// exactly once. Throws std::invalid_argument for non-positive dt and
  /// util::SolverError if the fold fails (singular or non-finite).
  explicit TransientSimulator(
      const RcModel& model, double dt_s = 1e-3,
      std::shared_ptr<const PropagatorSet> shared = nullptr);

  /// Resets all node temperatures to the ambient.
  void Reset();

  /// Sets the state to the steady-state solution of `core_powers`
  /// (useful to skip the multi-second package warm-up).
  void InitializeSteadyState(std::span<const double> core_powers);

  /// Hardened warm start: like InitializeSteadyState, but validates
  /// that the solution is finite and, when the direct solve fails (or
  /// `inject_failure` forces the failure path), retries once with a
  /// perturbed-pivot factorization before throwing util::SolverError.
  /// Returns true when the retry path produced the state -- callers log
  /// that as a mitigation. The fault-free path is numerically identical
  /// to InitializeSteadyState.
  bool InitializeSteadyStateRobust(std::span<const double> core_powers,
                                   bool inject_failure = false);

  /// Advances one step under the given per-core powers.
  /// Throws std::invalid_argument if any power is NaN/non-finite (a
  /// NaN would otherwise propagate silently through the implicit-Euler
  /// step and poison the whole state vector).
  void Step(std::span<const double> core_powers);

  /// Advances `n` steps with constant powers in one application of the
  /// memoized n-step hold operator. Matches n explicit Step() calls to
  /// rounding error (tested at 1e-9 C); the trajectory between the
  /// endpoints is not materialized. No-op at n == 0.
  void StepN(std::span<const double> core_powers, std::size_t n);

  /// Current die temperatures [C].
  std::vector<double> DieTemps() const;

  /// Current peak die temperature [C].
  double PeakDieTemp() const;

  double dt() const { return dt_; }
  double time() const { return time_; }
  const RcModel& model() const { return *model_; }
  /// All node temperatures (the lane's panel column).
  std::span<const double> state() const { return lane_.MemberState(0); }

 private:
  const RcModel* model_;
  double dt_;
  double time_ = 0.0;
  BatchStepPropagator lane_;  // k_max = 1; member 0 is this simulator
};

}  // namespace ds::thermal
