// Dense step propagator for the implicit-Euler transient solve.
//
// The backward-Euler update  (G + C/dt) T' = (C/dt) T + P_full + g_amb T_amb
// is linear in (T, P), so the whole step can be folded, once per
// (model, dt), into a dense affine operator
//
//     T' = M_state T + M_in P + c_amb
//
// with M_state = (G + C/dt)^-1 (C/dt)   [n x n]
//      M_in    = (G + C/dt)^-1 E_die    [n x num_cores]
//      c_amb   = (G + C/dt)^-1 (g_amb T_amb)
//
// where E_die holds the unit power-injection columns of the die nodes.
// All three come out of ONE blocked multi-RHS solve on the identity
// (util::LuFactorization::SolveMany): A^-1 e_i is column i, so M_state
// is A^-1 with column i scaled by cap_i/dt and M_in is the die-node
// column subset. The constructor stores exactly what the outer-product
// panel kernels (util/panel.hpp) read: M_state and M_in transposed,
// plus c_amb. A step is then a pair of operator applications -- no
// permutation gather, no triangular dependency chain.
// BatchStepPropagator (thermal/batch_propagator.hpp) applies them to a
// panel of state columns; it is the only stepper.
//
// Sharing: a propagator is immutable once constructed, so one instance
// can serve every simulator (and every sweep thread) that uses the same
// (model, dt) without a lock -- see PropagatorSet, which
// runtime::ModelCache and arch::Platform hand out so a 70-job sweep
// folds the step operator exactly once.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "thermal/rc_model.hpp"
#include "util/lock_levels.hpp"
#include "util/matrix.hpp"
#include "util/thread_annotations.hpp"

namespace ds::thermal {

class StepPropagator {
 public:
  /// Folds the implicit-Euler step of `model` at step `dt_s` into the
  /// dense operator triple. O(n^3) build (factor + multi-RHS solve on
  /// the identity), done once per (model, dt). Throws
  /// std::invalid_argument for non-positive dt and util::SolverError
  /// if the system matrix is singular or the fold is non-finite.
  StepPropagator(const RcModel& model, double dt_s);

  /// Resident bytes of the folded operators: 8 (n^2 + cores n + n).
  /// Used by ModelCache budget accounting.
  std::size_t ApproxBytes() const;

  double dt() const { return dt_; }
  std::size_t num_nodes() const { return m_state_t_.rows(); }
  std::size_t num_cores() const { return m_in_t_.rows(); }
  const RcModel& model() const { return *model_; }

  /// M_state transposed (n x n): state_operator_t()(c, i) == M_state(i, c).
  const util::Matrix& state_operator_t() const { return m_state_t_; }
  /// M_in transposed (num_cores x n).
  const util::Matrix& input_operator_t() const { return m_in_t_; }
  /// c_amb (n).
  std::span<const double> ambient_operator() const { return c_amb_; }

 private:
  const RcModel* model_;
  double dt_;
  util::Matrix m_state_t_;
  util::Matrix m_in_t_;
  std::vector<double> c_amb_;
};

/// Thread-safe dt -> StepPropagator cache for one RcModel. Platforms
/// own one (lazily) and runtime::ModelCache shares one per cached
/// thermal entry, so every simulator and sweep job over the same model
/// reuses the same folded operators. Counts builds and hits into the
/// "thermal.propagator_*" telemetry counters.
class PropagatorSet {
 public:
  /// Returns the propagator for (model, dt), building it on first use.
  /// All calls must pass the same model (contract-checked): a set is
  /// tied to the model whose assets it caches.
  std::shared_ptr<const StepPropagator> For(const RcModel& model,
                                            double dt_s) const;

  /// Number of distinct (dt) entries built so far (tests/telemetry).
  std::size_t size() const;

  /// Sum of ApproxBytes over every propagator in the set.
  std::size_t ApproxBytes() const;

 private:
  mutable Mutex mu_{locks::kPropagator};
  mutable const RcModel* model_ DS_GUARDED_BY(mu_) = nullptr;
  mutable std::map<double, std::shared_ptr<const StepPropagator>> by_dt_
      DS_GUARDED_BY(mu_);
};

}  // namespace ds::thermal
