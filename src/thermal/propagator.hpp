// Dense step-propagator kernels for the implicit-Euler transient solve.
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
// column subset. After that, a step is a pair of operator
// applications -- no permutation gather, no triangular dependency
// chain. BatchStepPropagator (thermal/batch_propagator.hpp) applies
// them to a panel of state columns; it is the only stepper.
//
// Power-hold fast path: k identical steps compose into one affine
// operator. Composition of two holds (A2,B2,c2) o (A1,B1,c1) is
// (A2 A1, A2 B1 + B2, A2 c1 + c2), so Hold(k) is built by binary
// powering in O(log k) GEMMs and memoized; advancing a constant-power
// segment then costs ONE application regardless of k. Used by
// BatchStepPropagator::StepN (and so TransientSimulator::StepN) for
// warm-up and constant-power segments where intermediate samples are
// not needed.
//
// Sharing: a propagator is immutable after construction except for the
// mutex-protected hold-operator cache, so one instance can serve every
// simulator (and every sweep thread) that uses the same (model, dt) --
// see PropagatorSet, which runtime::ModelCache and arch::Platform hand
// out so a 70-job sweep folds the step operator exactly once.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "thermal/rc_model.hpp"
#include "util/lock_levels.hpp"
#include "util/matrix.hpp"
#include "util/thread_annotations.hpp"

namespace ds::thermal {

class StepPropagator {
 public:
  /// One k-step affine operator: T_{+k} = t_op T + in_op P + amb_op.
  /// The *_t members are transposed copies for the outer-product panel
  /// kernels (util/panel.hpp); every operator Hold() returns has them.
  struct HoldOperator {
    std::size_t k = 0;
    util::Matrix t_op;             // n x n
    util::Matrix in_op;            // n x num_cores
    std::vector<double> amb_op;    // n
    util::Matrix t_op_t;           // n x n, t_op transposed
    util::Matrix in_op_t;          // num_cores x n
  };

  /// Folds the implicit-Euler step of `model` at step `dt_s` into the
  /// dense operator triple. O(n^3) build (factor + multi-RHS solve on
  /// the identity), done once per (model, dt). Throws
  /// std::invalid_argument for non-positive dt and util::SolverError
  /// if the system matrix is singular or the fold is non-finite.
  StepPropagator(const RcModel& model, double dt_s);

  /// Memoized k-step hold operator (k >= 1), built by binary powering
  /// over a cached chain of power-of-two holds, with the transposed
  /// copies the panel kernels apply. Thread-safe.
  std::shared_ptr<const HoldOperator> Hold(std::size_t k) const;

  /// Approximate resident bytes: the operator triple plus the memoized
  /// hold operators (deduplicated -- holds_ aliases pow2_ entries).
  /// Thread-safe; used by ModelCache budget accounting.
  std::size_t ApproxBytes() const;

  double dt() const { return dt_; }
  std::size_t num_nodes() const { return m_state_.rows(); }
  std::size_t num_cores() const { return m_in_.cols(); }
  const RcModel& model() const { return *model_; }
  const util::Matrix& state_operator() const { return m_state_; }
  const util::Matrix& input_operator() const { return m_in_; }
  std::span<const double> ambient_operator() const { return c_amb_; }

  /// Transposed copies of M_state / M_in for the outer-product panel
  /// kernels: state_operator_t()(c, i) == state_operator()(i, c). Built
  /// lazily on first use (both at once, under the hold-cache lock),
  /// immutable afterwards; the returned references stay valid for the
  /// propagator's lifetime. Thread-safe.
  const util::Matrix& state_operator_t() const;
  const util::Matrix& input_operator_t() const;

 private:
  /// hold_out = b o a (apply `a` first, then `b`).
  HoldOperator Compose(const HoldOperator& b, const HoldOperator& a) const;

  const RcModel* model_;
  double dt_;
  util::Matrix m_state_;
  util::Matrix m_in_;
  std::vector<double> c_amb_;

  // Lazily-built transposes of m_state_ / m_in_. Written exactly once
  // under hold_mu_; every reader obtains its reference from an accessor
  // that takes the lock first, so post-publication reads are safe
  // without annotation (annotating would flag the returned references).
  mutable util::Matrix m_state_t_;
  mutable util::Matrix m_in_t_;

  mutable Mutex hold_mu_{locks::kPropagator};
  // pow2_ holds the power-of-two chain Hold() composes from (no
  // transposes); holds_ the finished, transposed operators.
  mutable std::vector<std::shared_ptr<const HoldOperator>> pow2_
      DS_GUARDED_BY(hold_mu_);
  mutable std::map<std::size_t, std::shared_ptr<const HoldOperator>> holds_
      DS_GUARDED_BY(hold_mu_);
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
