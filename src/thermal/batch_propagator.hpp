// Lockstep panel stepping: the one code path that advances thermal
// state. k scenarios sharing one (model, dt) propagator advance
// together with a single pass over M_state / M_in.
//
// Member states are the columns of a column-major n x k panel
// (util/panel.hpp). One step streams each operator row once and reuses
// it k times while L1-hot, so the ~n^2 operator traffic that bounds a
// single-state step is amortized across the cohort -- the
// interval-batched stepping idiom CoMeT uses to keep full-system
// thermal simulation tractable. TransientSimulator (thermal/
// transient.hpp) is the k = 1 lane of this class, and the sweep
// engine's lockstep cohorts (runtime/scenarios.cpp) are the k > 1
// lanes.
//
// Determinism: the panel kernels compute every output element with a
// fixed, k-independent summation order in an IEEE (no fast-math) TU,
// so a member's trajectory is bitwise identical at any cohort size,
// k = 1 included. Hold(n) operators are memoized inside the shared
// propagator, so every lane over one (model, dt) reuses them.
//
// Membership is dynamic: a job that hits its deadline, gets cancelled,
// or throws detaches mid-flight (swap-last column compaction, safe
// because column bits never depend on column position) and the rest of
// the cohort keeps stepping.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "thermal/propagator.hpp"
#include "util/panel.hpp"

namespace ds::thermal {

/// Advances up to k_max state columns in lockstep over one shared
/// StepPropagator. Not thread-safe: one instance per worker/cohort.
/// Allocation-free after construction (panels are pre-sized to k_max;
/// Hold(n) may allocate once per distinct n inside the shared
/// propagator's memoized cache).
class BatchStepPropagator {
 public:
  /// An invalid member handle (returned by none; useful as a sentinel).
  static constexpr std::size_t kNoMember = static_cast<std::size_t>(-1);

  BatchStepPropagator(std::shared_ptr<const StepPropagator> prop,
                      std::size_t k_max);

  std::size_t k() const { return k_; }
  std::size_t k_max() const { return state_.k_max(); }
  std::size_t num_nodes() const { return prop_->num_nodes(); }
  std::size_t num_cores() const { return prop_->num_cores(); }
  double dt() const { return prop_->dt(); }
  const StepPropagator& propagator() const { return *prop_; }

  /// Adds a member with the given initial node-temperature state
  /// (size num_nodes()). Returns a stable member handle. Requires
  /// k() < k_max(). The member's powers start at zero.
  std::size_t AddMember(std::span<const double> initial_state);

  /// Detaches a member mid-cohort (swap-last compaction). The handle
  /// becomes inactive; remaining members are unaffected bitwise.
  void RemoveMember(std::size_t member);

  bool IsActive(std::size_t member) const;

  /// Sets the member's per-core powers for subsequent steps. Throws
  /// std::invalid_argument on non-finite input: a NaN would otherwise
  /// propagate silently through the step and poison the whole state
  /// column.
  void SetPowers(std::size_t member, std::span<const double> core_powers);

  /// Overwrites the member's node state (size num_nodes()), e.g. with a
  /// steady-state warm start.
  void SetState(std::size_t member, std::span<const double> state);

  /// Copies the member's current node state into `out` (num_nodes()).
  void CopyState(std::size_t member, std::span<double> out) const;

  /// Contiguous view of the member's current state column.
  std::span<const double> MemberState(std::size_t member) const;

  double PeakDieTemp(std::size_t member) const;

  /// One lockstep step for every active member: one panel pass over
  /// M_state and M_in plus the ambient broadcast. No-op at k() == 0.
  void Step();

  /// n lockstep steps under each member's current (constant) powers.
  /// n > 1 routes through the propagator's memoized Hold(n) operator:
  /// one batched application instead of n. No-op at n == 0.
  void StepN(std::size_t n);

  /// Steps advanced so far (per member; members step in lockstep).
  std::size_t steps() const { return steps_; }

 private:
  std::size_t ColumnOf(std::size_t member) const;

  std::shared_ptr<const StepPropagator> prop_;
  // Transposed step operators, cached inside the shared propagator
  // (built lazily once per (model, dt)); valid as long as prop_ lives.
  const util::Matrix* state_t_ = nullptr;
  const util::Matrix* in_t_ = nullptr;
  std::size_t k_ = 0;
  std::size_t steps_ = 0;
  util::ColPanel state_;    // n x k_max, column j = member state
  util::ColPanel scratch_;  // step output, swapped in
  util::ColPanel powers_;   // num_cores x k_max
  std::vector<std::size_t> col_of_member_;  // handle -> column or kNoMember
  std::vector<std::size_t> member_of_col_;  // column -> handle
};

}  // namespace ds::thermal
