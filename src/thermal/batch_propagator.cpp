#include "thermal/batch_propagator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::thermal {

namespace {
bool AllFinite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// Validated before the member-init list touches the propagator.
std::shared_ptr<const StepPropagator> CheckedProp(
    std::shared_ptr<const StepPropagator> prop) {
  DS_REQUIRE(prop != nullptr, "BatchStepPropagator: null propagator");
  return prop;
}
}  // namespace

BatchStepPropagator::BatchStepPropagator(
    std::shared_ptr<const StepPropagator> prop, std::size_t k_max)
    : prop_(CheckedProp(std::move(prop))),
      state_(prop_->num_nodes(), k_max),
      scratch_(prop_->num_nodes(), k_max),
      powers_(prop_->num_cores(), k_max) {
  DS_REQUIRE(k_max >= 1, "BatchStepPropagator: k_max must be >= 1");
  col_of_member_.reserve(k_max);
  member_of_col_.reserve(k_max);
}

std::size_t BatchStepPropagator::ColumnOf(std::size_t member) const {
  DS_REQUIRE(member < col_of_member_.size() &&
                 col_of_member_[member] != kNoMember,
             "BatchStepPropagator: inactive member " << member);
  return col_of_member_[member];
}

std::size_t BatchStepPropagator::AddMember(
    std::span<const double> initial_state) {
  DS_REQUIRE(k_ < k_max(),
             "BatchStepPropagator: cohort full (k_max " << k_max() << ")");
  const std::size_t member = col_of_member_.size();
  const std::size_t col = k_;
  state_.Gather(col, initial_state);
  // Fresh members start with zero powers until SetPowers is called.
  auto p = powers_.col(col);
  std::fill(p.begin(), p.end(), 0.0);
  col_of_member_.push_back(col);
  member_of_col_.resize(std::max(member_of_col_.size(), col + 1));
  member_of_col_[col] = member;
  ++k_;
  return member;
}

void BatchStepPropagator::RemoveMember(std::size_t member) {
  const std::size_t col = ColumnOf(member);
  const std::size_t last = k_ - 1;
  if (col != last) {
    // Swap-last compaction: panel column bits never depend on column
    // position, so moving the last member into the vacated slot leaves
    // its trajectory unchanged.
    state_.CopyColumn(last, col);
    powers_.CopyColumn(last, col);
    const std::size_t moved = member_of_col_[last];
    member_of_col_[col] = moved;
    col_of_member_[moved] = col;
  }
  col_of_member_[member] = kNoMember;
  --k_;
  DS_TELEM_COUNT("thermal.batch.detached", 1);
}

bool BatchStepPropagator::IsActive(std::size_t member) const {
  return member < col_of_member_.size() &&
         col_of_member_[member] != kNoMember;
}

void BatchStepPropagator::SetPowers(std::size_t member,
                                    std::span<const double> core_powers) {
  DS_REQUIRE(core_powers.size() == prop_->num_cores(),
             "BatchStepPropagator::SetPowers: " << core_powers.size()
                 << " powers for " << prop_->num_cores() << " cores");
  if (!AllFinite(core_powers))
    throw std::invalid_argument(
        "BatchStepPropagator::SetPowers: non-finite power input");
  powers_.Gather(ColumnOf(member), core_powers);
}

void BatchStepPropagator::SetState(std::size_t member,
                                   std::span<const double> state) {
  state_.Gather(ColumnOf(member), state);
}

void BatchStepPropagator::CopyState(std::size_t member,
                                    std::span<double> out) const {
  state_.Scatter(ColumnOf(member), out);
}

std::span<const double> BatchStepPropagator::MemberState(
    std::size_t member) const {
  return state_.col(ColumnOf(member));
}

double BatchStepPropagator::PeakDieTemp(std::size_t member) const {
  auto s = state_.col(ColumnOf(member));
  double peak = s[0];
  for (std::size_t i = 1; i < prop_->num_cores(); ++i)
    peak = std::max(peak, s[i]);
  return peak;
}

void BatchStepPropagator::Step() {
  if (k_ == 0) return;
  DS_TELEM_COUNT("thermal.batch.panel_steps", 1);
  // GEMM vs GEMV accounting: a panel pass over one state column is the
  // scalar lane, wider panels are the amortized GEMM-shaped work.
  if (k_ >= 2)
    DS_TELEM_COUNT("thermal.batch.gemm_steps", k_);
  else
    DS_TELEM_COUNT("thermal.batch.gemv_steps", 1);
  util::PanelApplyT(prop_->state_operator_t(), state_, k_, &scratch_);
  util::PanelApplyAddT(prop_->input_operator_t(), powers_, k_, &scratch_);
  util::PanelAddBroadcast(prop_->ambient_operator(), k_, &scratch_);
  state_.swap(scratch_);
  ++steps_;
}

}  // namespace ds::thermal
