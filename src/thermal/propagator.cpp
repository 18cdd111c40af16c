#include "thermal/propagator.hpp"

#include <cmath>
#include <utility>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"
#include "util/lu.hpp"

namespace ds::thermal {
namespace {

bool AllFinite(std::span<const double> v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

StepPropagator::StepPropagator(const RcModel& model, double dt_s)
    : model_(&model), dt_(dt_s) {
  DS_REQUIRE(dt_s > 0.0 && std::isfinite(dt_s),
             "StepPropagator: step dt " << dt_s << " s must be positive");
  DS_TELEM_COUNT("thermal.propagator_builds", 1);
  DS_TELEM_TIMER("thermal.propagator_build_us");
  const std::size_t n = model.num_nodes();
  const std::size_t cores = model.num_cores();
  const std::vector<double>& cap = model.capacitance();

  // Factor A = G + C/dt and fold A^-1 out of one blocked multi-RHS
  // solve on the identity.
  util::Matrix system = model.conductance();
  for (std::size_t i = 0; i < n; ++i) system(i, i) += cap[i] / dt_s;
  const util::LuFactorization lu(system);
  util::Matrix inverse = util::Matrix::Identity(n);
  lu.SolveMany(&inverse);
  DS_ENSURE(AllFinite(inverse.data()),
            "StepPropagator: non-finite step operator (ill-conditioned "
            "system matrix)");

  // M_in^T: row j is the die-node column of A^-1, captured before the
  // in-place fold below turns A^-1 into M_state^T.
  m_in_t_ = util::Matrix(cores, n);
  for (std::size_t j = 0; j < cores; ++j) {
    const std::size_t col = model.DieNode(j);
    for (std::size_t i = 0; i < n; ++i) m_in_t_(j, i) = inverse(i, col);
  }

  // c_amb = A^-1 (g_amb T_amb), one ascending dot product per row.
  const std::vector<double>& amb_g = model.ambient_conductance();
  const double t_amb = model.ambient_c();
  std::vector<double> amb_rhs(n);
  for (std::size_t i = 0; i < n; ++i) amb_rhs[i] = amb_g[i] * t_amb;
  c_amb_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = inverse.row(i).data();
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c) acc += row[c] * amb_rhs[c];
    c_amb_[i] = acc;
  }

  // M_state^T(c, i) = M_state(i, c) = A^-1(i, c) * (cap_c/dt): scale
  // and transpose A^-1 in place (it is square), one swap per pair.
  for (std::size_t i = 0; i < n; ++i) {
    inverse(i, i) *= cap[i] / dt_s;
    for (std::size_t c = i + 1; c < n; ++c) {
      const double upper = inverse(i, c);
      inverse(i, c) = inverse(c, i) * (cap[i] / dt_s);
      inverse(c, i) = upper * (cap[c] / dt_s);
    }
  }
  m_state_t_ = std::move(inverse);
}

std::size_t StepPropagator::ApproxBytes() const {
  return sizeof(double) * (m_state_t_.rows() * m_state_t_.cols() +
                           m_in_t_.rows() * m_in_t_.cols() + c_amb_.size());
}

std::shared_ptr<const StepPropagator> PropagatorSet::For(const RcModel& model,
                                                         double dt_s) const {
  const ds::MutexLock lock(mu_);
  if (model_ == nullptr) {
    model_ = &model;
  } else {
    DS_REQUIRE(model_ == &model,
               "PropagatorSet::For: set is tied to a different RcModel");
  }
  const auto it = by_dt_.find(dt_s);
  if (it != by_dt_.end()) {
    DS_TELEM_COUNT("thermal.propagator_hits", 1);
    return it->second;
  }
  auto built = std::make_shared<const StepPropagator>(model, dt_s);
  by_dt_.emplace(dt_s, built);
  return built;
}

std::size_t PropagatorSet::size() const {
  const ds::MutexLock lock(mu_);
  return by_dt_.size();
}

std::size_t PropagatorSet::ApproxBytes() const {
  const ds::MutexLock lock(mu_);
  std::size_t bytes = 0;
  for (const auto& [dt, prop] : by_dt_) {
    (void)dt;
    bytes += prop->ApproxBytes();
  }
  return bytes;
}

}  // namespace ds::thermal
