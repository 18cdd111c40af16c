#include "thermal/propagator.hpp"

#include <cmath>
#include <set>
#include <utility>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"
#include "util/kernels.hpp"
#include "util/lu.hpp"

namespace ds::thermal {
namespace {

bool AllFinite(std::span<const double> v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

util::Matrix Transposed(const util::Matrix& a) {
  util::Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i).data();
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, i) = row[c];
  }
  return t;
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

  // M_in: the die-node columns of A^-1, captured before the column
  // scaling below turns A^-1 into M_state.
  m_in_ = util::Matrix(n, cores);
  for (std::size_t j = 0; j < cores; ++j) {
    const std::size_t col = model.DieNode(j);
    for (std::size_t i = 0; i < n; ++i) m_in_(i, j) = inverse(i, col);
  }

  // c_amb = A^-1 (g_amb T_amb).
  const std::vector<double>& amb_g = model.ambient_conductance();
  const double t_amb = model.ambient_c();
  std::vector<double> amb_rhs(n);
  for (std::size_t i = 0; i < n; ++i) amb_rhs[i] = amb_g[i] * t_amb;
  c_amb_.assign(n, 0.0);
  util::Gemv(inverse, amb_rhs, c_amb_);

  // M_state = A^-1 diag(C/dt): scale column i by cap_i/dt in place.
  for (std::size_t i = 0; i < n; ++i) {
    double* row = inverse.row(i).data();
    for (std::size_t c = 0; c < n; ++c) row[c] *= cap[c] / dt_s;
  }
  m_state_ = std::move(inverse);
}

const util::Matrix& StepPropagator::state_operator_t() const {
  const ds::MutexLock lock(hold_mu_);
  if (m_state_t_.rows() == 0) {
    DS_TELEM_TIMER("thermal.operator_transpose_us");
    m_state_t_ = Transposed(m_state_);
    m_in_t_ = Transposed(m_in_);
  }
  return m_state_t_;
}

const util::Matrix& StepPropagator::input_operator_t() const {
  const ds::MutexLock lock(hold_mu_);
  if (m_state_t_.rows() == 0) {
    DS_TELEM_TIMER("thermal.operator_transpose_us");
    m_state_t_ = Transposed(m_state_);
    m_in_t_ = Transposed(m_in_);
  }
  return m_in_t_;
}

StepPropagator::HoldOperator StepPropagator::Compose(
    const HoldOperator& b, const HoldOperator& a) const {
  HoldOperator out;
  out.k = a.k + b.k;
  out.t_op = util::Matrix(m_state_.rows(), m_state_.cols());
  util::Gemm(b.t_op, a.t_op, &out.t_op);
  out.in_op = b.in_op;  // start from B2, accumulate A2 B1
  util::GemmAdd(b.t_op, a.in_op, &out.in_op);
  out.amb_op = b.amb_op;
  util::GemvAdd(b.t_op, a.amb_op, out.amb_op);
  return out;
}

std::shared_ptr<const StepPropagator::HoldOperator> StepPropagator::Hold(
    std::size_t k) const {
  DS_REQUIRE(k >= 1, "StepPropagator::Hold: k must be >= 1");
  const ds::MutexLock lock(hold_mu_);
  const auto it = holds_.find(k);
  if (it != holds_.end()) {
    DS_TELEM_COUNT("thermal.hold_op_hits", 1);
    return it->second;
  }
  DS_TELEM_COUNT("thermal.hold_op_builds", 1);
  DS_TELEM_TIMER("thermal.hold_op_build_us");
  if (pow2_.empty()) {
    auto one = std::make_shared<HoldOperator>();
    one->k = 1;
    one->t_op = m_state_;
    one->in_op = m_in_;
    one->amb_op = c_amb_;
    pow2_.push_back(std::move(one));
  }
  // Binary powering over the memoized power-of-two chain. All factors
  // are powers of one affine map, so composition order is immaterial.
  std::shared_ptr<HoldOperator> acc;
  std::size_t bits = k;
  std::size_t level = 0;
  while (bits != 0) {
    while (level >= pow2_.size()) {
      const HoldOperator& prev = *pow2_.back();
      pow2_.push_back(std::make_shared<HoldOperator>(Compose(prev, prev)));
    }
    if ((bits & 1u) != 0) {
      const HoldOperator& factor = *pow2_[level];
      if (acc == nullptr) {
        acc = std::make_shared<HoldOperator>(factor);
      } else {
        *acc = Compose(factor, *acc);
      }
    }
    bits >>= 1u;
    ++level;
  }
  {
    DS_TELEM_TIMER("thermal.operator_transpose_us");
    acc->t_op_t = Transposed(acc->t_op);
    acc->in_op_t = Transposed(acc->in_op);
  }
  holds_.emplace(k, acc);
  return acc;
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

std::size_t StepPropagator::ApproxBytes() const {
  const auto operator_bytes = [](const HoldOperator& h) {
    return sizeof(double) * (h.t_op.rows() * h.t_op.cols() +
                             h.in_op.rows() * h.in_op.cols() +
                             h.amb_op.size() +
                             h.t_op_t.rows() * h.t_op_t.cols() +
                             h.in_op_t.rows() * h.in_op_t.cols());
  };
  std::size_t bytes =
      sizeof(double) * (m_state_.rows() * m_state_.cols() +
                        m_in_.rows() * m_in_.cols() + c_amb_.size());
  const ds::MutexLock lock(hold_mu_);
  bytes += sizeof(double) * (m_state_t_.rows() * m_state_t_.cols() +
                             m_in_t_.rows() * m_in_t_.cols());
  std::set<const HoldOperator*> seen;
  for (const auto& hold : pow2_)
    if (hold != nullptr && seen.insert(hold.get()).second)
      bytes += operator_bytes(*hold);
  for (const auto& [k, hold] : holds_) {
    (void)k;
    if (hold != nullptr && seen.insert(hold.get()).second)
      bytes += operator_bytes(*hold);
  }
  return bytes;
}

std::size_t PropagatorSet::ApproxBytes() const {
  std::vector<std::shared_ptr<const StepPropagator>> props;
  {
    const ds::MutexLock lock(mu_);
    props.reserve(by_dt_.size());
    for (const auto& [dt, prop] : by_dt_) {
      (void)dt;
      props.push_back(prop);
    }
  }
  // Summed outside mu_: StepPropagator::ApproxBytes takes the
  // propagator's own hold mutex, and For() may build under mu_.
  std::size_t bytes = 0;
  for (const auto& prop : props) bytes += prop->ApproxBytes();
  return bytes;
}

}  // namespace ds::thermal
