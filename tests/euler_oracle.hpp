// Implicit-Euler reference stepper for the thermal tests. Each step is
// one LU solve of
//
//   (G + C/dt) T' = (C/dt) T + P + g_amb T_amb
//
// built straight from the RcModel. It shares only util::LuFactorization
// with the production stepping path (thermal/propagator.hpp folds the
// same equation into dense operators that the panel kernels apply), so
// agreement checks the fold and the kernels rather than a copy of them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "thermal/rc_model.hpp"
#include "util/lu.hpp"
#include "util/matrix.hpp"

namespace ds::thermal::testing {

class EulerOracle {
 public:
  /// Starts at `initial_state` (all nodes), or at ambient when empty.
  EulerOracle(const RcModel& model, double dt_s,
              std::span<const double> initial_state = {})
      : model_(&model), dt_(dt_s), lu_(SystemMatrix(model, dt_s)) {
    if (initial_state.empty())
      state_.assign(model.num_nodes(), model.ambient_c());
    else
      state_.assign(initial_state.begin(), initial_state.end());
  }

  void Step(std::span<const double> core_powers) {
    const std::vector<double>& cap = model_->capacitance();
    const std::vector<double>& amb_g = model_->ambient_conductance();
    std::vector<double> rhs(state_.size());
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] = cap[i] / dt_ * state_[i] + amb_g[i] * model_->ambient_c();
    for (std::size_t c = 0; c < model_->num_cores(); ++c)
      rhs[model_->DieNode(c)] += core_powers[c];
    state_ = lu_.Solve(rhs);
  }

  const std::vector<double>& state() const { return state_; }

 private:
  static util::Matrix SystemMatrix(const RcModel& model, double dt_s) {
    util::Matrix a = model.conductance();
    for (std::size_t i = 0; i < model.num_nodes(); ++i)
      a(i, i) += model.capacitance()[i] / dt_s;
    return a;
  }

  const RcModel* model_;
  double dt_;
  util::LuFactorization lu_;
  std::vector<double> state_;
};

}  // namespace ds::thermal::testing
