// Computational sprinting analysis.
//
// TSP answers "what can run *forever*"; the package's thermal
// capacitance also allows running far above that budget for a bounded
// time (the same physics behind the paper's boosting transients in
// Fig. 11: the die heats in milliseconds, the heat sink in tens of
// seconds). This module measures the sprint budget: how long a given
// number of cores can run an application at a given v/f level before
// the peak temperature first reaches T_DTM, starting from a chosen
// background state.
#pragma once

#include <cstddef>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/mapping.hpp"

namespace ds::core {

struct SprintResult {
  double duration_s = 0.0;       // time to first T_DTM crossing
  bool unlimited = false;        // steady state never violates
  double steady_peak_c = 0.0;    // where the sprint would settle
  double start_peak_c = 0.0;     // temperature at sprint start
  double sprint_gips = 0.0;      // performance while sprinting
};

class SprintAnalysis {
 public:
  explicit SprintAnalysis(const arch::Platform& platform);

  /// Sprint of `instances` x `threads` cores of `app` at ladder level
  /// `level`, mapped by `policy`. The chip starts from the steady state
  /// of `idle_fraction` of the sprint power (0 = fully cooled chip,
  /// 1 = already at the sprint's steady state).
  /// `max_duration_s` bounds the search. The background state and the
  /// settled peak are warm starts on the platform's shared solver.
  SprintResult Measure(const apps::AppProfile& app, std::size_t instances,
                       std::size_t threads, std::size_t level,
                       double idle_fraction = 0.0,
                       MappingPolicy policy = MappingPolicy::kContiguous,
                       double max_duration_s = 120.0,
                       double dt_s = 1e-2) const;

 private:
  const arch::Platform* platform_;
};

}  // namespace ds::core
