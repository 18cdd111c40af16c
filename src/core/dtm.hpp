// Dynamic Thermal Management (DTM).
//
// Sec. 3.1 of the paper: "Exceeding this critical temperature triggers
// Dynamic Thermal Management (DTM) on the chip ... which might power
// down additional cores, resulting in more dark silicon." This module
// makes that claim quantitative: it runs a workload transiently and
// lets a DTM policy react whenever the peak temperature crosses the
// critical threshold.
//
// Policies:
//   * kThrottleGlobal  -- step the chip-wide v/f ladder one level down
//                         on violation, one level back up (toward the
//                         original level) when a hysteresis margin of
//                         headroom reappears. Models clock throttling.
//   * kShutdownHottest -- power-gate the hottest active core on each
//                         violating control period. Gated cores stay
//                         off (the paper's "additional dark silicon").
// The controller reads temperatures through a faults::SensorBus: when
// fault injection is armed (DtmRunOptions::faults), implausible or
// stale readings are replaced by the bus's EWMA estimate, a watchdog
// safe-state pins the ladder at its lowest level, fail-stopped cores
// drop out of the workload, and DVFS commands go through the possibly
// stuck actuator. With faults disabled the loop is bit-identical to
// the fault-free implementation.
#pragma once

#include <cstddef>
#include <vector>

#include "apps/app_profile.hpp"
#include "arch/platform.hpp"
#include "core/mapping.hpp"
#include "faults/fault_injector.hpp"
#include "thermal/transient.hpp"

namespace ds::core {

enum class DtmPolicy { kThrottleGlobal, kShutdownHottest };

const char* DtmPolicyName(DtmPolicy policy);

struct DtmRunOptions {
  double control_period_s = 1e-3;
  double hysteresis_c = 2.0;
  faults::FaultConfig faults;  // disabled by default

  /// Rejects non-positive control period and negative hysteresis.
  void Validate() const;
};

struct DtmResult {
  double avg_gips = 0.0;
  double nominal_gips = 0.0;       // what the mapping would deliver un-DTM'd
  double performance_loss = 0.0;   // 1 - avg/nominal
  double max_temp_c = 0.0;
  double time_above_critical_s = 0.0;
  std::size_t cores_shut_down = 0;    // kShutdownHottest only
  double final_dark_fraction = 0.0;   // including DTM-induced dark cores
  double min_freq_ghz = 0.0;          // lowest level reached (throttling)
  std::vector<double> time_s;         // sampled trace
  std::vector<double> gips;
  std::vector<double> peak_temp_c;
  // Robustness accounting (all zero when fault injection is off).
  faults::FaultLog fault_log;
  double safe_state_s = 0.0;          // time in the watchdog safe-state
  std::size_t cores_failed = 0;       // fault outages (not DTM gating)
  std::size_t solver_retries = 0;
  std::size_t sensor_substitutions = 0;
};

/// Transient DTM simulation of a homogeneous workload (instances of one
/// application, 8 threads each) mapped by `policy_map`.
class DtmSimulator {
 public:
  DtmSimulator(const arch::Platform& platform, const apps::AppProfile& app,
               std::size_t instances, std::size_t threads,
               MappingPolicy placement = MappingPolicy::kContiguous);

  /// Runs `duration_s` at `start_level` with the DTM policy armed at
  /// the platform's T_DTM. `hysteresis_c` is the headroom required
  /// before throttling is relaxed.
  DtmResult Run(DtmPolicy policy, std::size_t start_level,
                double duration_s, double control_period_s = 1e-3,
                double hysteresis_c = 2.0) const {
    DtmRunOptions options;
    options.control_period_s = control_period_s;
    options.hysteresis_c = hysteresis_c;
    return Run(policy, start_level, duration_s, options);
  }

  /// Full-option run, including the fault-injection scenario. Throws
  /// std::invalid_argument for a non-positive duration, a duration that
  /// covers no control step, or invalid options.
  DtmResult Run(DtmPolicy policy, std::size_t start_level,
                double duration_s, const DtmRunOptions& options) const;

  std::size_t active_cores() const { return active_set_.size(); }

 private:
  const arch::Platform* platform_;
  const apps::AppProfile* app_;
  std::size_t instances_;
  std::size_t threads_;
  std::vector<std::size_t> active_set_;
};

}  // namespace ds::core
