#include "faults/fault_injector.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/scoped.hpp"
#include "thermal/steady_state.hpp"
#include "util/contracts.hpp"
#include "util/table.hpp"

namespace ds::faults {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSensorStuck:
      return "sensor-stuck";
    case FaultKind::kSensorNoise:
      return "sensor-noise";
    case FaultKind::kSensorDrift:
      return "sensor-drift";
    case FaultKind::kSensorDropout:
      return "sensor-dropout";
    case FaultKind::kSensorNan:
      return "sensor-nan";
    case FaultKind::kCoreFailStop:
      return "core-fail-stop";
    case FaultKind::kCoreTransient:
      return "core-transient";
    case FaultKind::kDvfsStuck:
      return "dvfs-stuck";
    case FaultKind::kSolverNonConvergence:
      return "solver-non-convergence";
    case FaultKind::kJobTransient:
      return "job-transient";
    case FaultKind::kJobDelay:
      return "job-delay";
  }
  return "?";
}

const char* FaultEventKindName(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kInjected:
      return "injected";
    case FaultEventKind::kCleared:
      return "cleared";
    case FaultEventKind::kMitigated:
      return "mitigated";
  }
  return "?";
}

void FaultLog::Record(double time_s, FaultEventKind event, FaultKind kind,
                      std::size_t core, double value, std::string detail) {
#if DS_TELEMETRY_COMPILED_IN
  // Bridge every log entry into the trace stream as an instant event.
  // Trace timestamps are wall-clock; simulation time and the affected
  // core ride along as arguments. The category encodes the event kind
  // so Perfetto can color-group injections vs. mitigations.
  const char* cat = "fault.injected";
  switch (event) {
    case FaultEventKind::kInjected:
      DS_TELEM_COUNT("faults.injected", 1);
      break;
    case FaultEventKind::kCleared:
      cat = "fault.cleared";
      DS_TELEM_COUNT("faults.cleared", 1);
      break;
    case FaultEventKind::kMitigated:
      cat = "fault.mitigated";
      DS_TELEM_COUNT("faults.mitigated", 1);
      break;
  }
  ds::telemetry::EmitInstant(
      cat, FaultKindName(kind), ds::telemetry::TraceLevel::kDecision,
      "sim_time_s", time_s, "core",
      core == kNoCore ? -1.0 : static_cast<double>(core));
#endif
  events_.push_back(
      {time_s, event, kind, core, value, std::move(detail)});
}

std::size_t FaultLog::CountEvents(FaultEventKind event) const {
  std::size_t count = 0;
  for (const FaultEvent& e : events_)
    if (e.event == event) ++count;
  return count;
}

std::size_t FaultLog::CountInjected(FaultKind kind) const {
  std::size_t count = 0;
  for (const FaultEvent& e : events_)
    if (e.event == FaultEventKind::kInjected && e.kind == kind) ++count;
  return count;
}

std::size_t FaultLog::CountMitigated(FaultKind kind) const {
  std::size_t count = 0;
  for (const FaultEvent& e : events_)
    if (e.event == FaultEventKind::kMitigated && e.kind == kind) ++count;
  return count;
}

bool FaultLog::EveryInjectionMitigated() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& inj = events_[i];
    if (inj.event != FaultEventKind::kInjected) continue;
    bool matched = false;
    for (std::size_t j = 0; j < events_.size(); ++j) {
      const FaultEvent& mit = events_[j];
      if (mit.event == FaultEventKind::kMitigated && mit.kind == inj.kind &&
          mit.core == inj.core && mit.time_s >= inj.time_s) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

void FaultLog::WriteCsv(const std::string& path) const {
  // Build a util::Table and reuse its CSV writer (single dump path for
  // tabular output across the repo).
  util::Table table({"time_s", "event", "kind", "core", "value", "detail"});
  for (const FaultEvent& e : events_) {
    table.Row()
        .Cell(std::to_string(e.time_s))
        .Cell(FaultEventKindName(e.event))
        .Cell(FaultKindName(e.kind))
        .Cell(e.core == kNoCore ? std::string("-") : std::to_string(e.core))
        .Cell(std::to_string(e.value))
        .Cell(e.detail);
  }
  table.WriteCsv(path);
}

void FaultConfig::Validate() const {
  auto rate_ok = [](double r) {
    return std::isfinite(r) && r >= 0.0 && r <= 1.0;
  };
  DS_REQUIRE(rate_ok(sensor_stuck_rate) && rate_ok(sensor_dropout_rate) &&
                 rate_ok(sensor_nan_rate) && rate_ok(sensor_drift_rate) &&
                 rate_ok(core_failstop_rate) && rate_ok(core_transient_rate) &&
                 rate_ok(dvfs_stuck_rate) && rate_ok(solver_fail_rate),
             "FaultConfig: per-step rates must be finite and within [0, 1]");
  DS_REQUIRE(std::isfinite(sensor_noise_sigma_c) && sensor_noise_sigma_c >= 0.0,
             "FaultConfig: sensor_noise_sigma_c " << sensor_noise_sigma_c
                 << " must be finite and >= 0");
  DS_REQUIRE(std::isfinite(sensor_drift_c_per_s),
             "FaultConfig: sensor_drift_c_per_s must be finite");
  DS_REQUIRE(stuck_duration_s > 0.0 && dropout_duration_s > 0.0 &&
                 transient_duration_s > 0.0 && dvfs_stuck_duration_s > 0.0,
             "FaultConfig: fault durations must be positive");
  DS_REQUIRE(!std::isnan(max_injection_time_s),
             "FaultConfig: max_injection_time_s must not be NaN");
}

bool FaultConfig::AnyFaultPossible() const {
  return enabled &&
         (sensor_stuck_rate > 0.0 || sensor_dropout_rate > 0.0 ||
          sensor_nan_rate > 0.0 || sensor_drift_rate > 0.0 ||
          sensor_noise_sigma_c > 0.0 || core_failstop_rate > 0.0 ||
          core_transient_rate > 0.0 || dvfs_stuck_rate > 0.0 ||
          solver_fail_rate > 0.0);
}

FaultInjector::FaultInjector(const FaultConfig& config, std::size_t num_cores)
    : config_(config),
      num_cores_(num_cores),
      rng_(config.seed),
      sensors_(num_cores),
      cores_(num_cores),
      core_down_(num_cores, false) {
  config_.Validate();
}

void FaultInjector::BeginStep(double time_s, double dt_s) {
  time_s_ = time_s;
  dt_s_ = dt_s;
  injecting_ = time_s <= config_.max_injection_time_s;

  // Expire bounded faults first so a fault slot can be re-used.
  for (std::size_t c = 0; c < num_cores_; ++c) {
    SensorState& s = sensors_[c];
    s.nan_this_step = false;
    if (s.stuck_until_s >= 0.0 && time_s > s.stuck_until_s) {
      s.stuck_until_s = -1.0;
      log_.Record(time_s, FaultEventKind::kCleared, FaultKind::kSensorStuck,
                  c, s.stuck_value_c, "stuck interval expired");
    }
    if (s.dropout_until_s >= 0.0 && time_s > s.dropout_until_s) {
      s.dropout_until_s = -1.0;
      log_.Record(time_s, FaultEventKind::kCleared,
                  FaultKind::kSensorDropout, c, 0.0,
                  "sensor delivering again");
    }
    CoreState& core = cores_[c];
    if (core.down && !core.permanent && time_s > core.down_until_s) {
      core.down = false;
      core_down_[c] = false;
      --num_down_;
      newly_recovered_.push_back(c);
      log_.Record(time_s, FaultEventKind::kCleared, FaultKind::kCoreTransient,
                  c, 0.0, "transient outage ended");
    }
  }
  if (dvfs_stuck_until_s_ >= 0.0 && time_s > dvfs_stuck_until_s_) {
    dvfs_stuck_until_s_ = -1.0;
    log_.Record(time_s, FaultEventKind::kCleared, FaultKind::kDvfsStuck,
                kNoCore, static_cast<double>(dvfs_stuck_level_),
                "actuator accepting commands again");
  }

  if (!injecting_) return;

  // Sample new faults in a fixed core order (determinism).
  for (std::size_t c = 0; c < num_cores_; ++c) {
    SensorState& s = sensors_[c];
    if (s.stuck_until_s < 0.0 && Hit(config_.sensor_stuck_rate)) {
      s.stuck_until_s = time_s + config_.stuck_duration_s;
      s.stuck_value_c = s.last_value_c;
      log_.Record(time_s, FaultEventKind::kInjected, FaultKind::kSensorStuck,
                  c, s.stuck_value_c, "reading frozen at last value");
    }
    if (s.dropout_until_s < 0.0 && Hit(config_.sensor_dropout_rate)) {
      s.dropout_until_s = time_s + config_.dropout_duration_s;
      log_.Record(time_s, FaultEventKind::kInjected,
                  FaultKind::kSensorDropout, c, 0.0,
                  "sensor stopped delivering (stale valid-bit)");
    }
    if (Hit(config_.sensor_nan_rate)) {
      s.nan_this_step = true;
      log_.Record(time_s, FaultEventKind::kInjected, FaultKind::kSensorNan,
                  c, 0.0, "single NaN reading");
    }
    if (!s.drifting && Hit(config_.sensor_drift_rate)) {
      s.drifting = true;
      log_.Record(time_s, FaultEventKind::kInjected, FaultKind::kSensorDrift,
                  c, config_.sensor_drift_c_per_s, "slow drift started");
    }

    CoreState& core = cores_[c];
    if (!core.down && num_down_ < config_.max_failed_cores) {
      if (Hit(config_.core_failstop_rate)) {
        core.down = true;
        core.permanent = true;
        core_down_[c] = true;
        ++num_down_;
        newly_down_.push_back(c);
        log_.Record(time_s, FaultEventKind::kInjected,
                    FaultKind::kCoreFailStop, c, 0.0,
                    "core fail-stopped (permanent)");
      } else if (Hit(config_.core_transient_rate)) {
        core.down = true;
        core.permanent = false;
        core.down_until_s = time_s + config_.transient_duration_s;
        core_down_[c] = true;
        ++num_down_;
        newly_down_.push_back(c);
        log_.Record(time_s, FaultEventKind::kInjected,
                    FaultKind::kCoreTransient, c, 0.0,
                    "core transiently unavailable");
      }
    }
  }

  if (dvfs_stuck_until_s_ < 0.0 && Hit(config_.dvfs_stuck_rate)) {
    dvfs_stuck_until_s_ = time_s + config_.dvfs_stuck_duration_s;
    dvfs_fault_mitigation_logged_ = false;
    // The stuck level is latched on the first ApplyDvfs of the fault.
    dvfs_stuck_level_ = std::numeric_limits<std::size_t>::max();
    log_.Record(time_s, FaultEventKind::kInjected, FaultKind::kDvfsStuck,
                kNoCore, 0.0, "actuator ignoring level commands");
  }
}

SensorReading FaultInjector::CorruptReading(std::size_t core,
                                            double true_temp_c) {
  SensorState& s = sensors_[core];
  s.has_active = false;
  double value = true_temp_c;

  if (s.drifting) {
    s.drift_c += config_.sensor_drift_c_per_s * dt_s_;
    value += s.drift_c;
    s.active = FaultKind::kSensorDrift;
    s.has_active = true;
  }
  if (config_.sensor_noise_sigma_c > 0.0) {
    value += rng_.Normal(0.0, config_.sensor_noise_sigma_c);
    if (!s.has_active) {
      s.active = FaultKind::kSensorNoise;
      s.has_active = true;
    }
  }
  if (s.stuck_until_s >= 0.0) {
    value = s.stuck_value_c;
    s.active = FaultKind::kSensorStuck;
    s.has_active = true;
  }
  if (s.nan_this_step) {
    value = std::numeric_limits<double>::quiet_NaN();
    s.active = FaultKind::kSensorNan;
    s.has_active = true;
  }
  if (s.dropout_until_s >= 0.0) {
    // Stale: the bus keeps seeing the last delivered value, not fresh.
    s.active = FaultKind::kSensorDropout;
    s.has_active = true;
    return {s.last_value_c, false};
  }
  s.last_value_c = value;
  return {value, true};
}

bool FaultInjector::ActiveSensorFault(std::size_t core,
                                      FaultKind* kind) const {
  const SensorState& s = sensors_[core];
  if (!s.has_active) return false;
  if (kind != nullptr) *kind = s.active;
  return true;
}

std::vector<std::size_t> FaultInjector::TakeNewlyDownCores() {
  return std::exchange(newly_down_, {});
}

std::vector<std::size_t> FaultInjector::TakeNewlyRecoveredCores() {
  return std::exchange(newly_recovered_, {});
}

std::size_t FaultInjector::ApplyDvfs(std::size_t requested_level,
                                     std::size_t current_level) {
  if (dvfs_stuck_until_s_ < 0.0) return requested_level;
  if (dvfs_stuck_level_ == std::numeric_limits<std::size_t>::max())
    dvfs_stuck_level_ = current_level;
  if (requested_level != dvfs_stuck_level_ &&
      !dvfs_fault_mitigation_logged_) {
    dvfs_fault_mitigation_logged_ = true;
    log_.Record(time_s_, FaultEventKind::kMitigated, FaultKind::kDvfsStuck,
                kNoCore, static_cast<double>(dvfs_stuck_level_),
                "command blocked; governor re-issues each period and "
                "tracks the measured level");
  }
  return dvfs_stuck_level_;
}

bool FaultInjector::ConsumeSolverFault() {
  if (!injecting_ || !Hit(config_.solver_fail_rate)) return false;
  log_.Record(time_s_, FaultEventKind::kInjected,
              FaultKind::kSolverNonConvergence, kNoCore, 0.0,
              "steady-state solve declared non-convergent");
  return true;
}

thermal::WarmStartHooks SolverFaultHooks(FaultInjector* injector,
                                         double now_s, std::size_t* retries) {
  thermal::WarmStartHooks hooks;
  if (injector != nullptr)
    hooks.inject_failure = [injector] {
      return injector->ConsumeSolverFault();
    };
  hooks.on_retry = [injector, now_s, retries] {
    ++*retries;
    if (injector != nullptr)
      injector->log().Record(now_s, FaultEventKind::kMitigated,
                             FaultKind::kSolverNonConvergence, kNoCore, 0.0,
                             "warm start retried with perturbed pivoting");
  };
  return hooks;
}

}  // namespace ds::faults
