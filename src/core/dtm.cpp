#include "core/dtm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>

#include "faults/sensor_bus.hpp"
#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::core {

const char* DtmPolicyName(DtmPolicy policy) {
  switch (policy) {
    case DtmPolicy::kThrottleGlobal:
      return "throttle-global";
    case DtmPolicy::kShutdownHottest:
      return "shutdown-hottest";
  }
  return "?";
}

void DtmRunOptions::Validate() const {
  DS_REQUIRE(control_period_s > 0.0 && std::isfinite(control_period_s),
             "DtmRunOptions: control_period_s " << control_period_s
                 << " must be positive");
  DS_REQUIRE(hysteresis_c >= 0.0 && std::isfinite(hysteresis_c),
             "DtmRunOptions: hysteresis_c " << hysteresis_c
                 << " must be finite and >= 0");
  faults.Validate();
}

DtmSimulator::DtmSimulator(const arch::Platform& platform,
                           const apps::AppProfile& app,
                           std::size_t instances, std::size_t threads,
                           MappingPolicy placement)
    : platform_(&platform),
      app_(&app),
      instances_(instances),
      threads_(threads) {
  DS_REQUIRE(instances * threads <= platform.num_cores(),
             "DtmSimulator: " << instances << " x " << threads
                 << " threads do not fit on " << platform.num_cores()
                 << " cores");
  active_set_ = SelectCores(platform, instances * threads, placement);
}

DtmResult DtmSimulator::Run(DtmPolicy policy, std::size_t start_level,
                            double duration_s,
                            const DtmRunOptions& options) const {
  DS_REQUIRE(duration_s > 0.0 && std::isfinite(duration_s),
             "DtmSimulator: duration_s " << duration_s
                 << " must be positive");
  options.Validate();
  DS_REQUIRE(std::lround(duration_s / options.control_period_s) >= 1,
             "DtmSimulator: duration_s " << duration_s
                 << " covers no control step of "
                 << options.control_period_s << " s");
  DS_TELEM_SPAN_ARG("controller", "dtm_run", ds::telemetry::TraceLevel::kSpan,
                    "duration_s", duration_s);
  const double control_period_s = options.control_period_s;
  const double hysteresis_c = options.hysteresis_c;

  const power::DvfsLadder& ladder = platform_->ladder();
  const power::PowerModel& pm = platform_->power_model();
  const double t_crit = platform_->tdtm_c();
  const std::size_t n = platform_->num_cores();

  thermal::TransientSimulator sim = platform_->MakeTransient(control_period_s);

  // Fault machinery; null when disabled keeps the fault-free loop
  // bit-identical (the bus then passes true temperatures through).
  std::unique_ptr<faults::FaultInjector> injector;
  if (options.faults.enabled)
    injector = std::make_unique<faults::FaultInjector>(options.faults, n);
  faults::SensorBus bus(n, platform_->thermal_model().ambient_c());
  bus.AttachInjector(injector.get());

  // Per-core run state: on = contributing its activity; off = gated by
  // DTM. `down` tracks fault outages separately so a transient outage
  // can end without un-gating a DTM decision.
  std::vector<bool> on(n, false);
  std::vector<bool> down(n, false);
  for (const std::size_t c : active_set_) on[c] = true;
  std::size_t level = start_level;
  const double activity = app_->Activity(threads_);

  // Per-active-core share of its instance's GIPS: losing a core costs
  // the instance proportionally (the remaining threads stall on it).
  const double gips_per_core =
      app_->InstanceGips(threads_, 1.0) / static_cast<double>(threads_);

  auto core_powers = [&](std::size_t lvl, std::span<const double> temps,
                         std::span<double> p) {
    const power::VfLevel& vf = ladder[lvl];
    for (std::size_t c = 0; c < n; ++c) {
      p[c] = down[c] ? 0.0
             : on[c] ? pm.TotalPower(activity, app_->ceff22_nf, app_->pind22,
                                     vf.vdd, vf.freq, temps[c])
                     : pm.DarkCorePower(temps[c]);
    }
  };
  auto current_gips = [&](std::size_t lvl) {
    std::size_t alive = 0;
    for (const std::size_t c : active_set_)
      if (on[c] && !down[c]) ++alive;
    return static_cast<double>(alive) * gips_per_core * ladder[lvl].freq;
  };

  DtmResult result;

  // Warm start: steady state of the *requested* operating point. This
  // is exactly the situation the paper describes -- a mapping admitted
  // by an optimistic TDP whose steady state violates T_DTM.
  {
    DS_TELEM_SPAN("thermal", "warm_start", ds::telemetry::TraceLevel::kSpan);
    sim.SetState(platform_->solver().WarmStart(
        [&](std::span<const double> temps, std::span<double> p) {
          core_powers(start_level, temps, p);
        },
        3,
        faults::SolverFaultHooks(injector.get(), 0.0,
                                 &result.solver_retries)));
  }

  result.nominal_gips = current_gips(start_level);
  result.min_freq_ghz = ladder[level].freq;
  const std::size_t steps = static_cast<std::size_t>(
      std::lround(duration_s / control_period_s));
  const std::size_t stride = std::max<std::size_t>(1, steps / 500);
  double gips_acc = 0.0;
  bool was_safe = false;
  std::vector<double> powers(n);

  for (std::size_t s = 0; s < steps; ++s) {
    DS_TELEM_COUNT("dtm.control_steps", 1);
    const double now_s = static_cast<double>(s) * control_period_s;
    if (injector) {
      injector->BeginStep(now_s, control_period_s);
      for (const std::size_t c : injector->TakeNewlyRecoveredCores())
        down[c] = false;
      for (const std::size_t c : injector->TakeNewlyDownCores()) {
        down[c] = true;
        injector->log().Record(
            now_s, faults::FaultEventKind::kMitigated,
            injector->CoreDownPermanent(c)
                ? faults::FaultKind::kCoreFailStop
                : faults::FaultKind::kCoreTransient,
            c, 0.0, "core dropped from workload (share stalls)");
      }
    }

    const std::vector<double> temps = sim.DieTemps();
    const std::vector<double>& sensed = bus.Sample(now_s, temps);
    const double peak = *std::max_element(sensed.begin(), sensed.end());
    const double true_peak =
        *std::max_element(temps.begin(), temps.end());
    std::size_t requested = level;
    if (bus.InSafeState()) {
      requested = 0;  // watchdog: pin the ladder at its lowest level
    } else if (peak > t_crit) {
      if (policy == DtmPolicy::kThrottleGlobal) {
        requested = ladder.StepDown(level);
      } else {
        // Gate the hottest still-running core (by sensed temperature).
        std::size_t hottest = n;
        double t_max = -1.0;
        for (const std::size_t c : active_set_) {
          if (on[c] && !down[c] && sensed[c] > t_max) {
            t_max = sensed[c];
            hottest = c;
          }
        }
        if (hottest < n) {
          on[hottest] = false;
          ++result.cores_shut_down;
          DS_TELEM_COUNT("dtm.cores_gated", 1);
          ds::telemetry::EmitInstant("controller", "dtm_gate_core",
                                     ds::telemetry::TraceLevel::kDecision,
                                     "core", static_cast<double>(hottest),
                                     "sim_time_s", now_s);
        }
      }
    } else if (policy == DtmPolicy::kThrottleGlobal &&
               peak < t_crit - hysteresis_c && level < start_level) {
      requested = ladder.StepUp(level);
    }
    const std::size_t prev_level = level;
    level = injector ? injector->ApplyDvfs(requested, level) : requested;
    if (level != prev_level) {
      DS_TELEM_COUNT("dtm.throttle_events", 1);
      ds::telemetry::EmitInstant(
          "controller", level < prev_level ? "dtm_throttle" : "dtm_relax",
          ds::telemetry::TraceLevel::kDecision, "freq_ghz",
          ladder[level].freq, "sim_time_s", now_s);
    }
    if (bus.InSafeState() != was_safe) {
      was_safe = bus.InSafeState();
      ds::telemetry::EmitInstant(
          "controller", was_safe ? "safe_state_enter" : "safe_state_exit",
          ds::telemetry::TraceLevel::kDecision, "sim_time_s", now_s);
    }
    if (true_peak > t_crit) result.time_above_critical_s += control_period_s;
    if (bus.InSafeState()) result.safe_state_s += control_period_s;

    core_powers(level, temps, powers);
    sim.Step(powers);
    const double gips = current_gips(level);
    gips_acc += gips;
    result.max_temp_c = std::max(result.max_temp_c, sim.PeakDieTemp());
    result.min_freq_ghz = std::min(result.min_freq_ghz, ladder[level].freq);
    if (s % stride == 0) {
      result.time_s.push_back(sim.time());
      result.gips.push_back(gips);
      result.peak_temp_c.push_back(sim.PeakDieTemp());
    }
  }

  result.avg_gips = gips_acc / static_cast<double>(steps);
  result.performance_loss =
      result.nominal_gips > 0.0
          ? 1.0 - result.avg_gips / result.nominal_gips
          : 0.0;
  std::size_t alive = 0;
  for (const std::size_t c : active_set_)
    if (on[c] && !down[c]) ++alive;
  result.final_dark_fraction =
      1.0 - static_cast<double>(alive) / static_cast<double>(n);
  result.sensor_substitutions = bus.substitutions();
  if (injector) {
    result.cores_failed = injector->num_down_cores();
    result.fault_log = std::move(injector->log());
  }
  return result;
}

}  // namespace ds::core
