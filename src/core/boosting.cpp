#include "core/boosting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"

namespace ds::core {

BoostingSimulator::BoostingSimulator(const arch::Platform& platform,
                                     const apps::AppProfile& app,
                                     std::size_t instances,
                                     std::size_t threads,
                                     MappingPolicy policy)
    : platform_(&platform),
      app_(&app),
      instances_(instances),
      threads_(threads),
      activity_(app.Activity(threads)),
      estimator_(platform) {
  if (instances * threads > platform.num_cores())
    throw std::invalid_argument(
        "BoostingSimulator: workload does not fit the chip");
  active_set_ = SelectCores(platform, instances * threads, policy);
  domain_of_.assign(platform.num_cores(), instances_);
  for (std::size_t i = 0; i < active_set_.size(); ++i)
    domain_of_[active_set_[i]] = i / threads_;
}

void BoostTally::AddPeriod(double gips, double power_w, double period_s) {
  gips_acc_ += gips;
  energy_j_ += power_w * period_s;
  max_power_w_ = std::max(max_power_w_, power_w);
}

void BoostTally::AddPeak(double peak_c) {
  max_temp_c_ = std::max(max_temp_c_, peak_c);
}

void BoostTally::Finish(std::size_t periods, double duration_s,
                        BoostTrace* trace) const {
  trace->avg_gips = gips_acc_ / static_cast<double>(periods);
  trace->energy_j = energy_j_;
  trace->avg_power_w = energy_j_ / duration_s;
  trace->max_power_w = max_power_w_;
  trace->max_temp_c = max_temp_c_;
  trace->duration_s = duration_s;
}

double BoostingSimulator::GipsAtLevel(std::size_t level) const {
  return GipsAt({&level, 1});
}

Estimate BoostingSimulator::SteadyAtLevel(std::size_t level) const {
  const power::VfLevel& vf = platform_->ladder()[level];
  apps::Workload w;
  w.AddN({app_, threads_, vf.freq, vf.vdd}, instances_);
  return estimator_.EvaluateWorkload(w, active_set_);
}

std::size_t BoostingSimulator::SafePrefix(
    const std::function<bool(const Estimate&)>& safe) const {
  // Bisection over [0, ladder size): levels below lo are safe, levels
  // at or above hi are not.
  std::size_t lo = 0;
  std::size_t hi = platform_->ladder().size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    bool ok = false;
    try {
      ok = safe(SteadyAtLevel(mid));
    } catch (const std::runtime_error&) {
      // Thermal runaway at this level and above: unsafe.
    }
    if (ok)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

bool BoostingSimulator::MaxSafeConstantLevel(double power_cap_w,
                                             std::size_t* level_out) const {
  DS_REQUIRE(level_out != nullptr,
             "MaxSafeConstantLevel: level_out must not be null");
  const std::size_t safe = SafePrefix([&](const Estimate& e) {
    return !e.thermal_violation && e.total_power_w <= power_cap_w;
  });
  if (safe > 0) *level_out = safe - 1;
  return safe > 0;
}

BoostTrace BoostingSimulator::RunBoostLoop(std::size_t start_level,
                                           std::size_t domains,
                                           double duration_s,
                                           double control_period_s,
                                           const ControlRule& rule) const {
  const std::size_t n = platform_->num_cores();
  std::vector<std::size_t> levels(domains, start_level);
  thermal::TransientSimulator sim = platform_->MakeTransient(control_period_s);
  // Warm start from the steady state of the starting level; a few
  // fixed-point passes align initial leakage and state.
  sim.SetState(platform_->solver().WarmStart(
      [&](std::span<const double> temps, std::span<double> p) {
        CorePowers(levels, temps, p);
      },
      3));

  const std::size_t steps =
      static_cast<std::size_t>(std::lround(duration_s / control_period_s));
  const std::size_t stride = std::max<std::size_t>(1, steps / 1000);
  BoostTrace trace;
  BoostTally tally;
  std::vector<double> powers(n);
  double total_power = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    // Control decision from the state at the period start.
    const std::span<const double> temps = sim.state().first(n);
    rule({s, sim.time(), temps, sim.PeakDieTemp(), total_power, levels});
    total_power = CorePowers(levels, temps, powers);
    sim.Step(powers);

    const double gips = GipsAt(levels);
    tally.AddPeriod(gips, total_power, control_period_s);
    tally.AddPeak(sim.PeakDieTemp());
    if (s % stride == 0) {
      trace.time_s.push_back(sim.time());
      trace.gips.push_back(gips);
      trace.peak_temp_c.push_back(sim.PeakDieTemp());
      trace.power_w.push_back(total_power);
    }
  }
  tally.Finish(steps, duration_s, &trace);
  return trace;
}

BoostTrace BoostingSimulator::RunPerInstanceBoosting(
    std::size_t start_level, double threshold_c, double power_cap_w,
    double duration_s, double control_period_s) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  return RunBoostLoop(
      start_level, instances_, duration_s, control_period_s,
      [&](const ControlPeriod& p) {
        // Per-domain control from each domain's hottest core.
        const double total_now = CorePowers(p.levels, p.die_temps, {});
        for (std::size_t d = 0; d < instances_; ++d) {
          double hottest = 0.0;
          for (std::size_t t = 0; t < threads_; ++t)
            hottest =
                std::max(hottest, p.die_temps[active_set_[d * threads_ + t]]);
          if (hottest >= threshold_c) {
            p.levels[d] = ladder.StepDown(p.levels[d]);
          } else if (total_now < power_cap_w) {
            p.levels[d] = ladder.StepUp(p.levels[d]);
          }
        }
      });
}

BoostTrace BoostingSimulator::RunRaplBoosting(std::size_t start_level,
                                              double pl1_w, double pl2_w,
                                              double tau_s,
                                              double threshold_c,
                                              double duration_s,
                                              double control_period_s) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  const double alpha = control_period_s / tau_s;  // EWMA coefficient
  double ewma = 0.0;
  return RunBoostLoop(
      start_level, 1, duration_s, control_period_s,
      [&](const ControlPeriod& p) {
        std::size_t& level = p.levels[0];
        // Package power EWMA: seeded from the warm-start state, then
        // fed each period's power.
        if (p.index == 0)
          ewma = CorePowers(p.levels, p.die_temps, {});
        else
          ewma += alpha * (p.last_power_w - ewma);
        // Control: thermal backstop first, then the power-limit logic.
        if (p.peak_c > threshold_c || ewma > pl1_w) {
          level = ladder.StepDown(level);
        } else {
          const std::size_t up = ladder.StepUp(level);
          // Bursts may reach PL2.
          if (up != level && CorePowersAt(up, p.die_temps, {}) <= pl2_w)
            level = up;
        }
      });
}

BoostingSimulator::QuasiSteadyBoost BoostingSimulator::EstimateBoosting(
    double threshold_c, double power_cap_w) const {
  QuasiSteadyBoost out;
  // Highest level whose steady peak stays at or below the threshold.
  // The last level the bisection finds safe is that level, so the
  // predicate keeps its estimate.
  Estimate base;
  const std::size_t safe = SafePrefix([&](const Estimate& e) {
    const bool ok =
        e.peak_temp_c <= threshold_c && e.total_power_w <= power_cap_w;
    if (ok) base = e;
    return ok;
  });
  // With no safe level the controller pins the floor.
  if (safe == 0) base = SteadyAtLevel(0);
  const std::size_t base_level = safe == 0 ? 0 : safe - 1;
  out.base_level = base_level;

  const std::size_t up = platform_->ladder().StepUp(base_level);
  if (up == base_level) {
    out.avg_gips = GipsAtLevel(base_level);
    out.avg_power_w = out.peak_power_w = base.total_power_w;
    return out;
  }
  Estimate boosted;
  bool boosted_ok = true;
  try {
    boosted = SteadyAtLevel(up);
  } catch (const std::runtime_error&) {
    boosted_ok = false;  // runaway at the boosted level: never boost
  }
  if (!boosted_ok || boosted.total_power_w > power_cap_w) {
    out.avg_gips = GipsAtLevel(base_level);
    out.avg_power_w = out.peak_power_w = base.total_power_w;
    return out;
  }
  const double denom = boosted.peak_temp_c - base.peak_temp_c;
  const double d =
      denom <= 1e-9
          ? 1.0
          : std::clamp((threshold_c - base.peak_temp_c) / denom, 0.0, 1.0);
  out.boosted = d > 0.0;
  out.duty = d;
  out.avg_gips =
      (1.0 - d) * GipsAtLevel(base_level) + d * GipsAtLevel(up);
  out.avg_power_w =
      (1.0 - d) * base.total_power_w + d * boosted.total_power_w;
  out.peak_power_w = boosted.total_power_w;
  return out;
}

double BoostingSimulator::CorePowers(std::span<const std::size_t> levels,
                                     std::span<const double> die_temps,
                                     std::span<double> powers) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  const power::PowerModel& pm = platform_->power_model();
  // One level drives every domain under chip-wide DVFS.
  const bool chip_wide = levels.size() == 1;
  double total = 0.0;
  for (std::size_t c = 0; c < domain_of_.size(); ++c) {
    const std::size_t d = domain_of_[c];
    double p;
    if (d == instances_) {
      p = pm.DarkCorePower(die_temps[c]);
    } else {
      const power::VfLevel& vf = ladder[levels[chip_wide ? 0 : d]];
      p = pm.TotalPower(activity_, app_->ceff22_nf, app_->pind22, vf.vdd,
                        vf.freq, die_temps[c]);
    }
    if (!powers.empty()) powers[c] = p;
    total += p;
  }
  return total;
}

double BoostingSimulator::GipsAt(std::span<const std::size_t> levels) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  const bool chip_wide = levels.size() == 1;
  double gips = 0.0;
  for (std::size_t d = 0; d < instances_; ++d) {
    const power::VfLevel& vf = ladder[levels[chip_wide ? 0 : d]];
    gips += app_->InstanceGips(threads_, vf.freq);
  }
  return gips;
}

BoostTrace BoostingSimulator::RunConstant(std::size_t level,
                                          double duration_s) const {
  // At a fixed level the trajectory starting from its own steady state
  // is constant; evaluate once and synthesize the (flat) trace.
  const Estimate e = SteadyAtLevel(level);
  const double gips = GipsAtLevel(level);
  BoostTrace trace;
  const std::size_t samples =
      static_cast<std::size_t>(std::lround(duration_s / 1e-3));
  const std::size_t stride = std::max<std::size_t>(1, samples / 1000);
  for (std::size_t s = 0; s < samples; s += stride) {
    trace.time_s.push_back(static_cast<double>(s) * 1e-3);
    trace.gips.push_back(gips);
    trace.peak_temp_c.push_back(e.peak_temp_c);
    trace.power_w.push_back(e.total_power_w);
  }
  trace.avg_gips = gips;
  trace.avg_power_w = e.total_power_w;
  trace.max_power_w = e.total_power_w;
  trace.max_temp_c = e.peak_temp_c;
  trace.duration_s = duration_s;
  trace.energy_j = e.total_power_w * duration_s;
  return trace;
}

std::size_t BoostingSimulator::NextBoostLevel(
    std::size_t level, double peak_c, std::span<const double> die_temps,
    double threshold_c, double power_cap_w) const {
  const power::DvfsLadder& ladder = platform_->ladder();
  if (peak_c >= threshold_c) return ladder.StepDown(level);
  const std::size_t up = ladder.StepUp(level);
  if (up == level) return level;
  // Respect the electrical power constraint at the higher level.
  return CorePowersAt(up, die_temps, {}) <= power_cap_w ? up : level;
}

BoostTrace BoostingSimulator::RunBoosting(std::size_t start_level,
                                          double threshold_c,
                                          double power_cap_w,
                                          double duration_s,
                                          double control_period_s) const {
  DS_TELEM_SPAN_ARG("controller", "boosting_run",
                    ds::telemetry::TraceLevel::kSpan, "duration_s",
                    duration_s);
  const power::DvfsLadder& ladder = platform_->ladder();
  return RunBoostLoop(
      start_level, 1, duration_s, control_period_s,
      [&](const ControlPeriod& p) {
        std::size_t& level = p.levels[0];
        const std::size_t prev_level = level;
        level = NextBoostLevel(level, p.peak_c, p.die_temps, threshold_c,
                               power_cap_w);
        if (level != prev_level) {
          DS_TELEM_COUNT("boost.level_changes", 1);
          ds::telemetry::EmitInstant(
              "controller", level > prev_level ? "boost_up" : "boost_down",
              ds::telemetry::TraceLevel::kDecision, "freq_ghz",
              ladder[level].freq, "sim_time_s", p.time_s);
        }
      });
}

}  // namespace ds::core
