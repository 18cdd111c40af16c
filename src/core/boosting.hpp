// Boosting vs constant-frequency execution (Sec. 6, Figs. 11-13).
//
// Boosting follows Intel Turbo Boost's closed-loop control: every
// control period (1 ms) the peak core temperature is compared against
// the critical threshold and the chip-wide frequency moves one 200 MHz
// ladder step up or down. The constant-frequency baseline runs at the
// highest level whose *steady-state* peak temperature stays below the
// threshold (and whose power stays below the electrical budget), i.e.
// "a few degrees below critical due to the available v/f steps".
//
// The closed loops (chip-wide, per-instance, RAPL) share one driver,
// RunBoostLoop (warm start, stepping, BoostTally); only their decision
// rules differ.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "apps/app_profile.hpp"
#include "apps/workload.hpp"
#include "arch/platform.hpp"
#include "core/estimator.hpp"
#include "core/mapping.hpp"
#include "thermal/transient.hpp"

namespace ds::core {

/// Time series and aggregates of one transient run.
struct BoostTrace {
  std::vector<double> time_s;       // sampled once per control period
  std::vector<double> gips;
  std::vector<double> peak_temp_c;
  std::vector<double> power_w;
  double avg_gips = 0.0;
  double avg_power_w = 0.0;
  double max_power_w = 0.0;
  double max_temp_c = 0.0;
  double energy_j = 0.0;
  double duration_s = 0.0;
};

/// Per-period accumulation of a boost loop into a BoostTrace's
/// aggregates. BoostingSimulator's loops and the batched boost_transient
/// runner (runtime/scenarios.cpp) both tally through it.
class BoostTally {
 public:
  /// One control period of `period_s` at `gips` under `power_w` total.
  void AddPeriod(double gips, double power_w, double period_s);
  /// Folds a peak die temperature into max_temp_c.
  void AddPeak(double peak_c);
  /// Writes the aggregates of `periods` periods lasting `duration_s` in
  /// total into `trace` (its time series are left alone).
  void Finish(std::size_t periods, double duration_s,
              BoostTrace* trace) const;

 private:
  double gips_acc_ = 0.0;
  double energy_j_ = 0.0;
  double max_power_w_ = 0.0;
  double max_temp_c_ = 0.0;
};

/// Simulates a homogeneous workload (m instances of one application,
/// n threads each) under chip-wide DVFS control.
class BoostingSimulator {
 public:
  /// Throws std::invalid_argument if the instances do not fit the chip.
  BoostingSimulator(const arch::Platform& platform,
                    const apps::AppProfile& app, std::size_t instances,
                    std::size_t threads,
                    MappingPolicy policy = MappingPolicy::kContiguous);

  /// Constant chip-wide level for `duration_s`, starting from the
  /// steady state of that level (the paper's steady traces).
  BoostTrace RunConstant(std::size_t level, double duration_s) const;

  /// Closed-loop boosting around `threshold_c`: one ladder step per
  /// control period, never exceeding `power_cap_w` (the paper's 500 W
  /// electrical constraint). Starts from the steady state of
  /// `start_level`.
  BoostTrace RunBoosting(std::size_t start_level, double threshold_c,
                         double power_cap_w, double duration_s,
                         double control_period_s = 1e-3) const;

  /// Quasi-steady boosting estimate: the closed-loop controller settles
  /// into an oscillation between the highest thermally safe level L and
  /// L+1; its long-run averages follow from the duty cycle d at which
  /// the power mix d*P(L+1) + (1-d)*P(L) pins the steady peak exactly
  /// at the threshold. Orders of magnitude faster than the transient
  /// run and accurate once the package has warmed up -- used for the
  /// Fig. 12/13 sweeps, and validated against RunBoosting in the tests.
  /// L is found like MaxSafeConstantLevel's level (same monotonicity
  /// contract, O(log levels) steady solves), with peak <= `threshold_c`
  /// in place of T_DTM; if no level qualifies, L is the ladder floor.
  struct QuasiSteadyBoost {
    double avg_gips = 0.0;
    double avg_power_w = 0.0;
    double peak_power_w = 0.0;  // power at the boosted level
    double duty = 0.0;          // fraction of time at L+1
    std::size_t base_level = 0;
    bool boosted = false;       // false if already at ladder top / cap
  };
  QuasiSteadyBoost EstimateBoosting(double threshold_c,
                                    double power_cap_w) const;

  /// Per-instance (per-voltage-domain) boosting: each application
  /// instance owns a DVFS domain and the controller steps it by its own
  /// hottest core, instead of the paper's single chip-wide step. Cooler
  /// domains (die-edge instances) can hold boost levels the chip-wide
  /// loop must give up, so this quantifies what finer-grained DVFS
  /// hardware buys under the same thermal constraint.
  BoostTrace RunPerInstanceBoosting(std::size_t start_level,
                                    double threshold_c, double power_cap_w,
                                    double duration_s,
                                    double control_period_s = 1e-3) const;

  /// RAPL-style boosting (Sandy Bridge power architecture, paper ref
  /// [21]): the controller steps the frequency so that an exponentially
  /// weighted moving average of package power stays at PL1, while
  /// instantaneous power may burst to PL2. The thermal threshold still
  /// backstops the loop (a violation forces a step down). `tau_s` is
  /// the averaging window.
  BoostTrace RunRaplBoosting(std::size_t start_level, double pl1_w,
                             double pl2_w, double tau_s, double threshold_c,
                             double duration_s,
                             double control_period_s = 1e-3) const;

  /// Highest ladder level (<= ladder max) whose steady state satisfies
  /// peak temperature <= T_DTM and total power <= `power_cap_w`.
  /// Returns false if no level qualifies. Frequency rises strictly along
  /// the ladder and Vdd with it, so power, peak temperature and runaway
  /// only grow with the level: the safe levels are a prefix of the
  /// ladder, found by bisection in O(log levels) SteadyAtLevel solves.
  bool MaxSafeConstantLevel(double power_cap_w, std::size_t* level_out) const;

  /// Aggregate performance [GIPS] of the workload at a ladder level.
  double GipsAtLevel(std::size_t level) const;

  /// Per-core powers with every instance at `level` (chip-wide DVFS) at
  /// the given die temperatures (leakage feedback), written into
  /// `powers` (num_cores; empty: total only). Returns the total. The
  /// closed loops and the batched boost_transient runner step with it.
  double CorePowersAt(std::size_t level, std::span<const double> die_temps,
                      std::span<double> powers) const {
    return CorePowers({&level, 1}, die_temps, powers);
  }

  /// One Turbo-Boost control decision, taken from the state at the
  /// period start: step down when `peak_c` is at or above
  /// `threshold_c`; otherwise step up when the higher level's power at
  /// `die_temps` fits `power_cap_w`. Returns the next level. RunBoosting
  /// and the batched boost_transient runner both decide through this.
  std::size_t NextBoostLevel(std::size_t level, double peak_c,
                             std::span<const double> die_temps,
                             double threshold_c, double power_cap_w) const;

  /// Steady-state estimate at a ladder level (power, peak temperature).
  Estimate SteadyAtLevel(std::size_t level) const;

  std::size_t active_cores() const { return active_set_.size(); }

 private:
  /// A control period's state at its start, handed to a loop's decision
  /// rule, which updates `levels`: one per DVFS domain, or one for the
  /// whole chip.
  struct ControlPeriod {
    std::size_t index;
    double time_s;
    std::span<const double> die_temps;
    double peak_c;
    double last_power_w;  // total power of the previous period
    std::span<std::size_t> levels;
  };
  using ControlRule = std::function<void(const ControlPeriod&)>;

  /// Length of the ladder's safe prefix: the number of levels whose
  /// SteadyAtLevel estimate satisfies `safe`, found by bisection, so
  /// `safe` must be monotone (true below some level, false from it on).
  /// A level whose solve throws std::runtime_error (thermal runaway) is
  /// unsafe. The last level on which `safe` returns true is level
  /// (result - 1), so `safe` may keep that level's estimate.
  std::size_t SafePrefix(
      const std::function<bool(const Estimate&)>& safe) const;

  /// The one boost loop: warm start from the steady state of
  /// `start_level`, then `duration_s` of control periods under `rule`
  /// with `domains` levels (1 = chip-wide, instances_ = per instance).
  BoostTrace RunBoostLoop(std::size_t start_level, std::size_t domains,
                          double duration_s, double control_period_s,
                          const ControlRule& rule) const;

  /// Per-core powers of the domain `levels` (see ControlPeriod) into
  /// `powers` (or total only when empty); returns the total.
  double CorePowers(std::span<const std::size_t> levels,
                    std::span<const double> die_temps,
                    std::span<double> powers) const;
  /// Aggregate GIPS of the instances at the domain `levels`.
  double GipsAt(std::span<const std::size_t> levels) const;

  const arch::Platform* platform_;
  const apps::AppProfile* app_;
  std::size_t instances_;
  std::size_t threads_;
  double activity_;
  std::vector<std::size_t> active_set_;
  /// Instance (DVFS domain) of each core; instances_ marks a dark core.
  std::vector<std::size_t> domain_of_;
  DarkSiliconEstimator estimator_;
};

}  // namespace ds::core
