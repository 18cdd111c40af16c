// End-of-run summary for the closed-loop simulations: what happened,
// in one screen, instead of silence on success. Populated by the CLI
// from the simulation result plus (when telemetry is enabled) the
// metrics registry, so it works -- with fewer lines -- even when
// telemetry is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace ds::telemetry {

struct RunSummary {
  std::string title = "run summary";

  double sim_time_s = 0.0;
  double wall_time_s = 0.0;
  std::size_t epochs = 0;
  std::size_t control_steps = 0;

  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_requeued = 0;

  double peak_temp_c = 0.0;
  double time_above_tdtm_s = 0.0;
  double avg_gips = 0.0;
  double avg_power_w = 0.0;

  std::size_t sensor_fallbacks = 0;
  std::size_t solver_retries = 0;
  std::size_t cores_failed = 0;
  double safe_state_s = 0.0;

  // Registry-derived extras; zero when telemetry is disabled.
  std::uint64_t lu_solves = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_events_dropped = 0;

  // Sweep resilience (sweep.* counters / filled by the sweep CLI from
  // SweepStats): retried attempts, watchdog timeouts, jobs retired to
  // quarantine after exhausting their retry budget.
  std::uint64_t sweep_retries = 0;
  std::uint64_t sweep_timeouts = 0;
  std::uint64_t sweep_quarantined = 0;

  // Lockstep batching (thermal.batch.* counters): cohorts formed and
  // the jobs they carried, panel passes split by width (GEMM-shaped
  // k >= 2 vs the k = 1 GEMV-shaped scalar lane, in member-steps),
  // and members detached from a cohort back to the scalar retry ladder.
  std::uint64_t batch_cohorts = 0;
  std::uint64_t batch_cohort_members = 0;
  std::uint64_t batch_gemm_steps = 0;
  std::uint64_t batch_gemv_steps = 0;
  std::uint64_t batch_detached = 0;

  // ModelCache budget accounting (modelcache.* counter/gauge): entries
  // evicted to fit the byte budget and the approximate resident bytes
  // after the last request.
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;

  // Sweep job accounting (filled by the sweep CLI from SweepStats;
  // independent of the telemetry gate).
  std::size_t sweep_jobs_total = 0;
  std::size_t sweep_jobs_executed = 0;
  std::size_t sweep_jobs_resumed = 0;
  std::size_t sweep_jobs_failed = 0;

  // Journal recovery accounting (filled from SweepStats): CRC-failed
  // records skipped, torn-tail bytes truncated, duplicate job records
  // dropped last-record-wins on resume. Previously these surfaced only
  // as stderr notes; the summary (and its JSON form) is the durable
  // record.
  std::uint64_t journal_corrupt_records = 0;
  std::uint64_t journal_truncated_bytes = 0;
  std::uint64_t journal_dedup_drops = 0;

  /// Fills lu_solves/trace_events*/kernel-path counts from the live
  /// registry and trace collector (no-op values when telemetry is
  /// disabled).
  void CollectTelemetry();

  void Print(std::ostream& os) const;

  /// Machine-readable form (--summary-json): one flat JSON object with
  /// every field, including zeros, so downstream join tools (ds_report)
  /// never have to guess whether a counter was absent or zero.
  void WriteJson(std::ostream& os) const;
};

}  // namespace ds::telemetry
