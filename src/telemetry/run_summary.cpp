#include "telemetry/run_summary.hpp"

#include <iomanip>
#include <ostream>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ds::telemetry {

void RunSummary::CollectTelemetry() {
  if (!Enabled()) return;
  lu_solves = Registry().GetCounter("lu.solves").value();
  trace_events = TotalTraceEvents();
  trace_events_dropped = TotalDroppedEvents();
  sweep_retries = Registry().GetCounter("sweep.retries").value();
  sweep_timeouts = Registry().GetCounter("sweep.job_timeouts").value();
  sweep_quarantined = Registry().GetCounter("sweep.quarantined").value();
  batch_cohorts = Registry().GetCounter("thermal.batch.cohorts").value();
  batch_cohort_members =
      Registry().GetCounter("thermal.batch.cohort_members").value();
  batch_gemm_steps = Registry().GetCounter("thermal.batch.gemm_steps").value();
  batch_gemv_steps = Registry().GetCounter("thermal.batch.gemv_steps").value();
  batch_detached = Registry().GetCounter("thermal.batch.detached").value();
  cache_evictions = Registry().GetCounter("modelcache.evictions").value();
  cache_bytes =
      static_cast<std::uint64_t>(Registry().GetGauge("modelcache.bytes").value());
}

void RunSummary::Print(std::ostream& os) const {
  const auto line = [&](const char* label, const auto& value,
                        const char* unit = "") {
    os << "  " << std::left << std::setw(22) << label << std::right
       << value << unit << "\n";
  };
  os << "-- " << title << " --\n";
  os << std::fixed << std::setprecision(2);
  line("simulated time", sim_time_s, " s");
  // Wall time is the one nondeterministic number; callers leave it at
  // zero (and we omit the line) when run-to-run diffable output
  // matters more than the measurement.
  if (wall_time_s > 0.0) line("wall time", wall_time_s, " s");
  if (epochs > 0) line("scheduler epochs", epochs);
  if (control_steps > 0) line("control steps", control_steps);
  line("jobs arrived", jobs_arrived);
  line("jobs completed", jobs_completed);
  if (jobs_requeued > 0) line("jobs requeued", jobs_requeued);
  line("avg GIPS", avg_gips);
  line("avg power", avg_power_w, " W");
  line("peak temperature", peak_temp_c, " C");
  line("time above T_DTM", 1e3 * time_above_tdtm_s, " ms");
  if (safe_state_s > 0.0) line("safe-state time", 1e3 * safe_state_s, " ms");
  if (sensor_fallbacks > 0) line("sensor fallbacks", sensor_fallbacks);
  if (solver_retries > 0) line("solver retries", solver_retries);
  if (cores_failed > 0) line("cores failed", cores_failed);
  if (lu_solves > 0) line("LU solves", lu_solves);
  if (sweep_retries > 0) line("sweep retries", sweep_retries);
  if (sweep_timeouts > 0) line("sweep timeouts", sweep_timeouts);
  if (sweep_quarantined > 0) line("jobs quarantined", sweep_quarantined);
  if (batch_cohorts > 0) {
    line("batch cohorts", batch_cohorts);
    line("batch cohort jobs", batch_cohort_members);
    line("batch mean k", static_cast<double>(batch_cohort_members) /
                             static_cast<double>(batch_cohorts));
  }
  if (batch_gemm_steps > 0) line("batch GEMM steps", batch_gemm_steps);
  if (batch_gemv_steps > 0) line("batch GEMV steps", batch_gemv_steps);
  if (batch_detached > 0) line("batch detached", batch_detached);
  if (journal_corrupt_records > 0)
    line("journal corrupt recs", journal_corrupt_records);
  if (journal_truncated_bytes > 0)
    line("journal torn bytes", journal_truncated_bytes);
  if (journal_dedup_drops > 0)
    line("journal dedup drops", journal_dedup_drops);
  if (cache_evictions > 0) line("cache evictions", cache_evictions);
  if (cache_bytes > 0)
    line("cache bytes", cache_bytes / (1024.0 * 1024.0), " MiB");
  if (trace_events > 0) line("trace events", trace_events);
  if (trace_events_dropped > 0)
    line("trace events dropped", trace_events_dropped);
  os.unsetf(std::ios::fixed);
}

void RunSummary::WriteJson(std::ostream& os) const {
  os.precision(17);
  bool first = true;
  const auto field = [&](const char* name, double value) {
    os << (first ? "\n  " : ",\n  ") << "\"" << name << "\": " << value;
    first = false;
  };
  os << "{";
  field("sim_time_s", sim_time_s);
  field("wall_time_s", wall_time_s);
  field("epochs", static_cast<double>(epochs));
  field("control_steps", static_cast<double>(control_steps));
  field("jobs_arrived", static_cast<double>(jobs_arrived));
  field("jobs_completed", static_cast<double>(jobs_completed));
  field("jobs_requeued", static_cast<double>(jobs_requeued));
  field("peak_temp_c", peak_temp_c);
  field("time_above_tdtm_s", time_above_tdtm_s);
  field("avg_gips", avg_gips);
  field("avg_power_w", avg_power_w);
  field("sensor_fallbacks", static_cast<double>(sensor_fallbacks));
  field("solver_retries", static_cast<double>(solver_retries));
  field("cores_failed", static_cast<double>(cores_failed));
  field("safe_state_s", safe_state_s);
  field("lu_solves", static_cast<double>(lu_solves));
  field("trace_events", static_cast<double>(trace_events));
  field("trace_events_dropped",
        static_cast<double>(trace_events_dropped));
  field("sweep_retries", static_cast<double>(sweep_retries));
  field("sweep_timeouts", static_cast<double>(sweep_timeouts));
  field("sweep_quarantined", static_cast<double>(sweep_quarantined));
  field("batch_cohorts", static_cast<double>(batch_cohorts));
  field("batch_cohort_members", static_cast<double>(batch_cohort_members));
  field("batch_gemm_steps", static_cast<double>(batch_gemm_steps));
  field("batch_gemv_steps", static_cast<double>(batch_gemv_steps));
  field("batch_detached", static_cast<double>(batch_detached));
  field("cache_evictions", static_cast<double>(cache_evictions));
  field("cache_bytes", static_cast<double>(cache_bytes));
  field("sweep_jobs_total", static_cast<double>(sweep_jobs_total));
  field("sweep_jobs_executed", static_cast<double>(sweep_jobs_executed));
  field("sweep_jobs_resumed", static_cast<double>(sweep_jobs_resumed));
  field("sweep_jobs_failed", static_cast<double>(sweep_jobs_failed));
  field("journal_corrupt_records",
        static_cast<double>(journal_corrupt_records));
  field("journal_truncated_bytes",
        static_cast<double>(journal_truncated_bytes));
  field("journal_dedup_drops",
        static_cast<double>(journal_dedup_drops));
  os << "\n}\n";
}

}  // namespace ds::telemetry
