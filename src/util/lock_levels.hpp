// The repo-wide lock hierarchy, in one place.
//
// Rule: a thread holding a mutex at level L may only acquire mutexes
// at levels strictly below L. Every long-lived ds::Mutex declares its
// level at the construction site (`ds::Mutex mu_{locks::kEventBus};`);
// the ds_lint `lock-order` rule parses these declarations together
// with this table and flags any nested acquisition that does not
// strictly descend. The constants are consumed at lint time only --
// ds::Mutex discards the level at runtime.
//
// The numbering leaves gaps on purpose so a new subsystem can slot in
// without renumbering its neighbours. Current nesting chains this
// table encodes (outer -> inner):
//
//   kShutdown    -> kEventBus            (EventBus::Close publishes)
//   kShutdown    -> kHeartbeat           (Stop's final ReportOnce)
//   kShutdown    -> kNetConnections      (HttpServer::Stop drains conns)
//   kServiceRegistry -> kServiceSweep    (admission updates a sweep)
//   kServiceSweep -> kEventBus, kMetrics (row emission telemetry)
//   kSweepQueue   / kWatchdog / kModelCache are peers; never nested
//   kWatchdog    -> kCancelToken         (watchdog cancels an attempt)
//   kModelCache  -> kMetrics             (eviction bumps counters)
//   kPropagator  -> kMetrics             (build timers/counters)
//   kJournal / kChaosLog -> kMetrics, kEventBus (append-side telemetry)
//
// See DESIGN.md section 13 for the full table with owners.
#pragma once

namespace ds::locks {

/// Close()/Stop() serializers (EventBus::close_mu_,
/// HeartbeatReporter::stop_mu_, MetricsHttpServer::stop_mu_). These
/// are held across joins and may publish final events, so they sit
/// above everything else.
inline constexpr int kShutdown = 90;

/// SweepService admission queue + sweep registry
/// (SweepService::registry_mu_); above every per-sweep lock because
/// the scheduler holds it while transitioning a sweep's state.
inline constexpr int kServiceRegistry = 85;

/// Per-sweep streaming state -- row buffer, event log, subscriber
/// condvar (SweepService Sweep::mu).
inline constexpr int kServiceSweep = 75;

/// HttpServer connection-thread registry (HttpServer::conns_mu_);
/// below kShutdown because Stop() drains it.
inline constexpr int kNetConnections = 72;

/// Per-worker sweep deques (anonymous WorkerQueue::mu).
inline constexpr int kSweepQueue = 70;

/// Watchdog slot table (anonymous Watchdog::mu_).
inline constexpr int kWatchdog = 70;

/// ModelCache map + budget accounting (ModelCache::mu_).
inline constexpr int kModelCache = 70;

/// Per-entry TSP memo inside a cache entry (Entry::tsp_mu); taken
/// after ModelCache::mu_ is released, never beneath it.
inline constexpr int kModelCacheEntry = 60;

/// Thermal propagator cache (PropagatorSet::mu_).
inline constexpr int kPropagator = 60;

/// Journal append serialization (SweepEngine's journal_mu).
inline constexpr int kJournal = 50;

/// Chaos fault-log appends (SweepEngine's chaos_log_mu).
inline constexpr int kChaosLog = 50;

/// Event-bus ring + writer handshake (EventBus::mu_).
inline constexpr int kEventBus = 40;

/// Heartbeat reporter state (HeartbeatReporter::mu_).
inline constexpr int kHeartbeat = 40;

/// Metrics registry maps (MetricsRegistry::mu_).
inline constexpr int kMetrics = 30;

/// Trace buffer registry (trace.cpp BufferRegistry::mu).
inline constexpr int kTraceRegistry = 30;

/// Cancellation token (faults::CancelToken::mu_); a leaf -- nothing
/// is ever acquired beneath it.
inline constexpr int kCancelToken = 10;

}  // namespace ds::locks
