//! Service-level telemetry for a long-running profiling server.
//!
//! A [`Collector`](crate::Collector) meters *one* profiling run; a service
//! runs thousands of them. [`ServiceStats`] is the fleet-level layer: shared
//! relaxed-atomic counters for the admission controller (submissions,
//! structured rejections, cache traffic and evictions, watchdog kills) plus
//! two merged [`Histogram`]s — how long sessions waited in the run queue, and
//! how long they took wall-clock end to end. All recording paths are lock-free except
//! the two histogram records, which take an uncontended mutex per *session*
//! (not per event), so the per-event hot paths of the underlying runs are
//! untouched.
//!
//! [`ServiceStats::to_json`] is the stable-keyed object the server's
//! `metrics` op answers with.

use crate::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One named service counter. Kept as a plain enum (not `Counter`) so the
/// per-run collector's fixed slot array and its reconciliation invariants
/// stay untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ServiceCounter {
    /// Submissions that reached the admission controller (any verdict).
    Submitted = 0,
    /// Submissions admitted: queued for a worker, or answered from the
    /// folded-DDG cache at admission without queueing.
    Admitted = 1,
    /// Structured `overloaded` rejections: the bounded run queue was full.
    RejectedQueueFull = 2,
    /// Structured `overloaded` rejections: the tenant's token bucket was dry.
    RejectedRateLimited = 3,
    /// Malformed / unserviceable requests answered with a structured error.
    RejectedBadRequest = 4,
    /// Sessions that completed with a clean (undegraded) report.
    CompletedClean = 5,
    /// Sessions that completed with a degraded report (faults, budget
    /// pressure, deadline — still a valid report).
    CompletedDegraded = 6,
    /// Sessions that failed — a pipeline error, a pass-2 `StagePanic`
    /// among them, or a panic; answered with a structured error, server
    /// kept serving.
    SessionsPanicked = 7,
    /// Sessions served from the folded-DDG cache without folding, at
    /// admission or by the worker that popped them.
    CacheHits = 8,
    /// Sessions that waited on an identical in-flight fold (single-flight)
    /// instead of folding the same trace again.
    SingleFlightWaits = 9,
    /// Wedged sessions the watchdog cancelled past their deadline grace.
    WatchdogCancels = 10,
    /// Cached results dropped, least recently hit first, to keep the
    /// folded-DDG cache under its byte cap.
    CacheEvictions = 11,
}

/// Number of [`ServiceCounter`] slots.
pub const N_SERVICE_COUNTERS: usize = 12;

impl ServiceCounter {
    /// All counters, in report order.
    pub const ALL: [ServiceCounter; N_SERVICE_COUNTERS] = [
        ServiceCounter::Submitted,
        ServiceCounter::Admitted,
        ServiceCounter::RejectedQueueFull,
        ServiceCounter::RejectedRateLimited,
        ServiceCounter::RejectedBadRequest,
        ServiceCounter::CompletedClean,
        ServiceCounter::CompletedDegraded,
        ServiceCounter::SessionsPanicked,
        ServiceCounter::CacheHits,
        ServiceCounter::SingleFlightWaits,
        ServiceCounter::WatchdogCancels,
        ServiceCounter::CacheEvictions,
    ];

    /// Stable snake_case name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            ServiceCounter::Submitted => "submitted",
            ServiceCounter::Admitted => "admitted",
            ServiceCounter::RejectedQueueFull => "rejected_queue_full",
            ServiceCounter::RejectedRateLimited => "rejected_rate_limited",
            ServiceCounter::RejectedBadRequest => "rejected_bad_request",
            ServiceCounter::CompletedClean => "completed_clean",
            ServiceCounter::CompletedDegraded => "completed_degraded",
            ServiceCounter::SessionsPanicked => "sessions_panicked",
            ServiceCounter::CacheHits => "cache_hits",
            ServiceCounter::SingleFlightWaits => "single_flight_waits",
            ServiceCounter::WatchdogCancels => "watchdog_cancels",
            ServiceCounter::CacheEvictions => "cache_evictions",
        }
    }
}

/// Fleet-level counters and latency distributions of one server instance.
#[derive(Debug, Default)]
pub struct ServiceStats {
    counters: [AtomicU64; N_SERVICE_COUNTERS],
    /// Time admitted sessions spent queued before a worker picked them (ns).
    queue_wait: Mutex<Histogram>,
    /// End-to-end session wall time, admission to final frame (ns).
    session_wall: Mutex<Histogram>,
}

impl ServiceStats {
    /// Fresh all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by `n`.
    pub fn add(&self, c: ServiceCounter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, c: ServiceCounter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record how long one admitted session waited in the run queue.
    pub fn record_queue_wait_ns(&self, ns: u64) {
        self.queue_wait.lock().unwrap().record(ns);
    }

    /// Record one session's end-to-end wall time.
    pub fn record_session_wall_ns(&self, ns: u64) {
        self.session_wall.lock().unwrap().record(ns);
    }

    /// Snapshot of the queue-wait distribution.
    pub fn queue_wait(&self) -> Histogram {
        self.queue_wait.lock().unwrap().clone()
    }

    /// Snapshot of the session wall-time distribution.
    pub fn session_wall(&self) -> Histogram {
        self.session_wall.lock().unwrap().clone()
    }

    /// Structured rejections of either overload kind.
    pub fn rejections(&self) -> u64 {
        self.get(ServiceCounter::RejectedQueueFull) + self.get(ServiceCounter::RejectedRateLimited)
    }

    /// Stable-keyed JSON object: every counter plus both histogram
    /// summaries. This is the body of the server's `metrics` frame.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for c in ServiceCounter::ALL {
            s.push_str(&format!("\"{}\": {}, ", c.name(), self.get(c)));
        }
        s.push_str(&format!(
            "\"queue_wait_ns\": {}, \"session_wall_ns\": {}}}",
            self.queue_wait().to_json(),
            self.session_wall().to_json()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_name_stably() {
        let s = ServiceStats::new();
        s.add(ServiceCounter::Submitted, 3);
        s.add(ServiceCounter::RejectedQueueFull, 1);
        s.add(ServiceCounter::RejectedRateLimited, 2);
        assert_eq!(s.get(ServiceCounter::Submitted), 3);
        assert_eq!(s.rejections(), 3);
        let j = s.to_json();
        assert!(j.contains("\"submitted\": 3"), "{j}");
        assert!(j.contains("\"rejected_queue_full\": 1"), "{j}");
        // Every counter name appears exactly once.
        for c in ServiceCounter::ALL {
            assert_eq!(j.matches(&format!("\"{}\"", c.name())).count(), 1, "{j}");
        }
    }

    #[test]
    fn histograms_summarize_in_json() {
        let s = ServiceStats::new();
        for ns in [100u64, 200, 400, 800] {
            s.record_queue_wait_ns(ns);
            s.record_session_wall_ns(ns * 10);
        }
        assert_eq!(s.queue_wait().count(), 4);
        assert_eq!(s.session_wall().max(), 8000);
        let j = s.to_json();
        assert!(j.contains("\"queue_wait_ns\": {\"count\": 4"), "{j}");
        assert!(j.contains("\"session_wall_ns\": {\"count\": 4"), "{j}");
    }
}
