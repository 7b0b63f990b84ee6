//! Observability-layer invariants (polytrace v2): histogram algebra
//! (property-based), timeline well-formedness and span reconciliation on
//! the stencil and on Rodinia `backprop` — with the exported Chrome JSON and
//! the timeline's time order checked — a replay traced like a live run,
//! partition-merge exactness, the live heartbeat on a shared budget, and the
//! `Off`/`Counters` no-new-sections pin.

mod common;

use common::stencil;
use polyprof_core::polytrace::{validate_json, Counter, Histogram, Stage, TraceEventKind};
use polyprof_core::{profile_with, MetricsLevel, ProfileConfig, ResourceBudget};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn trace_run(prog: &polyprof_core::polyir::Program) -> polyprof_core::Report {
    profile_with(
        prog,
        &ProfileConfig::new().with_metrics(MetricsLevel::Trace),
    )
}

// ---------------------------------------------------------------------------
// Histogram algebra (property-based)
// ---------------------------------------------------------------------------

fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// Full-spread `u64` sample vectors (the vendored proptest implements
/// `Strategy` for `u32` ranges; a splitmix-style multiply scatters those
/// across all 64 bits, hitting every histogram octave).
fn u64_vec(size: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u32..u32::MAX).prop_map(|v| (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        size,
    )
}

proptest! {
    /// Merge is associative and commutative: any merge tree over any
    /// partition of a stream equals the single-histogram result — this is
    /// what makes thread-local histograms mergeable into the collector.
    #[test]
    fn hist_merge_associative_commutative(
        a in u64_vec(0..40),
        b in u64_vec(0..40),
        c in u64_vec(0..40),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut ab_c = ha.clone();
        ab_c.merge(&hb);
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // a ⊔ b == b ⊔ a
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // and both equal the single-stream histogram
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&ab_c, &hist_of(&all));
    }

    /// Percentiles are bounded by the recorded extrema and ordered:
    /// min ≤ p50 ≤ p90 ≤ p99 ≤ max.
    #[test]
    fn hist_percentiles_bounded_and_monotone(
        vals in u64_vec(1..200),
    ) {
        let h = hist_of(&vals);
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        let (p50, p90, p99) = (h.percentile(0.50), h.percentile(0.90), h.percentile(0.99));
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        prop_assert!(lo <= p50 && p50 <= p90 && p90 <= p99 && p99 <= hi,
            "min {lo} p50 {p50} p90 {p90} p99 {p99} max {hi}");
    }
}

/// Zero- and one-sample edge cases have exact, non-panicking answers.
#[test]
fn hist_zero_and_one_sample_edges() {
    let empty = Histogram::new();
    assert!(empty.is_empty());
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.min(), 0);
    assert_eq!(empty.max(), 0);
    assert_eq!(empty.percentile(0.50), 0);
    assert_eq!(empty.percentile(0.99), 0);

    let one = hist_of(&[42_000_000_007]);
    assert_eq!(one.count(), 1);
    // A single sample IS every percentile, exactly (bucket width clamped
    // to the recorded min/max).
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(one.percentile(q), 42_000_000_007, "q={q}");
    }
}

/// The acceptance criterion, directly: split one event stream across K
/// parts, record a histogram per part, merge — identical to the single
/// histogram of the unsplit stream, for every K.
#[test]
fn shard_partitioned_histograms_merge_exactly() {
    let stream: Vec<u64> = (0u64..5000)
        .map(|i| i.wrapping_mul(2654435761) >> 13)
        .collect();
    let single = hist_of(&stream);
    for k in [1usize, 2, 4, 7] {
        let mut parts = vec![Histogram::new(); k];
        for (i, &v) in stream.iter().enumerate() {
            parts[i % k].record(v);
        }
        let mut merged = Histogram::new();
        for s in &parts {
            merged.merge(s);
        }
        assert_eq!(merged, single, "k={k}");
    }
}

// ---------------------------------------------------------------------------
// Timeline well-formedness + counter reconciliation
// ---------------------------------------------------------------------------

/// At `Trace`, on the stencil and on the Rodinia `backprop` fixture: the
/// timeline is non-empty and in time order as recorded (nothing sorts it),
/// begin/end events obey stack discipline (every end closes the matching
/// innermost begin), the spans reconcile **exactly** with the stage slots —
/// one begin/end pair for each stage that recorded time, none for a stage
/// that did not — and the Chrome export is valid JSON.
#[test]
fn timeline_well_formed_and_reconciles() {
    let runs = [
        ("stencil", trace_run(&stencil(6, 40))),
        ("backprop", trace_run(&rodinia::backprop::build().program)),
    ];
    for (name, r) in runs {
        let m = r.metrics.as_ref().expect("Trace run has metrics");
        assert!(!m.timeline.is_empty(), "{name}: empty timeline");
        assert!(
            m.timeline.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "{name}: timeline out of time order"
        );

        // Stack discipline.
        let mut stack: Vec<&str> = Vec::new();
        for ev in &m.timeline {
            match ev.kind {
                TraceEventKind::Begin => stack.push(ev.name),
                TraceEventKind::End => {
                    let open = stack.pop();
                    assert_eq!(
                        open,
                        Some(ev.name),
                        "{name}: end {:?} closes {open:?}",
                        ev.name
                    );
                }
                TraceEventKind::Instant => {}
            }
        }
        assert!(stack.is_empty(), "{name}: left open: {stack:?}");

        // Timeline ↔ stage slots: two views of one run.
        for s in Stage::ALL {
            let ran = u64::from(m.stage(s) > 0);
            for kind in [TraceEventKind::Begin, TraceEventKind::End] {
                assert_eq!(
                    m.timeline_count(s.name(), kind),
                    ran,
                    "{name}: {} {kind:?} spans vs its stage slot",
                    s.name()
                );
            }
        }
        assert_eq!(m.timeline_count("profile", TraceEventKind::Begin), 1);
        assert_eq!(m.timeline_count("finalize", TraceEventKind::Begin), 1);

        // The Chrome export exists exactly at Trace, is one well-formed JSON
        // value and carries the events.
        let json = r.timeline_json().expect("Trace exports a timeline");
        validate_json(&json).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    }
}

/// A replay is traced like a live run: the same stage spans, in the same
/// order, and the same count of folded events.
#[test]
fn replay_is_traced_like_a_live_run() {
    let prog = stencil(6, 40);
    let path = std::env::temp_dir().join(format!(
        "polyprof_timeline_{}_replay.ptrace",
        std::process::id()
    ));
    let traced = ProfileConfig::new().with_metrics(MetricsLevel::Trace);
    let live = profile_with(&prog, &traced.clone().with_record_to(&path));
    let replayed = profile_with(&prog, &traced.with_replay_from(&path));
    std::fs::remove_file(&path).ok();
    let spans = |r: &polyprof_core::Report| -> Vec<(&'static str, TraceEventKind)> {
        let m = r.metrics.as_ref().expect("Trace run has metrics");
        m.timeline
            .iter()
            .filter(|ev| ev.kind != TraceEventKind::Instant)
            .map(|ev| (ev.name, ev.kind))
            .collect()
    };
    assert!(!spans(&live).is_empty());
    assert_eq!(spans(&live), spans(&replayed));
    let folded =
        |r: &polyprof_core::Report| r.metrics.as_ref().unwrap().counter(Counter::EventsFolded);
    assert!(folded(&live) > 0);
    assert_eq!(folded(&live), folded(&replayed));
}

/// `Trace` runs populate the latency histogram they feed: the VM's sampled
/// dispatch time, no more samples than dispatches, and none below `Trace`.
#[test]
fn trace_run_populates_latency_histograms() {
    let r = trace_run(&stencil(6, 40));
    let m = r.metrics.as_ref().unwrap();
    let dispatch = m.dispatch_ns.as_ref().expect("dispatch histogram");
    let dispatches: u64 = m.vm_ops.iter().map(|(_, n)| n).sum();
    assert!(dispatch.count() > 0, "no dispatch sampled");
    assert!(
        dispatch.count() <= dispatches,
        "{} samples",
        dispatch.count()
    );

    let timing = ProfileConfig::new().with_metrics(MetricsLevel::Timing);
    let t = profile_with(&stencil(6, 40), &timing);
    let t = t.metrics.as_ref().unwrap();
    assert!(t.dispatch_ns.as_ref().is_some_and(Histogram::is_empty));
}

// ---------------------------------------------------------------------------
// Live progress: the heartbeat on a shared budget
// ---------------------------------------------------------------------------

/// Watching a run takes none of its threads and no knob but the budget it
/// shares: for the live and for the replay source, a second thread
/// reading `ResourceBudget::progress()` sees the run move while it runs —
/// never backwards, never past what the run finally did. A replay executes
/// no instructions, so only its event count moves.
#[test]
fn shared_budget_heartbeat_is_live_for_every_source_and_target() {
    let prog = rodinia::paper_examples::fig6_kernel(192, 160);
    let path = std::env::temp_dir().join(format!(
        "polyprof_timeline_{}_heartbeat.ptrace",
        std::process::id()
    ));
    profile_with(&prog, &ProfileConfig::new().with_record_to(&path));
    let inputs = [
        ("live", ProfileConfig::new()),
        ("replay", ProfileConfig::new().with_replay_from(&path)),
    ];
    for (name, cfg) in inputs {
        let live = cfg.replay_from.is_none();
        let budget = Arc::new(ResourceBudget::new(None, None));
        let cfg = cfg.with_shared_budget(Arc::clone(&budget));
        let done = AtomicBool::new(false);
        let (report, seen) = std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut seen = vec![budget.progress()];
                while !done.load(Ordering::Acquire) {
                    let now = budget.progress();
                    if seen.last() != Some(&now) {
                        seen.push(now);
                    }
                    std::thread::yield_now();
                }
                seen
            });
            let report = profile_with(&prog, &cfg);
            done.store(true, Ordering::Release);
            (report, watcher.join().expect("watcher"))
        });
        let (ops, events) = budget.progress();
        assert!(
            seen.windows(2)
                .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
            "{name}: went backwards: {seen:?}"
        );
        // Strictly between nothing and the last beat: read mid-run.
        assert!(
            seen.iter()
                .any(|&(o, e)| 0 < e && e < events && (o > 0) == live),
            "{name}: no mid-run sample in {seen:?}"
        );
        assert!(
            !report.degradation.is_degraded(),
            "{name}: watched, not bounded"
        );
        assert!(ops <= report.folded_stats.2, "{name}: {ops} ops");
        assert_eq!(ops > 0, live, "{name}");
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Perturbation-free lower tiers
// ---------------------------------------------------------------------------

/// `Counters` output must not grow any of the new `Timing`+/`Trace`-only
/// sections: no histograms, no VM profile, no timeline — the JSON and the
/// report text stay byte-compatible with pre-v2 output.
#[test]
fn counters_level_is_free_of_v2_sections() {
    let prog = stencil(6, 40);
    let cfg = ProfileConfig::new().with_metrics(MetricsLevel::Counters);
    let r = profile_with(&prog, &cfg);
    let m = r.metrics.as_ref().unwrap();
    assert!(m.dispatch_ns.is_none());
    assert!(m.vm_ops.is_empty());
    assert!(m.timeline.is_empty());
    assert!(r.timeline_json().is_none());
    let json = r.metrics_json().unwrap();
    for key in ["\"histograms\"", "\"vm_ops\"", "\"trace_events\""] {
        assert!(!json.contains(key), "{key} leaked into Counters JSON");
    }
    assert!(!r.full_text.contains("VM profile"));

    // Timing gains the VM profile + histograms; Trace gains the timeline.
    let t = profile_with(&prog, &cfg.clone().with_metrics(MetricsLevel::Timing));
    assert!(t.full_text.contains("VM profile"));
    assert!(t.metrics_json().unwrap().contains("\"histograms\""));
    assert!(t.timeline_json().is_none(), "Timing must not trace");
}
