//! Metrics-consistency invariants for the self-profiling telemetry layer
//! (`polytrace`): the counters harvested from the hot paths must agree with
//! each other and with the run's observable outputs, live and on replay, and
//! the whole layer must vanish at `MetricsLevel::Off`.

mod common;

use common::stencil;
use polyprof_core::polytrace::Counter;
use polyprof_core::{profile_with, MetricsLevel, ProfileConfig, Report, RunMetrics};

fn run(cfg: ProfileConfig, level: MetricsLevel) -> RunMetrics {
    profile_with(&stencil(6, 40), &cfg.with_metrics(level))
        .metrics
        .expect("metrics requested")
}

/// Pass 2 resolves shadow memory once per memory event: the shadow MRU sees
/// exactly one lookup for each (hits + misses == mem events) on a plain run
/// and under an armed plan that never fires.
#[test]
fn shadow_mru_accounts_for_every_memory_event() {
    use polyprof_core::polyresist::FaultPlan;
    use std::sync::Arc;

    let prog = stencil(6, 40);
    let unfired = Arc::new(FaultPlan::parse("panic:pre@999999999").unwrap());
    let base = ProfileConfig::new().with_metrics(MetricsLevel::Counters);
    for (what, cfg) in [
        ("plain", base.clone()),
        ("armed", base.with_fault_plan(unfired)),
    ] {
        let m = profile_with(&prog, &cfg).metrics.expect("counters on");
        let mem = m.counter(Counter::MemEvents);
        assert!(mem > 0, "{what}: no memory events");
        assert_eq!(
            m.counter(Counter::ShadowMruHit) + m.counter(Counter::ShadowMruMiss),
            mem,
            "{what}: shadow MRU lookups"
        );
    }
}

/// At `Timing` on a Rodinia workload, the sequential stage spans cover the
/// run: their sum lands within 10% of the measured wall time (the paper-
/// style "where did the time go" accounting must not leak whole stages).
#[test]
fn stage_times_sum_to_wall_time_on_rodinia() {
    let w = rodinia::backprop::build();
    let cfg = ProfileConfig::new().with_metrics(MetricsLevel::Timing);
    let m = profile_with(&w.program, &cfg).metrics.unwrap();
    assert!(m.total_ns > 0);
    let seq = m.sequential_ns();
    assert!(seq > 0, "no stage timed anything");
    assert!(
        seq <= m.total_ns,
        "stage sum {seq} exceeds wall {}",
        m.total_ns
    );
    assert!(
        seq as f64 >= 0.90 * m.total_ns as f64,
        "stages cover only {seq} of {} ns wall",
        m.total_ns
    );
}

/// The stage spans partition every run, whatever its source: `finalize` is
/// a stage of its own (never hidden inside `profile`), and the stage times
/// sum to no more than the wall time — also when heartbeats stall inside
/// `profile`.
#[test]
fn stage_spans_partition_every_source_and_target() {
    use polyprof_core::polyresist::FaultPlan;
    use polyprof_core::polytrace::Stage;
    use std::sync::Arc;

    let prog = stencil(6, 40);
    let path = std::env::temp_dir().join(format!(
        "polyprof_metrics_{}_partition.ptrace",
        std::process::id()
    ));
    profile_with(&prog, &ProfileConfig::new().with_record_to(&path));
    let base = ProfileConfig::new().with_metrics(MetricsLevel::Timing);
    let stalled = Arc::new(FaultPlan::parse("stall:beat@*;stall_ms=1").unwrap());
    for (what, cfg) in [
        ("live", base.clone()),
        ("replay", base.clone().with_replay_from(&path)),
        (
            "stalled replay",
            base.with_replay_from(&path).with_fault_plan(stalled),
        ),
    ] {
        let r = profile_with(&prog, &cfg);
        let m = r.metrics.as_ref().expect("metrics requested");
        assert!(m.stage(Stage::Profile) > 0, "{what}: profile not timed");
        assert!(m.stage(Stage::Finalize) > 0, "{what}: finalize not timed");
        assert!(
            m.sequential_ns() <= m.total_ns,
            "{what}: stage sum {} exceeds wall {}",
            m.sequential_ns(),
            m.total_ns
        );
    }
    std::fs::remove_file(&path).ok();
}

/// `Counters` must not read clocks: all span slots stay zero, while the
/// same tallies as `Timing` are still collected — the context cache among
/// them, consulted once per context-path lookup.
#[test]
fn counters_level_collects_tallies_but_no_clocks() {
    let m = run(ProfileConfig::new(), MetricsLevel::Counters);
    assert_eq!(m.sequential_ns(), 0);
    assert!(m.counter(Counter::EventsFolded) > 0);
    assert!(m.counter(Counter::CtxCacheHit) + m.counter(Counter::CtxCacheMiss) > 0);

    let t = run(ProfileConfig::new(), MetricsLevel::Timing);
    for c in [
        Counter::EventsFolded,
        Counter::CtxCacheHit,
        Counter::CtxCacheMiss,
    ] {
        assert_eq!(m.counter(c), t.counter(c), "{}", c.name());
    }
}

/// Records the stencil to a scratch `.ptrace` and replays it, both at
/// `Counters`: `(live, replayed, recording size in bytes)`.
fn record_and_replay(tag: &str) -> (Report, Report, u64) {
    let prog = stencil(6, 40);
    let path = std::env::temp_dir().join(format!(
        "polyprof_metrics_{}_{tag}.ptrace",
        std::process::id()
    ));
    let cfg = ProfileConfig::new().with_metrics(MetricsLevel::Counters);
    let live = profile_with(&prog, &cfg.clone().with_record_to(&path));
    let replayed = profile_with(&prog, &cfg.with_replay_from(&path));
    let size = std::fs::metadata(&path).expect("recording written").len();
    std::fs::remove_file(&path).ok();
    (live, replayed, size)
}

/// Counters are deterministic facts about the event stream, not about where
/// it came from: a live run and the replay of its recording agree on every
/// fold-side tally, and on what SCEV removal retired.
#[test]
fn counters_agree_between_live_and_replay() {
    let (live, replayed, _) = record_and_replay("agree");
    assert_eq!(live.scev_removed, replayed.scev_removed);
    assert!(
        live.scev_removed.0 > 0,
        "stencil retires its induction SCEVs"
    );
    let (live, replayed) = (live.metrics.unwrap(), replayed.metrics.unwrap());
    assert!(live.counter(Counter::EventsFolded) > 0);
    for c in [
        Counter::EventsFolded,
        Counter::DepsFolded,
        Counter::FoldPredicted,
        Counter::OverapproxStmts,
    ] {
        assert_eq!(
            live.counter(c),
            replayed.counter(c),
            "{} diverged",
            c.name()
        );
    }
}

/// Every counter is read: on a recording run of the stencil and on its
/// replay, each one holds a relation to another counter or to the report.
/// The `match` has no `_` arm, so a counter added without a reader does
/// not compile.
#[test]
fn every_counter_has_a_reader() {
    let (live_r, replay_r, file_bytes) = record_and_replay("readers");
    let (l, r) = (
        live_r.metrics.as_ref().unwrap(),
        replay_r.metrics.as_ref().unwrap(),
    );
    for c in Counter::ALL {
        let (lv, rv) = (l.counter(c), r.counter(c));
        let name = c.name();
        match c {
            // The VM runs live only; a replay executes nothing.
            Counter::DynOps => {
                assert_eq!(lv, live_r.folded_stats.2, "{name}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::MemEvents => {
                assert!(0 < lv && lv < l.counter(Counter::DynOps), "{name} {lv}");
                assert_eq!(rv, 0, "{name}");
            }
            // The fold sees the same stream from either source.
            Counter::EventsFolded => {
                assert!(lv >= l.counter(Counter::DynOps), "{name} {lv}");
                assert_eq!(lv, rv, "{name}");
            }
            Counter::DepsFolded | Counter::FoldPredicted => {
                assert!(lv <= l.counter(Counter::EventsFolded), "{name} {lv}");
                assert_eq!(lv, rv, "{name}");
            }
            // The context interner and the shadow memory live in the
            // profiler, which only the live source runs. Every instruction
            // and every memory event looks its context path up once.
            Counter::CtxCacheHit | Counter::CtxCacheMiss => {
                let lookups = l.counter(Counter::CtxCacheHit) + l.counter(Counter::CtxCacheMiss);
                let events = l.counter(Counter::DynOps) + l.counter(Counter::MemEvents);
                assert!(lv > 0 && lookups == events, "{name} {lookups} vs {events}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::CtxContentInterns => {
                assert!(
                    0 < lv && lv <= l.counter(Counter::CtxCacheMiss),
                    "{name} {lv}"
                );
                assert_eq!(rv, 0, "{name}");
            }
            // Pass 2 resolves shadow memory once per memory event.
            Counter::ShadowMruHit | Counter::ShadowMruMiss => {
                let lookups = l.counter(Counter::ShadowMruHit) + l.counter(Counter::ShadowMruMiss);
                assert!(lv > 0 && lookups == l.counter(Counter::MemEvents), "{name}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::ShadowPages => {
                // A resident page was missed at least once: when it was made.
                assert!(lv > 0 && l.counter(Counter::MemEvents) > 0, "{name}");
                assert!(lv <= l.counter(Counter::ShadowMruMiss), "{name} {lv}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::ArenaBytes => {
                // The stencil is two loops deep: every coordinate snapshot
                // fits inline (`polyddg::coords::INLINE_DIMS` is 4).
                assert_eq!(lv, 0, "{name}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::OverapproxStmts => {
                assert!(lv <= live_r.folded_stats.0 as u64, "{name} {lv}");
                assert_eq!(lv, rv, "{name}");
            }
            // What the writer wrote, the reader read.
            Counter::RecFramesWritten => {
                assert!(lv > 0, "{name}");
                assert_eq!(lv, r.counter(Counter::RecFramesRead), "{name}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::RecBytesWritten => {
                assert_eq!(lv, file_bytes, "{name}");
                assert_eq!(rv, 0, "{name}");
            }
            Counter::RecFramesRead => {
                assert_eq!(lv, 0, "{name}");
                assert_eq!(rv, l.counter(Counter::RecFramesWritten), "{name}");
            }
            Counter::RecBytesRead => {
                // The decoded payload: the file also holds the header.
                assert!(0 < rv && rv < file_bytes, "{name} {rv}");
                assert_eq!(lv, 0, "{name}");
            }
            Counter::RecEventsPredicted => {
                assert!(
                    0 < rv && rv <= r.counter(Counter::EventsFolded),
                    "{name} {rv}"
                );
                assert_eq!(lv, 0, "{name}");
            }
        }
    }
}

/// `Off` produces no metrics object at all — the same gate as
/// tests/zero_alloc.rs, asserted at the API level.
#[test]
fn off_level_produces_no_metrics() {
    let prog = stencil(4, 24);
    let r = profile_with(&prog, &ProfileConfig::new());
    assert!(r.metrics.is_none());
    assert!(r.metrics_json().is_none());
    assert!(r.self_flamegraph_svg("self").is_none());
}

/// The JSON snapshot and the self flame graph render from the same
/// `RunMetrics` and carry the headline facts.
#[test]
fn metrics_render_as_json_and_svg() {
    let w = rodinia::backprop::build();
    let cfg = ProfileConfig::new().with_metrics(MetricsLevel::Timing);
    let r = profile_with(&w.program, &cfg);
    let json = r.metrics_json().unwrap();
    for key in [
        "\"level\"",
        "\"total_ns\"",
        "\"stages_ns\"",
        "\"histograms\"",
        "\"counters\"",
        "\"events_folded\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let svg = r.self_flamegraph_svg("self-profile").unwrap();
    assert!(svg.contains("<svg") && svg.contains("</svg>"));
    assert!(svg.contains("profile"), "profile stage box missing");
    assert!(svg.contains("finalize"), "finalize stage box missing");
    // The human table prints without panicking and names the stages.
    let table = r.metrics.as_ref().unwrap().to_string();
    assert!(table.contains("profile") && table.contains("events_folded"));
}

/// Every JSON document a run can hand out is one well-formed JSON value: the
/// metrics object with the `lint`, `static_deps` and `legality` reports
/// spliced in, the degradation record of a run that actually degraded, and
/// the Chrome timeline.
#[test]
fn every_json_writer_passes_the_validator() {
    use polyprof_core::polyresist::FaultPlan;
    use polyprof_core::polytrace::validate_json;

    let w = rodinia::backprop::build();
    let cfg = ProfileConfig::new()
        .with_metrics(MetricsLevel::Trace)
        .with_lint(true)
        .with_fault_plan(std::sync::Arc::new(
            FaultPlan::parse("seed=2;stall:beat@1;stall_ms=5").unwrap(),
        ));
    let r = profile_with(&w.program, &cfg);
    assert!(r.degradation.is_degraded(), "the fault plan never fired");

    let metrics = r.metrics_json().expect("Trace run has metrics");
    for key in ["\"lint\":", "\"static_deps\":", "\"legality\":"] {
        assert!(metrics.contains(key), "missing {key} in {metrics}");
    }
    validate_json(&metrics).expect("metrics_json");
    validate_json(&r.degradation_json()).expect("degradation_json");
    validate_json(&r.timeline_json().expect("Trace exports a timeline")).expect("timeline_json");
}
