//! Metrics-consistency invariants for the self-profiling telemetry layer
//! (`polytrace`): the counters harvested from the hot paths must agree with
//! each other and with the run's observable outputs, at every shard count,
//! and the whole layer must vanish at `MetricsLevel::Off`.

mod common;

use common::stencil;
use polyprof_core::polytrace::Counter;
use polyprof_core::{profile_with, MetricsLevel, ProfileConfig, RunMetrics};

fn run(fold_threads: usize, level: MetricsLevel) -> RunMetrics {
    let prog = stencil(6, 40);
    let cfg = ProfileConfig::new()
        .with_fold_threads(fold_threads)
        .with_chunk_events(64) // small chunks: exercise flush/recycle paths
        .with_metrics(level);
    profile_with(&prog, &cfg)
        .metrics
        .expect("metrics requested")
}

/// Every event the router ships lands in exactly one folding shard and
/// produces exactly one fold call: routed == per-shard sum == folded, at
/// every K. (`profile_with` folds K = 1 on the calling thread, so the
/// one-shard case asks pass 2 for `workers(1)` directly.)
#[test]
fn routed_events_equal_folded_events_at_every_k() {
    use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source, Target};
    use polyprof_core::polytrace::Collector;
    use std::sync::Arc;

    let one_shard = {
        let prog = stencil(6, 40);
        let mut rec = polyprof_core::polycfg::StructureRecorder::new();
        polyprof_core::polyvm::Vm::new(&prog)
            .run(&[], &mut rec)
            .unwrap();
        let structure = polyprof_core::polycfg::StaticStructure::analyze(&prog, rec);
        let col = Arc::new(Collector::new(MetricsLevel::Counters));
        let pcfg = Pass2 {
            target: Target::workers(1),
            chunk_events: 64,
            trace: Some(Arc::clone(&col)),
            ..Default::default()
        };
        let _ = pass2::run(&prog, &Source::Live(Live::new(&structure)), &pcfg);
        col.snapshot(0)
    };
    for (k, m) in [
        (1usize, one_shard),
        (2, run(2, MetricsLevel::Counters)),
        (4, run(4, MetricsLevel::Counters)),
    ] {
        let routed = m.counter(Counter::EventsRouted);
        let folded = m.counter(Counter::EventsFolded);
        let per_shard: u64 = m.shard_events.iter().sum();
        assert!(routed > 0, "k={k}: no events routed");
        assert_eq!(routed, per_shard, "k={k}: routed vs shard sum");
        assert_eq!(per_shard, folded, "k={k}: shard sum vs folded");
        assert_eq!(m.shard_events.len(), k, "k={k}: every shard registered");
    }
}

/// Every executor resolves shadow memory on the VM thread, once per memory
/// event the prune mask lets through: the shadow MRU sees exactly one
/// lookup for each (hits + misses == mem events − pruned mem events) on the
/// calling-thread fold, on one supervised worker (an armed plan that never
/// fires gets one) and at K = 2 and 4 — with the mask off, and
/// with it on (which prunes every access site of this stencil).
#[test]
fn shadow_mru_accounts_for_every_memory_event() {
    use polyprof_core::polyresist::FaultPlan;
    use std::sync::Arc;

    let prog = stencil(6, 40);
    let unfired = Arc::new(FaultPlan::parse("panic:fold@999999999").unwrap());
    let base = ProfileConfig::new()
        .with_chunk_events(64)
        .with_metrics(MetricsLevel::Counters);
    for (what, cfg) in [
        ("serial K=1", base.clone()),
        ("supervised K=1", base.clone().with_fault_plan(unfired)),
        ("K=2", base.clone().with_fold_threads(2)),
        ("K=4", base.clone().with_fold_threads(4)),
    ] {
        for prune in [false, true] {
            let cfg = cfg.clone().with_static_prune(prune);
            let m = profile_with(&prog, &cfg).metrics.expect("counters on");
            let mem = m.counter(Counter::MemEvents);
            let pruned = m.counter(Counter::PrunedMemEvents);
            assert!(mem > 0, "{what}: no memory events");
            assert_eq!(pruned > 0, prune, "{what}: prune={prune}");
            assert_eq!(
                m.counter(Counter::ShadowMruHit) + m.counter(Counter::ShadowMruMiss),
                mem - pruned,
                "{what}, prune={prune}: shadow MRU lookups"
            );
        }
    }
}

/// The context cache is consulted once per context-path lookup, and the
/// pipelined path folds chunks: every pipelined run reports a nonzero chunk
/// tally (the serial path folds events as they happen and reports zero).
#[test]
fn cache_and_chunk_counters_cover_the_run() {
    for k in [1usize, 4] {
        let m = run(k, MetricsLevel::Counters);
        assert!(
            m.counter(Counter::CtxCacheHit) + m.counter(Counter::CtxCacheMiss) > 0,
            "k={k}: context cache untouched"
        );
        if k > 1 {
            assert!(
                m.counter(Counter::ChunksFolded) > 0,
                "k={k}: pipelined run folded no chunks"
            );
        } else {
            assert_eq!(
                m.counter(Counter::ChunksFolded),
                0,
                "serial run has no chunks"
            );
        }
    }
}

/// Counters are deterministic facts about the trace, not about threading:
/// the serial path and every pipeline width agree on the fold-side tallies.
#[test]
fn counters_agree_between_serial_and_pipelined() {
    let serial = run(1, MetricsLevel::Counters);
    for k in [2usize, 4] {
        let piped = run(k, MetricsLevel::Counters);
        for c in [
            Counter::DynOps,
            Counter::MemEvents,
            Counter::EventsFolded,
            Counter::DepsFolded,
            Counter::RetiredStmts,
            Counter::RetiredDeps,
            Counter::OverapproxStmts,
        ] {
            assert_eq!(
                serial.counter(c),
                piped.counter(c),
                "k={k}: {} diverged",
                c.name()
            );
        }
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

/// The stage spans partition every run, whatever its source and fold target:
/// `finalize` is a stage of its own (never hidden inside `profile`), and the
/// stage times sum to no more than the wall time — also across a retry, when
/// `recovery` sits between two `profile` spans rather than inside one.
#[test]
fn stage_spans_partition_every_source_and_target() {
    use polyprof_core::polyresist::{FaultPlan, FaultSite};
    use polyprof_core::polytrace::Stage;
    use std::sync::Arc;

    let prog = stencil(6, 40);
    let path = std::env::temp_dir().join(format!(
        "polyprof_metrics_{}_partition.ptrace",
        std::process::id()
    ));
    profile_with(&prog, &ProfileConfig::new().with_record_to(&path));
    let base = ProfileConfig::new()
        .with_chunk_events(64)
        .with_metrics(MetricsLevel::Timing);
    let k2 = base.clone().with_fold_threads(2);
    let retried = Arc::new(FaultPlan::single(FaultSite::PanicPre, 1));
    for (what, cfg, retries) in [
        ("K=1", base, 0),
        ("K=2", k2.clone(), 0),
        ("K=2 replay", k2.clone().with_replay_from(&path), 0),
        ("K=2 retried once", k2.with_fault_plan(retried), 1),
    ] {
        let r = profile_with(&prog, &cfg);
        let m = r.metrics.as_ref().expect("metrics requested");
        assert_eq!(r.degradation.stage_retries, retries, "{what}");
        assert!(m.stage(Stage::Profile) > 0, "{what}: profile not timed");
        assert!(m.stage(Stage::Finalize) > 0, "{what}: finalize not timed");
        assert_eq!(
            m.stage(Stage::Recovery) > 0,
            retries > 0,
            "{what}: recovery is the time between attempts"
        );
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
/// same tallies as `Timing` are still collected.
#[test]
fn counters_level_collects_tallies_but_no_clocks() {
    let m = run(2, MetricsLevel::Counters);
    assert_eq!(m.sequential_ns(), 0);
    assert!(m.pipe_ns.iter().all(|&ns| ns == 0));
    assert!(m.counter(Counter::SendStallNs) == 0);
    assert!(m.counter(Counter::RecvStallNs) == 0);
    assert!(m.counter(Counter::EventsFolded) > 0);

    let t = run(2, MetricsLevel::Timing);
    assert_eq!(
        m.counter(Counter::EventsFolded),
        t.counter(Counter::EventsFolded)
    );
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
    let cfg = ProfileConfig::new()
        .with_fold_threads(2)
        .with_metrics(MetricsLevel::Timing);
    let r = profile_with(&w.program, &cfg);
    let json = r.metrics_json().unwrap();
    for key in [
        "\"level\"",
        "\"total_ns\"",
        "\"stages_ns\"",
        "\"pipeline_ns\"",
        "\"shard_events\"",
        "\"shard_balance\"",
        "\"counters\"",
        "\"events_folded\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let svg = r.self_flamegraph_svg("self-profile").unwrap();
    assert!(svg.contains("<svg") && svg.contains("</svg>"));
    assert!(svg.contains("profile"), "profile stage box missing");
    assert!(svg.contains("fold-shard"), "shard boxes missing");
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
        .with_fold_threads(2)
        .with_metrics(MetricsLevel::Trace)
        .with_lint(true)
        .with_static_prune(true)
        .with_fault_plan(std::sync::Arc::new(
            FaultPlan::parse("seed=2;stall:send@1;stall_ms=5").unwrap(),
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
