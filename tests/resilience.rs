//! Resilience gate: every injectable fault class must yield a *completed*
//! report with its losses recorded in `Report::degradation`, never a hang,
//! deadlock, or caller-visible panic. Budgeted runs must degrade to sound
//! over-approximations (folded deps ⊇ exact serial deps), an expired
//! deadline must finalize a partial report, and an armed but never-firing
//! fault plan must not perturb a single folded byte.
//!
//! CI's `resilience-gate` step runs a fault-plan seed matrix beside this
//! suite, through `examples/resilience_probe.rs`, which takes each plan from
//! its `POLYPROF_FAULT_PLAN` environment variable (the library reads none).

mod common;

use common::{canon, stencil};
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source, Target};
use polyprof_core::polyfold::{self, FoldedDdg, FoldingSink};
use polyprof_core::polyresist::{FaultPlan, FaultSite, ResourceBudget, RunDegradation};
use polyprof_core::{profile_with, try_profile_with, ProfileConfig};
use std::sync::Arc;
use std::time::Duration;

fn supervised_fold(
    prog: &polyprof_core::polyir::Program,
    k: usize,
    faults: Option<&str>,
) -> (FoldedDdg, RunDegradation) {
    let mut rec = polyprof_core::polycfg::StructureRecorder::new();
    polyprof_core::polyvm::Vm::new(prog)
        .run(&[], &mut rec)
        .expect("pass 1");
    let structure = polyprof_core::polycfg::StaticStructure::analyze(prog, rec);
    let cfg = Pass2 {
        target: Target::Workers {
            n: k,
            faults: faults.map(|spec| Arc::new(FaultPlan::parse(spec).unwrap())),
            max_retries: 2,
        },
        chunk_events: 64,
        ..Default::default()
    };
    let out = pass2::run(prog, &Source::Live(Live::new(&structure)), &cfg)
        .expect("supervised fold must complete");
    (out.ddg, out.degradation)
}

/// Every fault class — a panic in each of the two stage kinds, a chunk
/// stall, a chunk drop, a shadow allocation failure, and a malformed chunk —
/// completes end to end through `profile_with` with a populated degradation
/// record; and so does the replay of a recording, for the four sites a
/// replay has (the channel and the workers; there is no VM and no shadow
/// memory to fault).
#[test]
fn every_fault_class_completes_with_degradation() {
    let prog = stencil(10, 3);
    let path = std::env::temp_dir().join(format!(
        "polyprof_resilience_{}_faults.ptrace",
        std::process::id()
    ));
    profile_with(&prog, &ProfileConfig::new().with_record_to(&path));
    for site in FaultSite::ALL {
        let live = ProfileConfig::new()
            .with_fold_threads(3)
            .with_chunk_events(64);
        let mut legs = vec![("live", live.clone())];
        if !matches!(site, FaultSite::PanicPre | FaultSite::AllocShadow) {
            legs.push(("replay", live.with_replay_from(&path)));
        }
        for (leg, cfg) in legs {
            let cfg = cfg.with_fault_plan(Arc::new(FaultPlan::single(site, 1)));
            let r = profile_with(&prog, &cfg);
            let deg = &r.degradation;
            let what = format!("{} ({leg})", site.name());
            assert!(
                deg.faults_injected >= 1,
                "{what}: fault never fired: {deg:?}"
            );
            assert!(deg.is_degraded(), "{what}: {deg:?}");
            match site {
                // A producer panic fails the attempt; the retry succeeds.
                FaultSite::PanicPre => {
                    assert!(deg.stage_retries >= 1, "{what}: {deg:?}")
                }
                // A worker panic is salvaged: the shard is lost, not the run.
                FaultSite::PanicFold => {
                    assert_eq!(deg.missing_shards.len(), 1, "{what}: {deg:?}")
                }
                FaultSite::StallSend => {
                    assert_eq!(deg.stalled_sends, 1, "{what}: {deg:?}")
                }
                FaultSite::DropSend => {
                    assert!(deg.dropped_chunks >= 1, "{what}: {deg:?}")
                }
                FaultSite::AllocShadow => {
                    assert_eq!(deg.shadow_alloc_failures, 1, "{what}: {deg:?}");
                    assert!(deg.unresolved_accesses >= 1, "{what}: {deg:?}");
                }
                FaultSite::MalformedChunk => {
                    assert_eq!(deg.malformed_chunks, 1, "{what}: {deg:?}")
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A stall delays but loses nothing: the folded output must be
/// byte-identical to the fault-free pipeline.
#[test]
fn stalled_send_is_lossless() {
    let prog = stencil(9, 2);
    let clean = supervised_fold(&prog, 2, None).0;
    let (ddg, deg) = supervised_fold(&prog, 2, Some("stall:send@2;stall_ms=5"));
    assert_eq!(deg.stalled_sends, 1);
    assert_eq!(canon(&clean), canon(&ddg), "a stall must not lose events");
}

/// An armed plan whose occurrence index is never reached must not perturb
/// one folded byte — probing is observation, not interference.
#[test]
fn armed_but_unfired_plan_is_byte_identical() {
    let prog = stencil(10, 3);
    let clean = supervised_fold(&prog, 3, None).0;
    let unfired = "panic:fold@999999999;drop:send@999999999";
    let (ddg, deg) = supervised_fold(&prog, 3, Some(unfired));
    assert_eq!(deg.faults_injected, 0);
    assert!(!deg.is_degraded(), "{deg:?}");
    assert_eq!(canon(&clean), canon(&ddg));
}

/// A fault that fires on *every* occurrence defeats bounded retry; the run
/// falls back to the serial path and still produces the full exact report.
#[test]
fn persistent_fault_falls_back_to_full_serial_report() {
    let prog = stencil(10, 3);
    let serial = profile_with(&prog, &ProfileConfig::new());
    let cfg = ProfileConfig::new()
        .with_fold_threads(3)
        .with_chunk_events(64)
        .with_max_retries(1)
        .with_fault_plan(Arc::new(FaultPlan::always(FaultSite::PanicPre)));
    let r = profile_with(&prog, &cfg);
    assert!(r.degradation.fell_back_serial, "{:?}", r.degradation);
    assert_eq!(r.degradation.stage_retries, 1);
    assert_eq!(r.folded_stats, serial.folded_stats, "fallback is lossless");
    assert_eq!(r.scev_removed, serial.scev_removed);
    assert_eq!(r.annotated_ast, serial.annotated_ast);
    assert!(
        r.full_text.contains("resilience & degradation"),
        "degraded runs must report their losses"
    );
}

/// A Rodinia workload under a memory budget so tight the first allocation
/// latches pressure: the run completes, statements are folded in
/// over-approximation mode, and every folded dependence domain *contains*
/// the exact serial one (superset soundness — degradation may lose
/// precision, never dependences).
#[test]
fn rodinia_tight_budget_overapproximates_soundly() {
    let w = rodinia::pathfinder::build();

    // Exact reference.
    let (exact, _, structure) = polyfold::fold_program(&w.program);

    // Budgeted run through the serial core path.
    let budget = Arc::new(ResourceBudget::new(Some(1), None));
    let mut sink = FoldingSink::new();
    sink.set_budget(Arc::clone(&budget));
    let mut prof = polyprof_core::polyddg::DdgProfiler::new(&w.program, &structure, sink);
    polyprof_core::polyvm::Vm::new(&w.program)
        .run(&[], &mut prof)
        .expect("pass 2");
    let (sink, interner) = prof.finish();
    assert!(sink.fold_stats().budget_degraded > 0);
    let coarse = sink.finalize(&w.program, &interner);

    assert!(budget.under_pressure());
    assert!(coarse.overapprox_stmts() > 0);
    assert_eq!(coarse.n_stmts(), exact.n_stmts());
    assert_eq!(coarse.total_ops, exact.total_ops);
    assert_eq!(coarse.deps.len(), exact.deps.len());
    for (c, e) in coarse.deps.iter().zip(exact.deps.iter()) {
        assert_eq!(
            (c.kind, c.src, c.dst, c.class),
            (e.kind, e.src, e.dst, e.class)
        );
        assert_eq!(c.domain.count, e.domain.count);
        for k in 0..c.domain.dim {
            assert!(c.domain.box_lo[k] <= e.domain.box_lo[k], "superset lb");
            assert!(c.domain.box_hi[k] >= e.domain.box_hi[k], "superset ub");
        }
    }

    // The same budget through the public config surfaces the degradation.
    let r = profile_with(&w.program, &ProfileConfig::new().with_memory_budget(1));
    assert!(r.degradation.budget_pressure, "{:?}", r.degradation);
    assert!(r.degradation.budget_overapprox_stmts > 0);
    assert!(r.degradation.peak_tracked_bytes > 0);
    assert!(r.full_text.contains("resilience & degradation"));
}

/// An already-expired watchdog deadline still yields a completed report —
/// the producer stops at the first throttled poll (every 4096 dynamic
/// instructions, so the workload must be big enough to reach one), and the
/// partial-but-valid DDG flows through scheduling and feedback without
/// panicking.
#[test]
fn expired_deadline_finalizes_partial_report() {
    let prog = stencil(64, 8);
    for threads in [1usize, 3] {
        let cfg = ProfileConfig::new()
            .with_fold_threads(threads)
            .with_deadline(Duration::ZERO);
        let r = try_profile_with(&prog, &cfg).expect("deadline is graceful, not fatal");
        assert!(r.degradation.deadline_hit, "threads={threads}");
        assert!(r.degradation.is_degraded());
        let full = profile_with(&prog, &ProfileConfig::new().with_fold_threads(threads));
        assert!(
            r.folded_stats.2 <= full.folded_stats.2,
            "partial run cannot observe more ops than the full one"
        );
    }
}

/// A generous budget and far-future deadline change nothing: the report
/// matches the unbudgeted run and the degradation record stays clean except
/// for the tracked peak.
#[test]
fn generous_budget_is_invisible() {
    let prog = stencil(10, 3);
    let plain = profile_with(&prog, &ProfileConfig::new());
    let r = profile_with(
        &prog,
        &ProfileConfig::new()
            .with_memory_budget(1 << 40)
            .with_deadline(Duration::from_secs(3600)),
    );
    assert!(!r.degradation.budget_pressure);
    assert!(!r.degradation.deadline_hit);
    assert!(r.degradation.peak_tracked_bytes > 0, "budget was tracking");
    assert_eq!(r.folded_stats, plain.folded_stats);
    assert_eq!(r.annotated_ast, plain.annotated_ast);
    assert!(!r.full_text.contains("resilience & degradation"));
}

/// The degradation JSON snapshot (what CI archives) carries the counters.
#[test]
fn degradation_json_reflects_the_run() {
    let prog = stencil(9, 2);
    let cfg = ProfileConfig::new()
        .with_fold_threads(2)
        .with_chunk_events(64)
        .with_fault_plan(Arc::new(FaultPlan::single(FaultSite::DropSend, 1)));
    let r = profile_with(&prog, &cfg);
    let j = r.degradation_json();
    assert!(j.contains("\"faults_injected\":1"), "{j}");
    assert!(j.contains("\"dropped_chunks\":1"), "{j}");
}

/// Counters are facts about the run's *result*, not about how many attempts
/// it took: a run retried once, and a run that fell back to the serial
/// driver, report the same trace tallies as a clean run — harvested once,
/// from the attempt that produced the result — while the supervision
/// counters still record the trouble.
#[test]
fn counters_do_not_drift_after_retry_or_fallback() {
    use polyprof_core::polytrace::Counter;
    use polyprof_core::MetricsLevel;

    let prog = stencil(10, 3);
    let base = ProfileConfig::new()
        .with_fold_threads(2)
        .with_chunk_events(64)
        .with_metrics(MetricsLevel::Counters);
    let clean = profile_with(&prog, &base).metrics.expect("counters on");

    let retried = base
        .clone()
        .with_fault_plan(Arc::new(FaultPlan::single(FaultSite::PanicPre, 1)));
    let fell_back = base
        .clone()
        .with_max_retries(1)
        .with_fault_plan(Arc::new(FaultPlan::always(FaultSite::PanicPre)));
    for (what, cfg, retries, fallbacks) in [("retry", retried, 1, 0), ("fallback", fell_back, 1, 1)]
    {
        let m = profile_with(&prog, &cfg).metrics.expect("counters on");
        for c in [
            Counter::DynOps,
            Counter::MemEvents,
            Counter::CtxCacheHit,
            Counter::EventsFolded,
            Counter::DepsFolded,
            Counter::ShadowPages,
        ] {
            assert_eq!(
                m.counter(c),
                clean.counter(c),
                "{what}: {} drifted from the clean run",
                c.name()
            );
        }
        assert_eq!(m.counter(Counter::StageRetries), retries, "{what}");
        assert_eq!(m.counter(Counter::SerialFallbacks), fallbacks, "{what}");
        assert!(m.counter(Counter::FaultsInjected) >= 1, "{what}");
    }
}
