//! Resilience gate: every injectable fault class must end structurally —
//! a completed report with its losses recorded in `Report::degradation`, or,
//! for a panic in pass 2, a `PolyProfError::StagePanic` — never a hang,
//! deadlock, or caller-visible panic. Budgeted runs must degrade to sound
//! over-approximations (folded deps ⊇ exact deps), an expired deadline must
//! finalize a partial report, and an armed but never-firing fault plan must
//! not perturb a single folded byte.
//!
//! CI's `resilience-gate` step runs a fault-plan seed matrix beside this
//! suite, through `examples/resilience_probe.rs`, which takes each plan from
//! its `POLYPROF_FAULT_PLAN` environment variable (the library reads none).

mod common;

use common::stencil;
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polyfold::{self, FoldedDdg};
use polyprof_core::polyrec::TraceReader;
use polyprof_core::polyresist::{FaultPlan, FaultSite, ResourceBudget, RunDegradation};
use polyprof_core::{profile_with, try_profile_with, PolyProfError, ProfileConfig};
use std::sync::Arc;
use std::time::Duration;

fn fold(
    prog: &polyprof_core::polyir::Program,
    faults: Option<&str>,
) -> (FoldedDdg, RunDegradation) {
    let cfg = Pass2 {
        faults: faults.map(|spec| Arc::new(FaultPlan::parse(spec).unwrap())),
        ..Default::default()
    };
    let out = pass2::run(prog, &Source::Live(Live::default()), &cfg).expect("fold must complete");
    (out.ddg, out.degradation)
}

/// Every fault class but `panic:pre` (a `StagePanic`, checked below) — a
/// shadow allocation failure and a stalled heartbeat — completes end to end
/// through `profile_with` with a populated degradation record; and so does
/// the replay of a recording, for the one site a replay has (its per-frame
/// heartbeat; there is no VM and no shadow memory to fault).
#[test]
fn every_fault_class_completes_with_degradation() {
    let prog = stencil(64, 8);
    let path = std::env::temp_dir().join(format!(
        "polyprof_resilience_{}_faults.ptrace",
        std::process::id()
    ));
    profile_with(&prog, &ProfileConfig::new().with_record_to(&path));
    for site in [FaultSite::AllocShadow, FaultSite::StallBeat] {
        let live = ProfileConfig::new();
        let mut legs = vec![("live", live.clone())];
        if site == FaultSite::StallBeat {
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
                FaultSite::StallBeat => {
                    assert_eq!(deg.stalled_beats, 1, "{what}: {deg:?}")
                }
                FaultSite::AllocShadow => {
                    assert_eq!(deg.shadow_alloc_failures, 1, "{what}: {deg:?}");
                }
                FaultSite::PanicPre => unreachable!("not a completing site"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A stall delays but loses nothing: the folded output must be
/// byte-identical to the fault-free fold.
#[test]
fn stalled_beat_is_lossless() {
    let prog = stencil(64, 8);
    let clean = fold(&prog, None).0;
    let (ddg, deg) = fold(&prog, Some("stall:beat@1;stall_ms=5"));
    assert_eq!(deg.stalled_beats, 1);
    assert_eq!(
        clean.canonical_text(),
        ddg.canonical_text(),
        "a stall must not lose events"
    );
}

/// An armed plan whose occurrence index is never reached must not perturb
/// one folded byte — probing is observation, not interference.
#[test]
fn armed_but_unfired_plan_is_byte_identical() {
    let prog = stencil(10, 3);
    let clean = fold(&prog, None).0;
    let unfired = "panic:pre@999999999;alloc:shadow@999999999;stall:beat@999999999";
    let (ddg, deg) = fold(&prog, Some(unfired));
    assert_eq!(deg.faults_injected, 0);
    assert!(!deg.is_degraded(), "{deg:?}");
    assert_eq!(clean.canonical_text(), ddg.canonical_text());
}

/// A panic in pass 2 — `panic:pre@1`, the first memory event — is caught
/// once and returned: `try_profile_with` is `Err(StagePanic)` with stage
/// `pass-2`, for a plain live run and for one recording itself, and
/// `profile_with` panics with that same message. The recording the panic
/// cut short is refused by `TraceReader` with a structured `Recording` error
/// — never replayed as valid.
#[test]
fn a_pass_2_panic_is_a_stage_panic_and_leaves_a_refused_recording() {
    let prog = stencil(10, 3);
    let path = std::env::temp_dir().join(format!(
        "polyprof_resilience_{}_panic.ptrace",
        std::process::id()
    ));
    let panicking = || {
        ProfileConfig::new()
            .with_chunk_events(16)
            .with_fault_plan(Arc::new(FaultPlan::single(FaultSite::PanicPre, 1)))
    };
    let mut rendered = Vec::new();
    for cfg in [panicking(), panicking().with_record_to(&path)] {
        match try_profile_with(&prog, &cfg).map(|r| r.folded_stats) {
            Err(
                e @ PolyProfError::StagePanic {
                    stage: "pass-2", ..
                },
            ) => {
                assert!(e.to_string().contains("injected fault"), "{e}");
                rendered.push(e.to_string());
            }
            other => panic!("expected a pass-2 StagePanic, got {other:?}"),
        }
    }
    assert_eq!(rendered[0], rendered[1]);

    let payload = std::panic::catch_unwind(|| profile_with(&prog, &panicking()).folded_stats)
        .expect_err("profile_with panics on what try_profile_with returns");
    let msg = payload.downcast_ref::<String>().expect("a rendered error");
    assert_eq!(msg, &rendered[0]);

    assert!(path.exists(), "the recording was started");
    let refused = TraceReader::open(&path).and_then(|mut r| {
        let mut sink = polyprof_core::polyddg::CollectSink::default();
        while r.next_into(&mut sink)? {}
        r.finish().map(|_| ())
    });
    assert!(
        matches!(refused, Err(PolyProfError::Recording { .. })),
        "an unfinished recording must be refused: {refused:?}"
    );
    std::fs::remove_file(&path).ok();
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
    let (exact, _, _) = polyfold::fold_program(&w.program);

    // Budgeted run: the budget is charged by the shadow pages, the snapshot
    // table and the folders, as a profiling run charges it.
    let budget = Arc::new(ResourceBudget::new(Some(1), None));
    let cfg = Pass2 {
        budget: Some(Arc::clone(&budget)),
        ..Pass2::default()
    };
    let out = pass2::run(&w.program, &Source::Live(Live::default()), &cfg).expect("both passes");
    assert!(out.degradation.budget_overapprox_stmts > 0);
    let coarse = out.ddg;

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
    let cfg = ProfileConfig::new().with_deadline(Duration::ZERO);
    let r = try_profile_with(&prog, &cfg).expect("deadline is graceful, not fatal");
    assert!(r.degradation.deadline_hit);
    assert!(r.degradation.is_degraded());
    let full = profile_with(&prog, &ProfileConfig::new());
    assert!(
        r.folded_stats.2 <= full.folded_stats.2,
        "partial run cannot observe more ops than the full one"
    );
}

/// A generous budget and far-future deadline change nothing: the report —
/// canonical DDG and full text included — matches the unbudgeted run and
/// the degradation record stays clean except for the tracked peak.
#[test]
fn generous_budget_is_invisible() {
    let prog = stencil(10, 3);
    let plain = profile_with(&prog, &ProfileConfig::new().with_canonical(true));
    let r = profile_with(
        &prog,
        &ProfileConfig::new()
            .with_canonical(true)
            .with_memory_budget(1 << 40)
            .with_deadline(Duration::from_secs(3600)),
    );
    assert!(!r.degradation.budget_pressure);
    assert!(!r.degradation.deadline_hit);
    assert!(r.degradation.peak_tracked_bytes > 0, "budget was tracking");
    assert_eq!(r.folded_stats, plain.folded_stats);
    assert_eq!(r.annotated_ast, plain.annotated_ast);
    assert!(r.canonical_ddg.is_some());
    assert_eq!(r.canonical_ddg, plain.canonical_ddg);
    assert_eq!(r.full_text, plain.full_text);
    assert!(!r.full_text.contains("resilience & degradation"));
}

/// The degradation JSON snapshot (what CI archives) carries the counters of
/// the faults the run took.
#[test]
fn degradation_json_reflects_the_run() {
    use polyprof_core::MetricsLevel;

    let prog = stencil(9, 2);
    let cfg = ProfileConfig::new()
        .with_metrics(MetricsLevel::Counters)
        .with_fault_plan(Arc::new(FaultPlan::single(FaultSite::AllocShadow, 1)));
    let r = profile_with(&prog, &cfg);
    let j = r.degradation_json();
    assert!(j.contains("\"faults_injected\":1"), "{j}");
    assert!(j.contains("\"shadow_alloc_failures\":1"), "{j}");
}
