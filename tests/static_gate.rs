//! The static-analysis gate: the affine pre-pass must agree with the
//! dynamic profile on every shipped workload.
//!
//! * **Lint** — the post-fold DDG lint is green over the full Rodinia
//!   suite.
//! * **Prune parity** — the folded DDG after `remove_scevs()` is
//!   byte-identical with instrumentation pruning on or off.
//! * **Soundness** — every statically-proven SCEV statement is also
//!   dynamically classified `is_scev` (static ⊆ dynamic).
//! * **Coverage** — the canonical loop latches of the paper's Fig. 6
//!   kernel (I5/I8) are proven statically, and at least one Rodinia
//!   kernel reports a nonzero pruned-statement count.

mod common;

use polyprof_core::polystatic::dataflow::StaticSummary;
use polyprof_core::{profile_with, ProfileConfig};

/// Run pass 1 + pass 2 (serial) over `p`, optionally with the prune mask
/// installed, and return the folded DDG *before* SCEV removal plus the
/// interner.
fn fold(
    p: &polyir::Program,
    prune: Option<&StaticSummary>,
) -> (
    polyprof_core::polyfold::FoldedDdg,
    polyprof_core::polyiiv::context::ContextInterner,
) {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(p).run(&[], &mut rec).unwrap();
    let structure = polycfg::StaticStructure::analyze(p, rec);
    let mut prof = polyddg::DdgProfiler::new(p, &structure, polyfold::FoldingSink::new());
    if let Some(s) = prune {
        prof.set_prune_mask(s.prune_mask());
    }
    polyvm::Vm::new(p).run(&[], &mut prof).unwrap();
    let (sink, interner) = prof.finish();
    let ddg = sink.finalize(p, &interner);
    (ddg, interner)
}

/// DDG lint is green over the whole Rodinia suite.
#[test]
fn lint_green_over_rodinia() {
    let cfg = ProfileConfig::new().with_lint(true).with_static_prune(true);
    for w in rodinia::all_rodinia() {
        let r = profile_with(&w.program, &cfg);
        let lint = r.lint.expect("lint was requested");
        assert!(
            lint.ok(),
            "{}: {} lint violations: {:?}",
            w.name,
            lint.violations.len(),
            lint.violations
        );
        assert!(lint.checks > 0, "{}: lint ran no checks", w.name);
    }
}

/// Pruning must not change the folded DDG after SCEV removal, and every
/// statically-proven statement must be dynamically `is_scev`.
#[test]
fn prune_parity_and_static_subset_dynamic() {
    let mut any_pruned = false;
    for w in rodinia::all_rodinia() {
        let summary = StaticSummary::analyze(&w.program);
        let (mut plain, interner) = fold(&w.program, None);
        let (mut pruned, _) = fold(&w.program, Some(&summary));

        // Static ⊆ dynamic: check on the unpruned graph, pre-removal.
        let mask = summary.prune_mask();
        for s in plain.stmts.values() {
            let instr = interner.stmt_info(s.stmt).instr;
            if mask.contains(instr) {
                any_pruned = true;
                assert!(
                    s.is_scev,
                    "{}: statically-proven stmt {:?} at {:?} not dynamically SCEV",
                    w.name, s.stmt, instr
                );
            }
        }

        plain.remove_scevs();
        pruned.remove_scevs();
        assert_eq!(
            common::canon(&plain),
            common::canon(&pruned),
            "{}: folded DDG differs with pruning enabled",
            w.name
        );
    }
    assert!(any_pruned, "prune mask never hit a folded statement");
}

/// The Fig. 6 kernel's loop latches (the paper's I5 `k++` and I8 `j++`)
/// must be statically proven, and the dynamic profile must agree.
#[test]
fn fig6_latches_agree_static_and_dynamic() {
    let p = rodinia::paper_examples::fig6_kernel(8, 8);
    let summary = StaticSummary::analyze(&p);
    let main = p.func_by_name("main").unwrap();
    let df = &summary.funcs[main.0 as usize];
    assert_eq!(df.counted.len(), 2, "Lj and Lk must both be counted loops");

    // Each counted loop's latch holds the IV step: find it and check the
    // static proof and, below, the dynamic classification.
    let f = p.func(main);
    let mut latch_instrs = Vec::new();
    for cl in df.counted.values() {
        let found = f.blocks.iter().enumerate().any(|(bi, b)| {
            b.instrs.iter().enumerate().any(|(ii, ins)| {
                if ins.def() == Some(cl.iv) && !matches!(ins, polyir::Instr::Move { .. }) {
                    let iref = polyir::InstrRef {
                        block: polyir::BlockRef::new(main, bi as u32),
                        idx: ii as u32,
                    };
                    if summary.is_proven_scev(iref) {
                        latch_instrs.push(iref);
                        return true;
                    }
                }
                false
            })
        });
        assert!(
            found,
            "IV step of loop at {:?} not statically proven",
            cl.header
        );
    }

    let (ddg, interner) = fold(&p, None);
    for iref in latch_instrs {
        let stmt = ddg
            .stmts
            .values()
            .find(|s| interner.stmt_info(s.stmt).instr == iref)
            .unwrap_or_else(|| panic!("latch {iref:?} never folded"));
        assert!(stmt.is_scev, "latch {iref:?} not dynamically SCEV");
    }
}

/// At least one Rodinia kernel must report a nonzero pruned-statement and
/// pruned-event count through the public `Report`.
#[test]
fn pruning_counters_are_live() {
    let cfg = ProfileConfig::new().with_static_prune(true);
    let mut max_stmts = 0usize;
    let mut max_events = 0u64;
    for w in rodinia::all_rodinia().into_iter().take(4) {
        let r = profile_with(&w.program, &cfg);
        max_stmts = max_stmts.max(r.pruned_stmts);
        max_events = max_events.max(r.pruned_events);
        assert!(r.static_scevs >= r.pruned_stmts);
    }
    assert!(max_stmts > 0, "no kernel pruned any statements");
    assert!(max_events > 0, "no kernel pruned any events");
}

/// The textual report carries the static pre-pass section with the lint
/// verdict when the knobs are on.
#[test]
fn report_renders_static_pass_section() {
    let p = rodinia::paper_examples::fig6_kernel(8, 8);
    let cfg = ProfileConfig::new().with_static_prune(true).with_lint(true);
    let r = profile_with(&p, &cfg);
    assert!(
        r.full_text.contains("static affine pre-pass"),
        "section missing"
    );
    assert!(r.full_text.contains("lint"), "lint verdict missing");
    let lint = r.lint.expect("lint requested");
    assert!(lint.ok(), "{:?}", lint.violations);
}

/// The synthetic differential fixtures also hold prune parity (cheap extra
/// coverage with very different loop shapes).
#[test]
fn prune_parity_on_synthetic_fixtures() {
    for p in [
        common::elementwise(16, 3),
        common::stencil(12, 3),
        common::deep_nest(3),
    ] {
        let summary = StaticSummary::analyze(&p);
        let (mut plain, _) = fold(&p, None);
        let (mut pruned, _) = fold(&p, Some(&summary));
        plain.remove_scevs();
        pruned.remove_scevs();
        assert_eq!(
            common::canon(&plain),
            common::canon(&pruned),
            "{}: folded DDG differs with pruning enabled",
            p.name
        );
    }
}
