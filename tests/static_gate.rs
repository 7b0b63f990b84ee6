//! The static-analysis gate: the affine pre-pass must agree with the
//! dynamic profile on every shipped workload.
//!
//! * **Lint** — the post-fold DDG lint is green over the full Rodinia
//!   suite.
//! * **Soundness** — every statically-proven SCEV statement is also
//!   dynamically classified `is_scev` (static ⊆ dynamic), over Rodinia and
//!   the synthetic fixtures.
//! * **Coverage** — the canonical loop latches of the paper's Fig. 6
//!   kernel (I5/I8) are proven statically, and at least one folded
//!   statement is proven.

mod common;

use polyprof_core::polystatic::dataflow::StaticSummary;
use polyprof_core::{profile_with, ProfileConfig};

/// Run pass 1 + pass 2 over `p` and return the folded DDG *before* SCEV
/// removal plus the interner.
fn fold(
    p: &polyir::Program,
) -> (
    polyprof_core::polyfold::FoldedDdg,
    polyprof_core::polyiiv::context::ContextInterner,
) {
    let (ddg, interner, _) = polyfold::fold_program(p);
    (ddg, interner)
}

/// DDG lint is green over the whole Rodinia suite.
#[test]
fn lint_green_over_rodinia() {
    let cfg = ProfileConfig::new().with_lint(true);
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

/// Every statically-proven statement must be dynamically `is_scev`, over
/// Rodinia and the synthetic fixtures (very different loop shapes).
#[test]
fn static_scev_proofs_are_dynamically_scev() {
    let mut progs: Vec<(String, polyir::Program)> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    for p in [
        common::elementwise(16, 3),
        common::stencil(12, 3),
        common::deep_nest(3),
    ] {
        progs.push((p.name.clone(), p));
    }
    let mut any_proven = false;
    for (name, p) in &progs {
        let summary = StaticSummary::analyze(p);
        let (ddg, interner) = fold(p);
        for s in ddg.stmts.values() {
            let instr = interner.stmt_info(s.stmt).instr;
            if summary.is_proven_scev(instr) {
                any_proven = true;
                assert!(
                    s.is_scev,
                    "{name}: statically-proven stmt {:?} at {instr:?} not dynamically SCEV",
                    s.stmt
                );
            }
        }
    }
    assert!(any_proven, "no folded statement was statically proven");
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

    let (ddg, interner) = fold(&p);
    for iref in latch_instrs {
        let stmt = ddg
            .stmts
            .values()
            .find(|s| interner.stmt_info(s.stmt).instr == iref)
            .unwrap_or_else(|| panic!("latch {iref:?} never folded"));
        assert!(stmt.is_scev, "latch {iref:?} not dynamically SCEV");
    }
}

/// The textual report carries the static pre-pass section with the lint
/// verdict when the lint is on.
#[test]
fn report_renders_static_pass_section() {
    let p = rodinia::paper_examples::fig6_kernel(8, 8);
    let r = profile_with(&p, &ProfileConfig::new().with_lint(true));
    assert!(
        r.full_text.contains("static affine pre-pass"),
        "section missing"
    );
    assert!(r.full_text.contains("lint"), "lint verdict missing");
    let lint = r.lint.expect("lint requested");
    assert!(lint.ok(), "{:?}", lint.violations);
}
