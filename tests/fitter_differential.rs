//! Differential proptests for the integer fast-path fit verifier: an
//! `OnlineAffineFitter` with the `i64` fast path enabled must be
//! **sample-for-sample equivalent** to the pure-rational reference fitter —
//! same classification (`Affine` / `Range`), same recovered function, same
//! range — on every input stream, including streams engineered to overflow
//! the checked `i64` dot product and force the rational fallback.
//!
//! Why this must hold: the fast path only ever evaluates the *same* affine
//! candidate with exact integer arithmetic. An in-range `i64` result equals
//! the rational evaluation by construction; an overflow is answered by
//! re-evaluating rationally. So no sample can be classified differently —
//! these tests pin that argument against regressions.

mod common;

use common::stencil;
use polyir::Program;
use polyprof_core::polycfg::{StaticStructure, StructureRecorder};
use polyprof_core::polyfeedback::FeedbackInput;
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polyfold::{
    FitResult, FoldOptions, FoldedStream, OnlineAffineFitter, StreamFolder,
};
use polyprof_core::{profile_with, ProfileConfig};
use proptest::prelude::*;

/// Feed the identical stream to both fitters and return both verdicts.
fn run_both(dim: usize, samples: &[(Vec<i64>, i64)]) -> (FitResult, FitResult) {
    let mut fast = OnlineAffineFitter::with_fast(dim, true);
    let mut slow = OnlineAffineFitter::with_fast(dim, false);
    for (x, v) in samples {
        fast.push(x, *v);
        slow.push(x, *v);
    }
    (fast.result(), slow.result())
}

proptest! {
    /// Exact affine streams: both fitters recover the same function.
    #[test]
    fn affine_streams_agree(
        a in -50i64..=50, b in -50i64..=50, c in -1000i64..=1000,
        n in 2i64..10, m in 2i64..10,
    ) {
        let samples: Vec<(Vec<i64>, i64)> = (0..n)
            .flat_map(|i| (0..m).map(move |j| (vec![i, j], a * i + b * j + c)))
            .collect();
        let (fast, slow) = run_both(2, &samples);
        prop_assert_eq!(&fast, &slow);
        prop_assert!(matches!(fast, FitResult::Affine(_)), "{:?}", fast);
    }

    /// Streams with one corrupted sample at a random position: both fitters
    /// see the contradiction at the same sample and refit — or degrade —
    /// identically.
    #[test]
    fn corrupted_streams_agree(
        a in -20i64..=20, c in -100i64..=100,
        n in 3usize..40,
        corrupt_at in 0usize..40, bump in 1i64..=17,
    ) {
        let samples: Vec<(Vec<i64>, i64)> = (0..n as i64)
            .map(|i| {
                let noise = if i as usize == corrupt_at % n { bump } else { 0 };
                (vec![i], a * i + c + noise)
            })
            .collect();
        let (fast, slow) = run_both(1, &samples);
        prop_assert_eq!(fast, slow);
    }

    /// Arbitrary (generally non-affine) value streams: both fitters degrade
    /// to the identical `Range`.
    #[test]
    fn random_streams_agree(values in proptest::collection::vec(-1_000_000i64..1_000_000, 1..80)) {
        let samples: Vec<(Vec<i64>, i64)> =
            values.iter().enumerate().map(|(i, &v)| (vec![i as i64], v)).collect();
        let (fast, slow) = run_both(1, &samples);
        prop_assert_eq!(fast, slow);
    }

    /// Forced-overflow streams: a huge slope makes the checked `i64` dot
    /// product overflow on later samples, so the fast path *must* fall back
    /// to rational evaluation — and still agree with the reference, both on
    /// streams that stay affine and on streams that break.
    #[test]
    fn overflow_streams_agree(
        shift in 2u32..6, n in 3i64..12, break_it in 0u8..2,
    ) {
        let big = i64::MAX >> shift; // slope big enough that big * x overflows
        let samples: Vec<(Vec<i64>, i64)> = (0..n)
            .map(|i| {
                let v = big.wrapping_mul(i); // wrapped == true affine only while in range
                let v = if break_it == 1 && i == n - 1 { v ^ 1 } else { v };
                (vec![i], v)
            })
            .collect();
        let (fast, slow) = run_both(1, &samples);
        prop_assert_eq!(fast, slow);
    }

    /// Mixed-magnitude 2-D streams around the overflow boundary: every
    /// checked product sits near `i64::MAX`, exercising both fast-path
    /// verification and the overflow fallback within one stream.
    #[test]
    fn boundary_streams_agree(
        sa in 1u32..8, sb in 1u32..8, n in 2i64..8, m in 2i64..8,
    ) {
        let a = i64::MAX >> sa;
        let b = i64::MAX >> sb;
        let samples: Vec<(Vec<i64>, i64)> = (0..n)
            .flat_map(|i| {
                (0..m).map(move |j| {
                    (vec![i, j], a.wrapping_mul(i).wrapping_add(b.wrapping_mul(j)))
                })
            })
            .collect();
        let (fast, slow) = run_both(2, &samples);
        prop_assert_eq!(fast, slow);
    }
}

/// One step of a folder stream.
#[derive(Debug, Clone)]
enum Op {
    Push(Vec<i64>, Option<Vec<i64>>),
    Degrade,
}

/// A `dim`-deep counted nest in execution order. Labelled points carry a
/// scalar `base + a·i + b·j` (wrapping: with `base` next to an `i64` limit
/// the stream stops being affine where it wraps) and, like a dependence's
/// producer coordinate, `j − 1`.
fn nest(
    dim: usize,
    outer: i64,
    inner: i64,
    (a, b, base): (i64, i64, i64),
    labelled: bool,
) -> Vec<Op> {
    let (planes, rows) = (
        if dim == 3 { 2 } else { 1 },
        if dim >= 2 { outer } else { 1 },
    );
    let mut ops = Vec::new();
    for h in 0..planes {
        for i in 0..rows {
            for j in 0..inner {
                let full = [h, i, j];
                let v = base
                    .wrapping_add(a.wrapping_mul(i))
                    .wrapping_add(b.wrapping_mul(j))
                    .wrapping_add(h);
                let labels = labelled.then(|| vec![v, j - 1]);
                ops.push(Op::Push(full[3 - dim..].to_vec(), labels));
            }
        }
    }
    ops
}

/// Break the stream at `at` in one of the ways the verified prediction must
/// hand back to the general path.
fn disturb(ops: &mut Vec<Op>, kind: u8, at: usize, bump: i64) {
    let at = at % ops.len().max(1);
    let Some(Op::Push(coords, labels)) = ops.get(at).cloned() else {
        return;
    };
    let bumped = |ls: &Option<Vec<i64>>| {
        ls.clone().map(|mut ls| {
            ls[0] = ls[0].wrapping_add(bump);
            ls
        })
    };
    match kind {
        // A hole: the point never executes.
        1 => drop(ops.remove(at)),
        // Lexicographic re-entry: an earlier point shows up again.
        2 => {
            let earlier = ops[at / 2].clone();
            ops.insert(at + 1, earlier);
        }
        // Consecutive duplicate, equal labels / contradicting labels.
        3 => ops.insert(at + 1, Op::Push(coords, labels)),
        4 => ops.insert(at + 1, Op::Push(coords, bumped(&labels))),
        // A label off its function.
        5 => ops[at] = Op::Push(coords, bumped(&labels)),
        // A label vector of another arity.
        6 => {
            let wider = labels.map(|mut ls| {
                ls.push(7);
                ls
            });
            ops[at] = Op::Push(coords, wider.or(Some(vec![1])));
        }
        // `None` after `Some` (or the reverse on an unlabelled stream).
        7 => ops[at] = Op::Push(coords, labels.map_or(Some(vec![0, 0]), |_| None)),
        // Budget pressure arrives mid-stream.
        8 => ops.insert(at, Op::Degrade),
        _ => {}
    }
}

/// Fold `ops` with the integer fast path (and with it the verified
/// prediction) on or off.
fn fold(ops: &[Op], dim: usize, fast_fit: bool) -> (FoldedStream, u64) {
    let mut f = StreamFolder::with_fast_fit(dim, fast_fit);
    for op in ops {
        match op {
            Op::Push(coords, labels) => f.push(coords, labels.as_deref()),
            Op::Degrade => f.degrade(),
        }
    }
    let predicted = f.predicted();
    (f.finalize(), predicted)
}

proptest! {
    /// Whole-folder differential for the verified prediction in
    /// `StreamFolder::push`: the rational reference never arms it, so the
    /// two folders share the general path and nothing else. Affine runs are
    /// interrupted at two random positions by every kind of irregularity,
    /// with labels far from and within one step of the `i64` limits; the
    /// finalized streams must be equal field by field.
    #[test]
    fn predicted_folding_matches_the_rational_reference(
        dim in 1usize..=3, outer in 1i64..6, inner in 1i64..12,
        a in -9i64..=9, b in -9i64..=9,
        extreme in 0u8..3, labelled in 0u8..4,
        kind1 in 0u8..9, at1 in 0usize..400,
        kind2 in 0u8..9, at2 in 0usize..400,
        bump in 1i64..=5,
    ) {
        let base = match extreme {
            1 => i64::MAX - inner / 2, // crosses MAX inside a run when b > 0
            2 => i64::MIN + inner / 2,
            _ => 1000,
        };
        let mut ops = nest(dim, outer, inner, (a, b, base), labelled > 0);
        let regular = kind1 == 0 && kind2 == 0 && extreme == 0;
        disturb(&mut ops, kind1, at1, bump);
        disturb(&mut ops, kind2, at2, bump);
        let (fast, predicted) = fold(&ops, dim, true);
        let (slow, never) = fold(&ops, dim, false);
        prop_assert_eq!(never, 0, "the reference must not predict");
        if regular && inner > 2 {
            prop_assert!(predicted > 0, "an undisturbed affine nest must be predicted");
        }
        prop_assert_eq!(&fast.domain.poly, &slow.domain.poly);
        prop_assert_eq!(fast.domain.exact, slow.domain.exact);
        prop_assert_eq!(fast.domain.count, slow.domain.count);
        prop_assert_eq!(&fast.domain.box_lo, &slow.domain.box_lo);
        prop_assert_eq!(&fast.domain.box_hi, &slow.domain.box_hi);
        prop_assert_eq!(&fast.labels, &slow.labels);
    }
}

/// What a `Report` shows of one pass-2 fold with the fast path on or off:
/// its folded stats, its SCEV removal and its annotated AST.
struct Shown {
    folded_stats: (usize, usize, u64),
    scev_removed: (usize, usize),
    annotated_ast: String,
}

fn shown(prog: &Program, fast_fit: bool) -> Shown {
    let mut rec = StructureRecorder::new();
    polyprof_core::polyvm::Vm::new(prog)
        .run(&[], &mut rec)
        .expect("pass 1");
    let structure = StaticStructure::analyze(prog, rec);
    let cfg = Pass2 {
        options: FoldOptions {
            fast_fit,
            ..FoldOptions::default()
        },
        ..Pass2::default()
    };
    let out = pass2::run(prog, &Source::Live(Live::new(&structure)), &cfg).expect("pass 2");
    let (mut ddg, interner) = (out.ddg, out.interner);
    let scev_removed = ddg.remove_scevs();
    let analysis = polyprof_core::polysched::Analysis::analyze(&ddg, &interner);
    let annotated_ast = polyprof_core::polyfeedback::annotated_ast(&FeedbackInput {
        prog,
        ddg: &ddg,
        interner: &interner,
        structure: &structure,
        analysis: &analysis,
    });
    Shown {
        folded_stats: (ddg.n_stmts(), ddg.deps.len(), ddg.total_ops),
        scev_removed,
        annotated_ast,
    }
}

/// The fast path is also output-neutral end-to-end: a rational-only fold is
/// byte-identical to the default fast-path fold, which is what
/// `profile_with` runs.
#[test]
fn fast_fit_off_matches_default() {
    let prog = stencil(10, 3);
    let fast = shown(&prog, true);
    let slow = shown(&prog, false);
    let default = profile_with(&prog, &ProfileConfig::new());
    assert_eq!(fast.folded_stats, default.folded_stats);
    assert_eq!(fast.annotated_ast, default.annotated_ast);
    assert_eq!(fast.folded_stats, slow.folded_stats);
    assert_eq!(fast.scev_removed, slow.scev_removed);
    assert_eq!(fast.annotated_ast, slow.annotated_ast);
}
