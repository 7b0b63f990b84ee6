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
use polyprof_core::polyddg::{DepKind, FoldSink};
use polyprof_core::polyfeedback::FeedbackInput;
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polyfold::{
    FitResult, FoldOptions, FoldedStream, FoldingSink, OnlineAffineFitter, StreamFolder,
};
use polyprof_core::polyiiv::context::{ContextInterner, StmtId};
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

/// How a nest's inner loop runs and what its points carry.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Step of the inner loop: above 1, every point jumps forward.
    stride: i64,
    /// Non-zero: a guard, seeded by this, skips about a third of the inner
    /// points, so forward jumps of various lengths recur inside runs.
    guard: u64,
    /// Append a label that is non-affine from the first row on (`j²`), so
    /// its fitter fails early while the others stay affine.
    wild: bool,
}

/// Whether the guard seeded by `seed` runs point `(h, i, j)`.
fn guarded(seed: u64, h: i64, i: i64, j: i64) -> bool {
    let mut x = seed ^ (h as u64) << 40 ^ (i as u64) << 20 ^ j as u64;
    x = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    seed == 0 || !(x >> 32).is_multiple_of(3)
}

/// A `dim`-deep counted nest in execution order. Labelled points carry a
/// scalar `base + a·i + b·j` (wrapping: with `base` next to an `i64` limit
/// the stream stops being affine where it wraps) and, like a dependence's
/// producer coordinate, `j − 1`; `shape` strides, guards and widens it.
fn nest(
    dim: usize,
    outer: i64,
    inner: i64,
    (a, b, base): (i64, i64, i64),
    labelled: bool,
    shape: Shape,
) -> Vec<Op> {
    let (planes, rows) = (
        if dim == 3 { 2 } else { 1 },
        if dim >= 2 { outer } else { 1 },
    );
    let mut ops = Vec::new();
    for h in 0..planes {
        for i in 0..rows {
            for j in (0..inner).map(|j| j * shape.stride) {
                if !guarded(shape.guard, h, i, j) {
                    continue;
                }
                let full = [h, i, j];
                let v = base
                    .wrapping_add(a.wrapping_mul(i))
                    .wrapping_add(b.wrapping_mul(j))
                    .wrapping_add(h);
                let labels = labelled.then(|| {
                    let mut ls = vec![v, j - 1];
                    if shape.wild {
                        ls.push(j * j + i);
                    }
                    ls
                });
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
    /// two folders share the general path and nothing else. Affine runs —
    /// strided or guarded, so the prediction jumps forward, and with a label
    /// whose fitter fails early, so it is free — are interrupted at two
    /// random positions by every kind of irregularity, with labels far from
    /// and within one step of the `i64` limits, and with a slope whose
    /// product with a jump overflows; the finalized streams must be equal
    /// field by field.
    #[test]
    fn predicted_folding_matches_the_rational_reference(
        dim in 1usize..=3, outer in 1i64..6, inner in 1i64..12,
        a in -9i64..=9, b in -9i64..=9,
        extreme in 0u8..4, labelled in 0u8..4,
        stride in 1i64..=3, guard in 0u32..4, wild in 0u8..2,
        kind1 in 0u8..9, at1 in 0usize..400,
        kind2 in 0u8..9, at2 in 0usize..400,
        bump in 1i64..=5,
    ) {
        let (b, base) = match extreme {
            1 => (b, i64::MAX - inner / 2), // crosses MAX inside a run when b > 0
            2 => (b, i64::MIN + inner / 2),
            // `2·b` overflows: a jump's `b·Δ` cannot be formed, though the
            // labels stay in range for the first few points of a row.
            3 => (i64::MAX / 2 + 1, i64::MIN / 2),
            _ => (b, 1000),
        };
        let shape = Shape { stride, guard: guard.into(), wild: wild == 1 };
        let mut ops = nest(dim, outer, inner, (a, b, base), labelled > 0, shape);
        let regular = kind1 == 0 && kind2 == 0 && extreme == 0 && guard == 0;
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

/// The producers of one dependence relation, as functions of the consumer
/// point.
#[derive(Debug, Clone, Copy)]
enum Producer {
    /// The consumer one step back along the last dimension.
    Shifted,
    /// As `Shifted`, clamped at 0: two carried classes.
    Clamped,
    /// The row's first point: the distance grows along the run.
    Fixed,
    /// Twice as far along the last dimension: the distance falls.
    Scaled,
    /// Data-dependent in every component.
    Wild,
    /// Affine but for its last component, which is data-dependent.
    HalfWild,
    /// Affine with coordinates next to the `i64` limits.
    Extreme,
}

/// A seeded stream of dependence and access events into a `FoldingSink`:
/// consumer points of a strided, guarded `dst_dim`-deep nest, each the
/// target of every relation in `rels` (producers `src_dim` deep) and of one
/// access whose address is affine or, with `wild_addr`, data-dependent.
fn feed_sink(
    sink: &mut FoldingSink,
    seed: u64,
    (dst_dim, src_dim): (usize, usize),
    (outer, inner, shape): (i64, i64, Shape),
    rels: &[(DepKind, Producer)],
    wild_addr: bool,
) {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % 19) as i64 - 9
    };
    let dst = StmtId(rels.len() as u32);
    for i in 0..outer {
        for j in (0..inner).map(|j| j * shape.stride) {
            if !guarded(shape.guard, 0, i, j) {
                continue;
            }
            let full = [i, i + 1, j];
            let point = &full[3 - dst_dim..];
            for (r, &(kind, producer)) in rels.iter().enumerate() {
                let mut src: Vec<i64> = (0..src_dim)
                    .map(|k| point.get(k).copied().unwrap_or(k as i64))
                    .collect();
                let last = src_dim - 1;
                match producer {
                    Producer::Shifted => src[last] -= 1,
                    Producer::Clamped => src[last] = (src[last] - 1).max(0),
                    Producer::Fixed => src[last] = 0,
                    Producer::Scaled => src[last] *= 2,
                    Producer::Wild => src.iter_mut().for_each(|c| *c = next()),
                    Producer::HalfWild => src[last] = next(),
                    Producer::Extreme => {
                        src[0] = src[0].wrapping_add(i64::MAX - 4);
                        src[last] = src[last].wrapping_sub(i64::MAX - 3);
                    }
                }
                sink.dependence(kind, StmtId(r as u32), &src, dst, point);
            }
            let addr = if wild_addr {
                4096 + next()
            } else {
                4096 + 8 * j
            };
            sink.mem_access(dst, point, addr as u64, false);
        }
    }
}

proptest! {
    /// `FoldingSink`-level differential: seeded dependence streams with
    /// affine (shifted, fixed, scaled), clamped, data-dependent and extreme
    /// producers over strided
    /// and guarded consumers, folded with the fast path on and off, must
    /// render the same canonical DDG — which pins the distance ranges the
    /// dependence folders now settle at run endpoints.
    #[test]
    fn dependence_folding_matches_the_rational_reference(
        seed in 0u32..1_000_000, dst_dim in 1usize..=3, src_dim in 1usize..=3,
        outer in 1i64..6, inner in 1i64..14,
        stride in 1i64..=3, guard in 0u32..4,
        producers in proptest::collection::vec(0u8..7, 1..4),
        wild_addr in 0u8..2,
    ) {
        let kinds = [DepKind::Flow, DepKind::Anti, DepKind::Output, DepKind::Reg];
        let rels: Vec<(DepKind, Producer)> = producers
            .iter()
            .enumerate()
            .map(|(r, &p)| {
                let producer = [
                    Producer::Shifted,
                    Producer::Clamped,
                    Producer::Fixed,
                    Producer::Scaled,
                    Producer::Wild,
                    Producer::HalfWild,
                    Producer::Extreme,
                ][p as usize];
                (kinds[r % kinds.len()], producer)
            })
            .collect();
        let shape = Shape { stride, guard: guard.into(), wild: false };
        let prog = stencil(4, 1);
        let folded = |fast_fit: bool| {
            let mut sink = FoldingSink::with_options(FoldOptions {
                fast_fit,
                ..FoldOptions::default()
            });
            let dims = (dst_dim, src_dim);
            feed_sink(&mut sink, seed.into(), dims, (outer, inner, shape), &rels, wild_addr == 1);
            let predicted = sink.fold_stats().predicted;
            (sink.finalize(&prog, &ContextInterner::new()).canonical_text(), predicted)
        };
        let (fast, _) = folded(true);
        let (slow, never) = folded(false);
        prop_assert_eq!(never, 0, "the reference must not predict");
        prop_assert_eq!(fast, slow);
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
    let cfg = Pass2 {
        options: FoldOptions {
            fast_fit,
            ..FoldOptions::default()
        },
        ..Pass2::default()
    };
    let out = pass2::run(prog, &Source::Live(Live::default()), &cfg).expect("both passes");
    let (mut ddg, interner, structure) = (out.ddg, out.interner, out.structure);
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
