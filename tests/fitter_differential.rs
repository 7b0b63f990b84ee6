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
use polyprof_core::polyfold::{FitResult, OnlineAffineFitter};
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

/// The fast-path knob is also output-neutral end-to-end: a rational-only
/// run is byte-identical to the default fast-path run.
#[test]
fn fast_fit_off_matches_default() {
    let prog = stencil(10, 3);
    let fast = profile_with(&prog, &ProfileConfig::new());
    let slow = profile_with(&prog, &ProfileConfig::new().with_fast_fit(false));
    assert_eq!(fast.folded_stats, slow.folded_stats);
    assert_eq!(fast.scev_removed, slow.scev_removed);
    assert_eq!(fast.annotated_ast, slow.annotated_ast);
}
