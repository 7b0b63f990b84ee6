//! Online affine fit-and-verify — the scalar core of the folding algorithm
//! (companion report RR-9244; §5 of the paper).
//!
//! A stream of `(point, value)` samples is summarized as an affine function
//! when one exists: the first affinely-independent samples *fix* a candidate
//! (exact rational solve, maintained incrementally as a cached RREF), every
//! further sample *verifies* it. A contradiction triggers an incremental
//! refit; once the fit is uniquely determined, the cached system is dropped
//! and any contradiction is final. Failure degrades to a `[min, max]` range
//! — the paper's over-approximation, never a wrong answer.
//!
//! Verification runs for every sample the stream folder cannot predict for
//! itself (`crate::stream`: the first point of each run along the innermost
//! dimension, and everything irregular), so once a candidate is integral
//! with `i64`-sized coefficients it is cached as a plain integer dot product
//! checked with overflow-aware arithmetic; overflow falls back to the exact
//! rational evaluation, so the fast path is sample-for-sample equivalent to
//! the rational one. A refit overwrites the candidate and its mirror in
//! place, so a fitter allocates them once.

use polylib::linsolve::IncrementalFit;
use polylib::rat::Rat;

/// `r` as an `i64`, if it is an integer in range.
fn as_i64(r: Rat) -> Option<i64> {
    if r.is_integer() {
        i64::try_from(r.num()).ok()
    } else {
        None
    }
}

/// An affine function with rational coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatAffine {
    /// Per-variable coefficients.
    pub coeffs: Vec<Rat>,
    /// Constant term.
    pub c: Rat,
}

impl RatAffine {
    /// Evaluate at an integer point; panics if the value or an
    /// intermediate leaves `i128`.
    pub fn eval(&self, x: &[i64]) -> Rat {
        self.checked_eval(x).expect("affine value overflows i128")
    }

    /// Evaluate at an integer point, or `None` where the value or an
    /// intermediate leaves `i128`.
    pub(crate) fn checked_eval(&self, x: &[i64]) -> Option<Rat> {
        debug_assert_eq!(x.len(), self.coeffs.len());
        let mut acc = self.c;
        for (a, &v) in self.coeffs.iter().zip(x) {
            acc = acc.checked_add(a.checked_mul(Rat::int(v.into()))?)?;
        }
        Some(acc)
    }

    /// True if every coefficient and the constant are integers.
    pub fn is_integral(&self) -> bool {
        self.coeffs.iter().all(|a| a.is_integer()) && self.c.is_integer()
    }

    /// True if every coefficient and the constant are integers that fit
    /// `i64`.
    pub(crate) fn is_i64(&self) -> bool {
        self.coeffs
            .iter()
            .chain([&self.c])
            .all(|&a| as_i64(a).is_some())
    }

    /// Convert to an integer [`polylib::AffineExpr`], if integral with
    /// `i64`-sized coefficients.
    pub fn to_affine_expr(&self) -> Option<polylib::AffineExpr> {
        let coeffs = self
            .coeffs
            .iter()
            .map(|&a| as_i64(a))
            .collect::<Option<_>>()?;
        Some(polylib::AffineExpr::new(coeffs, as_i64(self.c)?))
    }

    /// Render with variable names, e.g. `cj + 0ck - 1`.
    pub fn display(&self, names: &[&str]) -> String {
        let mut parts = Vec::new();
        for (i, a) in self.coeffs.iter().enumerate() {
            if *a == Rat::ZERO {
                continue;
            }
            let n = names
                .get(i)
                .copied()
                .map(str::to_string)
                .unwrap_or(format!("x{i}"));
            if *a == Rat::ONE {
                parts.push(n);
            } else if *a == -Rat::ONE {
                parts.push(format!("-{n}"));
            } else {
                parts.push(format!("{a}{n}"));
            }
        }
        if self.c != Rat::ZERO || parts.is_empty() {
            parts.push(self.c.to_string());
        }
        let mut s = String::new();
        for (i, p) in parts.iter().enumerate() {
            if i > 0 {
                if let Some(rest) = p.strip_prefix('-') {
                    s.push_str(" - ");
                    s.push_str(rest);
                    continue;
                }
                s.push_str(" + ");
            }
            s.push_str(p);
        }
        s
    }
}

/// Integer mirror of an integral [`RatAffine`]: verification becomes one
/// overflow-checked `i64` dot product with no `Rat` normalization.
#[derive(Debug, Clone, Default)]
struct FastAffine {
    coeffs: Vec<i64>,
    c: i64,
}

impl FastAffine {
    /// Mirror `f`, reusing this buffer. Cacheable iff every coefficient and
    /// the constant are `i64` integers; on `false` the contents are stale.
    fn assign(&mut self, f: &RatAffine) -> bool {
        if !f.is_i64() {
            return false;
        }
        self.coeffs.clear();
        self.coeffs.extend(f.coeffs.iter().map(|a| a.num() as i64));
        self.c = f.c.num() as i64;
        true
    }

    /// `c + coeffs · x`, or `None` on overflow (caller falls back to the
    /// exact rational evaluation).
    #[inline]
    fn eval_checked(&self, x: &[i64]) -> Option<i64> {
        let mut acc = self.c;
        for (&a, &v) in self.coeffs.iter().zip(x) {
            acc = acc.checked_add(a.checked_mul(v)?)?;
        }
        Some(acc)
    }
}

/// Final classification of a folded scalar stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitResult {
    /// No samples were seen.
    Empty,
    /// All samples match this affine function exactly.
    Affine(RatAffine),
    /// Over-approximation: only the value range is known.
    Range {
        /// Minimum observed value.
        min: i64,
        /// Maximum observed value.
        max: i64,
    },
}

/// Maximum retained samples while the fit is still under-determined.
const MAX_SAMPLES: usize = 512;

/// Streaming affine fitter over points of a fixed dimension.
#[derive(Debug, Clone)]
pub struct OnlineAffineFitter {
    dim: usize,
    /// Cached RREF of the samples that fixed the current candidate (the
    /// first sample plus every contradiction) — a refit is one incremental
    /// row reduction, not a from-scratch elimination.
    sys: IncrementalFit,
    /// Rows fed into `sys` (mirrors the retained-sample cap).
    retained: usize,
    fit: Option<RatAffine>,
    /// Integer mirror of `fit`, current only while `fast_ok`.
    fast: FastAffine,
    /// `fit` is integral and `i64`-sized, and `fast` mirrors it.
    fast_ok: bool,
    /// False forces rational-only verification (differential baseline).
    fast_enabled: bool,
    unique: bool,
    failed: bool,
    vmin: i64,
    vmax: i64,
    n: u64,
}

impl OnlineAffineFitter {
    /// Fitter over `dim`-dimensional points (integer fast path enabled).
    pub fn new(dim: usize) -> Self {
        Self::with_fast(dim, true)
    }

    /// Fitter with the integer verification fast path explicitly enabled or
    /// disabled — `with_fast(dim, false)` is the pure-rational reference the
    /// differential tests and benchmarks compare against.
    pub fn with_fast(dim: usize, fast_enabled: bool) -> Self {
        OnlineAffineFitter {
            dim,
            sys: IncrementalFit::new(dim),
            retained: 0,
            fit: None,
            fast: FastAffine::default(),
            fast_ok: false,
            fast_enabled,
            unique: false,
            failed: false,
            vmin: i64::MAX,
            vmax: i64::MIN,
            n: 0,
        }
    }

    /// Number of samples pushed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no samples were pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Feed one sample.
    pub fn push(&mut self, x: &[i64], v: i64) {
        debug_assert_eq!(x.len(), self.dim);
        self.n += 1;
        self.vmin = self.vmin.min(v);
        self.vmax = self.vmax.max(v);
        if self.failed {
            return;
        }
        if let Some(f) = &self.fit {
            let fast = if self.fast_ok && self.fast_enabled {
                self.fast.eval_checked(x)
            } else {
                None
            };
            let verified = match fast {
                Some(sum) => sum == v,
                // Overflow or no mirror: the exact rational path. Past
                // `i128` the sample stays unverified: a refit, or the range.
                None => f.checked_eval(x) == Some(Rat::int(v.into())),
            };
            if verified {
                return;
            }
            if self.unique {
                // A uniquely-determined fit was contradicted: non-affine.
                self.failed = true;
                return;
            }
        }
        // (Re)fit: reduce this sample into the cached system.
        self.retained += 1;
        if self.retained > MAX_SAMPLES {
            self.failed = true;
            self.sys.clear();
            return;
        }
        if self.sys.push(x, v) {
            let dim = self.dim;
            let fit = self.fit.get_or_insert_with(|| RatAffine {
                coeffs: vec![Rat::ZERO; dim],
                c: Rat::ZERO,
            });
            let solved = self.sys.solution_into(&mut fit.coeffs, &mut fit.c);
            debug_assert!(solved, "a consistent, non-empty system has a solution");
            self.fast_ok = self.fast.assign(fit);
            self.unique = self.sys.rank() == self.dim + 1;
            if self.unique {
                // Contradictions are final from here on: free the system.
                self.sys.clear();
            }
        } else {
            self.failed = true;
            self.sys.clear();
        }
    }

    /// The candidate's coefficient on the last dimension, when the candidate
    /// is live (not failed) and held as an integer mirror the fast path may
    /// use: moving one step along that dimension moves the fitted value by
    /// exactly this much. `None` otherwise, and always with the fast path off.
    pub(crate) fn fast_step(&self) -> Option<i64> {
        if self.fast_ok && self.fast_enabled && !self.failed {
            self.fast.coeffs.last().copied()
        } else {
            None
        }
    }

    /// True once the samples are known not to be affine: from then on a
    /// sample only counts and widens the range.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed
    }

    /// Tally `n` samples the caller accepted without pushing them — each one
    /// the candidate verifies, or any value once the fitter has failed —
    /// whose values lie between `lo` and `hi`, or between those and an
    /// earlier pushed value: what `n` [`push`](Self::push) calls would have
    /// left behind.
    pub(crate) fn absorb(&mut self, n: u64, lo: i64, hi: i64) {
        self.n += n;
        self.vmin = self.vmin.min(lo);
        self.vmax = self.vmax.max(hi);
    }

    /// The affine function every sample so far matches, if there is one:
    /// what [`result`](Self::result) reports as `Affine`, by reference.
    pub(crate) fn candidate(&self) -> Option<&RatAffine> {
        self.fit.as_ref().filter(|_| !self.failed)
    }

    /// [`candidate`](Self::candidate), by value.
    pub(crate) fn into_candidate(self) -> Option<RatAffine> {
        self.fit.filter(|_| !self.failed)
    }

    /// Final classification.
    pub fn result(&self) -> FitResult {
        if self.n == 0 {
            return FitResult::Empty;
        }
        match self.candidate() {
            Some(f) => FitResult::Affine(f.clone()),
            None => FitResult::Range {
                min: self.vmin,
                max: self.vmax,
            },
        }
    }

    /// Observed value range (valid for any non-empty stream).
    pub fn range(&self) -> (i64, i64) {
        (self.vmin, self.vmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_affine_stream() {
        // v = 3i - 2j + 1 over a 5x5 grid
        let mut f = OnlineAffineFitter::new(2);
        for i in 0..5 {
            for j in 0..5 {
                f.push(&[i, j], 3 * i - 2 * j + 1);
            }
        }
        let FitResult::Affine(a) = f.result() else {
            panic!("expected affine fit");
        };
        assert_eq!(a.coeffs, vec![Rat::int(3), Rat::int(-2)]);
        assert_eq!(a.c, Rat::int(1));
        assert!(a.is_integral());
    }

    #[test]
    fn rejects_nonaffine_with_range() {
        let mut f = OnlineAffineFitter::new(1);
        for i in 0..10 {
            f.push(&[i], i * i);
        }
        assert_eq!(f.result(), FitResult::Range { min: 0, max: 81 });
    }

    #[test]
    fn constant_stream_is_affine() {
        let mut f = OnlineAffineFitter::new(2);
        for i in 0..4 {
            for j in 0..4 {
                f.push(&[i, j], 7);
            }
        }
        let FitResult::Affine(a) = f.result() else {
            panic!("expected affine");
        };
        assert_eq!(a.eval(&[100, -3]), Rat::int(7));
    }

    /// An underdetermined fit (samples confined to a subspace) is exact on
    /// every *observed* point even though it is not unique globally.
    #[test]
    fn underdetermined_fit_exact_on_observed_points() {
        let mut f = OnlineAffineFitter::new(2);
        let pts: Vec<[i64; 2]> = (0..4).map(|i| [i, i + 1]).collect();
        for p in &pts {
            f.push(p, 7);
        }
        let FitResult::Affine(a) = f.result() else {
            panic!("expected affine");
        };
        for p in &pts {
            assert_eq!(a.eval(p), Rat::int(7));
        }
    }

    /// Degenerate sampling (one dim never varies) still verifies correctly
    /// on the observed subspace, and refits on contradiction.
    #[test]
    fn refits_underdetermined_on_contradiction() {
        let mut f = OnlineAffineFitter::new(2);
        // First only j varies (i = 0): fit sees v = j.
        for j in 0..4 {
            f.push(&[0, j], j);
        }
        // Now i varies: v = 10i + j — a contradiction w.r.t. the first fit,
        // resolved by refitting.
        for i in 1..4 {
            for j in 0..4 {
                f.push(&[i, j], 10 * i + j);
            }
        }
        let FitResult::Affine(a) = f.result() else {
            panic!("expected affine after refit");
        };
        assert_eq!(a.coeffs, vec![Rat::int(10), Rat::int(1)]);
    }

    #[test]
    fn contradiction_after_unique_is_final() {
        let mut f = OnlineAffineFitter::new(1);
        for i in 0..5 {
            f.push(&[i], 2 * i);
        }
        f.push(&[5], 99);
        assert!(matches!(f.result(), FitResult::Range { .. }));
        // stays failed
        f.push(&[6], 12);
        assert!(matches!(f.result(), FitResult::Range { .. }));
    }

    #[test]
    fn empty_and_len() {
        let f = OnlineAffineFitter::new(3);
        assert_eq!(f.result(), FitResult::Empty);
        assert!(f.is_empty());
    }

    #[test]
    fn zero_dim_constant() {
        let mut f = OnlineAffineFitter::new(0);
        f.push(&[], 4);
        f.push(&[], 4);
        let FitResult::Affine(a) = f.result() else {
            panic!();
        };
        assert_eq!(a.c, Rat::int(4));
        let mut g = OnlineAffineFitter::new(0);
        g.push(&[], 4);
        g.push(&[], 5);
        assert_eq!(g.result(), FitResult::Range { min: 4, max: 5 });
    }

    #[test]
    fn rational_fit_detected_as_non_integral() {
        // v = i/2 rounded? No — feed truly half-integer-slope data v = i/2
        // only at even i so it IS affine with coeff 1/2.
        let mut f = OnlineAffineFitter::new(1);
        for i in (0..10).step_by(2) {
            f.push(&[i], i / 2);
        }
        let FitResult::Affine(a) = f.result() else {
            panic!();
        };
        assert_eq!(a.coeffs, vec![Rat::new(1, 2)]);
        assert!(!a.is_integral());
        assert!(a.to_affine_expr().is_none());
    }

    /// An integral coefficient outside `i64` has no `AffineExpr`; one at the
    /// limit converts exactly.
    #[test]
    fn to_affine_expr_rejects_out_of_range_coefficients() {
        let wide = RatAffine {
            coeffs: vec![Rat::int(i64::MIN as i128 - i64::MAX as i128)],
            c: Rat::ZERO,
        };
        assert!(wide.is_integral());
        assert_eq!(wide.to_affine_expr(), None);
        let edge = RatAffine {
            coeffs: vec![Rat::int(i64::MIN as i128)],
            c: Rat::int(i64::MAX as i128),
        };
        assert_eq!(
            edge.to_affine_expr(),
            Some(polylib::AffineExpr::new(vec![i64::MIN], i64::MAX))
        );
    }

    #[test]
    fn display_readable() {
        let a = RatAffine {
            coeffs: vec![Rat::int(1), Rat::int(0), Rat::int(-1)],
            c: Rat::int(-1),
        };
        assert_eq!(a.display(&["cj", "ck", "cl"]), "cj - cl - 1");
    }

    /// The i64 fast path and the pure-rational reference agree sample for
    /// sample on an affine stream with a mid-stream contradiction.
    #[test]
    fn fast_path_matches_rat_only() {
        let mut fast = OnlineAffineFitter::new(2);
        let mut slow = OnlineAffineFitter::with_fast(2, false);
        for i in 0..6 {
            for j in 0..6 {
                let v = if i == 5 && j == 3 { 999 } else { 4 * i - j + 2 };
                fast.push(&[i, j], v);
                slow.push(&[i, j], v);
            }
        }
        assert_eq!(fast.result(), slow.result());
        assert_eq!(fast.range(), slow.range());
    }

    /// Values near i64::MAX force the checked dot product to overflow; the
    /// fitter must fall back to exact rational evaluation and still verify.
    #[test]
    fn overflow_falls_back_to_rational() {
        let big = i64::MAX / 2;
        let mut fast = OnlineAffineFitter::new(1);
        let mut slow = OnlineAffineFitter::with_fast(1, false);
        // v = big * x: coefficient fits i64, but big * 3 overflows.
        for x in [0i64, 1, 2, 3, 4] {
            let v = big.wrapping_mul(x);
            fast.push(&[x], v);
            slow.push(&[x], v);
        }
        assert_eq!(fast.result(), slow.result());
        // big * 3 wraps negative, so the stream is NOT affine: both must
        // have degraded identically, not silently accepted wrapped values.
        assert!(matches!(fast.result(), FitResult::Range { .. }));
    }

    /// An overflow-free huge-coefficient stream stays affine on both paths.
    #[test]
    fn overflow_fallback_verifies_true_affine() {
        let big = i64::MAX / 8;
        let mut fast = OnlineAffineFitter::new(1);
        let mut slow = OnlineAffineFitter::with_fast(1, false);
        for x in 0i64..6 {
            // Exact in i128 but the checked i64 product overflows at x >= 8
            // only — keep x small so values stay representable while the
            // accumulated products exercise large magnitudes.
            let v = big * x;
            fast.push(&[x], v);
            slow.push(&[x], v);
        }
        assert_eq!(fast.result(), slow.result());
        assert!(matches!(fast.result(), FitResult::Affine(_)));
    }

    /// Rational (non-integral) fits never build a fast mirror; verification
    /// stays on the exact path and still works.
    #[test]
    fn rational_fit_has_no_fast_mirror() {
        let mut f = OnlineAffineFitter::new(1);
        for i in (0..20).step_by(2) {
            f.push(&[i], i / 2);
        }
        assert!(!f.fast_ok, "half-integer slope must not cache i64");
        let FitResult::Affine(a) = f.result() else {
            panic!();
        };
        assert_eq!(a.coeffs, vec![Rat::new(1, 2)]);
    }

    /// A deep fitter verifies in integers too: an 8-dimensional affine
    /// stream keeps a fast step (no rational-path cliff past the depths the
    /// suite reaches), and agrees with the rational reference.
    #[test]
    fn deep_fitter_keeps_an_integer_mirror() {
        let coeffs = [3i64, -1, 4, 1, -5, 9, 2, 6];
        let mut fast = OnlineAffineFitter::new(8);
        let mut slow = OnlineAffineFitter::with_fast(8, false);
        let mut seed = 7u64;
        for _ in 0..40 {
            let x: Vec<i64> = (0..8)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 58) as i64 - 32
                })
                .collect();
            let v = 11 + coeffs.iter().zip(&x).map(|(a, b)| a * b).sum::<i64>();
            fast.push(&x, v);
            slow.push(&x, v);
        }
        assert!(fast.fast_ok);
        assert_eq!(fast.fast_step(), Some(6));
        assert_eq!(slow.fast_step(), None);
        assert_eq!(fast.result(), slow.result());
        assert!(matches!(fast.result(), FitResult::Affine(_)));
    }
}
