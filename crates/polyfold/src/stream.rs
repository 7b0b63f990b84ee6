//! Stream folding: compress a lexicographically-ordered stream of iteration
//! points (plus optional integer label vectors) into a polyhedral domain
//! with affine per-dimension bounds and affine label functions — or a
//! flagged over-approximation when the stream is not affine (guarded
//! statements with holes, non-monotone re-entry, non-affine bounds).
//!
//! Canonical IVs start at 0 and step by 1, so within a fixed outer prefix
//! the values of each dimension form a contiguous run `[lb(prefix),
//! ub(prefix)]`; the folder closes one *group* per prefix change, feeding
//! `(prefix, first)` / `(prefix, last)` samples to per-dimension
//! [`OnlineAffineFitter`]s for the lower/upper bounds. Within a run along
//! the last dimension nothing closes and, once the label fitters hold
//! candidates, nothing needs refitting: [`StreamFolder::push`] recognises
//! those points by a verified prediction and leaves the fitters alone.

use crate::fitter::{FitResult, OnlineAffineFitter, RatAffine};
use polylib::{AffineExpr, Polyhedron};

/// A folded iteration domain.
#[derive(Debug, Clone)]
pub struct FoldedDomain {
    /// The (possibly over-approximated) polyhedron containing all points.
    pub poly: Polyhedron,
    /// True when the polyhedron's integer points are exactly the stream.
    pub exact: bool,
    /// Number of (deduplicated) points folded.
    pub count: u64,
    /// Dimensionality.
    pub dim: usize,
    /// Per-dimension observed minima (bounding box).
    pub box_lo: Vec<i64>,
    /// Per-dimension observed maxima (bounding box).
    pub box_hi: Vec<i64>,
}

/// Folded labels attached to a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelFold {
    /// The stream carried no labels.
    None,
    /// Every component is an affine function of the coordinates.
    Affine(Vec<RatAffine>),
    /// Over-approximation: per-component value ranges.
    Range(Vec<(i64, i64)>),
}

impl LabelFold {
    /// True for the affine case.
    pub fn is_affine(&self) -> bool {
        matches!(self, LabelFold::Affine(_))
    }
}

/// Result of folding one stream.
#[derive(Debug, Clone)]
pub struct FoldedStream {
    /// The iteration domain.
    pub domain: FoldedDomain,
    /// The label function(s).
    pub labels: LabelFold,
}

/// Online folder for one context's stream.
#[derive(Debug, Clone)]
pub struct StreamFolder {
    dim: usize,
    count: u64,
    /// Previous point, in a buffer retained across pushes (steady-state
    /// pushes never allocate).
    prev_buf: Vec<i64>,
    has_prev: bool,
    monotone: bool,
    holes: bool,
    /// Per-dimension open-group first/last values.
    open_first: Vec<i64>,
    open_last: Vec<i64>,
    lb: Vec<OnlineAffineFitter>,
    ub: Vec<OnlineAffineFitter>,
    box_lo: Vec<i64>,
    box_hi: Vec<i64>,
    label_arity: Option<usize>,
    label_fitters: Vec<OnlineAffineFitter>,
    labels_present: bool,
    labels_consistent: bool,
    /// Budget-degraded mode: affine fitters dropped, only bounding box,
    /// count, and label ranges are maintained (`exact` is forced off).
    coarse: bool,
    /// Per-component label `(min, max)` ranges, maintained in coarse mode
    /// only (the fitters track ranges themselves otherwise).
    label_range: Vec<(i64, i64)>,
    /// Integer verification fast path for all fitters this folder creates.
    fast_fit: bool,
    /// Verified prediction of the next point (see [`StreamFolder::push`]).
    pred: Predictor,
}

/// What the next point of an affine run looks like: the previous point one
/// step further along the last dimension, every label advanced by its
/// candidate's coefficient on that dimension.
#[derive(Debug, Clone, Default)]
struct Predictor {
    /// Set after a push that left every label fitter holding a live integer
    /// candidate (and the folder exact-mode, labels consistent).
    armed: bool,
    /// Labels of the previous point (empty for an unlabelled stream); each
    /// equals its fitter's candidate at that point.
    labels: Vec<i64>,
    /// Per label, the candidate's coefficient on the last dimension.
    step: Vec<i64>,
    /// Predicted pushes not yet tallied in the label fitters.
    pending: u64,
    /// Predicted pushes since construction.
    hits: u64,
}

impl StreamFolder {
    /// Folder for `dim`-dimensional points (integer fast-path fitters).
    pub fn new(dim: usize) -> Self {
        Self::with_fast_fit(dim, true)
    }

    /// Folder with the fitters' integer fast path explicitly enabled or
    /// disabled (`false` = the pure-rational reference configuration).
    pub fn with_fast_fit(dim: usize, fast_fit: bool) -> Self {
        StreamFolder {
            dim,
            count: 0,
            prev_buf: Vec::with_capacity(dim),
            has_prev: false,
            monotone: true,
            holes: false,
            open_first: vec![0; dim],
            open_last: vec![0; dim],
            lb: (0..dim)
                .map(|d| OnlineAffineFitter::with_fast(d, fast_fit))
                .collect(),
            ub: (0..dim)
                .map(|d| OnlineAffineFitter::with_fast(d, fast_fit))
                .collect(),
            box_lo: vec![i64::MAX; dim],
            box_hi: vec![i64::MIN; dim],
            label_arity: None,
            label_fitters: Vec::new(),
            labels_present: false,
            labels_consistent: true,
            coarse: false,
            label_range: Vec::new(),
            fast_fit,
            pred: Predictor::default(),
        }
    }

    /// Pushes accepted by the verified-prediction path so far.
    pub fn predicted(&self) -> u64 {
        self.pred.hits
    }

    /// Points folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Switch to budget-degraded folding: drop the per-dimension affine
    /// fitters (freeing their memory) and keep only the bounding box, the
    /// deduplicated point count, and per-component label ranges. The
    /// finalized domain is the box — a superset of the exact domain — and is
    /// flagged `exact = false`. Idempotent.
    pub fn degrade(&mut self) {
        if self.coarse {
            return;
        }
        self.flush_predicted();
        self.pred.armed = false;
        self.coarse = true;
        self.lb = Vec::new();
        self.ub = Vec::new();
        self.label_range = self.label_fitters.iter().map(|f| f.range()).collect();
        self.label_fitters = Vec::new();
    }

    /// True once [`degrade`](Self::degrade) has been called.
    pub fn is_coarse(&self) -> bool {
        self.coarse
    }

    /// Feed one point with an optional label vector. Points must arrive in
    /// execution order (lexicographically non-decreasing); violations are
    /// absorbed as over-approximations, never errors.
    ///
    /// In a folded affine stream the next point is almost always the
    /// previous one, one step further along the last dimension, with every
    /// label advanced by its last coefficient. Such a push is accepted by
    /// comparing it with that prediction — O(dim + labels), no fitter
    /// entered — and its effect on the label fitters (a sample count and a
    /// value range) is deferred. Every other push first settles the deferred
    /// tally, then takes the general path and re-arms the prediction. The
    /// prediction decides nothing a fitter would decide differently: the
    /// previous labels equal the candidates at the previous point, so
    /// `previous + step` *is* the candidate at this one, in exact integers
    /// (an overflowing sum cannot equal an `i64` label and is left to the
    /// general path). With `fast_fit` off it is never armed.
    pub fn push(&mut self, coords: &[i64], labels: Option<&[i64]>) {
        assert_eq!(coords.len(), self.dim, "stream changed dimensionality");
        if self.pred.armed && self.push_predicted(coords, labels) {
            return;
        }
        self.flush_predicted();
        self.push_general(coords, labels);
        self.rearm(labels);
    }

    /// Accept `coords`/`labels` if they are exactly the predicted next
    /// point. Leaves everything [`push_general`](Self::push_general) would
    /// have changed for such a point changed the same way, except the label
    /// fitters' tallies, which wait for
    /// [`flush_predicted`](Self::flush_predicted).
    #[inline]
    fn push_predicted(&mut self, coords: &[i64], labels: Option<&[i64]>) -> bool {
        let last = self.dim - 1;
        let prev = &self.prev_buf;
        if coords[..last] != prev[..last] || Some(coords[last]) != prev[last].checked_add(1) {
            return false;
        }
        let p = &mut self.pred;
        match labels {
            None if self.labels_present => return false,
            None => {}
            Some(ls) => {
                let matches = self.labels_present
                    && ls.len() == p.labels.len()
                    && ls
                        .iter()
                        .zip(p.labels.iter().zip(&p.step))
                        .all(|(&l, (&prev, &step))| Some(l) == prev.checked_add(step));
                if !matches {
                    return false;
                }
                p.labels.copy_from_slice(ls);
            }
        }
        p.pending += 1;
        p.hits += 1;
        let c = coords[last];
        self.count += 1;
        self.box_hi[last] = self.box_hi[last].max(c);
        self.open_last[last] = c;
        self.prev_buf[last] = c;
        true
    }

    /// Settle the deferred tally of predicted pushes into the label fitters.
    /// The labels moved monotonically from a value the fitters have already
    /// seen to `pred.labels`, so the latter bounds the whole run.
    fn flush_predicted(&mut self) {
        let n = std::mem::take(&mut self.pred.pending);
        if n > 0 {
            for (f, &last) in self.label_fitters.iter_mut().zip(&self.pred.labels) {
                f.absorb_verified(n, last);
            }
        }
    }

    /// Arm the prediction after a general push of `labels`, if the stream is
    /// in the regular state the prediction's equivalence argument needs.
    fn rearm(&mut self, labels: Option<&[i64]>) {
        let p = &mut self.pred;
        p.armed = false;
        if !self.fast_fit || self.coarse || self.dim == 0 || !self.labels_consistent {
            return;
        }
        p.labels.clear();
        p.step.clear();
        match labels {
            None if self.labels_present => return,
            None => {}
            Some(ls) => {
                if self.label_arity != Some(ls.len()) {
                    return;
                }
                for f in &self.label_fitters {
                    match f.fast_step() {
                        Some(step) => p.step.push(step),
                        None => return,
                    }
                }
                p.labels.extend_from_slice(ls);
            }
        }
        p.armed = true;
    }

    fn push_general(&mut self, coords: &[i64], labels: Option<&[i64]>) {
        // Exact duplicate of the previous point (e.g. a twice-used operand
        // producing the same dependence twice): ignore.
        if self.has_prev && self.prev_buf == coords {
            // Labels of duplicates still verified for consistency.
            self.push_labels(coords, labels);
            return;
        }
        self.count += 1;
        for (k, &c) in coords.iter().enumerate().take(self.dim) {
            self.box_lo[k] = self.box_lo[k].min(c);
            self.box_hi[k] = self.box_hi[k].max(c);
        }
        if self.coarse {
            // Degraded path: box + count only — no group machinery. The
            // dedup compare above still needs the previous point.
            self.prev_buf.clear();
            self.prev_buf.extend_from_slice(coords);
            self.has_prev = true;
            self.push_labels(coords, labels);
            return;
        }
        if !self.has_prev {
            self.open_first.copy_from_slice(coords);
            self.open_last.copy_from_slice(coords);
        } else {
            // Take the buffer out so `close_groups` can borrow self mutably;
            // it is put back (and refilled) below.
            let prev = std::mem::take(&mut self.prev_buf);
            let j = (0..self.dim).find(|&k| coords[k] != prev[k]);
            match j {
                None => unreachable!("duplicates handled above"),
                Some(j) if coords[j] < prev[j] => {
                    // Lexicographic decrease: loop re-entry under an
                    // unmodelled repetition — over-approximate.
                    self.monotone = false;
                    // Close everything and restart groups.
                    self.close_groups(&prev, 0);
                    self.open_first.copy_from_slice(coords);
                    self.open_last.copy_from_slice(coords);
                }
                Some(j) => {
                    if coords[j] != prev[j] + 1 {
                        self.holes = true;
                    }
                    self.close_groups(&prev, j + 1);
                    self.open_last[j] = coords[j];
                    self.open_first[j + 1..self.dim].copy_from_slice(&coords[j + 1..self.dim]);
                    self.open_last[j + 1..self.dim].copy_from_slice(&coords[j + 1..self.dim]);
                }
            }
            self.prev_buf = prev;
        }
        self.prev_buf.clear();
        self.prev_buf.extend_from_slice(coords);
        self.has_prev = true;
        self.push_labels(coords, labels);
    }

    fn push_labels(&mut self, coords: &[i64], labels: Option<&[i64]>) {
        if self.coarse {
            match labels {
                Some(ls) => {
                    match self.label_arity {
                        None => {
                            self.label_arity = Some(ls.len());
                            self.label_range = ls.iter().map(|&v| (v, v)).collect();
                            self.labels_present = true;
                        }
                        Some(a) if a != ls.len() => {
                            self.labels_consistent = false;
                            return;
                        }
                        Some(_) => {}
                    }
                    for (r, &v) in self.label_range.iter_mut().zip(ls) {
                        r.0 = r.0.min(v);
                        r.1 = r.1.max(v);
                    }
                }
                None => {
                    if self.labels_present {
                        self.labels_consistent = false;
                    }
                }
            }
            return;
        }
        match labels {
            Some(ls) => {
                match self.label_arity {
                    None => {
                        self.label_arity = Some(ls.len());
                        self.label_fitters = (0..ls.len())
                            .map(|_| OnlineAffineFitter::with_fast(self.dim, self.fast_fit))
                            .collect();
                        self.labels_present = true;
                    }
                    Some(a) if a != ls.len() => {
                        self.labels_consistent = false;
                        return;
                    }
                    Some(_) => {}
                }
                for (f, &v) in self.label_fitters.iter_mut().zip(ls) {
                    f.push(coords, v);
                }
            }
            None => {
                if self.labels_present {
                    self.labels_consistent = false;
                }
            }
        }
    }

    /// Close groups for dims `from..dim` against prefix `prev`.
    fn close_groups(&mut self, prev: &[i64], from: usize) {
        for k in (from.max(1)..self.dim).rev() {
            self.lb[k].push(&prev[..k], self.open_first[k]);
            self.ub[k].push(&prev[..k], self.open_last[k]);
        }
        if from == 0 && self.dim > 0 {
            self.lb[0].push(&[], self.open_first[0]);
            self.ub[0].push(&[], self.open_last[0]);
        }
    }

    /// Finalize: close open groups and assemble the folded result.
    pub fn finalize(mut self) -> FoldedStream {
        self.flush_predicted();
        if self.has_prev && !self.coarse {
            let prev = std::mem::take(&mut self.prev_buf);
            self.close_groups(&prev, 0);
        }
        let mut poly = Polyhedron::universe(self.dim);
        let mut exact = self.monotone && !self.holes && !self.coarse;
        for k in 0..self.dim {
            let affine_pair = if self.coarse {
                None
            } else {
                match (self.lb[k].result(), self.ub[k].result()) {
                    (FitResult::Affine(l), FitResult::Affine(u)) => {
                        match (
                            rat_bound_to_expr(&l, k, self.dim),
                            rat_bound_to_expr(&u, k, self.dim),
                        ) {
                            (Some(le), Some(ue)) => Some((le, ue)),
                            _ => None,
                        }
                    }
                    _ => None,
                }
            };
            match affine_pair {
                Some((le, ue)) => {
                    poly.add_var_bounds(k, &le, &ue);
                }
                None => {
                    exact = false;
                    let lo = AffineExpr::constant(self.dim, self.box_lo[k]);
                    let hi = AffineExpr::constant(self.dim, self.box_hi[k]);
                    poly.add_var_bounds(k, &lo, &hi);
                }
            }
        }
        if self.count == 0 {
            exact = false;
        }
        let labels = if !self.labels_present {
            LabelFold::None
        } else if self.coarse {
            LabelFold::Range(self.label_range.clone())
        } else if !self.labels_consistent {
            LabelFold::Range(self.label_fitters.iter().map(|f| f.range()).collect())
        } else {
            let results: Vec<FitResult> = self.label_fitters.iter().map(|f| f.result()).collect();
            if results.iter().all(|r| matches!(r, FitResult::Affine(_))) {
                LabelFold::Affine(
                    results
                        .into_iter()
                        .map(|r| match r {
                            FitResult::Affine(a) => a,
                            _ => unreachable!(),
                        })
                        .collect(),
                )
            } else {
                LabelFold::Range(self.label_fitters.iter().map(|f| f.range()).collect())
            }
        };
        FoldedStream {
            domain: FoldedDomain {
                poly,
                exact,
                count: self.count,
                dim: self.dim,
                box_lo: self.box_lo,
                box_hi: self.box_hi,
            },
            labels,
        }
    }
}

/// Lift a bound over the first `k` variables to a `dim`-variable integer
/// affine expression (None if the fit has fractional coefficients).
fn rat_bound_to_expr(a: &RatAffine, k: usize, dim: usize) -> Option<AffineExpr> {
    if !a.is_integral() {
        return None;
    }
    let mut coeffs = vec![0i64; dim];
    for (i, c) in a.coeffs.iter().enumerate() {
        debug_assert!(i < k);
        coeffs[i] = c.num() as i64;
    }
    Some(AffineExpr::new(coeffs, a.c.num() as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rectangular 2-D nest: exact fold into 0<=i<4 × 0<=j<3.
    #[test]
    fn rectangle_folds_exactly() {
        let mut f = StreamFolder::new(2);
        for i in 0..4 {
            for j in 0..3 {
                f.push(&[i, j], None);
            }
        }
        let r = f.finalize();
        assert!(r.domain.exact);
        assert_eq!(r.domain.count, 12);
        assert_eq!(r.domain.poly.count_points(100), Some(12));
        assert!(r.domain.poly.contains(&[3, 2]));
        assert!(!r.domain.poly.contains(&[4, 0]));
        assert_eq!(r.labels, LabelFold::None);
    }

    /// Triangular nest (j <= i): the inner upper bound is affine in i.
    #[test]
    fn triangle_folds_exactly() {
        let mut f = StreamFolder::new(2);
        for i in 0..6 {
            for j in 0..=i {
                f.push(&[i, j], None);
            }
        }
        let r = f.finalize();
        assert!(r.domain.exact, "triangular bounds are affine");
        assert_eq!(r.domain.poly.count_points(100), Some(21));
        assert!(r.domain.poly.contains(&[5, 5]));
        assert!(!r.domain.poly.contains(&[3, 4]));
    }

    /// Guarded statement (only even j): holes → over-approximation that
    /// still contains every point.
    #[test]
    fn holes_force_overapproximation() {
        let mut f = StreamFolder::new(2);
        for i in 0..4 {
            for j in (0..6).step_by(2) {
                f.push(&[i, j], None);
            }
        }
        let r = f.finalize();
        assert!(!r.domain.exact);
        for i in 0..4 {
            for j in (0..6).step_by(2) {
                assert!(r.domain.poly.contains(&[i, j]));
            }
        }
    }

    /// Non-monotone stream (same context re-executed): over-approximation.
    #[test]
    fn nonmonotone_is_absorbed() {
        let mut f = StreamFolder::new(1);
        for i in 0..5 {
            f.push(&[i], None);
        }
        for i in 0..5 {
            f.push(&[i], None);
        }
        let r = f.finalize();
        assert!(!r.domain.exact);
        assert_eq!(r.domain.count, 10);
        assert!(r.domain.poly.contains(&[4]));
        assert!(!r.domain.poly.contains(&[5]));
    }

    /// Labels: affine value recognition (the paper's I5: a(cj, ck) = ck+1).
    #[test]
    fn affine_labels_recognized() {
        let mut f = StreamFolder::new(2);
        for cj in 0..15 {
            for ck in 0..42 {
                f.push(&[cj, ck], Some(&[ck + 1]));
            }
        }
        let r = f.finalize();
        let LabelFold::Affine(ls) = &r.labels else {
            panic!("expected affine labels");
        };
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].display(&["cj", "ck"]), "ck + 1");
    }

    /// Vector labels (dependence producer coordinates).
    #[test]
    fn vector_labels_fold_componentwise() {
        let mut f = StreamFolder::new(2);
        for i in 0..5 {
            for j in 0..5 {
                // producer = (i, j-1)
                f.push(&[i, j], Some(&[i, j - 1]));
            }
        }
        let r = f.finalize();
        let LabelFold::Affine(ls) = &r.labels else {
            panic!("expected affine");
        };
        assert_eq!(ls[0].display(&["i", "j"]), "i");
        assert_eq!(ls[1].display(&["i", "j"]), "j - 1");
    }

    /// Non-affine labels degrade to ranges, domain stays exact.
    #[test]
    fn nonaffine_labels_range() {
        let mut f = StreamFolder::new(1);
        for i in 0..8 {
            f.push(&[i], Some(&[i * i]));
        }
        let r = f.finalize();
        assert!(r.domain.exact);
        assert_eq!(r.labels, LabelFold::Range(vec![(0, 49)]));
    }

    /// Consecutive duplicates (twice-used operands) are deduplicated.
    #[test]
    fn duplicates_deduplicated() {
        let mut f = StreamFolder::new(1);
        for i in 0..4 {
            f.push(&[i], None);
            f.push(&[i], None);
        }
        let r = f.finalize();
        assert!(r.domain.exact);
        assert_eq!(r.domain.count, 4);
    }

    /// Lower bound affine in the outer dim: j from i..5 (ck' >= 1 pattern of
    /// the paper's Table 2 third row).
    #[test]
    fn affine_lower_bound() {
        let mut f = StreamFolder::new(2);
        for i in 0..5 {
            for j in i..5 {
                f.push(&[i, j], None);
            }
        }
        let r = f.finalize();
        assert!(r.domain.exact);
        assert_eq!(r.domain.poly.count_points(100), Some(15));
        assert!(!r.domain.poly.contains(&[3, 2]));
    }

    /// Depth-3 nest with mixed bounds folds exactly.
    #[test]
    fn depth3_exact() {
        let mut f = StreamFolder::new(3);
        let mut n = 0u64;
        for i in 0..4 {
            for j in 0..=i {
                for k in j..4 {
                    f.push(&[i, j, k], None);
                    n += 1;
                }
            }
        }
        let r = f.finalize();
        assert!(r.domain.exact);
        assert_eq!(r.domain.count, n);
        assert_eq!(r.domain.poly.count_points(1000), Some(n));
    }

    #[test]
    fn empty_stream() {
        let f = StreamFolder::new(2);
        let r = f.finalize();
        assert_eq!(r.domain.count, 0);
        assert!(!r.domain.exact);
    }

    #[test]
    fn single_point() {
        let mut f = StreamFolder::new(2);
        f.push(&[3, 7], Some(&[42]));
        let r = f.finalize();
        assert_eq!(r.domain.count, 1);
        assert!(r.domain.poly.contains(&[3, 7]));
        assert_eq!(r.domain.poly.count_points(10), Some(1));
        assert!(r.labels.is_affine());
    }

    /// Coarse mode is a sound superset: same count (dedup retained), box
    /// bounds contain every point, never exact.
    #[test]
    fn degraded_folder_is_superset_with_same_count() {
        let mut exact = StreamFolder::new(2);
        let mut coarse = StreamFolder::new(2);
        coarse.degrade();
        assert!(coarse.is_coarse());
        for i in 0..6 {
            for j in 0..=i {
                exact.push(&[i, j], Some(&[i + j]));
                coarse.push(&[i, j], Some(&[i + j]));
                // duplicates must dedup identically in both modes
                coarse.push(&[i, j], Some(&[i + j]));
            }
        }
        let re = exact.finalize();
        let rc = coarse.finalize();
        assert_eq!(rc.domain.count, re.domain.count);
        assert!(!rc.domain.exact);
        assert_eq!(rc.domain.box_lo, re.domain.box_lo);
        assert_eq!(rc.domain.box_hi, re.domain.box_hi);
        for i in 0..6 {
            for j in 0..=i {
                assert!(rc.domain.poly.contains(&[i, j]));
            }
        }
        assert_eq!(rc.labels, LabelFold::Range(vec![(0, 10)]));
    }

    /// Degrading mid-stream keeps ranges accumulated by the fitters.
    #[test]
    fn midstream_degrade_keeps_label_ranges() {
        let mut f = StreamFolder::new(1);
        for i in 0..4 {
            f.push(&[i], Some(&[i * 10]));
        }
        f.degrade();
        for i in 4..8 {
            f.push(&[i], Some(&[i * 10]));
        }
        let r = f.finalize();
        assert_eq!(r.domain.count, 8);
        assert!(!r.domain.exact);
        assert!(r.domain.poly.contains(&[0]) && r.domain.poly.contains(&[7]));
        assert_eq!(r.labels, LabelFold::Range(vec![(0, 70)]));
    }
}
