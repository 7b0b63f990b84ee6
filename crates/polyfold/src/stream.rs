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

use crate::fitter::{OnlineAffineFitter, RatAffine};
use polylib::{Polyhedron, Rat};

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
    /// Every `i64` array the folder keeps ([`Arrays`]) back to back, in one
    /// buffer retained across pushes (steady-state pushes never allocate).
    arrays: Vec<i64>,
    /// Leading coordinates whose distance to the label of the same index is
    /// tracked: a dependence folder's common prefix (see
    /// [`StreamFolder::for_dependence`]), 0 for any other folder.
    dists: usize,
    has_prev: bool,
    monotone: bool,
    holes: bool,
    /// Per dimension `k`, the fitters of its groups' lower and upper bounds
    /// as affine functions of the first `k` coordinates.
    bounds: Vec<[OnlineAffineFitter; 2]>,
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

/// What the next point of a run looks like: the previous point moved
/// forward along the last dimension by some `Δ ≥ 1`, every affine label
/// advanced by `Δ` times its candidate's coefficient on that dimension, any
/// value for a label whose fitter has failed. Its per-label state lives in
/// the folder's buffer ([`Arrays`]).
#[derive(Debug, Clone, Default)]
struct Predictor {
    /// Set after a push that left every label fitter either failed or
    /// holding a live integer candidate (and the folder exact-mode, labels
    /// consistent).
    armed: bool,
    /// A free label has a tracked distance, so predicted pushes widen the
    /// distance ranges themselves instead of leaving it to the flush.
    dists_each_push: bool,
    /// Predicted pushes not yet tallied in the label fitters.
    pending: u64,
    /// Predicted pushes since construction.
    hits: u64,
}

/// A [`StreamFolder`]'s arrays, split out of its one buffer: five per
/// dimension, a `(lo, hi)` pair per tracked distance, then — once the
/// prediction has been armed on a labelled stream — one [`Slot`] per label.
struct Arrays<'a> {
    /// Per-dimension observed minima (bounding box).
    box_lo: &'a mut [i64],
    /// Per-dimension observed maxima (bounding box).
    box_hi: &'a mut [i64],
    /// The previous point, once there is one.
    prev: &'a mut [i64],
    /// Per-dimension open-group first values.
    first: &'a mut [i64],
    /// Per-dimension open-group last values.
    last: &'a mut [i64],
    /// Per tracked distance `coords[i] − labels[i]`, its `[lo, hi]` range.
    dist: &'a mut [[i64; 2]],
    /// The prediction's state per label.
    slots: &'a mut [Slot],
}

/// The prediction's state for one label, indexed by [`LAB`], [`STEP`],
/// [`FREE`], [`LO`] and [`HI`].
type Slot = [i64; SLOT];
/// Values in a [`Slot`].
const SLOT: usize = 5;
/// The label at the previous point; an affine one equals its fitter's
/// candidate there.
const LAB: usize = 0;
/// The candidate's coefficient on the last dimension.
const STEP: usize = 1;
/// 1 if the label's fitter has failed (the label is free), else 0.
const FREE: usize = 2;
/// For a free label, the least value predicted pushes brought.
const LO: usize = 3;
/// For a free label, the greatest value predicted pushes brought.
const HI: usize = 4;

impl<'a> Arrays<'a> {
    /// Arrays per dimension.
    const PER_DIM: usize = 5;

    /// Split `buf`, the box first; the slots take what follows the
    /// distances.
    #[inline]
    fn of(buf: &'a mut [i64], dim: usize, dists: usize) -> Self {
        let (box_lo, rest) = buf.split_at_mut(dim);
        let (box_hi, rest) = rest.split_at_mut(dim);
        let (prev, rest) = rest.split_at_mut(dim);
        let (first, rest) = rest.split_at_mut(dim);
        let (last, rest) = rest.split_at_mut(dim);
        let (dist, slots) = rest.split_at_mut(2 * dists);
        Arrays {
            box_lo,
            box_hi,
            prev,
            first,
            last,
            dist: dist.as_chunks_mut().0,
            slots: slots.as_chunks_mut().0,
        }
    }
}

/// Widen the distance ranges by `coords[i] − labels[i]`, over the indices
/// all three cover.
#[inline]
fn track_distances(dist: &mut [[i64; 2]], coords: &[i64], labels: &[i64]) {
    for (d, (&c, &l)) in dist.iter_mut().zip(coords.iter().zip(labels)) {
        widen(d, c, l);
    }
}

/// Widen one distance range by `c − l`.
#[inline]
fn widen(d: &mut [i64; 2], c: i64, l: i64) {
    // Saturating: a replayed recording may hold any coordinates, and a
    // clamped distance keeps its sign and order.
    let v = c.saturating_sub(l);
    d[0] = d[0].min(v);
    d[1] = d[1].max(v);
}

impl StreamFolder {
    /// Folder for `dim`-dimensional points (integer fast-path fitters).
    pub fn new(dim: usize) -> Self {
        Self::with_fast_fit(dim, true)
    }

    /// Folder with the fitters' integer fast path explicitly enabled or
    /// disabled (`false` = the pure-rational reference configuration).
    pub fn with_fast_fit(dim: usize, fast_fit: bool) -> Self {
        Self::build(dim, fast_fit, 0, 1)
    }

    /// Folder for a dependence stream: points are the consumer's
    /// coordinates, labels the producer's (`src_dim` of them). It also keeps
    /// the range of each distance `dst_c − src_c` over the common prefix,
    /// which [`distances`](Self::distances) reports.
    pub(crate) fn for_dependence(dim: usize, fast_fit: bool, src_dim: usize) -> Self {
        Self::build(dim, fast_fit, dim.min(src_dim), src_dim)
    }

    /// Folder with `dists` tracked distances and room reserved for the
    /// prediction's arrays over `arity` labels, so arming never reallocates.
    fn build(dim: usize, fast_fit: bool, dists: usize, arity: usize) -> Self {
        let len = Arrays::PER_DIM * dim + 2 * dists;
        let labels = if dim > 0 { SLOT * arity } else { 0 };
        let mut arrays = Vec::with_capacity(len + labels);
        arrays.resize(len, 0);
        let a = Arrays::of(&mut arrays, dim, dists);
        a.box_lo.fill(i64::MAX);
        a.box_hi.fill(i64::MIN);
        a.dist.fill([i64::MAX, i64::MIN]);
        StreamFolder {
            dim,
            count: 0,
            arrays,
            dists,
            has_prev: false,
            monotone: true,
            holes: false,
            bounds: (0..dim)
                .map(|k| [(); 2].map(|_| OnlineAffineFitter::with_fast(k, fast_fit)))
                .collect(),
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

    /// The observed range of each tracked distance `coords[i] − labels[i]`
    /// (empty unless built by [`for_dependence`](Self::for_dependence)):
    /// exact facts of the stream, affine or not.
    pub(crate) fn distances(&mut self) -> Vec<(i64, i64)> {
        self.flush_predicted();
        let a = Arrays::of(&mut self.arrays, self.dim, self.dists);
        a.dist.iter().map(|&[lo, hi]| (lo, hi)).collect()
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
        self.bounds = Vec::new();
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
    /// Within a run along the last dimension a folded stream is almost
    /// always predictable: the next point is the previous one moved forward
    /// along the last dimension by `Δ` (1, or more under a guard or a
    /// stride), every label with a live candidate advanced by `Δ` times its
    /// last coefficient, and every label whose fitter has failed anything at
    /// all. Such a push is accepted by comparing it with that prediction —
    /// O(dim + labels) compares on the folder's one buffer, no fitter
    /// entered — and its effect on the label fitters (a sample count and a
    /// value range) and on the distance ranges is deferred. Every other push
    /// first settles the deferred tally, then takes the general path and
    /// re-arms the prediction. The prediction decides nothing a fitter would
    /// decide differently: the previous labels equal the candidates at the
    /// previous point, so `previous + Δ·step` *is* the candidate at this
    /// one, in exact integers (an overflowing product or sum cannot equal an
    /// `i64` label and is left to the general path), and a failed fitter
    /// decides nothing. With `fast_fit` off it is never armed.
    pub fn push(&mut self, coords: &[i64], labels: Option<&[i64]>) {
        assert_eq!(coords.len(), self.dim, "stream changed dimensionality");
        if self.pred.armed && self.push_predicted(coords, labels) {
            return;
        }
        self.flush_predicted();
        if let Some(ls) = labels.filter(|_| self.dists > 0) {
            let a = Arrays::of(&mut self.arrays, self.dim, self.dists);
            track_distances(a.dist, coords, ls);
        }
        self.push_general(coords, labels);
        self.rearm(labels);
    }

    /// Accept `coords`/`labels` if they are a predicted next point. Leaves
    /// everything [`push_general`](Self::push_general) would have changed
    /// for such a point changed the same way, except the label fitters'
    /// tallies and (unless a free label has one) the distance ranges, which
    /// wait for [`flush_predicted`](Self::flush_predicted).
    #[inline]
    fn push_predicted(&mut self, coords: &[i64], labels: Option<&[i64]>) -> bool {
        let d = self.dim;
        let last = d - 1;
        // `Arrays::of`'s layout, indexed directly: a hit takes two slices
        // instead of that function's seven bounds-checked splits.
        let (dims, rest) = self.arrays.split_at_mut(Arrays::PER_DIM * d);
        let prev = &mut dims[2 * d..3 * d];
        if coords[..last] != prev[..last] {
            return false;
        }
        let c = coords[last];
        let delta = match c.checked_sub(prev[last]) {
            Some(delta) if delta > 0 => delta,
            _ => return false,
        };
        match labels {
            None if self.labels_present => return false,
            None => {}
            Some(ls) => {
                let (dist, slots) = rest.split_at_mut(2 * self.dists);
                let slots = slots.as_chunks_mut::<{ SLOT }>().0;
                if !self.labels_present || ls.len() != slots.len() {
                    return false;
                }
                for (&l, s) in ls.iter().zip(&*slots) {
                    if s[FREE] == 0
                        && s[STEP]
                            .checked_mul(delta)
                            .and_then(|x| s[LAB].checked_add(x))
                            != Some(l)
                    {
                        return false;
                    }
                }
                for (&l, s) in ls.iter().zip(slots) {
                    if s[FREE] == 0 {
                        s[LAB] = l;
                    } else {
                        s[LO] = s[LO].min(l);
                        s[HI] = s[HI].max(l);
                    }
                }
                if self.pred.dists_each_push {
                    track_distances(dist.as_chunks_mut().0, coords, ls);
                }
            }
        }
        prev[last] = c;
        dims[d + last] = dims[d + last].max(c); // box_hi
        dims[4 * d + last] = c; // open group's last
        if delta != 1 {
            // What the general path concludes from the same jump.
            self.holes = true;
        }
        self.pred.pending += 1;
        self.pred.hits += 1;
        self.count += 1;
        true
    }

    /// Feed the `n` points `coords + t·coord_stride` for `t` in `1..=n`, each
    /// with the labels `base + t·stride` (every word wrapping) — a run of a
    /// loop body ([`polyddg::FoldSink::body_run`]). Leaves every field,
    /// [`predicted`](Self::predicted) included, exactly as the `n` pushes
    /// would, and takes O(dim + labels) when they would all be predicted:
    /// see `run_predicted`. Otherwise it pushes the first point and retries
    /// on the rest, from the state that push left; failing again, it pushes
    /// them one by one.
    pub fn push_run(
        &mut self,
        coords: &[i64],
        coord_stride: &[i64],
        labels: Option<(&[i64], &[i64])>,
        n: u64,
    ) {
        assert_eq!(coords.len(), self.dim, "stream changed dimensionality");
        if n == 0 || self.run_predicted(coords, coord_stride, labels, n) {
            return;
        }
        let step = |w: &mut [i64], stride: &[i64]| {
            for (w, &s) in w.iter_mut().zip(stride) {
                *w = w.wrapping_add(s);
            }
        };
        let mut c = coords.to_vec();
        let mut l = labels.map(|(base, _)| base.to_vec());
        let label_stride = labels.map_or(&[][..], |(_, stride)| stride);
        step(&mut c, coord_stride);
        if let Some(l) = &mut l {
            step(l, label_stride);
        }
        self.push(&c, l.as_deref());
        let rest = l.as_deref().map(|l| (l, label_stride));
        if n == 1 || self.run_predicted(&c, coord_stride, rest, n - 1) {
            return;
        }
        for _ in 1..n {
            step(&mut c, coord_stride);
            if let Some(l) = &mut l {
                step(l, label_stride);
            }
            self.push(&c, l.as_deref());
        }
    }

    /// Accept all of [`push_run`](Self::push_run)'s points at once if each
    /// would pass [`push_predicted`](Self::push_predicted) in turn: the
    /// folder is armed, the coordinates move along the last dimension only,
    /// by `Δ > 0`, the first point passes the test against the folder's own
    /// previous point, every affine label moves by its step times `Δ`, and
    /// every word's last value `base + n·stride` is an `i64` — so no word
    /// wraps along the run, every word is linear in `t`, and the free
    /// labels' and distances' extremes are at the run's two ends
    /// (saturating is monotone). Changes nothing when it returns false.
    fn run_predicted(
        &mut self,
        coords: &[i64],
        coord_stride: &[i64],
        labels: Option<(&[i64], &[i64])>,
        n: u64,
    ) -> bool {
        let Ok(n_i) = i64::try_from(n) else {
            return false;
        };
        let at = |base: i64, stride: i64| stride.checked_mul(n_i)?.checked_add(base);
        if !self.pred.armed {
            return false;
        }
        let d = self.dim;
        let last = d - 1;
        let (dims, rest) = self.arrays.split_at_mut(Arrays::PER_DIM * d);
        let prev = &mut dims[2 * d..3 * d];
        let delta = coord_stride[last];
        if delta <= 0
            || coord_stride[..last].iter().any(|&s| s != 0)
            || coords[..last] != prev[..last]
        {
            return false;
        }
        let Some(c_end) = at(coords[last], delta) else {
            return false;
        };
        // In range: between the base and the end.
        let c_first = coords[last] + delta;
        let delta_first = match c_first.checked_sub(prev[last]) {
            Some(delta) if delta > 0 => delta,
            _ => return false,
        };
        match labels {
            None if self.labels_present => return false,
            None => {}
            Some((base, stride)) => {
                let (dist, slots) = rest.split_at_mut(2 * self.dists);
                let slots = slots.as_chunks_mut::<{ SLOT }>().0;
                if !self.labels_present || base.len() != slots.len() {
                    return false;
                }
                for ((&b, &st), s) in base.iter().zip(stride).zip(&*slots) {
                    if at(b, st).is_none() {
                        return false;
                    }
                    if s[FREE] == 0
                        && (s[STEP]
                            .checked_mul(delta_first)
                            .and_then(|x| s[LAB].checked_add(x))
                            != Some(b + st)
                            || n > 1 && s[STEP].checked_mul(delta) != Some(st))
                    {
                        return false;
                    }
                }
                for ((&b, &st), s) in base.iter().zip(stride).zip(&mut *slots) {
                    let (first, end) = (b + st, b + st * n_i);
                    if s[FREE] == 0 {
                        s[LAB] = end;
                    } else {
                        s[LO] = s[LO].min(first.min(end));
                        s[HI] = s[HI].max(first.max(end));
                    }
                }
                if self.pred.dists_each_push {
                    let dist = dist.as_chunks_mut().0;
                    for (i, (d, (&b, &st))) in
                        dist.iter_mut().zip(base.iter().zip(stride)).enumerate()
                    {
                        let (c1, cn) = if i == last {
                            (c_first, c_end)
                        } else {
                            (coords[i], coords[i])
                        };
                        widen(d, c1, b + st);
                        widen(d, cn, b + st * n_i);
                    }
                }
            }
        }
        prev[last] = c_end;
        dims[d + last] = dims[d + last].max(c_end); // box_hi
        dims[4 * d + last] = c_end; // open group's last
        if delta_first != 1 || n > 1 && delta != 1 {
            self.holes = true;
        }
        self.pred.pending += n;
        self.pred.hits += n;
        self.count += n;
        true
    }

    /// Settle the deferred tally of predicted pushes into the label fitters
    /// and the distance ranges. Along a run the coordinates and the affine
    /// labels move linearly in the last coordinate, from a point the general
    /// path has already seen to the stored previous point and labels, so the
    /// latter bound the whole run; a free label brought its own range.
    fn flush_predicted(&mut self) {
        let n = std::mem::take(&mut self.pred.pending);
        if n == 0 {
            return;
        }
        let a = Arrays::of(&mut self.arrays, self.dim, self.dists);
        for (f, s) in self.label_fitters.iter_mut().zip(&*a.slots) {
            if s[FREE] == 0 {
                f.absorb(n, s[LAB], s[LAB]);
            } else {
                f.absorb(n, s[LO], s[HI]);
            }
        }
        if !self.pred.dists_each_push {
            for (d, (&c, s)) in a.dist.iter_mut().zip(a.prev.iter().zip(&*a.slots)) {
                widen(d, c, s[LAB]);
            }
        }
    }

    /// Arm the prediction after a general push of `labels`, if the stream is
    /// in the regular state the prediction's equivalence argument needs.
    fn rearm(&mut self, labels: Option<&[i64]>) {
        self.pred.armed = false;
        if !self.fast_fit || self.coarse || self.dim == 0 || !self.labels_consistent {
            return;
        }
        let mut dists_each_push = false;
        match labels {
            None if self.labels_present => return,
            None => {}
            Some(ls) => {
                if self.label_arity != Some(ls.len()) {
                    return;
                }
                let len = Arrays::PER_DIM * self.dim + 2 * self.dists;
                self.arrays.resize(len + SLOT * ls.len(), 0);
                let a = Arrays::of(&mut self.arrays, self.dim, self.dists);
                for (k, (f, s)) in self.label_fitters.iter().zip(a.slots).enumerate() {
                    *s = if f.is_failed() {
                        dists_each_push |= k < self.dists;
                        [0, 0, 1, i64::MAX, i64::MIN]
                    } else if let Some(step) = f.fast_step() {
                        [ls[k], step, 0, 0, 0]
                    } else {
                        return;
                    };
                }
            }
        }
        self.pred.dists_each_push = dists_each_push;
        self.pred.armed = true;
    }

    fn push_general(&mut self, coords: &[i64], labels: Option<&[i64]>) {
        let a = Arrays::of(&mut self.arrays, self.dim, self.dists);
        // Exact duplicate of the previous point (e.g. a twice-used operand
        // producing the same dependence twice): ignore.
        if self.has_prev && a.prev == coords {
            // Labels of duplicates still verified for consistency.
            self.push_labels(coords, labels);
            return;
        }
        self.count += 1;
        for (k, &c) in coords.iter().enumerate() {
            a.box_lo[k] = a.box_lo[k].min(c);
            a.box_hi[k] = a.box_hi[k].max(c);
        }
        if self.coarse {
            // Degraded path: box + count only — no group machinery. The
            // dedup compare above still needs the previous point.
            a.prev.copy_from_slice(coords);
            self.has_prev = true;
            self.push_labels(coords, labels);
            return;
        }
        if !self.has_prev {
            a.first.copy_from_slice(coords);
            a.last.copy_from_slice(coords);
        } else {
            match (0..self.dim).find(|&k| coords[k] != a.prev[k]) {
                None => unreachable!("duplicates handled above"),
                Some(j) if coords[j] < a.prev[j] => {
                    // Lexicographic decrease: loop re-entry under an
                    // unmodelled repetition — over-approximate.
                    self.monotone = false;
                    // Close everything and restart groups.
                    close_groups(&mut self.bounds, &a, 0);
                    a.first.copy_from_slice(coords);
                    a.last.copy_from_slice(coords);
                }
                Some(j) => {
                    if coords[j] != a.prev[j] + 1 {
                        self.holes = true;
                    }
                    close_groups(&mut self.bounds, &a, j + 1);
                    a.last[j] = coords[j];
                    a.first[j + 1..].copy_from_slice(&coords[j + 1..]);
                    a.last[j + 1..].copy_from_slice(&coords[j + 1..]);
                }
            }
        }
        a.prev.copy_from_slice(coords);
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

    /// Finalize: close open groups and assemble the folded result.
    ///
    /// A dimension's groups fold to affine bounds only when both fitters
    /// hold an integral candidate with `i64`-sized coefficients; otherwise
    /// the dimension takes its bounding box and the domain is not exact.
    /// Both kinds of constraint are built in `i128`, so a box at the `i64`
    /// limits still contains every point.
    pub fn finalize(mut self) -> FoldedStream {
        self.flush_predicted();
        let d = self.dim;
        let a = Arrays::of(&mut self.arrays, d, self.dists);
        if self.has_prev && !self.coarse {
            close_groups(&mut self.bounds, &a, 0);
        }
        let mut poly = Polyhedron::universe(d);
        let mut exact = self.monotone && !self.holes && !self.coarse;
        for k in 0..d {
            let affine_pair = self.bounds.get(k).and_then(|[lb, ub]| {
                let pair = (lb.candidate()?, ub.candidate()?);
                (pair.0.is_i64() && pair.1.is_i64()).then_some(pair)
            });
            match affine_pair {
                Some((l, u)) => poly.add_var_bounds(
                    k,
                    (l.coeffs.iter().map(Rat::num), l.c.num()),
                    (u.coeffs.iter().map(Rat::num), u.c.num()),
                ),
                None => {
                    exact = false;
                    poly.add_var_bounds(k, ([], a.box_lo[k].into()), ([], a.box_hi[k].into()));
                }
            }
        }
        if self.count == 0 {
            exact = false;
        }
        let labels = if !self.labels_present {
            LabelFold::None
        } else if self.coarse {
            LabelFold::Range(self.label_range)
        } else if self.labels_consistent
            && self.label_fitters.iter().all(|f| f.candidate().is_some())
        {
            LabelFold::Affine(
                self.label_fitters
                    .into_iter()
                    .map(|f| f.into_candidate().expect("every label fitter is affine"))
                    .collect(),
            )
        } else {
            LabelFold::Range(self.label_fitters.iter().map(|f| f.range()).collect())
        };
        let mut box_lo = self.arrays;
        let box_hi = box_lo[d..2 * d].to_vec();
        box_lo.truncate(d);
        FoldedStream {
            domain: FoldedDomain {
                poly,
                exact,
                count: self.count,
                dim: d,
                box_lo,
                box_hi,
            },
            labels,
        }
    }
}

/// Close the open groups of dimensions `from..` against the previous point,
/// innermost first.
fn close_groups(bounds: &mut [[OnlineAffineFitter; 2]], a: &Arrays<'_>, from: usize) {
    for k in (from..bounds.len()).rev() {
        let [lb, ub] = &mut bounds[k];
        lb.push(&a.prev[..k], a.first[k]);
        ub.push(&a.prev[..k], a.last[k]);
    }
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

    /// A bound whose coefficient does not fit `i64` (here `MIN − MAX`) is
    /// not exact: the dimension takes its box, which holds both points.
    #[test]
    fn out_of_range_bound_takes_the_box() {
        let pts = [[0, i64::MAX], [1, i64::MIN]];
        let mut f = StreamFolder::new(2);
        for p in &pts {
            f.push(p, None);
        }
        let r = f.finalize();
        assert!(!r.domain.exact);
        for p in &pts {
            assert!(r.domain.poly.contains(p), "{p:?} escaped {}", r.domain.poly);
        }
    }

    /// A box at the `i64` limits is built in `i128`: it holds every point
    /// and builds without overflow.
    #[test]
    fn box_at_the_limits_holds_every_point() {
        let pts = [[0, i64::MAX - 1], [1, i64::MIN], [2, i64::MIN + 5]];
        let mut f = StreamFolder::new(2);
        for p in &pts {
            f.push(p, None);
        }
        let r = f.finalize();
        assert!(!r.domain.exact);
        assert_eq!(r.domain.box_lo, vec![0, i64::MIN]);
        assert_eq!(r.domain.box_hi, vec![2, i64::MAX - 1]);
        for p in &pts {
            assert!(r.domain.poly.contains(p), "{p:?} escaped {}", r.domain.poly);
        }
    }

    /// A guarded row jumps forward and a label whose fitter failed is free:
    /// after the first row only each row's first point leaves the
    /// prediction, and the fold is the rational reference's.
    #[test]
    fn jumps_and_free_labels_are_predicted() {
        let mut fast = StreamFolder::new(2);
        let mut slow = StreamFolder::with_fast_fit(2, false);
        for i in 0..4 {
            for j in (0..20).step_by(2) {
                let labels = [3 * j - i, j * j];
                fast.push(&[i, j], Some(&labels));
                slow.push(&[i, j], Some(&labels));
            }
        }
        // Row 0 misses at j = 0, 2 (fixing `3j`) and 4 (failing `j²`).
        assert_eq!(fast.predicted(), 7 + 3 * 9);
        let (fast, slow) = (fast.finalize(), slow.finalize());
        assert!(!fast.domain.exact, "the jumps are holes");
        assert_eq!(fast.labels, LabelFold::Range(vec![(-3, 54), (0, 324)]));
        assert_eq!(fast.labels, slow.labels);
        assert_eq!(fast.domain.poly, slow.domain.poly);
    }

    /// A jump whose `step · Δ` overflows `i64` is a miss, not a wrapped
    /// prediction: the general path verifies the label in exact arithmetic.
    #[test]
    fn overflowing_jump_is_left_to_the_general_path() {
        let big = i64::MAX / 2 + 1;
        let mut fast = StreamFolder::new(1);
        let mut slow = StreamFolder::with_fast_fit(1, false);
        for j in [0, 1, 3] {
            let labels = [(i64::MIN / 2).wrapping_add(big.wrapping_mul(j))];
            fast.push(&[j], Some(&labels));
            slow.push(&[j], Some(&labels));
        }
        assert_eq!(fast.predicted(), 0);
        let (fast, slow) = (fast.finalize(), slow.finalize());
        assert_eq!(fast.labels, slow.labels);
        assert!(!fast.labels.is_affine(), "the third label wrapped");
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
