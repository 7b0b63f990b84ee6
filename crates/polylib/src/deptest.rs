//! Exact integer dependence testing for affine access pairs.
//!
//! Given two access functions `base + Σ cᵈ·kᵈ` over a shared rectangular
//! trip-count domain `0 ≤ kᵈ < Tᵈ`, decide whether two dynamic instances can
//! touch the same address — the single-subscript polyhedral dependence
//! problem. The decision procedure layers three tests, cheapest first:
//!
//! 1. **GCD test**: the collision equation `Σ sᵈ·iᵈ − Σ dᵈ·jᵈ = Δbase` has
//!    an integer solution only if `gcd(all coefficients)` divides `Δbase`.
//!    Failure is an exact *independence* proof.
//! 2. **Rational emptiness** (Fourier–Motzkin): the collision polyhedron
//!    over `(i, j)` with the domain box attached. Rational emptiness implies
//!    integer emptiness, so this too proves independence exactly.
//! 3. **Integer witness search**: bounded point counting over the collision
//!    polyhedron. A surviving point is an exact *dependence* witness; a
//!    blown cap leaves the verdict `MaybeDependent` (treated as dependent —
//!    the sound direction for both the lint and the legality checker).
//!
//! Every non-independent verdict carries a [`DepRelation`]: per-dimension
//! bounds on the distance `j − i` (rational bounds rounded inward), which is
//! what the schedule-legality checker consumes as direction vectors.

use crate::affine::AffineExpr;
use crate::poly::{Bound, Polyhedron};
use crate::rat::gcd;

/// An affine access function over `n` canonical trip counts:
/// `addr(k) = base + Σ coeffs[d]·k[d]` with `0 ≤ k[d] < trips[d]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessFn {
    /// Per-dimension address stride (already folded through IV init/step).
    pub coeffs: Vec<i64>,
    /// Absolute address at the domain origin.
    pub base: i64,
}

impl AccessFn {
    /// Build from parts.
    pub fn new(coeffs: Vec<i64>, base: i64) -> AccessFn {
        AccessFn { coeffs, base }
    }

    /// The address at trip-count point `k`.
    pub fn eval(&self, k: &[i64]) -> i64 {
        AffineExpr::new(self.coeffs.clone(), self.base).eval(k)
    }
}

/// Per-dimension distance bounds `j − i` over the dependence relation.
/// `None` marks an unbounded direction (cannot occur with finite trips).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepRelation {
    /// `(min, max)` of `j[d] − i[d]` for each shared dimension `d`.
    pub distance: Vec<(Option<i64>, Option<i64>)>,
}

impl DepRelation {
    /// The direction sign at `d`: `-1`, `0`, `1`, or `None` when the
    /// relation admits several signs.
    pub fn direction(&self, d: usize) -> Option<i64> {
        let (lo, hi) = self.distance[d];
        match (lo, hi) {
            (Some(l), Some(h)) if l == h => Some(l.signum()),
            (Some(l), Some(h)) if l.signum() == h.signum() => Some(l.signum()),
            _ => None,
        }
    }

    /// Does the observed per-dimension distance interval sit inside this
    /// relation's bounds? (The dynamic-⊆-static lint check.)
    pub fn admits(&self, observed: &[(i64, i64)]) -> bool {
        observed.iter().enumerate().all(|(d, &(olo, ohi))| {
            let Some(&(lo, hi)) = self.distance.get(d) else {
                return true; // deeper than the static relation: no claim
            };
            lo.is_none_or(|l| l <= olo) && hi.is_none_or(|h| ohi <= h)
        })
    }
}

/// Outcome of the layered dependence test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepResult {
    /// Exactly proven independent (GCD or emptiness).
    Independent,
    /// Exactly proven dependent (integer witness found).
    Dependent(DepRelation),
    /// Undecided at the integer level; the relation over-approximates.
    MaybeDependent(DepRelation),
}

impl DepResult {
    /// The relation, when not independent.
    pub fn relation(&self) -> Option<&DepRelation> {
        match self {
            DepResult::Independent => None,
            DepResult::Dependent(r) | DepResult::MaybeDependent(r) => Some(r),
        }
    }

    /// Was the verdict exact (either way)?
    pub fn is_exact(&self) -> bool {
        !matches!(self, DepResult::MaybeDependent(_))
    }
}

/// The collision polyhedron over `(i, j)` ∈ `[0,T)²ⁿ` with
/// `src(i) == dst(j)`. Dimensions `0..n` are `i`, `n..2n` are `j`.
fn collision_poly(src: &AccessFn, dst: &AccessFn, trips: &[u64]) -> Polyhedron {
    let n = trips.len();
    let mut p = Polyhedron::universe(2 * n);
    let mut eq = vec![0i64; 2 * n];
    eq[..n].copy_from_slice(&src.coeffs);
    for (d, &c) in dst.coeffs.iter().enumerate() {
        eq[n + d] = -c;
    }
    p.add_eq(&AffineExpr::new(eq, src.base.wrapping_sub(dst.base)));
    for (d, &t) in trips.iter().enumerate() {
        let hi = (t as i64 - 1) as i128;
        p.add_var_bounds(d, ([], 0), ([], hi));
        p.add_var_bounds(n + d, ([], 0), ([], hi));
    }
    p
}

/// Distance bounds `j − i` per dimension over `p` (rounded inward).
///
/// Bounds are computed outermost-first and each dimension's integer-rounded
/// interval is added back as a constraint before bounding the next — the
/// integrality of an outer distance often pins an inner one exactly (e.g.
/// row-major `8i + j`: rationally `δj ∈ [−7, 7]`, but with `δi = 0` forced
/// integral the equality leaves only `δj = 0`). Rounding inward is sound:
/// every *integer* collision satisfies the rounded bounds.
///
/// The dimensions cannot share one [`Polyhedron::bounds_of`] projection:
/// each is bounded over `p` as tightened by every outer dimension's rounded
/// interval, so bounding them all over the untightened `p` would change
/// the verdicts.
fn distance_bounds(p: &Polyhedron, n: usize) -> DepRelation {
    let mut p = p.clone();
    let distance = (0..n)
        .map(|d| {
            let delta = AffineExpr::var(2 * n, n + d).sub(&AffineExpr::var(2 * n, d));
            let lo = match p.min_of(&delta) {
                Bound::Finite(r) => Some(r.ceil() as i64),
                Bound::Empty => Some(0),
                Bound::Unbounded => None,
            };
            let hi = match p.max_of(&delta) {
                Bound::Finite(r) => Some(r.floor() as i64),
                Bound::Empty => Some(0),
                Bound::Unbounded => None,
            };
            if let Some(l) = lo {
                p.add_ge(&delta.sub(&AffineExpr::constant(2 * n, l)));
            }
            if let Some(h) = hi {
                p.add_le(&delta.sub(&AffineExpr::constant(2 * n, h)));
            }
            (lo, hi)
        })
        .collect();
    DepRelation { distance }
}

/// Layered dependence decision for a `src → dst` access pair over a shared
/// rectangular domain. `witness_cap` bounds the integer point search of
/// layer 3; larger caps decide more pairs exactly but cost enumeration time.
pub fn dependence_test(
    src: &AccessFn,
    dst: &AccessFn,
    trips: &[u64],
    witness_cap: u64,
) -> DepResult {
    let n = trips.len();
    assert_eq!(src.coeffs.len(), n);
    assert_eq!(dst.coeffs.len(), n);
    if trips.contains(&0) {
        return DepResult::Independent;
    }
    // Layer 1: GCD test on Σ sᵈ·iᵈ − Σ dᵈ·jᵈ = dst.base − src.base.
    let rhs = dst.base as i128 - src.base as i128;
    let mut g = 0i128;
    for &a in src.coeffs.iter().chain(&dst.coeffs) {
        g = gcd(g, a as i128);
    }
    if g == 0 {
        // Constant addresses on both sides.
        if rhs != 0 {
            return DepResult::Independent;
        }
    } else if rhs % g != 0 {
        return DepResult::Independent;
    }
    // Layer 2: rational emptiness of the collision polyhedron.
    let p = collision_poly(src, dst, trips);
    if p.is_empty() {
        return DepResult::Independent;
    }
    let rel = distance_bounds(&p, n);
    // Layer 3: bounded integer witness search.
    match p.count_points(witness_cap) {
        Some(0) => DepResult::Independent,
        Some(_) => DepResult::Dependent(rel),
        None => DepResult::MaybeDependent(rel),
    }
}

/// May a `src`/`dst` collision be *carried* at dimension `level` (0-based)?
/// Returns `false` only when statically refuted: no integer point of the
/// collision polyhedron has `j − i` zero on every dimension before `level`
/// and non-zero at `level`. The sound default is `true`.
pub fn carried_at(src: &AccessFn, dst: &AccessFn, trips: &[u64], level: usize) -> bool {
    let n = trips.len();
    assert!(level < n);
    if trips.contains(&0) {
        return false;
    }
    // An exact independence proof refutes every carry level at once.
    let rhs = dst.base as i128 - src.base as i128;
    let mut g = 0i128;
    for &a in src.coeffs.iter().chain(&dst.coeffs) {
        g = gcd(g, a as i128);
    }
    if g == 0 {
        if rhs != 0 {
            return false;
        }
    } else if rhs % g != 0 {
        return false;
    }
    let mut p = collision_poly(src, dst, trips);
    for d in 0..level {
        let delta = AffineExpr::var(2 * n, n + d).sub(&AffineExpr::var(2 * n, d));
        p.add_eq(&delta);
    }
    let delta = AffineExpr::var(2 * n, n + level).sub(&AffineExpr::var(2 * n, level));
    // δ ≥ 1 branch and δ ≤ −1 branch; both rationally empty ⇒ refuted.
    let mut fwd = p.clone();
    fwd.add_ge(&delta.sub(&AffineExpr::constant(2 * n, 1)));
    if !fwd.is_empty() {
        return true;
    }
    let mut bwd = p;
    bwd.add_le(&delta.add(&AffineExpr::constant(2 * n, 1)));
    !bwd.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn af(coeffs: &[i64], base: i64) -> AccessFn {
        AccessFn::new(coeffs.to_vec(), base)
    }

    #[test]
    fn disjoint_bases_are_independent() {
        // a[i] vs b[i] with non-overlapping ranges.
        let r = dependence_test(&af(&[1], 0), &af(&[1], 100), &[8], 1 << 12);
        assert_eq!(r, DepResult::Independent);
    }

    #[test]
    fn same_cell_every_iteration_is_dependent() {
        // a[i] vs a[i]: δ unrestricted over the box.
        let r = dependence_test(&af(&[1], 0), &af(&[1], 0), &[8], 1 << 12);
        let DepResult::Dependent(rel) = r else {
            panic!("expected dependent: {r:?}");
        };
        assert_eq!(rel.distance, vec![(Some(0), Some(0))]);
        assert_eq!(rel.direction(0), Some(0));
    }

    #[test]
    fn shifted_access_has_unit_distance() {
        // a[i] (write) vs a[i-1] (read): j = i + 1 ⇒ δ = +1.
        let r = dependence_test(&af(&[1], 0), &af(&[1], -1), &[8], 1 << 12);
        let DepResult::Dependent(rel) = r else {
            panic!("expected dependent: {r:?}");
        };
        assert_eq!(rel.distance, vec![(Some(1), Some(1))]);
        assert_eq!(rel.direction(0), Some(1));
    }

    #[test]
    fn gcd_refutes_parity_mismatch() {
        // 2i vs 2j+1 never collide.
        let r = dependence_test(&af(&[2], 0), &af(&[2], 1), &[100], 4);
        assert_eq!(r, DepResult::Independent);
    }

    #[test]
    fn big_domain_falls_back_to_maybe() {
        // Same cell, huge box: witness search blows the cap but the
        // relation still bounds the distance.
        let r = dependence_test(&af(&[1], 0), &af(&[1], 0), &[1 << 20], 4);
        assert!(!r.is_exact());
        let DepResult::MaybeDependent(rel) = r else {
            panic!("expected maybe: {r:?}");
        };
        assert_eq!(rel.distance, vec![(Some(0), Some(0))]);
    }

    #[test]
    fn empty_domain_is_independent() {
        let r = dependence_test(&af(&[1], 0), &af(&[1], 0), &[0], 4);
        assert_eq!(r, DepResult::Independent);
    }

    #[test]
    fn two_dim_row_access_distances() {
        // a[8i + j] write vs a[8i + j] read over 4×8: only δ = (0,0).
        let w = af(&[8, 1], 0);
        let r = dependence_test(&w, &w, &[4, 8], 1 << 12);
        let rel = r.relation().unwrap();
        assert_eq!(rel.distance, vec![(Some(0), Some(0)), (Some(0), Some(0))]);
    }

    #[test]
    fn carried_level_detection() {
        // In-place stencil a[i] = f(a[i-1]) over one loop: carried at 0.
        assert!(carried_at(&af(&[1], 0), &af(&[1], -1), &[8], 0));
        // Elementwise a[i] vs a[i]: δ = 0 only — not carried.
        assert!(!carried_at(&af(&[1], 0), &af(&[1], 0), &[8], 0));
        // Disjoint bases: refuted outright.
        assert!(!carried_at(&af(&[1], 0), &af(&[1], 100), &[8], 0));
    }

    #[test]
    fn carried_outer_vs_inner() {
        // a[8i + j] vs a[8i + j - 8]: collision at δ = (1, 0) — carried at
        // the outer loop, refuted at the inner one.
        let w = af(&[8, 1], 0);
        let rdr = af(&[8, 1], -8);
        assert!(carried_at(&w, &rdr, &[4, 8], 0));
        assert!(!carried_at(&w, &rdr, &[4, 8], 1));
    }

    #[test]
    fn admits_checks_observed_distances() {
        let rel = DepRelation {
            distance: vec![(Some(0), Some(2)), (Some(-1), Some(1))],
        };
        assert!(rel.admits(&[(0, 2), (0, 0)]));
        assert!(rel.admits(&[(1, 1)]));
        assert!(!rel.admits(&[(0, 3), (0, 0)]));
        assert!(!rel.admits(&[(0, 0), (-2, 0)]));
        // Observations deeper than the relation are out of scope.
        assert!(rel.admits(&[(0, 0), (0, 0), (5, 9)]));
    }
}
