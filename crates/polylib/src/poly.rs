//! Polyhedra as conjunctions of affine constraints, with Fourier–Motzkin
//! elimination — the workhorse behind emptiness, projection, affine min/max
//! and small-domain point counting.

use crate::affine::AffineExpr;
use crate::rat::{gcd, Rat};
use std::collections::HashSet;
use std::fmt;

/// One constraint `coeffs · x + c ⋈ 0` where `⋈` is `>=` (or `==` when
/// `eq` is set).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Variable coefficients.
    pub coeffs: Vec<i128>,
    /// Constant term.
    pub c: i128,
    /// Equality instead of `>= 0`.
    pub eq: bool,
}

impl Constraint {
    fn eval(&self, x: &[i64]) -> i128 {
        let mut acc = self.c;
        for (a, v) in self.coeffs.iter().zip(x) {
            acc += a * *v as i128;
        }
        acc
    }

    fn holds(&self, x: &[i64]) -> bool {
        let v = self.eval(x);
        if self.eq {
            v == 0
        } else {
            v >= 0
        }
    }

    /// Normalize by the gcd of all coefficients and the constant (rationally
    /// sound for both equalities and inequalities).
    fn normalize(&mut self) {
        let mut g = 0i128;
        for &a in &self.coeffs {
            g = gcd(g, a);
        }
        g = gcd(g, self.c);
        if g > 1 {
            for a in &mut self.coeffs {
                *a /= g;
            }
            self.c /= g;
        }
    }

    fn is_trivial(&self) -> bool {
        self.coeffs.iter().all(|&a| a == 0) && if self.eq { self.c == 0 } else { self.c >= 0 }
    }

    fn is_contradiction(&self) -> bool {
        self.coeffs.iter().all(|&a| a == 0) && if self.eq { self.c != 0 } else { self.c < 0 }
    }
}

/// Result of bounding an affine form over a polyhedron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The polyhedron is empty.
    Empty,
    /// A finite rational bound.
    Finite(Rat),
    /// No bound in that direction.
    Unbounded,
}

impl Bound {
    /// The finite value, if any.
    pub fn finite(self) -> Option<Rat> {
        match self {
            Bound::Finite(r) => Some(r),
            _ => None,
        }
    }
}

/// A (possibly unbounded) convex integer polyhedron in `dim` variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyhedron {
    dim: usize,
    /// The constraints (conjunction).
    pub cons: Vec<Constraint>,
}

impl Polyhedron {
    /// The whole space.
    pub fn universe(dim: usize) -> Polyhedron {
        Polyhedron {
            dim,
            cons: Vec::new(),
        }
    }

    /// Dimension (number of variables).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Add `expr >= 0`.
    pub fn add_ge(&mut self, expr: &AffineExpr) {
        assert_eq!(expr.dim(), self.dim);
        let mut c = Constraint {
            coeffs: expr.coeffs.iter().map(|&a| a as i128).collect(),
            c: expr.c as i128,
            eq: false,
        };
        c.normalize();
        self.cons.push(c);
    }

    /// Add `expr <= 0`.
    pub fn add_le(&mut self, expr: &AffineExpr) {
        self.add_ge(&expr.scale(-1));
    }

    /// Add `expr == 0`.
    pub fn add_eq(&mut self, expr: &AffineExpr) {
        assert_eq!(expr.dim(), self.dim);
        let mut c = Constraint {
            coeffs: expr.coeffs.iter().map(|&a| a as i128).collect(),
            c: expr.c as i128,
            eq: true,
        };
        c.normalize();
        self.cons.push(c);
    }

    /// Add `lb <= x_var` and `x_var <= ub`. Each bound is an affine form
    /// `(coeffs, c)` whose coefficients belong to the leading variables (the
    /// rest are zero), so a constant bound is `([], c)`. The constraints are
    /// built straight from those coefficients in `i128`; the first call
    /// reserves room for a pair per variable, what a folded domain holds.
    pub fn add_var_bounds(
        &mut self,
        var: usize,
        (lb, lc): (impl IntoIterator<Item = i128>, i128),
        (ub, uc): (impl IntoIterator<Item = i128>, i128),
    ) {
        if self.cons.is_empty() {
            self.cons.reserve_exact(2 * self.dim);
        }
        let mut lower = Constraint {
            coeffs: vec![0; self.dim],
            c: -lc,
            eq: false,
        }; // x - lb >= 0
        for (a, b) in lower.coeffs.iter_mut().zip(lb) {
            *a = -b;
        }
        lower.coeffs[var] += 1;
        let mut upper = Constraint {
            coeffs: vec![0; self.dim],
            c: uc,
            eq: false,
        }; // ub - x >= 0
        for (a, b) in upper.coeffs.iter_mut().zip(ub) {
            *a = b;
        }
        upper.coeffs[var] -= 1;
        for mut c in [lower, upper] {
            c.normalize();
            self.cons.push(c);
        }
    }

    /// Integer membership test.
    pub fn contains(&self, x: &[i64]) -> bool {
        assert_eq!(x.len(), self.dim);
        self.cons.iter().all(|c| c.holds(x))
    }

    /// Conjunction of two polyhedra of equal dimension.
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim);
        let mut cons = self.cons.clone();
        cons.extend(other.cons.iter().cloned());
        Polyhedron {
            dim: self.dim,
            cons,
        }
    }

    /// Expand equalities into pairs of inequalities.
    fn inequalities(&self) -> Vec<Constraint> {
        let mut out = Vec::with_capacity(self.cons.len());
        for c in &self.cons {
            if c.eq {
                out.push(Constraint {
                    coeffs: c.coeffs.clone(),
                    c: c.c,
                    eq: false,
                });
                out.push(Constraint {
                    coeffs: c.coeffs.iter().map(|a| -a).collect(),
                    c: -c.c,
                    eq: false,
                });
            } else {
                out.push(c.clone());
            }
        }
        out
    }

    /// One Fourier–Motzkin step: eliminate variable `var` from a set of
    /// inequalities (coefficients of `var` become zero).
    fn fm_eliminate(cons: &[Constraint], var: usize) -> Vec<Constraint> {
        let mut zero = Vec::new();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for c in cons {
            match c.coeffs[var].signum() {
                0 => zero.push(c.clone()),
                1 => pos.push(c.clone()),
                _ => neg.push(c.clone()),
            }
        }
        let mut seen: HashSet<(Vec<i128>, i128)> = HashSet::new();
        let mut out = Vec::new();
        for c in zero {
            if c.is_trivial() {
                continue;
            }
            if seen.insert((c.coeffs.clone(), c.c)) {
                out.push(c);
            }
        }
        for p in &pos {
            let alpha = p.coeffs[var];
            for n in &neg {
                let beta = -n.coeffs[var];
                // beta * p + alpha * n eliminates var.
                let mut comb = Constraint {
                    coeffs: p
                        .coeffs
                        .iter()
                        .zip(&n.coeffs)
                        .map(|(a, b)| beta * a + alpha * b)
                        .collect(),
                    c: beta * p.c + alpha * n.c,
                    eq: false,
                };
                comb.normalize();
                if comb.is_trivial() {
                    continue;
                }
                if seen.insert((comb.coeffs.clone(), comb.c)) {
                    out.push(comb);
                }
            }
        }
        out
    }

    /// Project out `var` (rational projection; the result's coefficients on
    /// `var` are zero but the dimension is preserved for index stability).
    pub fn eliminate(&self, var: usize) -> Polyhedron {
        let cons = Self::fm_eliminate(&self.inequalities(), var);
        Polyhedron {
            dim: self.dim,
            cons,
        }
    }

    /// Emptiness of the rational relaxation (conservative for integers:
    /// `false` may still mean integer-empty, but `true` is definitive).
    pub fn is_empty(&self) -> bool {
        let mut cons = self.inequalities();
        for v in 0..self.dim {
            if cons.iter().any(|c| c.is_contradiction()) {
                return true;
            }
            cons = Self::fm_eliminate(&cons, v);
        }
        cons.iter().any(|c| c.is_contradiction())
    }

    /// Minimum of `expr` over the rational relaxation.
    pub fn min_of(&self, expr: &AffineExpr) -> Bound {
        self.bounds_of(expr).0
    }

    /// Maximum of `expr` over the rational relaxation.
    pub fn max_of(&self, expr: &AffineExpr) -> Bound {
        self.bounds_of(expr).1
    }

    /// `(min, max)` of `expr` over the rational relaxation, from one
    /// projection: append `t = expr`, eliminate every original variable
    /// and read the largest lower and the smallest upper bound on `t`.
    /// Emptiness falls out of the same projection (a constant
    /// contradiction, or lower > upper) as `(Empty, Empty)`. FM projection
    /// is exact over the rationals, so the elimination order is immaterial.
    pub fn bounds_of(&self, expr: &AffineExpr) -> (Bound, Bound) {
        assert_eq!(expr.dim(), self.dim);
        let t = self.dim;
        let mut cons: Vec<Constraint> = self
            .inequalities()
            .into_iter()
            .map(|mut c| {
                c.coeffs.push(0);
                c
            })
            .collect();
        let mut te: Vec<i128> = expr.coeffs.iter().map(|&a| -(a as i128)).collect();
        te.push(1);
        cons.push(Constraint {
            coeffs: te.iter().map(|a| -a).collect(),
            c: expr.c as i128,
            eq: false,
        }); // e - t >= 0
        cons.push(Constraint {
            coeffs: te,
            c: -(expr.c as i128),
            eq: false,
        }); // t - e >= 0
        for v in (0..self.dim).rev() {
            if cons.iter().any(|c| c.is_contradiction()) {
                return (Bound::Empty, Bound::Empty);
            }
            cons = Self::fm_eliminate(&cons, v);
        }
        let (mut lo, mut hi): (Option<Rat>, Option<Rat>) = (None, None);
        for c in &cons {
            let a = c.coeffs[t];
            if a > 0 {
                // a·t + c >= 0  →  t >= -c/a
                let b = Rat::new(-c.c, a);
                lo = Some(lo.map_or(b, |x| x.max(b)));
            } else if a < 0 {
                // a·t + c >= 0  →  t <= c/(-a)
                let b = Rat::new(c.c, -a);
                hi = Some(hi.map_or(b, |x| x.min(b)));
            } else if c.is_contradiction() {
                return (Bound::Empty, Bound::Empty);
            }
        }
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return (Bound::Empty, Bound::Empty);
            }
        }
        let bound = |r: Option<Rat>| r.map_or(Bound::Unbounded, Bound::Finite);
        (bound(lo), bound(hi))
    }

    /// Substitute `x_var = value`, producing a polyhedron where `var` is
    /// fixed (coefficients folded into the constant).
    pub fn specialize(&self, var: usize, value: i64) -> Polyhedron {
        let cons = self
            .cons
            .iter()
            .map(|c| {
                let mut n = c.clone();
                n.c += n.coeffs[var] * value as i128;
                n.coeffs[var] = 0;
                n
            })
            .collect();
        Polyhedron {
            dim: self.dim,
            cons,
        }
    }

    /// Count integer points, up to `cap` (None if unbounded or cap blown).
    pub fn count_points(&self, cap: u64) -> Option<u64> {
        fn rec(p: &Polyhedron, var: usize, cap: u64, acc: &mut u64) -> bool {
            if *acc > cap {
                return false;
            }
            if var == p.dim() {
                if !p.is_empty() {
                    *acc += 1;
                }
                return true;
            }
            let (lo, hi) = match p.bounds_of(&AffineExpr::var(p.dim(), var)) {
                (Bound::Finite(lo), Bound::Finite(hi)) => (lo.ceil(), hi.floor()),
                (Bound::Empty, _) => return true,
                _ => return false,
            };
            if hi < lo {
                return true;
            }
            if (hi - lo) as u64 > cap {
                return false;
            }
            for val in lo..=hi {
                if !rec(&p.specialize(var, val as i64), var + 1, cap, acc) {
                    return false;
                }
            }
            true
        }
        let mut acc = 0;
        if rec(self, 0, cap, &mut acc) && acc <= cap {
            Some(acc)
        } else {
            None
        }
    }

    /// Rational bounding box `[(lo, hi); dim]`; `None` entries are
    /// unbounded directions.
    pub fn bounding_box(&self) -> Vec<(Option<Rat>, Option<Rat>)> {
        (0..self.dim)
            .map(|v| {
                let (lo, hi) = self.bounds_of(&AffineExpr::var(self.dim, v));
                (lo.finite(), hi.finite())
            })
            .collect()
    }

    /// Render with variable names, e.g. `{ cj >= 0, -cj + 14 >= 0 }`.
    pub fn display(&self, names: &[&str]) -> String {
        let parts: Vec<String> = self
            .cons
            .iter()
            .map(|c| {
                let e = AffineExpr::new(c.coeffs.iter().map(|&a| a as i64).collect(), c.c as i64);
                format!("{} {} 0", e.display(names), if c.eq { "=" } else { ">=" })
            })
            .collect();
        format!("{{ {} }}", parts.join(", "))
    }
}

impl fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(&[]))
    }
}

/// A finite union of polyhedra of equal dimension.
#[derive(Debug, Clone, Default)]
pub struct UnionPoly {
    /// Disjuncts.
    pub parts: Vec<Polyhedron>,
}

impl UnionPoly {
    /// Empty union.
    pub fn empty() -> UnionPoly {
        UnionPoly { parts: Vec::new() }
    }

    /// Add a disjunct.
    pub fn push(&mut self, p: Polyhedron) {
        self.parts.push(p);
    }

    /// Membership in any disjunct.
    pub fn contains(&self, x: &[i64]) -> bool {
        self.parts.iter().any(|p| p.contains(x))
    }

    /// True when all disjuncts are empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Sum of per-disjunct point counts (over-counts overlaps).
    pub fn count_points(&self, cap: u64) -> Option<u64> {
        let mut total = 0u64;
        for p in &self.parts {
            total += p.count_points(cap.checked_sub(total)?)?;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 <= x < 10, 0 <= y <= x — the triangular domain of the paper's
    /// Fig. 4 example.
    fn triangle() -> Polyhedron {
        let mut p = Polyhedron::universe(2);
        let x = AffineExpr::var(2, 0);
        let y = AffineExpr::var(2, 1);
        p.add_ge(&x); // x >= 0
        p.add_le(&x.sub(&AffineExpr::constant(2, 9))); // x <= 9
        p.add_ge(&y); // y >= 0
        p.add_ge(&x.sub(&y)); // y <= x
        p
    }

    #[test]
    fn membership() {
        let p = triangle();
        assert!(p.contains(&[0, 0]));
        assert!(p.contains(&[9, 9]));
        assert!(p.contains(&[5, 3]));
        assert!(!p.contains(&[10, 0]));
        assert!(!p.contains(&[3, 4]));
        assert!(!p.contains(&[-1, 0]));
    }

    #[test]
    fn emptiness() {
        let mut p = Polyhedron::universe(1);
        let x = AffineExpr::var(1, 0);
        p.add_ge(&x.sub(&AffineExpr::constant(1, 5))); // x >= 5
        p.add_le(&x.sub(&AffineExpr::constant(1, 3))); // x <= 3
        assert!(p.is_empty());
        assert!(!triangle().is_empty());
        assert!(!Polyhedron::universe(3).is_empty());
    }

    #[test]
    fn extrema() {
        let p = triangle();
        let x = AffineExpr::var(2, 0);
        let y = AffineExpr::var(2, 1);
        assert_eq!(p.min_of(&x), Bound::Finite(Rat::int(0)));
        assert_eq!(p.max_of(&x), Bound::Finite(Rat::int(9)));
        assert_eq!(p.max_of(&y), Bound::Finite(Rat::int(9)));
        // x + y maximal at (9,9)
        assert_eq!(p.max_of(&x.add(&y)), Bound::Finite(Rat::int(18)));
        // x - y minimal at y = x
        assert_eq!(p.min_of(&x.sub(&y)), Bound::Finite(Rat::int(0)));
    }

    #[test]
    fn unbounded_directions() {
        let mut p = Polyhedron::universe(1);
        let x = AffineExpr::var(1, 0);
        p.add_ge(&x); // x >= 0 only
        assert_eq!(p.min_of(&x), Bound::Finite(Rat::int(0)));
        assert_eq!(p.max_of(&x), Bound::Unbounded);
    }

    #[test]
    fn empty_extremum() {
        let mut p = Polyhedron::universe(1);
        let x = AffineExpr::var(1, 0);
        p.add_ge(&x.sub(&AffineExpr::constant(1, 5)));
        p.add_le(&x.sub(&AffineExpr::constant(1, 3)));
        assert_eq!(p.min_of(&x), Bound::Empty);
    }

    #[test]
    fn point_counting_triangle() {
        // Σ_{x=0..9} (x+1) = 55
        assert_eq!(triangle().count_points(1000), Some(55));
        // cap blows
        assert_eq!(triangle().count_points(10), None);
    }

    #[test]
    fn counting_unbounded_is_none() {
        let mut p = Polyhedron::universe(1);
        p.add_ge(&AffineExpr::var(1, 0));
        assert_eq!(p.count_points(100), None);
    }

    #[test]
    fn equalities() {
        let mut p = Polyhedron::universe(2);
        let x = AffineExpr::var(2, 0);
        let y = AffineExpr::var(2, 1);
        p.add_eq(&x.sub(&y)); // x == y
        p.add_ge(&x);
        p.add_le(&x.sub(&AffineExpr::constant(2, 4))); // x <= 4
        assert!(p.contains(&[2, 2]));
        assert!(!p.contains(&[2, 3]));
        assert_eq!(p.count_points(100), Some(5));
        assert_eq!(p.max_of(&y), Bound::Finite(Rat::int(4)));
    }

    #[test]
    fn eliminate_projects() {
        let p = triangle();
        // Projecting out y leaves 0 <= x <= 9.
        let q = p.eliminate(1);
        assert!(q.contains(&[5, 100])); // y is free now
        assert!(!q.contains(&[10, 0]));
        assert!(!q.contains(&[-1, 0]));
    }

    #[test]
    fn intersect_composes() {
        let p = triangle();
        let mut half = Polyhedron::universe(2);
        let x = AffineExpr::var(2, 0);
        half.add_ge(&x.sub(&AffineExpr::constant(2, 5))); // x >= 5
        let q = p.intersect(&half);
        assert!(q.contains(&[5, 0]));
        assert!(!q.contains(&[4, 0]));
        assert_eq!(q.count_points(1000), Some(40)); // Σ_{x=5..9}(x+1) = 6+7+8+9+10
    }

    #[test]
    fn specialize_fixes_variable() {
        let p = triangle().specialize(0, 4);
        // now 0 <= y <= 4 regardless of x coordinate value
        assert!(p.contains(&[0, 4]));
        assert!(!p.contains(&[0, 5]));
    }

    #[test]
    fn bounding_box() {
        let bb = triangle().bounding_box();
        assert_eq!(bb[0], (Some(Rat::int(0)), Some(Rat::int(9))));
        assert_eq!(bb[1], (Some(Rat::int(0)), Some(Rat::int(9))));
    }

    #[test]
    fn union_membership_and_count() {
        let mut u = UnionPoly::empty();
        let mut a = Polyhedron::universe(1);
        let x = AffineExpr::var(1, 0);
        a.add_ge(&x);
        a.add_le(&x.sub(&AffineExpr::constant(1, 2))); // [0,2]
        let mut b = Polyhedron::universe(1);
        b.add_ge(&x.sub(&AffineExpr::constant(1, 10)));
        b.add_le(&x.sub(&AffineExpr::constant(1, 11))); // [10,11]
        u.push(a);
        u.push(b);
        assert!(u.contains(&[1]));
        assert!(u.contains(&[10]));
        assert!(!u.contains(&[5]));
        assert_eq!(u.count_points(100), Some(5));
        assert!(!u.is_empty());
        assert!(UnionPoly::empty().is_empty());
    }

    #[test]
    fn display_readable() {
        let p = triangle();
        let s = p.display(&["i", "j"]);
        assert!(s.contains("i >= 0"), "{s}");
    }
}
