//! Property tests for the polyhedral substrate: Fourier–Motzkin soundness,
//! projection correctness, counting/specialization agreement, and rational
//! arithmetic laws.

use polylib::{AffineExpr, Bound, Constraint, IncrementalFit, Polyhedron, Rat};
use proptest::prelude::*;

/// A random small polyhedron in 2 variables built from bound constraints
/// plus one random half-space, guaranteed non-degenerate coefficients.
fn small_poly() -> impl Strategy<Value = Polyhedron> {
    (
        -4i64..4,
        1i64..6,
        -4i64..4,
        1i64..6,
        -2i64..=2,
        -2i64..=2,
        -8i64..=8,
    )
        .prop_map(|(l0, e0, l1, e1, a, b, c)| {
            let mut p = Polyhedron::universe(2);
            p.add_var_bounds(0, ([], l0.into()), ([], (l0 + e0).into()));
            p.add_var_bounds(1, ([], l1.into()), ([], (l1 + e1).into()));
            p.add_ge(&AffineExpr::new(vec![a, b], c));
            p
        })
}

/// Random polyhedra in 3 variables from 1–4 arbitrary constraints, a
/// quarter of them equalities: unlike `small_poly` these are often
/// unbounded, and empty ones have no box to make them so.
fn loose_poly() -> impl Strategy<Value = Polyhedron> {
    proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6, 0u8..4), 1..5).prop_map(
        |rows| {
            let mut p = Polyhedron::universe(3);
            for (a, b, c, k, kind) in rows {
                let e = AffineExpr::new(vec![a, b, c], k);
                if kind == 0 {
                    p.add_eq(&e);
                } else {
                    p.add_ge(&e);
                }
            }
            p
        },
    )
}

/// The two-query extremum `bounds_of` replaced, kept as a reference: an
/// emptiness test, then a second projection with `t = expr` appended
/// (outermost variable first) that reads one side of `t`.
fn reference_extremum(p: &Polyhedron, expr: &AffineExpr, minimum: bool) -> Bound {
    if p.is_empty() {
        return Bound::Empty;
    }
    let n = p.dim();
    let mut q = Polyhedron::universe(n + 1);
    for c in &p.cons {
        let mut coeffs = c.coeffs.clone();
        coeffs.push(0);
        q.cons.push(Constraint {
            coeffs,
            ..c.clone()
        });
    }
    let mut t_minus_e = expr.scale(-1).coeffs;
    t_minus_e.push(1);
    q.add_eq(&AffineExpr::new(t_minus_e, -expr.c));
    for v in 0..n {
        q = q.eliminate(v);
    }
    let side = q.cons.iter().filter_map(|c| {
        let a = c.coeffs[n];
        match (minimum, a.signum()) {
            (true, 1) => Some(Rat::new(-c.c, a)),
            (false, -1) => Some(Rat::new(c.c, -a)),
            _ => None,
        }
    });
    let best = if minimum { side.max() } else { side.min() };
    best.map_or(Bound::Unbounded, Bound::Finite)
}

/// Rank of the coefficient matrix `[x | 1]` of `samples`, by plain Gaussian
/// elimination: the reference for `IncrementalFit::rank`.
fn coefficient_rank(samples: &[(Vec<i64>, i64)]) -> usize {
    let mut m: Vec<Vec<Rat>> = samples
        .iter()
        .map(|(x, _)| {
            x.iter()
                .map(|&v| Rat::int(v.into()))
                .chain([Rat::ONE])
                .collect()
        })
        .collect();
    let cols = m.first().map_or(0, Vec::len);
    let mut rank = 0;
    for col in 0..cols {
        let Some(p) = (rank..m.len()).find(|&r| m[r][col] != Rat::ZERO) else {
            continue;
        };
        m.swap(rank, p);
        let (done, below) = m.split_at_mut(rank + 1);
        let pivot = &done[rank];
        for row in below {
            let f = row[col] / pivot[col];
            for (v, &p) in row.iter_mut().zip(pivot).skip(col) {
                *v = *v - p * f;
            }
        }
        rank += 1;
    }
    rank
}

fn assert_bounds_match(p: &Polyhedron, f: &AffineExpr) {
    let want = (
        reference_extremum(p, f, true),
        reference_extremum(p, f, false),
    );
    assert_eq!(p.bounds_of(f), want, "{p} over {f:?}");
    assert_eq!((p.min_of(f), p.max_of(f)), want, "{p} over {f:?}");
}

/// The cases the random families hit only by chance.
#[test]
fn bounds_match_reference_on_edge_cases() {
    let x = AffineExpr::var(2, 0);
    let y = AffineExpr::var(2, 1);
    let k = |v| AffineExpr::constant(2, v);
    let mut empty = Polyhedron::universe(2);
    empty.add_ge(&x.sub(&k(5)));
    empty.add_le(&x.sub(&k(3)));
    let mut empty_by_eq = Polyhedron::universe(2);
    empty_by_eq.add_eq(&x.add(&y).sub(&k(1)));
    empty_by_eq.add_eq(&x.add(&y).sub(&k(2)));
    let mut ray = Polyhedron::universe(2);
    ray.add_ge(&x);
    ray.add_eq(&y.sub(&x.scale(2)));
    let mut point = Polyhedron::universe(2);
    point.add_eq(&x.sub(&k(3)));
    point.add_eq(&y.add(&k(1)));
    for p in [empty, empty_by_eq, ray, point, Polyhedron::universe(2)] {
        for f in [x.clone(), y.clone(), x.sub(&y), x.add(&y).add(&k(4)), k(7)] {
            assert_bounds_match(&p, &f);
        }
    }
    assert_eq!(
        Polyhedron::universe(0).bounds_of(&AffineExpr::constant(0, 2)),
        {
            let two = Bound::Finite(Rat::int(2));
            (two, two)
        }
    );
}

proptest! {
    /// Emptiness is consistent with exhaustive membership over the box.
    #[test]
    fn emptiness_agrees_with_enumeration(p in small_poly()) {
        let mut any = false;
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    any = true;
                }
            }
        }
        if any {
            prop_assert!(!p.is_empty(), "found integer points but is_empty()");
        }
        // (rational-nonempty with no integer points is allowed: is_empty is
        // a rational relaxation)
    }

    /// count_points equals brute-force enumeration.
    #[test]
    fn counting_agrees_with_enumeration(p in small_poly()) {
        let mut n = 0u64;
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    n += 1;
                }
            }
        }
        if let Some(c) = p.count_points(100_000) {
            prop_assert_eq!(c, n);
        }
    }

    /// Extrema bound every contained point's value of a random affine form.
    #[test]
    fn extrema_sound(p in small_poly(), a in -3i64..=3, b in -3i64..=3, c in -5i64..=5) {
        let f = AffineExpr::new(vec![a, b], c);
        let min = p.min_of(&f);
        let max = p.max_of(&f);
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    let v = Rat::int(f.eval(&[x, y]) as i128);
                    match min {
                        Bound::Finite(m) => prop_assert!(m <= v, "min {m} > value {v}"),
                        Bound::Empty => prop_assert!(false, "point in 'empty' polyhedron"),
                        Bound::Unbounded => {}
                    }
                    match max {
                        Bound::Finite(m) => prop_assert!(m >= v),
                        Bound::Empty => prop_assert!(false),
                        Bound::Unbounded => {}
                    }
                }
            }
        }
    }

    /// One projection gives what two extremum queries gave, on bounded
    /// boxes cut by a half-space.
    #[test]
    fn bounds_match_reference(p in small_poly(), a in -3i64..=3, b in -3i64..=3, c in -5i64..=5) {
        assert_bounds_match(&p, &AffineExpr::new(vec![a, b], c));
    }

    /// ... and on unbounded, equality-bearing and empty polyhedra.
    #[test]
    fn bounds_match_reference_on_loose_polyhedra(
        p in loose_poly(), a in -3i64..=3, b in -3i64..=3, c in -3i64..=3, k in -5i64..=5,
    ) {
        assert_bounds_match(&p, &AffineExpr::new(vec![a, b, c], k));
    }

    /// Projection (eliminate) is an over-approximation of the shadow: any
    /// contained point stays contained after eliminating a variable.
    #[test]
    fn elimination_preserves_membership(p in small_poly()) {
        let q = p.eliminate(1);
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    prop_assert!(q.contains(&[x, y]), "projection lost ({x},{y})");
                    // and the projected var is now free
                    prop_assert!(q.contains(&[x, 999]));
                }
            }
        }
    }

    /// Specialization commutes with membership.
    #[test]
    fn specialize_matches_membership(p in small_poly(), v in -10i64..10) {
        let s = p.specialize(0, v);
        for y in -12..12 {
            prop_assert_eq!(p.contains(&[v, y]), s.contains(&[v, y]));
            // the specialized polyhedron ignores coordinate 0
            prop_assert_eq!(s.contains(&[v, y]), s.contains(&[12345, y]));
        }
    }

    /// Rational arithmetic: field laws on random small fractions.
    #[test]
    fn rat_field_laws(
        an in -20i128..20, ad in 1i128..10,
        bn in -20i128..20, bd in 1i128..10,
        cn in -20i128..20, cd in 1i128..10,
    ) {
        let a = Rat::new(an, ad);
        let b = Rat::new(bn, bd);
        let c = Rat::new(cn, cd);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rat::ZERO);
        if b != Rat::ZERO {
            prop_assert_eq!((a / b) * b, a);
            prop_assert_eq!(a.checked_div(b), Some(a / b));
        }
        // Where nothing overflows, the checked operations agree.
        prop_assert_eq!(a.checked_add(b), Some(a + b));
        prop_assert_eq!(a.checked_sub(b), Some(a - b));
        prop_assert_eq!(a.checked_mul(b), Some(a * b));
        // floor/ceil sandwich
        prop_assert!(Rat::int(a.floor()) <= a);
        prop_assert!(Rat::int(a.ceil()) >= a);
    }

    /// The flat incremental RREF against a from-scratch solve: after every
    /// push, `rank`, `is_consistent` and `solution` equal what `fit_affine`
    /// (through `solve_rational`, no shared code) and a plain elimination
    /// say of the samples so far. Points of dimension 0–5 are multiples of
    /// `den`, so the slopes `slope / den` are rational; `modes` pins
    /// coordinates to zero or to `x₀` (rank-deficient streams); a sample is
    /// bumped off the function (a contradiction, unless the rank is still
    /// short) or repeats an earlier one; the constant sits next to an
    /// `i64` limit in a third of the cases.
    #[test]
    fn incremental_fit_matches_batch_fit(
        dim in 0usize..=5,
        modes in proptest::collection::vec(0u8..3, 5..6),
        slope in proptest::collection::vec(-3i64..=3, 5..6),
        den in 1i64..=3,
        limit in 0u8..3,
        stream in proptest::collection::vec(
            (proptest::collection::vec(-4i64..=4, 5..6), 0u8..8, 0usize..64, 1i64..=5),
            1..24,
        ),
    ) {
        let c = match limit {
            1 => i64::MAX - 200,
            2 => i64::MIN + 200,
            _ => 7,
        };
        let mut inc = IncrementalFit::new(dim);
        let mut samples: Vec<(Vec<i64>, i64)> = Vec::new();
        for (ks, event, back, bump) in stream {
            let x: Vec<i64> = (0..dim)
                .map(|i| match modes[i] {
                    0 => den * ks[i],
                    1 => 0,
                    _ => den * ks[0],
                })
                .collect();
            let y = c + (0..dim).map(|i| slope[i] * x[i] / den).sum::<i64>();
            let sample = match event {
                0 if !samples.is_empty() => samples[back % samples.len()].clone(),
                1 => (x, y + bump),
                _ => (x, y),
            };
            let pushed = inc.push(&sample.0, sample.1);
            samples.push(sample);
            let want = polylib::linsolve::fit_affine(&samples);
            prop_assert_eq!(pushed, want.is_some());
            prop_assert_eq!(inc.is_consistent(), want.is_some());
            prop_assert_eq!(inc.solution(), want);
            if inc.is_consistent() {
                prop_assert_eq!(inc.rank(), coefficient_rank(&samples));
            }
        }
    }

    /// Affine fit round-trip through the solver used by folding.
    #[test]
    fn fit_affine_roundtrip(
        a in -5i64..=5, b in -5i64..=5, c in -50i64..=50,
        pts in proptest::collection::vec((-10i64..10, -10i64..10), 3..20),
    ) {
        let samples: Vec<(Vec<i64>, i64)> = pts
            .iter()
            .map(|&(x, y)| (vec![x, y], a * x + b * y + c))
            .collect();
        let (coeffs, cc) = polylib::linsolve::fit_affine(&samples)
            .expect("affine data always fits");
        for (p, v) in &samples {
            let mut acc = cc;
            for (i, &x) in p.iter().enumerate() {
                acc = acc + coeffs[i] * Rat::int(x as i128);
            }
            prop_assert_eq!(acc, Rat::int(*v as i128));
        }
    }
}
