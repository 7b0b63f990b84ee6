//! `compute_distances` bounds each distinct (domain, distance form) once,
//! with min and max from one projection. This pins it to a memo-free
//! reference that bounds every dependence dimension with its own `min_of`
//! and `max_of`, on suite programs where many dependences share domains.

use polyfold::{fold_program, LabelFold, RatAffine};
use polylib::{AffineExpr, Bound, Polyhedron, Rat};
use polysched::deps::compute_distances;
use polysched::{Carried, DepDist, DistRange, NestForest};

/// Bound `x_d − f(x)` over `domain` with two separate queries, scaling by
/// the LCM of `f`'s denominators so polylib sees integers.
fn reference_range(domain: &Polyhedron, d: usize, f: &RatAffine) -> DistRange {
    let l = f
        .coeffs
        .iter()
        .chain([&f.c])
        .fold(1i128, |l, c| l / polylib::rat::gcd(l, c.den()) * c.den());
    let scaled = |r: Rat| (r * Rat::int(l)).num() as i64;
    let mut coeffs: Vec<i64> = f.coeffs.iter().map(|&c| -scaled(c)).collect();
    coeffs.resize(domain.dim(), 0);
    coeffs[d] += l as i64;
    let e = AffineExpr::new(coeffs, -scaled(f.c));
    let read = |b: Bound| match b {
        Bound::Finite(r) => Some(r / Rat::int(l)),
        Bound::Empty => Some(Rat::ZERO),
        Bound::Unbounded => None,
    };
    DistRange {
        min: read(domain.min_of(&e)),
        max: read(domain.max_of(&e)),
    }
}

#[test]
fn memoised_distances_match_per_dependence_bounds() {
    for w in [
        rodinia::gemsfdtd::build(),
        rodinia::hotspot3d::build(),
        rodinia::cfd::build(),
    ] {
        let (mut ddg, interner, _) = fold_program(&w.program);
        ddg.remove_scevs();
        let forest = NestForest::build(&ddg, &interner);
        let got = compute_distances(&ddg, &forest);
        let mut affine = 0;
        for g in &got {
            let dep = &ddg.deps[g.dep_idx];
            let LabelFold::Affine(fs) = &dep.src_map else {
                continue;
            };
            affine += 1;
            let poly = &dep.domain.poly;
            let dist: Vec<DistRange> = (1..poly.dim().min(fs.len()))
                .map(|d| reference_range(poly, d, &fs[d]))
                .collect();
            let carried = dist
                .iter()
                .take(g.shared)
                .position(|r| !r.is_zero())
                .map_or(Carried::LoopIndependent, |i| Carried::Level(i + 1));
            let want = DepDist {
                dist,
                carried,
                ..g.clone()
            };
            assert_eq!(g, &want, "{}: dependence {}", w.name, g.dep_idx);
        }
        assert!(affine > 0, "{}: no affine dependences to compare", w.name);
    }
}
