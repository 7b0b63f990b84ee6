//! Property-based tests (proptest) over the pipeline's core invariants:
//! polylib soundness, folding containment/exactness, IIV monotonicity,
//! shadow-memory correctness, and VM determinism.

use polyprof_core::polyfold::{LabelFold, StreamFolder};
use polyprof_core::polyir::build::ProgramBuilder;
use polyprof_core::polyir::IBinOp;
use polyprof_core::polylib::{AffineExpr, Polyhedron, Rat};
use polyprof_core::polyvm::{sinks::RecordingSink, Vm};
use proptest::prelude::*;

proptest! {
    /// Fourier–Motzkin min/max bounds contain every sampled point's value.
    #[test]
    fn polylib_extrema_bound_samples(
        lo0 in -5i64..5, ext0 in 1i64..6,
        lo1 in -5i64..5, ext1 in 1i64..6,
        c0 in -3i64..=3, c1 in -3i64..=3, cc in -10i64..=10,
    ) {
        let mut p = Polyhedron::universe(2);
        let x = AffineExpr::var(2, 0);
        let y = AffineExpr::var(2, 1);
        p.add_var_bounds(0, ([], lo0.into()), ([], (lo0 + ext0).into()));
        p.add_var_bounds(1, ([], lo1.into()), ([], (lo1 + ext1).into()));
        let _ = (x, y);
        let f = AffineExpr::new(vec![c0, c1], cc);
        let min = p.min_of(&f);
        let max = p.max_of(&f);
        for i in lo0..=lo0 + ext0 {
            for j in lo1..=lo1 + ext1 {
                let v = Rat::int(f.eval(&[i, j]) as i128);
                match min {
                    polyprof_core::polylib::Bound::Finite(m) => prop_assert!(m <= v),
                    _ => prop_assert!(false, "box is bounded"),
                }
                match max {
                    polyprof_core::polylib::Bound::Finite(m) => prop_assert!(m >= v),
                    _ => prop_assert!(false, "box is bounded"),
                }
            }
        }
    }

    /// Folding a rectangular nest is exact: the polyhedron contains exactly
    /// the pushed points, and affine labels are recovered verbatim.
    #[test]
    fn folding_rectangles_is_exact(
        n in 1i64..8, m in 1i64..8,
        a in -4i64..=4, b in -4i64..=4, c in -20i64..=20,
    ) {
        let mut f = StreamFolder::new(2);
        for i in 0..n {
            for j in 0..m {
                f.push(&[i, j], Some(&[a * i + b * j + c]));
            }
        }
        let r = f.finalize();
        prop_assert!(r.domain.exact);
        prop_assert_eq!(r.domain.count, (n * m) as u64);
        prop_assert_eq!(r.domain.poly.count_points(10_000), Some((n * m) as u64));
        match &r.labels {
            LabelFold::Affine(ls) => {
                for i in 0..n {
                    for j in 0..m {
                        prop_assert_eq!(
                            ls[0].eval(&[i, j]),
                            Rat::int((a * i + b * j + c) as i128)
                        );
                    }
                }
            }
            other => prop_assert!(false, "expected affine labels, got {:?}", other),
        }
    }

    /// Folding always over-approximates: every pushed point is contained in
    /// the folded polyhedron, affine or not.
    #[test]
    fn folding_contains_all_points(points in proptest::collection::vec((0i64..12, 0i64..12), 1..60)) {
        // Sort lexicographically to mimic execution order; dedup.
        let mut pts: Vec<_> = points;
        pts.sort();
        pts.dedup();
        let mut f = StreamFolder::new(2);
        for p in &pts {
            f.push(&[p.0, p.1], None);
        }
        let r = f.finalize();
        for p in &pts {
            prop_assert!(
                r.domain.poly.contains(&[p.0, p.1]),
                "point {:?} escaped the fold",
                p
            );
        }
    }

    /// ... and at the `i64` limits, where a bound's coefficients can leave
    /// `i64` and a box's constant can leave it when negated: coordinates
    /// next to `i64::MIN`, `0` and `i64::MAX`, in execution order, with a
    /// label each. Nothing may panic, and no point may escape.
    #[test]
    fn folding_contains_points_near_the_i64_limits(
        dim in 1usize..=3,
        raw in proptest::collection::vec(((0u8..3, 0i64..3), (0u8..3, 0i64..3), (0u8..3, 0i64..3)), 1..40),
    ) {
        let near = |(side, off): (u8, i64)| match side {
            0 => i64::MIN + off,
            1 => off - 1,
            _ => i64::MAX - off,
        };
        let mut pts: Vec<Vec<i64>> = raw
            .into_iter()
            .map(|(a, b, c)| [near(a), near(b), near(c)][..dim].to_vec())
            .collect();
        pts.sort();
        let mut f = StreamFolder::new(dim);
        for p in &pts {
            f.push(p, Some(&[p[dim - 1]]));
        }
        let r = f.finalize();
        for p in &pts {
            prop_assert!(r.domain.poly.contains(p), "point {:?} escaped {}", p, r.domain.poly);
        }
    }

    /// VM determinism: two runs of a randomly-parameterized reduction loop
    /// produce identical event streams and results.
    #[test]
    fn vm_is_deterministic(n in 1i64..30, step in 1i64..4, init in -100i64..100) {
        let mut pb = ProgramBuilder::new("prop");
        let mut f = pb.func("main", 0);
        let acc = f.const_i(init);
        f.for_loop("L", 0i64, n, step, |f, i| {
            f.iop_to(acc, IBinOp::Add, acc, i);
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let mut r1 = RecordingSink::default();
        let mut r2 = RecordingSink::default();
        let o1 = Vm::new(&p).run(&[], &mut r1).unwrap();
        let o2 = Vm::new(&p).run(&[], &mut r2).unwrap();
        prop_assert_eq!(&o1, &o2);
        prop_assert_eq!(r1.events.len(), r2.events.len());
        prop_assert_eq!(&r1.events, &r2.events);
        // and the reduction value is right
        let expected: i64 = (0..n).step_by(step as usize).sum::<i64>() + init;
        prop_assert_eq!(o1.ret.unwrap().as_i64(), expected);
    }

    /// End-to-end: profiling a random rectangular 2-D elementwise kernel
    /// always reports a fully parallel, 2-D-tilable region.
    #[test]
    fn random_elementwise_kernels_fully_parallel(n in 2i64..8, m in 2i64..8, scale in 1i64..5) {
        let mut pb = ProgramBuilder::new("prop2");
        let a = pb.array_f64(&vec![1.5; (n * m) as usize]);
        let b = pb.alloc((n * m) as u64);
        let mut f = pb.func("main", 0);
        f.for_loop("Li", 0i64, n, 1, |f, i| {
            f.for_loop("Lj", 0i64, m, 1, |f, j| {
                let row = f.mul(i, m);
                let idx = f.add(row, j);
                let v = f.load(a as i64, idx);
                let w = f.fmul(v, scale as f64);
                f.store(b as i64, idx, w);
            });
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let report = polyprof_core::profile(&p);
        let r = &report.feedback.regions[0];
        prop_assert!(r.pct_parallel > 0.99);
        prop_assert_eq!(r.tile_depth, 2);
        prop_assert!(!r.skew);
    }

    /// Shadow-memory last-writer tracking agrees with a naive reference
    /// under random address streams (via the public dependence stream: the
    /// last writer of each flow dep must be the most recent store).
    #[test]
    fn flow_deps_point_to_latest_writer(writes in proptest::collection::vec(0i64..16, 2..40)) {
        // program: store a[w] = k for each k, then load all cells
        let mut pb = ProgramBuilder::new("prop3");
        let warr = pb.array_i64(&writes);
        let a = pb.alloc(16);
        let nw = writes.len() as i64;
        let mut f = pb.func("main", 0);
        f.for_loop("Lw", 0i64, nw, 1, |f, k| {
            let addr = f.load(warr as i64, k);
            f.store(a as i64, addr, k);
        });
        f.for_loop("Lr", 0i64, 16i64, 1, |f, i| {
            f.load(a as i64, i);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, _interner, _s) = polyprof_core::polyddg::profile_collected(&p);
        // for each flow dep store→(read loop), the producer coordinate must
        // be the LAST k writing that address
        use polyprof_core::polyddg::DepKind;
        for (kind, _src, sc, _dst, dc) in &sink.deps {
            if *kind != DepKind::Flow || dc.len() != 2 {
                continue;
            }
            let cell = dc[1]; // read loop index == address
            let expected_last = writes
                .iter()
                .enumerate()
                .filter(|(_, &w)| w == cell)
                .map(|(k, _)| k as i64)
                .next_back();
            if let Some(k) = expected_last {
                prop_assert_eq!(sc[1], k, "cell {} last writer", cell);
            }
        }
    }
}
