//! Shared fixtures for the differential suites: the randomized trace
//! builders (elementwise / stencil / deep nest) the integration suites
//! share.

#![allow(dead_code)] // each test binary uses its own subset

use polyir::build::ProgramBuilder;
use polyir::Program;

/// c[i] = a[i]*k + b[i] with data-dependent contents.
pub fn elementwise(n: i64, k: i64) -> Program {
    let mut pb = ProgramBuilder::new("elemwise");
    let a = pb.array_i64(&(0..n).collect::<Vec<_>>());
    let b = pb.array_i64(&(0..n).map(|i| i * 3 % 7).collect::<Vec<_>>());
    let c = pb.alloc(n as u64);
    let mut f = pb.func("main", 0);
    f.for_loop("L", 0i64, n, 1, |f, i| {
        let va = f.load(a as i64, i);
        let vb = f.load(b as i64, i);
        let t = f.mul(va, k);
        let s = f.add(t, vb);
        f.store(c as i64, i, s);
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}

/// In-place 3-point stencil over `t` time steps: flow, anti, AND output
/// dependences, loop-carried at both levels.
pub fn stencil(n: i64, t: i64) -> Program {
    let mut pb = ProgramBuilder::new("stencil");
    let a = pb.array_i64(&(0..n).map(|i| i * i % 11).collect::<Vec<_>>());
    let mut f = pb.func("main", 0);
    f.for_loop("T", 0i64, t, 1, |f, _| {
        f.for_loop("I", 1i64, n - 1, 1, |f, i| {
            let im = f.add(i, -1i64);
            let ip = f.add(i, 1i64);
            let l = f.load(a as i64, im);
            let m = f.load(a as i64, i);
            let r = f.load(a as i64, ip);
            let s = f.add(l, m);
            let s2 = f.add(s, r);
            f.store(a as i64, i, s2);
        });
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}

/// A 5-deep nest (6-dimensional coordinates): deeper than the inline
/// snapshot capacity, so every writer record exercises the spill arena.
pub fn deep_nest(s: i64) -> Program {
    let mut pb = ProgramBuilder::new("deep");
    let acc = pb.alloc(1);
    let mut f = pb.func("main", 0);
    f.for_loop("L0", 0i64, s, 1, |f, _| {
        f.for_loop("L1", 0i64, s, 1, |f, _| {
            f.for_loop("L2", 0i64, s, 1, |f, _| {
                f.for_loop("L3", 0i64, 2i64, 1, |f, _| {
                    f.for_loop("L4", 0i64, 2i64, 1, |f, i| {
                        let v = f.load(acc as i64, 0i64);
                        let w = f.add(v, i);
                        f.store(acc as i64, 0i64, w);
                    });
                });
            });
        });
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}
