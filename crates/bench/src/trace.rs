//! The parametric backprop-class workload behind `perf_ledger`'s
//! `dense_affine` and `record_replay` rows.

use polyir::build::ProgramBuilder;
use polyir::{FBinOp, Operand, Program, UnOp};

/// A backprop-class program (the shape of `rodinia::backprop` — 2-D column-
/// stride reduction kernel + 2-D elementwise update, both behind calls) with
/// parametric layer sizes, so the recorded trace is long enough that
/// steady-state event cost dominates fixed setup/finalization cost.
pub fn big_backprop(n1: i64, n2: i64) -> Program {
    let mut pb = ProgramBuilder::new("backprop_big");
    let conn = pb.array_f64(&vec![0.1; ((n1 + 1) * (n2 + 1)) as usize]);
    let l1 = pb.array_f64(&vec![0.5; (n1 + 1) as usize]);
    let l2 = pb.alloc((n2 + 1) as u64);
    let delta = pb.array_f64(&vec![0.01; (n2 + 1) as usize]);
    let oldw = pb.array_f64(&vec![0.2; ((n1 + 1) * (n2 + 1)) as usize]);
    let w = pb.array_f64(&vec![0.3; ((n1 + 1) * (n2 + 1)) as usize]);

    let mut sq = pb.func("squash", 1);
    let x = sq.param(0);
    let s = sq.un(UnOp::Sigmoid, x);
    sq.ret(Some(s.into()));
    let squash = sq.finish();

    let mut lf = pb.func("bpnn_layerforward", 5);
    {
        let (l1p, l2p, connp, pn1, pn2) = (
            lf.param(0),
            lf.param(1),
            lf.param(2),
            lf.param(3),
            lf.param(4),
        );
        lf.for_loop("Lj", 1i64, pn2, 1, |f, j| {
            let sum = f.const_f(0.0);
            f.for_loop("Lk", 0i64, pn1, 1, |f, k| {
                let row = f.mul(k, n2 + 1);
                let idx = f.add(row, j);
                let wv = f.load(connp, idx);
                let xv = f.load(l1p, k);
                let prod = f.fmul(wv, xv);
                f.fop_to(sum, FBinOp::Add, sum, prod);
            });
            let out = f.call(squash, &[sum.into()]);
            f.store(l2p, j, out);
        });
        lf.ret(None);
    }
    let layerforward = lf.finish();

    let mut aw = pb.func("bpnn_adjust_weights", 4);
    {
        let (deltap, lyp, wp, oldwp) = (aw.param(0), aw.param(1), aw.param(2), aw.param(3));
        aw.for_loop("Lj", 1i64, n2, 1, |f, j| {
            f.for_loop("Lk", 0i64, n1, 1, |f, k| {
                let row = f.mul(k, n2 + 1);
                let idx = f.add(row, j);
                let d = f.load(deltap, j);
                let y = f.load(lyp, k);
                let old = f.load(oldwp, idx);
                let eta = f.fmul(d, 0.3f64);
                let t1 = f.fmul(eta, y);
                let t2 = f.fmul(old, 0.3f64);
                let upd = f.fadd(t1, t2);
                let cur = f.load(wp, idx);
                let neww = f.fadd(cur, upd);
                f.store(wp, idx, neww);
                f.store(oldwp, idx, upd);
            });
        });
        aw.ret(None);
    }
    let adjust = aw.finish();

    let mut m = pb.func("main", 0);
    m.call_void(
        layerforward,
        &[
            Operand::ImmI(l1 as i64),
            Operand::ImmI(l2 as i64),
            Operand::ImmI(conn as i64),
            Operand::ImmI(n1),
            Operand::ImmI(n2),
        ],
    );
    m.call_void(
        adjust,
        &[
            Operand::ImmI(delta as i64),
            Operand::ImmI(l1 as i64),
            Operand::ImmI(w as i64),
            Operand::ImmI(oldw as i64),
        ],
    );
    m.ret(None);
    let mid = m.finish();
    pb.set_entry(mid);
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyfold::pass2::{self, Live, Pass2, Source};
    use polytrace::{Collector, Counter, MetricsLevel};
    use std::sync::Arc;

    /// The dense workload is what the folder's verified prediction exists
    /// for: runs of 192 points along the innermost dimension, every label
    /// affine. More than nine folded events in ten must be accepted by it.
    #[test]
    fn big_backprop_is_folded_by_prediction() {
        let prog = big_backprop(192, 192);
        let counters = Arc::new(Collector::new(MetricsLevel::Counters));
        let cfg = Pass2 {
            trace: Some(Arc::clone(&counters)),
            ..Pass2::default()
        };
        pass2::run(&prog, &Source::Live(Live::default()), &cfg).expect("both passes");
        let (folded, predicted) = (
            counters.get(Counter::EventsFolded),
            counters.get(Counter::FoldPredicted),
        );
        assert!(folded > 2_000_000);
        let share = predicted as f64 / folded as f64;
        assert!(share > 0.9, "predicted {share:.3} of {folded}");
    }
}
