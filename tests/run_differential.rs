//! Differential gate for loop-body runs: a [`FoldingSink`] handed `n`
//! repeats of a body of keys in one `body_run` call must fold to exactly
//! what it folds when the same events arrive one by one
//! ([`expand_run`], the trait's default) — the same canonical DDG and the
//! same `fold_stats()`, predicted count included.
//!
//! Why this must hold: `body_run` folds each key's events into its own
//! folder with `StreamFolder::push_run`, which accepts them at once only
//! when every one of them would pass the folder's verified prediction (no
//! word wraps along the run, the coordinates move along the last dimension
//! only, every affine label moves by its step, and a dependence's carried
//! class is one class throughout), and otherwise pushes them one by one.
//! The bodies here break each of those conditions on purpose: zero,
//! negative, off-dimension and jumping strides, words next to the `i64`
//! limits, dependences whose class flips mid-run, keys that share a folder,
//! and budgets whose pressure latches before the run or inside it, where a
//! key past the first builds its folder.

mod common;

use common::stencil;
use polyprof_core::polyddg::{expand_run, BodyKey, DepKind, EventKind, FoldSink};
use polyprof_core::polyfold::{FoldStats, FoldingSink};
use polyprof_core::polyiiv::context::{ContextInterner, CtxPathId, StmtId, StmtInfo};
use polyprof_core::polyiiv::CtxElem;
use polyprof_core::polyir::{InstrRef, Program};
use polyprof_core::polyresist::ResourceBudget;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: the case's details drawn from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// One key of a body, owning its words.
#[derive(Debug, Clone)]
struct Key {
    kind: EventKind,
    a: u32,
    b: u32,
    split: usize,
    base: Vec<i64>,
    stride: Vec<i64>,
}

impl Key {
    fn body_key(&self) -> BodyKey<'_> {
        BodyKey {
            kind: self.kind,
            a: StmtId(self.a),
            b: StmtId(self.b),
            split: self.split,
            base: &self.base,
            stride: &self.stride,
        }
    }

    /// The key's event `t` repeats after its base (`t` may be negative).
    fn at(&self, t: i64) -> Vec<i64> {
        let step = |(&w, &s): (&i64, &i64)| w.wrapping_add(s.wrapping_mul(t));
        self.base.iter().zip(&self.stride).map(step).collect()
    }

    /// This key with the stride of its last word changed by `by` and its
    /// base moved back as far: its first repeat is the same event, and the
    /// repeats after it leave the line the key was on.
    fn bent(&self, by: i64) -> Key {
        let mut key = self.clone();
        let last = key.base.len() - 1;
        key.stride[last] = key.stride[last].wrapping_add(by);
        key.base[last] = key.base[last].wrapping_sub(by);
        key
    }

    /// This key moved on `t` repeats.
    fn after(&self, t: i64) -> Key {
        Key {
            base: self.at(t),
            ..self.clone()
        }
    }
}

/// Statements a body may name: point and access keys use ids below this.
const STMTS: u32 = 64;

/// A coordinate vector of `dim` words starting at a small point or, with
/// `extreme`, with its last word next to an `i64` limit, and its stride:
/// along the last dimension by 1 to 3 mostly, else zero, backwards, off the
/// last dimension, or far enough to overflow.
fn coords(rng: &mut Rng, dim: usize, extreme: bool) -> (Vec<i64>, Vec<i64>) {
    let mut base: Vec<i64> = (0..dim).map(|_| rng.below(4) as i64).collect();
    let mut stride = vec![0; dim];
    let last = dim - 1;
    base[last] = if extreme {
        rng.pick(&[i64::MAX - 40, i64::MIN + 40, i64::MAX / 2])
    } else {
        rng.below(50) as i64
    };
    match rng.below(10) {
        0 => {}
        1 => stride[last] = -1,
        2 if dim > 1 => {
            stride[rng.below(last as u64) as usize] = 1;
            stride[last] = 1;
        }
        3 => stride[last] = i64::MAX / 3,
        _ => stride[last] = 1 + rng.below(3) as i64,
    }
    (base, stride)
}

/// A label word and its stride: affine in the last coordinate (an integer
/// step times the coordinate stride), arbitrary, or next to a limit.
fn label(rng: &mut Rng, coord_stride: i64, extreme: bool) -> (i64, i64) {
    let base = if extreme {
        rng.pick(&[i64::MAX - 9, i64::MIN + 9])
    } else {
        1000 + rng.below(100) as i64
    };
    let stride = match rng.below(6) {
        0 => rng.below(9) as i64 - 4,
        1 => i64::MAX / 2,
        _ => (rng.below(7) as i64 - 3).wrapping_mul(coord_stride),
    };
    (base, stride)
}

/// A body of `k` keys of every kind. With `collide`, some keys share a
/// folder with an earlier one; with `flip`, a dependence's producer moves
/// along its consumer's last dimension at another speed, so the carried
/// class may change mid-run.
fn body(rng: &mut Rng, k: usize, collide: bool, flip: bool, extreme: bool) -> Vec<Key> {
    let kinds = [DepKind::Flow, DepKind::Anti, DepKind::Output, DepKind::Reg];
    let mut keys: Vec<Key> = Vec::with_capacity(k);
    for j in 0..k {
        if collide && j > 0 && rng.below(4) == 0 {
            // A point with and without a value, a load and a store of one
            // statement, or one dependence key twice.
            let mut twin = keys[rng.below(j as u64) as usize].clone();
            match twin.kind {
                EventKind::Point => {
                    twin.kind = EventKind::PointValue;
                    twin.base.push(7);
                    twin.stride.push(1);
                }
                EventKind::PointValue => {
                    twin.kind = EventKind::Point;
                    twin.base.pop();
                    twin.stride.pop();
                }
                EventKind::Load => twin.kind = EventKind::Store,
                EventKind::Store => twin.kind = EventKind::Load,
                EventKind::Dep(_) => {}
            }
            keys.push(twin);
            continue;
        }
        let extreme = extreme && rng.below(3) == 0;
        let dim = 1 + rng.below(3) as usize;
        let (mut base, mut stride) = coords(rng, dim, extreme);
        let kind = match rng.below(8) {
            0 => EventKind::Point,
            1 => EventKind::PointValue,
            2 => EventKind::Load,
            3 => EventKind::Store,
            d => EventKind::Dep(kinds[d as usize - 4]),
        };
        let (a, b) = (j as u32, STMTS + rng.below(8) as u32);
        let split = match kind {
            EventKind::Point => dim,
            EventKind::PointValue | EventKind::Load | EventKind::Store => {
                let (l, s) = label(rng, stride[dim - 1], extreme);
                base.push(l);
                stride.push(s);
                dim
            }
            EventKind::Dep(_) => {
                // The producer: the consumer one step back, or elsewhere.
                let src_dim = 1 + rng.below(3) as usize;
                let mut src: Vec<i64> = base.iter().copied().cycle().take(src_dim).collect();
                let mut src_stride: Vec<i64> =
                    stride.iter().copied().cycle().take(src_dim).collect();
                let last = src_dim - 1;
                src[last] = src[last].wrapping_sub(1 + rng.below(2) as i64);
                if flip && rng.below(2) == 0 {
                    src[last] = src[last].wrapping_add(rng.below(8) as i64);
                    src_stride[last] = src_stride[last].wrapping_sub(1 + rng.below(2) as i64);
                } else if rng.below(8) == 0 {
                    src_stride[last] = rng.below(5) as i64 - 2;
                }
                src.extend_from_slice(&base);
                src_stride.extend_from_slice(&stride);
                base = src;
                stride = src_stride;
                src_dim
            }
        };
        keys.push(Key {
            kind,
            a,
            b,
            split,
            base,
            stride,
        });
    }
    keys
}

/// A statement table naming one real instruction of `prog` for every id a
/// body's points may use.
fn interner(prog: &Program) -> ContextInterner {
    let (f, func) = prog.funcs.iter().enumerate().next().expect("a function");
    let (b, _) = (func.blocks.iter().enumerate())
        .find(|(_, b)| !b.instrs.is_empty())
        .expect("a block with an instruction");
    let block = polyprof_core::polyir::BlockRef {
        func: polyprof_core::polyir::FuncId(f as u32),
        block: polyprof_core::polyir::LocalBlockId(b as u32),
    };
    let info = StmtInfo {
        path: CtxPathId(0),
        instr: InstrRef { block, idx: 0 },
        depth: 1,
    };
    ContextInterner::from_parts(
        vec![vec![vec![CtxElem::Block(block)]]],
        vec![info; STMTS as usize],
    )
}

/// Emit each key's event `t` for `t` in `from..=to`, `t` major.
fn spell(sink: &mut FoldingSink, keys: &[Key], from: i64, to: i64) {
    for t in from..=to {
        for key in keys {
            key.body_key().emit(sink, &key.at(t));
        }
    }
}

/// What a sink folded: its canonical DDG and its statistics.
fn folded(sink: FoldingSink, prog: &Program, interner: &ContextInterner) -> (String, FoldStats) {
    let stats = sink.fold_stats();
    (sink.finalize(prog, interner).canonical_text(), stats)
}

proptest! {
    /// A warm-up of a few spelled repeats, one run of `n` (and, with
    /// `chain`, a second one right after it), then, with `tail`, a few
    /// spelled repeats and one off-stride event: the sink taking the runs
    /// whole and the
    /// sink taking them event by event fold the same DDG with the same
    /// statistics — with no budget, a roomy one, one whose pressure latches
    /// mid-stream, and one whose pressure latches inside the first run, at
    /// key `j`: only the keys before `j` are warmed up, and the limit is
    /// what the sink holds once they have folded their first repeat. With
    /// `bend`, some keys' runs continue the warm-up's line for one repeat
    /// and then leave it.
    #[test]
    fn body_runs_fold_like_their_events(
        seed in 0u32..u32::MAX, k in 1usize..=64, n in 1u32..24,
        warm in 0i64..4, chain in 0u32..6,
        collide in 0u8..4, flip in 0u8..2, extreme in 0u8..3, budget in 0u8..5,
        bend in 0u8..3, tail in 0u8..2,
    ) {
        let (mut rng, n, chain) = (Rng(seed.into()), u64::from(n), u64::from(chain));
        // Budget 4's bodies are short and fold whole as far as their
        // strides allow.
        let (wild, k) = (budget != 4, if budget == 4 { 1 + k % 8 } else { k });
        let warmed = body(&mut rng, k, wild && collide == 0, wild && flip == 1, wild && extreme == 0);
        let keys: Vec<Key> = warmed
            .iter()
            .map(|key| match bend == 0 && rng.below(2) == 0 {
                true => key.bent(rng.pick(&[-2, -1, 1, 2])),
                false => key.clone(),
            })
            .collect();
        let body_keys: Vec<BodyKey<'_>> = keys.iter().map(Key::body_key).collect();
        let prog = stencil(4, 1);
        let interner = interner(&prog);
        let j = match (budget, k) {
            (4, 2..) => 1 + rng.below(k as u64 - 1) as usize,
            (4, _) => 0,
            _ => k,
        };
        let start = |budget: Option<&Arc<ResourceBudget>>| {
            let mut sink = FoldingSink::new();
            if let Some(b) = budget {
                sink.set_budget(Arc::clone(b));
            }
            spell(&mut sink, &warmed[..j], -warm, 0);
            sink
        };
        let limit = match budget {
            2 => Some(1 << 30),
            3 => Some(40_000),
            4 => {
                let meter = Arc::new(ResourceBudget::new(None, None));
                let mut probe = start(Some(&meter));
                expand_run(&mut probe, &body_keys[..j], 1);
                Some(meter.used_bytes())
            }
            _ => None,
        };
        let budgets = [(); 2].map(|_| limit.map(|l| Arc::new(ResourceBudget::new(Some(l), None))));
        let [mut whole, mut spelled] = [0, 1].map(|s| start(budgets[s].as_ref()));
        let latched = || budgets[0].as_ref().is_some_and(|b| b.under_pressure());
        let latched_before = latched();
        whole.body_run(&body_keys, n);
        expand_run(&mut spelled, &body_keys, n);
        if budget == 4 {
            // Key `j` has no folder yet, and no earlier key shares one with
            // it: building it latches the pressure.
            prop_assert!(!latched_before && latched());
        }
        // Later events can hide a wrongly accepted run in the fold; the
        // statistics show it at once.
        prop_assert_eq!(whole.fold_stats(), spelled.fold_stats());
        let moved: Vec<Key> = keys.iter().map(|key| key.after(n as i64)).collect();
        if chain > 0 {
            let chained: Vec<BodyKey<'_>> = moved.iter().map(Key::body_key).collect();
            whole.body_run(&chained, chain);
            expand_run(&mut spelled, &chained, chain);
            prop_assert_eq!(whole.fold_stats(), spelled.fold_stats());
        }
        for sink in [&mut whole, &mut spelled].into_iter().filter(|_| tail == 1) {
            spell(sink, &moved, chain as i64 + 1, chain as i64 + 2);
            let odd = &moved[0];
            odd.body_key().emit(sink, &odd.at(-3));
        }
        let (whole, spelled) = (folded(whole, &prog, &interner), folded(spelled, &prog, &interner));
        prop_assert_eq!(whole.1, spelled.1);
        prop_assert_eq!(whole.0, spelled.0);
    }
}

/// A regular body — a point with a value, a load, a store and a carried
/// dependence, each moving along the last dimension — taken whole by
/// `body_run` costs O(keys): 2⁴⁰ repeats fold at once, to the domain and
/// the statistics those repeats spell, every one of them predicted. So it
/// does under a roomy byte limit and under a deadline alone: the test
/// finishes only if no run is spelled out.
#[test]
fn a_regular_run_folds_in_constant_time() {
    let budgets = [
        None,
        Some(ResourceBudget::new(Some(1 << 40), None)),
        Some(ResourceBudget::new(None, Some(Duration::from_secs(3600)))),
    ];
    for budget in budgets.map(|b| b.map(Arc::new)) {
        regular_run_folds_whole(budget);
    }
}

fn regular_run_folds_whole(budget: Option<Arc<ResourceBudget>>) {
    let n = 1u64 << 40;
    let keys = [
        Key {
            kind: EventKind::PointValue,
            a: 0,
            b: 0,
            split: 2,
            base: vec![0, 1, 10],
            stride: vec![0, 1, 3],
        },
        Key {
            kind: EventKind::Load,
            a: 1,
            b: 0,
            split: 2,
            base: vec![0, 1, 4096],
            stride: vec![0, 1, 8],
        },
        Key {
            kind: EventKind::Store,
            a: 2,
            b: 0,
            split: 2,
            base: vec![0, 1, 8192],
            stride: vec![0, 1, 8],
        },
        Key {
            kind: EventKind::Dep(DepKind::Flow),
            a: 2,
            b: 1,
            split: 2,
            base: vec![0, 0, 0, 1],
            stride: vec![0, 1, 0, 1],
        },
    ];
    let body: Vec<BodyKey<'_>> = keys.iter().map(Key::body_key).collect();
    let warmed = || {
        let mut sink = FoldingSink::new();
        if let Some(b) = &budget {
            sink.set_budget(Arc::clone(b));
        }
        spell(&mut sink, &keys, -1, 0);
        sink
    };
    // The warm-up's share of the predictions, read off a short run spelled
    // out: every run event is predicted.
    let mut short = warmed();
    expand_run(&mut short, &body, 4);
    let warm_predicted = short.fold_stats().predicted - 4 * 4;
    let mut sink = warmed();
    sink.body_run(&body, n);
    let stats = sink.fold_stats();
    assert_eq!(stats.events_folded, 4 * (n + 2));
    assert_eq!(stats.deps_folded, n + 2);
    assert_eq!(stats.predicted, 4 * n + warm_predicted);
    let prog = stencil(4, 1);
    let ddg = sink.finalize(&prog, &interner(&prog));
    assert_eq!(ddg.total_ops, n + 2);
    let point = &ddg.stmts[&StmtId(0)].domain;
    assert_eq!(point.count, n + 2);
    assert_eq!(point.box_hi, vec![0, 1 + n as i64]);
    let dep = &ddg.deps[0];
    assert_eq!(dep.class, Some(1));
    assert_eq!(dep.delta, vec![(0, 0), (1, 1)]);
    assert_eq!(dep.domain.count, n + 2);
}
