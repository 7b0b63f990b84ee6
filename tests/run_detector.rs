//! The loop-body run detector at stream level: whatever stream of events
//! and iteration boundaries it is fed, what it hands its sink — each
//! `body_run` spelled out by the trait's default — is exactly that stream.
//!
//! The streams are loops of bodies of 1 to 70 events (past the detector's
//! `KMAX`), each key on its own stride, broken on purpose: a word off its
//! stride mid-iteration, an iteration cut short or grown, a key or a word
//! count changed, empty iterations, a key twice in one body, the iteration
//! vector moved off its step, exits and fresh entries, loops that keep
//! failing until they go dormant and then repeat, and streams that end in
//! the middle of a held run.

use polyprof_core::polycfg::{LoopIdx, LoopRef};
use polyprof_core::polyddg::runs::{Boundary, RunDetector};
use polyprof_core::polyddg::{expand_run, BodyKey, CollectSink, DepKind, FoldSink};
use polyprof_core::polyiiv::context::StmtId;
use polyprof_core::polyir::FuncId;
use proptest::prelude::*;

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

    /// Mostly small, sometimes anywhere.
    fn word(&mut self) -> i64 {
        match self.below(8) {
            0 => self.next() as i64,
            _ => self.below(9) as i64 - 4,
        }
    }
}

/// One call the profiler makes on the detector.
#[derive(Debug, Clone)]
enum Call {
    Boundary(Vec<i64>, Boundary),
    Point(u32, Option<i64>),
    Access(u32, u64, bool),
    Dep(DepKind, u32, Vec<i64>, u32),
    /// The profiler finishes.
    End,
}

/// A sink that collects every event and counts the runs it was handed.
#[derive(Default)]
struct Counted {
    events: CollectSink,
    runs: u64,
}

impl FoldSink for Counted {
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.events.instr_point(stmt, coords, value);
    }
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.events.mem_access(stmt, coords, addr, is_write);
    }
    fn dependence(&mut self, k: DepKind, s: StmtId, sc: &[i64], d: StmtId, dc: &[i64]) {
        self.events.dependence(k, s, sc, d, dc);
    }
    fn body_run(&mut self, body: &[BodyKey<'_>], n: u64) {
        self.runs += 1;
        expand_run(self, body, n);
    }
}

/// Feed `calls` to a counting sink through a detector, or straight when
/// `det` is false; every event carries the coordinates of the last
/// boundary.
fn feed(calls: &[Call], det: bool) -> Counted {
    let mut d = RunDetector::new(Counted::default());
    let mut plain = Counted::default();
    let mut coords = Vec::new();
    for call in calls {
        match call {
            Call::Boundary(c, at) => {
                coords = c.clone();
                if det {
                    d.boundary(c, *at);
                }
                continue;
            }
            Call::End => break,
            _ => {}
        }
        let sink: &mut dyn FoldSink = if det { &mut d } else { &mut plain };
        match call {
            Call::Point(s, v) => sink.instr_point(StmtId(*s), &coords, *v),
            Call::Access(s, a, w) => sink.mem_access(StmtId(*s), &coords, *a, *w),
            Call::Dep(k, s, sc, t) => sink.dependence(*k, StmtId(*s), sc, StmtId(*t), &coords),
            Call::Boundary(..) | Call::End => unreachable!(),
        }
    }
    if det {
        d.finish()
    } else {
        plain
    }
}

/// A body key: the event at repeat 0 and the stride of each of its words.
#[derive(Debug, Clone)]
struct Key {
    call: Call,
    stride: Vec<i64>,
}

impl Key {
    fn random(rng: &mut Rng) -> Key {
        let stmt = rng.below(24) as u32;
        let kinds = [DepKind::Flow, DepKind::Anti, DepKind::Output, DepKind::Reg];
        let call = match rng.below(6) {
            0 => Call::Point(stmt, None),
            1 => Call::Point(stmt, Some(rng.word())),
            2 => Call::Access(stmt, rng.next() % 4096, rng.below(2) == 1),
            k => {
                let src = (0..rng.below(4)).map(|_| rng.word()).collect();
                Call::Dep(kinds[k as usize - 3], stmt, src, rng.below(24) as u32)
            }
        };
        let words = match &call {
            Call::Point(_, v) => usize::from(v.is_some()),
            Call::Dep(_, _, src, _) => src.len(),
            _ => 1,
        };
        let stride = (0..words).map(|_| rng.word()).collect();
        Key { call, stride }
    }

    /// The key's event at repeat `t`.
    fn at(&self, t: i64) -> Call {
        let mv = |w: i64, s: i64| w.wrapping_add(s.wrapping_mul(t));
        match &self.call {
            Call::Point(s, v) => Call::Point(*s, v.map(|v| mv(v, self.stride[0]))),
            Call::Access(s, a, w) => Call::Access(*s, mv(*a as i64, self.stride[0]) as u64, *w),
            Call::Dep(k, s, src, d) => {
                let src = src.iter().zip(&self.stride).map(|(&w, &s)| mv(w, s));
                Call::Dep(*k, *s, src.collect(), *d)
            }
            other => other.clone(),
        }
    }
}

/// The same event, changed: a word off its stride, one more producer
/// coordinate, or another statement.
fn bend(call: Call, rng: &mut Rng) -> Call {
    match (call, rng.below(3)) {
        (Call::Point(s, Some(v)), 0) => Call::Point(s, Some(v.wrapping_add(1))),
        (Call::Access(s, a, w), 0) => Call::Access(s, a.wrapping_add(1), w),
        (Call::Dep(k, s, mut src, d), 1) => {
            src.push(rng.word());
            Call::Dep(k, s, src, d)
        }
        (Call::Point(s, v), _) => Call::Point(s + 100, v),
        (Call::Access(s, a, w), _) => Call::Access(s + 100, a, w),
        (Call::Dep(k, s, src, d), _) => Call::Dep(k, s, src, d + 100),
        (other, _) => other,
    }
}

/// A random stream of loop executions and the code between them.
fn stream(rng: &mut Rng) -> Vec<Call> {
    let mut out = Vec::new();
    let loops = [0, 1, 2].map(|i| LoopRef::Cfg(FuncId(0), LoopIdx(i)));
    for _ in 0..1 + rng.below(6) {
        let l = loops[rng.below(3) as usize];
        let dim = 1 + rng.below(3) as usize;
        let mut coords: Vec<i64> = (0..dim).map(|_| rng.word()).collect();
        let k = match rng.below(4) {
            0 => 1 + rng.below(3) as usize,
            _ => 1 + rng.below(70) as usize,
        };
        let mut body: Vec<Key> = (0..k).map(|_| Key::random(rng)).collect();
        if k > 1 && rng.below(4) == 0 {
            // A key twice in one body.
            body[k - 1] = body[0].clone();
        }
        // Failures are rarer in some loops than in others.
        let odds = [3, 20, 400][rng.below(3) as usize];
        for t in 0..rng.below(40) as i64 {
            let at = if t == 0 {
                Boundary::Enter(l)
            } else {
                Boundary::Iter(l)
            };
            if t > 0 {
                // The iteration vector moves along its last dimension, or
                // now and then elsewhere.
                let d = if rng.below(odds) == 0 { 0 } else { dim - 1 };
                coords[d] += 1;
            }
            out.push(Call::Boundary(coords.clone(), at));
            if rng.below(odds) == 0 {
                continue; // an empty iteration
            }
            for key in &body {
                let call = key.at(t);
                match rng.below(odds) {
                    0 => out.push(bend(call, rng)),
                    1 => break, // cut short
                    2 => {
                        out.push(call);
                        out.push(Key::random(rng).call); // grown
                    }
                    _ => out.push(call),
                }
            }
            if rng.below(8 * odds) == 0 {
                out.push(Call::End);
                return out;
            }
        }
        coords.pop();
        out.push(Call::Boundary(coords.clone(), Boundary::Exit));
        for _ in 0..rng.below(4) {
            out.push(Key::random(rng).at(0));
        }
    }
    out
}

fn events(c: &Counted) -> (String, String, String) {
    let e = &c.events;
    (
        format!("{:?}", e.points),
        format!("{:?}", e.accesses),
        format!("{:?}", e.deps),
    )
}

proptest! {
    #[test]
    fn detector_hands_over_exactly_its_input(seed in 0i64..i64::MAX) {
        let calls = stream(&mut Rng(seed as u64));
        let want = feed(&calls, false);
        let got = feed(&calls, true);
        prop_assert_eq!(events(&got), events(&want), "seed {}", seed);
    }
}

/// Over a fixed set of streams the detector does form runs — most of them
/// cut short by a break, some by an exit, some ending the stream — so the
/// property above is not passing by forwarding everything.
#[test]
fn fixed_streams_form_runs() {
    let mut runs = 0;
    for seed in 0..256 {
        let calls = stream(&mut Rng(seed));
        let got = feed(&calls, true);
        assert_eq!(events(&got), events(&feed(&calls, false)), "seed {seed}");
        runs += got.runs;
    }
    assert!(runs > 100, "only {runs} runs");
}
