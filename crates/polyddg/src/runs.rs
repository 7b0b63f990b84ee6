//! Loop-body runs, found where Algorithm 1 already marks them: at iteration
//! boundaries.
//!
//! [`RunDetector`] sits between the profiler and its [`FoldSink`]. The
//! profiler cuts the event stream into *segments* at every drain of loop
//! events that moves the iteration vector — an iteration, an entry or an
//! exit ([`Boundary`]) — so a segment that follows an iteration of loop `L`
//! is one whole iteration of `L`'s body. The detector keeps the previous
//! segment as its *model*: the keys of its events, and per word its latest
//! value and its stride (the step from the segment before). A segment of
//! the same loop whose iteration vector moved by the model's stride is
//! checked against the model event by event and stepped in place; one that
//! matches to its end is a *repeat*.
//!
//! The first repeat is forwarded as it is checked; the repeats after it are
//! held back and handed over as one [`FoldSink::body_run`] when the streak
//! breaks — at the first event off the model, at any other boundary, or in
//! [`finish`](RunDetector::finish) — followed by the matched prefix of the
//! broken repeat, one event at a time. A sink that does not override
//! `body_run` therefore sees exactly the stream the profiler produced.
//!
//! Every event of a segment carries the segment's coordinates (a point, an
//! access, a dependence's consumer), so those are compared once per
//! segment; per event only the value, the address or the producer
//! coordinates are. A static loop whose segments keep failing goes dormant
//! for a while, and its segments then cost one predictable branch an event.

use crate::{BodyKey, DepKind, EventKind, FoldSink};
use polycfg::LoopRef;
use polyiiv::context::StmtId;

/// Longest loop body the detector holds as a model, and so the longest run
/// body: one iteration of more events is forwarded unchecked. Also the
/// longest body a `.ptrace` run record may name. At iteration boundaries the
/// ledger's dense program has bodies of 21 and 44 events: at 64, 97.7 % of
/// `dense_affine`'s events reach the fold in runs; at 32, only the
/// 21-event body's, about a third.
pub const KMAX: usize = 64;

/// Segments of one loop that count against it, with no held repeat in
/// between, before the loop goes dormant.
const MISSES: u32 = 4;
/// Segments a loop sleeps the first time it goes dormant; each further time
/// doubles it, up to [`LONGEST_NAP`]. A held repeat resets both.
const FIRST_NAP: u32 = 16;
const LONGEST_NAP: u32 = 1024;
/// Direct-mapped slots of the per-loop dormancy table: two loops that share
/// a slot take turns in it, which only costs them their history.
const LOOP_SLOTS: usize = 64;

/// What the iteration-vector move at a drain of loop events begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The next iteration of the loop (`I`, `Ic`, `Ir`).
    Iter(LoopRef),
    /// The first iteration of the loop (`E`, `Ec`).
    Enter(LoopRef),
    /// The rest of the enclosing iteration after a loop exit (`X`, `Xr`).
    Exit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Forward every event, remember nothing.
    Off,
    /// Make this segment the model: compare keys, retrain strides.
    Train,
    /// Compare with the model; hold back when the streak is under way.
    Check,
}

/// One event of the model: its key — the statements `a | b << 32`, and the
/// kind's code with the word count above it — and where its words are.
#[derive(Debug, Clone, Copy)]
struct Key {
    ab: u64,
    tag: u32,
    at: u32,
}

impl Key {
    fn kind(&self) -> EventKind {
        EventKind::ALL[(self.tag & 0xff) as usize]
    }

    fn len(&self) -> usize {
        (self.tag >> 8) as usize
    }

    fn words(&self) -> std::ops::Range<usize> {
        self.at as usize..self.at as usize + self.len()
    }
}

/// A loop's record in the dormancy table.
#[derive(Debug, Clone, Copy)]
struct Dormancy {
    l: Option<LoopRef>,
    misses: u32,
    skip: u32,
    nap: u32,
}

impl Dormancy {
    const FRESH: Dormancy = Dormancy {
        l: None,
        misses: 0,
        skip: 0,
        nap: FIRST_NAP,
    };
}

fn loop_slot(l: LoopRef) -> usize {
    let h = match l {
        LoopRef::Cfg(f, i) => (f.0 as u64) << 32 | i.0 as u64,
        LoopRef::Rec(r) => !(r.0 as u64),
    };
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize
}

/// The run detector (module docs): a [`FoldSink`] in front of `F` that
/// the profiler tells where iterations begin ([`boundary`](Self::boundary)).
#[derive(Debug)]
pub struct RunDetector<F> {
    sink: F,
    mode: Mode,
    /// The current segment's events are held back (a streak is under way).
    hold: bool,
    /// Complete repeats held back.
    reps: u64,
    /// Events of the current segment so far, and their words.
    pos: usize,
    wat: usize,
    /// The model: keys, and per word its latest value and stride.
    keys: Vec<Key>,
    words: Vec<[i64; 2]>,
    /// Per coordinate of the segment: its value, and its step from the
    /// segment before.
    coords: Vec<[i64; 2]>,
    /// The loop whose iteration the model is, if it may be checked against.
    model: Option<LoopRef>,
    /// Dormancy slot of the current segment's loop, when it is accounted.
    slot: Option<usize>,
    /// The current segment's loop and its slot, when the loop sleeps.
    asleep: Option<(LoopRef, usize)>,
    /// The current segment counts against its loop: it replaced the model,
    /// left it, or outgrew [`KMAX`]. Retraining on the model and a first
    /// repeat count neither way; a held repeat clears the loop's record.
    missed: bool,
    loops: [Dormancy; LOOP_SLOTS],
    /// Scratch of a run's starting words and strides.
    base: Vec<i64>,
    steps: Vec<i64>,
    runs: u64,
}

impl<F: FoldSink> RunDetector<F> {
    /// A detector in front of `sink`, forwarding until the first boundary.
    pub fn new(sink: F) -> Self {
        RunDetector {
            sink,
            mode: Mode::Off,
            hold: false,
            reps: 0,
            pos: 0,
            wat: 0,
            keys: Vec::with_capacity(KMAX),
            words: Vec::new(),
            coords: Vec::new(),
            model: None,
            slot: None,
            asleep: None,
            missed: false,
            loops: [Dormancy::FRESH; LOOP_SLOTS],
            base: Vec::new(),
            steps: Vec::new(),
            runs: 0,
        }
    }

    /// The sink, after everything held back has been handed to it.
    pub fn finish(mut self) -> F {
        self.end_segment();
        if self.hold {
            self.flush(false);
        }
        self.sink
    }

    /// [`FoldSink::body_run`] calls made so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// End the current segment and begin the next, whose events all carry
    /// `coords`.
    #[inline]
    pub fn boundary(&mut self, coords: &[i64], at: Boundary) {
        // The next iteration of a sleeping loop: nothing to end or begin.
        if let (Boundary::Iter(l), Some((z, s))) = (at, self.asleep) {
            let d = &mut self.loops[s];
            if l == z && d.skip > 0 {
                d.skip -= 1;
                return;
            }
        }
        self.end_segment();
        self.begin(coords, at);
    }

    #[inline(never)]
    fn end_segment(&mut self) {
        let held = match self.mode {
            Mode::Off => false,
            Mode::Check if self.pos == self.keys.len() && self.pos > 0 => {
                self.reps += u64::from(self.hold);
                std::mem::replace(&mut self.hold, true)
            }
            Mode::Check | Mode::Train => {
                if self.mode == Mode::Check {
                    self.missed = true;
                }
                if self.hold {
                    self.flush(true);
                }
                self.truncate();
                false
            }
        };
        let Some(s) = self.slot else {
            return;
        };
        let d = &mut self.loops[s];
        if held {
            d.misses = 0;
            d.nap = FIRST_NAP;
        } else if self.missed {
            d.misses += 1;
            if d.misses >= MISSES {
                d.misses = 0;
                d.skip = d.nap;
                d.nap = (2 * d.nap).min(LONGEST_NAP);
            }
        }
    }

    #[inline(never)]
    fn begin(&mut self, coords: &[i64], at: Boundary) {
        self.pos = 0;
        self.wat = 0;
        self.asleep = None;
        let (l, iter) = match at {
            Boundary::Iter(l) => (l, true),
            Boundary::Enter(l) => (l, false),
            Boundary::Exit => return self.off(),
        };
        let s = loop_slot(l);
        let d = &mut self.loops[s];
        if d.l != Some(l) {
            *d = Dormancy {
                l: Some(l),
                ..Dormancy::FRESH
            };
        }
        if d.skip > 0 {
            d.skip -= 1;
            self.off();
            self.asleep = Some((l, s));
            return;
        }
        self.slot = Some(s);
        self.missed = false;
        if iter && self.model == Some(l) && self.coords.len() == coords.len() {
            // The iteration vector, compared once for every event of the
            // segment, then stepped in place.
            let moved = self.coords.iter().zip(coords);
            let miss = moved.fold(0, |miss, (m, &c)| miss | (m[0].wrapping_add(m[1]) ^ c));
            self.mode = if miss == 0 {
                Mode::Check
            } else {
                if self.hold {
                    self.flush(false);
                }
                Mode::Train
            };
            for (m, &c) in self.coords.iter_mut().zip(coords) {
                *m = [c, c.wrapping_sub(m[0])];
            }
            return;
        }
        if self.hold {
            self.flush(false);
        }
        self.missed = true;
        self.model = Some(l);
        self.keys.clear();
        self.words.clear();
        self.coords.clear();
        self.coords.extend(coords.iter().map(|&c| [c, 0]));
        self.mode = Mode::Train;
    }

    /// Forward everything until the next boundary, and forget the model.
    fn off(&mut self) {
        if self.hold {
            self.flush(false);
        }
        self.mode = Mode::Off;
        self.model = None;
        self.slot = None;
    }

    /// Drop the model's keys past the current segment's end.
    fn truncate(&mut self) {
        if let Some(k) = self.keys.get(self.pos) {
            self.words.truncate(k.at as usize);
            self.keys.truncate(self.pos);
        }
    }

    /// True when `coords` are the segment's.
    fn carries(&self, coords: &[i64]) -> bool {
        coords.iter().eq(self.coords.iter().map(|m| &m[0]))
    }

    /// One event of the current segment — its kind's code, its statements
    /// and its words — true when the sink should see it now.
    #[inline(always)]
    fn event(&mut self, code: u8, a: StmtId, b: StmtId, w: &[i64]) -> bool {
        let (ab, tag) = (
            a.0 as u64 | (b.0 as u64) << 32,
            code as u32 | (w.len() as u32) << 8,
        );
        match self.mode {
            Mode::Off => true,
            Mode::Check => {
                if self.step(ab, tag, w) {
                    !self.hold
                } else {
                    self.miss(ab, tag, w);
                    true
                }
            }
            Mode::Train => {
                self.train(ab, tag, w);
                true
            }
        }
    }

    /// Step the model's next event to `w` if it is this key and `w` is its
    /// latest words plus its stride: one pass that steps as it compares,
    /// undone on a miss.
    #[inline(always)]
    fn step(&mut self, ab: u64, tag: u32, w: &[i64]) -> bool {
        let Some(k) = self.keys.get(self.pos) else {
            return false;
        };
        if k.ab != ab || k.tag != tag {
            return false;
        }
        // The words' place comes from the running count, not from the key,
        // so that reading them does not wait for the key.
        let at = self.wat;
        let Some(words) = self.words.get_mut(at..at + w.len()) else {
            return false;
        };
        let mut miss = 0;
        for (m, &w) in words.iter_mut().zip(w) {
            m[0] = m[0].wrapping_add(m[1]);
            miss |= m[0] ^ w;
        }
        if miss != 0 {
            for m in words {
                m[0] = m[0].wrapping_sub(m[1]);
            }
            return false;
        }
        self.pos += 1;
        self.wat = at + w.len();
        true
    }

    /// The segment left the model: hand over what was held back, and make
    /// the rest of the segment the model.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, ab: u64, tag: u32, w: &[i64]) {
        self.missed = true;
        if self.hold {
            self.flush(true);
        }
        self.mode = Mode::Train;
        self.train(ab, tag, w);
    }

    /// Make the event the model's next: retrain the stride if the model
    /// has this key here, else drop the model's rest and append the key.
    #[inline(never)]
    fn train(&mut self, ab: u64, tag: u32, w: &[i64]) {
        if let Some(k) = self.keys.get(self.pos) {
            if k.ab == ab && k.tag == tag {
                for (m, &w) in self.words[k.words()].iter_mut().zip(w) {
                    *m = [w, w.wrapping_sub(m[0])];
                }
                self.pos += 1;
                self.wat += w.len();
                return;
            }
            self.truncate();
        }
        if self.pos == KMAX {
            // Too long a body: this loop's iteration is never a run.
            self.missed = true;
            self.mode = Mode::Off;
            self.model = None;
            return;
        }
        let at = self.words.len() as u32;
        self.keys.push(Key { ab, tag, at });
        self.words.extend(w.iter().map(|&w| [w, 0]));
        self.pos += 1;
        self.wat += w.len();
    }

    /// Hand the held repeats to the sink as one run, then — when `open`,
    /// the current segment being held and its coordinates stepped — the
    /// segment's matched prefix event by event. The sink has seen the
    /// streak's first repeat, which is the run's base: every word is back
    /// one stride per repeat stepped since.
    #[cold]
    #[inline(never)]
    fn flush(&mut self, open: bool) {
        let (reps, pos) = (self.reps, if open { self.pos } else { 0 });
        self.hold = false;
        self.reps = 0;
        let back = |l: i64, s: i64, t: u64| l.wrapping_sub(s.wrapping_mul(t as i64));
        if reps > 0 {
            let coord_back = reps + u64::from(open);
            self.base.clear();
            self.steps.clear();
            for (j, k) in self.keys.iter().enumerate() {
                let t = reps + u64::from(j < pos);
                let words = &self.words[k.words()];
                let dep = matches!(k.kind(), EventKind::Dep(_));
                if dep {
                    self.base.extend(words.iter().map(|m| back(m[0], m[1], t)));
                    self.steps.extend(words.iter().map(|m| m[1]));
                }
                self.base
                    .extend(self.coords.iter().map(|m| back(m[0], m[1], coord_back)));
                self.steps.extend(self.coords.iter().map(|m| m[1]));
                if !dep {
                    self.base.extend(words.iter().map(|m| back(m[0], m[1], t)));
                    self.steps.extend(words.iter().map(|m| m[1]));
                }
            }
            let mut body = [BodyKey::default(); KMAX];
            let mut from = 0;
            for (key, k) in body.iter_mut().zip(&self.keys) {
                let n = self.coords.len() + k.len();
                *key = BodyKey {
                    kind: k.kind(),
                    a: StmtId(k.ab as u32),
                    b: StmtId((k.ab >> 32) as u32),
                    split: match k.kind() {
                        EventKind::Dep(_) => k.len(),
                        _ => self.coords.len(),
                    },
                    base: &self.base[from..from + n],
                    stride: &self.steps[from..from + n],
                };
                from += n;
            }
            self.sink.body_run(&body[..self.keys.len()], reps);
            self.runs += 1;
        }
        for k in &self.keys[..pos] {
            // The words, then the coordinates, of the prefix's event.
            self.base.clear();
            self.base.extend(self.words[k.words()].iter().map(|m| m[0]));
            self.base.extend(self.coords.iter().map(|m| m[0]));
            let (w, c) = self.base.split_at(k.len());
            let a = StmtId(k.ab as u32);
            match k.kind() {
                EventKind::Point => self.sink.instr_point(a, c, None),
                EventKind::PointValue => self.sink.instr_point(a, c, Some(w[0])),
                EventKind::Load => self.sink.mem_access(a, c, w[0] as u64, false),
                EventKind::Store => self.sink.mem_access(a, c, w[0] as u64, true),
                EventKind::Dep(kind) => {
                    self.sink
                        .dependence(kind, a, w, StmtId((k.ab >> 32) as u32), c)
                }
            }
        }
    }
}

impl<F: FoldSink> FoldSink for RunDetector<F> {
    #[inline(always)]
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        debug_assert!(self.mode == Mode::Off || self.carries(coords));
        let now = match value {
            Some(v) => self.event(1, stmt, StmtId(0), &[v]),
            None => self.event(0, stmt, StmtId(0), &[]),
        };
        if now {
            self.sink.instr_point(stmt, coords, value);
        }
    }

    #[inline(always)]
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        debug_assert!(self.mode == Mode::Off || self.carries(coords));
        if self.event(2 + is_write as u8, stmt, StmtId(0), &[addr as i64]) {
            self.sink.mem_access(stmt, coords, addr, is_write);
        }
    }

    #[inline(always)]
    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        debug_assert!(self.mode == Mode::Off || self.carries(dst_coords));
        if self.event(EventKind::Dep(kind).code(), src, dst, src_coords) {
            self.sink.dependence(kind, src, src_coords, dst, dst_coords);
        }
    }

    fn events_seen(&self) -> u64 {
        self.sink.events_seen()
    }
}
