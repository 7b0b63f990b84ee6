//! # polyddg — the dynamic dependence graph stream (paper §4–5)
//!
//! Stage 2 of Poly-Prof ("Instrumentation II"): every dynamic instruction is
//! tagged with its dynamic IIV, and a *shadow memory* plus per-frame register
//! tracking turn the execution into three streams — the "folding interface"
//! of §5:
//!
//! * **instruction points** `(stmt, coords, label)` where the label is the
//!   integer value produced (for SCEV recognition);
//! * **memory accesses** `(stmt, coords, addr, is_write)` (for strided-access
//!   / reuse analysis);
//! * **dependences** `(kind, src stmt, src coords, dst stmt, dst coords)` —
//!   flow through memory and registers, plus anti/output dependences.
//!
//! Nothing is materialized: events flow to a [`FoldSink`] (normally the
//! folding stage) as they happen.
//!
//! Substitution note: the paper tracks the register-to-register flow of the
//! callee's return value into the caller; here the `Call` instruction itself
//! is the writer of its destination register (callee-internal memory
//! dependences are still exact). This only coarsens chains that the SCEV
//! filter would usually delete anyway.
//!
//! ## Hot-path architecture
//!
//! Stage 2 sees every dynamic instruction, so the per-event cost here
//! dominates whole-suite profiling time (paper §8). The profiler is
//! allocation-free at steady state:
//!
//! * IIV coordinates change only on loop events; the current vector is
//!   captured **once per change** as a `Copy` [`coords::CoordSnap`]
//!   (inline for ≤ [`coords::INLINE_DIMS`] dims, arena-interned beyond),
//!   and every writer record shares that snapshot instead of boxing its
//!   own `Box<[i64]>`.
//! * [`shadow::ShadowMemory`] keeps last-writer and last-reader in one
//!   16-byte cell per word behind an MRU page cache: a memory event
//!   resolves its page once instead of probing two hash tables repeatedly.
//!   A shadow record is a statement plus a counted handle on its snapshot
//!   in the [`coords::SnapCache`] table, which recycles a snapshot's slot
//!   when its last record is overwritten.
//! * Register frames are pooled across call/ret, and statement lookup goes
//!   through a small direct-mapped cache keyed by instruction.
//! * A [`runs::RunDetector`] stands between the profiler and its sink. The
//!   loop events that move the iteration vector mark every iteration, and
//!   the detector checks each one against the previous: the iteration
//!   vector once, then per event only the value, address or producer
//!   coordinates. The repeats of a loop body reach the sink as one
//!   [`FoldSink::body_run`], which the folding sink folds per key at once.
//!   A loop whose iterations keep failing goes dormant, and its events cost
//!   the detector one branch.
//!
//! The pre-optimization implementation is retained in [`baseline`] for
//! differential tests and benchmark comparison.
//!
//! ## One front end
//!
//! [`DdgProfiler`] is the crate's only [`EventSink`] outside [`baseline`]:
//! it owns its [`shadow::ShadowMemory`] and resolves every memory touch on
//! the VM thread, through [`shadow::ShadowMemory::resolve`], so the sink it
//! writes to sees only the resolved folding interface, loop-body runs
//! included — the folding sink itself, on the same thread
//! (`polyfold::pass2`).

pub mod baseline;
pub mod chunk;
pub mod coords;
pub mod runs;
pub mod shadow;

use coords::SnapCache;
use polycfg::{LoopEvent, LoopEventGen, StaticStructure};
use polyiiv::context::{ContextInterner, CtxPathId, StmtId};
use polyiiv::IivTracker;
use polyir::{BlockRef, FuncId, InstrRef, Program, Value};
use polyresist::{FaultPlan, FaultSite, ResourceBudget};
use polyvm::EventSink;
pub use runs::KMAX;
use runs::{Boundary, RunDetector};
use shadow::{ShadowMemory, Writer};
use std::sync::Arc;

/// Kind of data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write through memory.
    Flow,
    /// Write-after-read through memory.
    Anti,
    /// Write-after-write through memory.
    Output,
    /// Flow through a register.
    Reg,
}

/// Consumer of the folding-interface streams.
pub trait FoldSink {
    /// A dynamic instruction at `coords` with its produced integer value
    /// (`None` for float producers / stores / calls).
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>);
    /// A memory access at `coords` touching word `addr`.
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool);
    /// A data dependence from `src` (producer) to `dst` (consumer).
    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    );
    /// A loop body of `body.len()` keys repeating `n` more times: for `t` in
    /// `1..=n`, then each key in body order, the key's event at
    /// `base + t·stride` (wrapping). The default spells exactly that through
    /// the three methods above ([`expand_run`]), so a sink that does not
    /// override it sees the same sequence as if the events had arrived one
    /// by one; an override must fold to the same result.
    fn body_run(&mut self, body: &[BodyKey<'_>], n: u64) {
        expand_run(self, body, n);
    }

    /// Events received so far, for the run's heartbeat
    /// ([`ResourceBudget::beat`]): read once per watchdog poll from a tally
    /// the sink keeps anyway, never counted for the purpose. Sinks without
    /// one report 0.
    fn events_seen(&self) -> u64 {
        0
    }
}

/// Which [`FoldSink`] method a [`BodyKey`]'s events go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`FoldSink::instr_point`] without a value.
    Point,
    /// [`FoldSink::instr_point`] with the value as the last word.
    PointValue,
    /// [`FoldSink::mem_access`], a load; the address is the last word.
    Load,
    /// [`FoldSink::mem_access`], a store; the address is the last word.
    Store,
    /// [`FoldSink::dependence`] of this kind.
    Dep(DepKind),
}

impl EventKind {
    /// Every kind, in [`code`](Self::code) order.
    pub const ALL: [EventKind; 8] = [
        EventKind::Point,
        EventKind::PointValue,
        EventKind::Load,
        EventKind::Store,
        EventKind::Dep(DepKind::Flow),
        EventKind::Dep(DepKind::Anti),
        EventKind::Dep(DepKind::Output),
        EventKind::Dep(DepKind::Reg),
    ];

    /// The kind as a number in `0..8`: its index in [`ALL`](Self::ALL).
    #[inline(always)]
    pub fn code(self) -> u8 {
        match self {
            EventKind::Point => 0,
            EventKind::PointValue => 1,
            EventKind::Load => 2,
            EventKind::Store => 3,
            EventKind::Dep(kind) => 4 + kind as u8,
        }
    }
}

/// One key of a repeated loop body ([`FoldSink::body_run`]): which events,
/// and where they start and how they move. `base` and `stride` have one
/// word per event word: the coordinates (a dependence's producer
/// coordinates), then the value, the address or the consumer coordinates.
#[derive(Debug, Clone, Copy)]
pub struct BodyKey<'a> {
    /// The method the events go through.
    pub kind: EventKind,
    /// The statement (a dependence's producer).
    pub a: StmtId,
    /// A dependence's consumer; unused otherwise.
    pub b: StmtId,
    /// Words before the split are the (producer's) coordinates.
    pub split: usize,
    /// The key's latest event, before the run.
    pub base: &'a [i64],
    /// What each repeat adds to every word.
    pub stride: &'a [i64],
}

/// A point key of no words: filler for a fixed-size array of keys.
impl Default for BodyKey<'_> {
    fn default() -> Self {
        BodyKey {
            kind: EventKind::Point,
            a: StmtId(0),
            b: StmtId(0),
            split: 0,
            base: &[],
            stride: &[],
        }
    }
}

impl BodyKey<'_> {
    /// Hand `words` — an event of this key — to `sink`.
    #[inline]
    pub fn emit<S: FoldSink + ?Sized>(&self, sink: &mut S, words: &[i64]) {
        let (x, y) = words.split_at(self.split);
        match self.kind {
            EventKind::Point => sink.instr_point(self.a, x, None),
            EventKind::PointValue => sink.instr_point(self.a, x, Some(y[0])),
            EventKind::Load => sink.mem_access(self.a, x, y[0] as u64, false),
            EventKind::Store => sink.mem_access(self.a, x, y[0] as u64, true),
            EventKind::Dep(kind) => sink.dependence(kind, self.a, x, self.b, y),
        }
    }
}

/// [`FoldSink::body_run`] spelled out: for `t` in `1..=n`, each key's event
/// at `base + t·stride` (wrapping), in body order.
pub fn expand_run<S: FoldSink + ?Sized>(sink: &mut S, body: &[BodyKey<'_>], n: u64) {
    // Every key's latest words, stepped in place; on the stack unless the
    // body holds more than 512 words.
    let total: usize = body.iter().map(|k| k.base.len()).sum();
    let mut buf = [0i64; 512];
    let mut wide = Vec::new();
    let words = match buf.get_mut(..total) {
        Some(w) => w,
        None => {
            wide.resize(total, 0);
            &mut wide[..]
        }
    };
    let mut rest = &mut words[..];
    for key in body {
        let (w, tail) = rest.split_at_mut(key.base.len());
        w.copy_from_slice(key.base);
        rest = tail;
    }
    for _ in 0..n {
        let mut rest = &mut words[..];
        for key in body {
            let (w, tail) = rest.split_at_mut(key.base.len());
            rest = tail;
            for (w, &s) in w.iter_mut().zip(key.stride) {
                *w = w.wrapping_add(s);
            }
            key.emit(sink, w);
        }
    }
}

/// The stage-2 profiler: the one [`EventSink`] of pass 2. It drives
/// loop-event generation (Alg. 1/2), the dynamic IIV (Alg. 3), context and
/// statement interning, register tracking and shadow-memory resolution, and
/// streams the whole folding interface to `F`.
pub struct DdgProfiler<'p, F: FoldSink> {
    prog: &'p Program,
    gen: LoopEventGen<'p>,
    iiv: IivTracker,
    /// Context/statement interner, exposed after the run for reporting.
    pub interner: ContextInterner,
    /// Shared snapshot of `coords`, captured lazily after each change.
    snaps: SnapCache,
    reg_frames: Vec<Vec<Option<Writer>>>,
    /// Retired register frames, recycled on the next call (steady-state
    /// call/ret does not allocate).
    frame_pool: Vec<Vec<Option<Writer>>>,
    /// The sink, behind the loop-body run detector.
    out: RunDetector<F>,
    shadow: ShadowMemory,
    /// Current coordinate vector, refreshed when loop events move it.
    coords: Vec<i64>,
    loop_buf: Vec<polycfg::LoopEvent>,
    stmt_cache: [Option<(CtxPathId, InstrRef, StmtId)>; STMT_CACHE_SLOTS],
    /// Dynamic instruction count (all ops).
    pub dyn_ops: u64,
    /// Dynamic memory events (loads + stores) seen.
    pub mem_events: u64,
    /// Optional deterministic fault plan probed per memory event
    /// ([`FaultSite::PanicPre`]) and per watchdog poll
    /// ([`FaultSite::StallBeat`]); the shadow memory probes its own site.
    faults: Option<Arc<FaultPlan>>,
    /// Optional resource budget: retained state is charged against its byte
    /// limit, and the VM's throttled [`EventSink::poll_abort`] hook publishes
    /// the heartbeat on it and polls its deadline.
    budget: Option<Arc<ResourceBudget>>,
}

/// Direct-mapped statement-cache size; must be a power of two. Multi-block
/// loop bodies alternate between a handful of instructions per context, so a
/// small cache captures virtually all lookups.
const STMT_CACHE_SLOTS: usize = 64;

#[inline]
fn stmt_cache_slot(instr: InstrRef) -> usize {
    (instr.idx as usize
        ^ ((instr.block.block.0 as usize) << 2)
        ^ ((instr.block.func.0 as usize) << 5))
        & (STMT_CACHE_SLOTS - 1)
}

impl<'p, F: FoldSink> DdgProfiler<'p, F> {
    /// Build a profiler over a program and its stage-1 structure; `out`
    /// receives the folding streams.
    pub fn new(prog: &'p Program, structure: &'p StaticStructure, out: F) -> Self {
        let entry_fn = prog.entry.expect("program must have an entry");
        let entry = BlockRef {
            func: entry_fn,
            block: prog.func(entry_fn).entry(),
        };
        let n_regs = prog.func(entry_fn).n_regs as usize;
        let iiv = IivTracker::new(entry);
        let mut coords = Vec::with_capacity(8);
        iiv.coords_into(&mut coords);
        DdgProfiler {
            prog,
            gen: LoopEventGen::new(structure),
            iiv,
            interner: ContextInterner::new(),
            snaps: SnapCache::default(),
            reg_frames: vec![vec![None; n_regs]],
            frame_pool: Vec::new(),
            out: RunDetector::new(out),
            shadow: ShadowMemory::new(),
            coords,
            loop_buf: Vec::with_capacity(8),
            stmt_cache: [None; STMT_CACHE_SLOTS],
            dyn_ops: 0,
            mem_events: 0,
            faults: None,
            budget: None,
        }
    }

    /// Arm a deterministic fault plan: [`FaultSite::PanicPre`] fires as a
    /// panic on the probed memory event, [`FaultSite::AllocShadow`] refuses
    /// a shadow page, [`FaultSite::StallBeat`] holds the VM at a watchdog
    /// poll. Zero-cost when never called.
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.shadow.set_faults(Arc::clone(&plan));
        self.faults = Some(plan);
    }

    /// Attach a resource budget: shadow pages, snapshot-table slots and
    /// spilled coordinate vectors are charged against the byte limit, and
    /// the VM watchdog ([`EventSink::poll_abort`]) becomes
    /// [`ResourceBudget::beat`] — the run's heartbeat and its deadline poll.
    pub fn set_budget(&mut self, budget: Arc<ResourceBudget>) {
        self.shadow.set_budget(Arc::clone(&budget));
        self.snaps.set_budget(Arc::clone(&budget));
        self.budget = Some(budget);
    }

    /// Consume the profiler, returning the sink — once the loop-body runs
    /// still held back are handed to it — and the interner.
    pub fn finish(self) -> (F, ContextInterner) {
        (self.out.finish(), self.interner)
    }

    /// [`FoldSink::body_run`] calls the sink has received so far.
    pub fn body_runs(&self) -> u64 {
        self.out.runs()
    }

    /// Shadow-memory MRU page-cache `(hits, misses)` so far.
    pub fn shadow_mru_stats(&self) -> (u64, u64) {
        self.shadow.mru_stats()
    }

    /// Resident shadow pages (overhead statistics for benchmarks).
    pub fn resident_shadow_pages(&self) -> usize {
        self.shadow.resident_pages()
    }

    /// Heap footprint of spilled (> [`coords::INLINE_DIMS`]-dim) coordinate
    /// snapshots in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.snaps.arena().bytes()
    }

    /// The most coordinate snapshots shadow records held at once (the
    /// snapshot table's peak live slot count).
    pub fn peak_live_snapshots(&self) -> usize {
        self.snaps.peak_live()
    }

    /// Apply the loop events of one VM callback to the IIV. Only an
    /// iteration, an entry or an exit moves the iteration vector — a plain
    /// jump, call or return changes the context alone — so only those
    /// refresh the coordinates (the old snapshot stays valid for every
    /// record that captured it) and begin a new segment for the run
    /// detector.
    fn drain_loop_events(&mut self) {
        if self.loop_buf.is_empty() {
            return;
        }
        let mut at = None;
        for ev in self.loop_buf.drain(..) {
            self.iiv.apply(&ev);
            match ev {
                LoopEvent::Iter { l, .. }
                | LoopEvent::IterCall { l, .. }
                | LoopEvent::IterRet { l, .. } => at = Some(Boundary::Iter(l)),
                LoopEvent::Enter { l, .. } | LoopEvent::EnterRec { l, .. } => {
                    at = Some(Boundary::Enter(l))
                }
                LoopEvent::Exit { .. } | LoopEvent::ExitRec { .. } => at = Some(Boundary::Exit),
                LoopEvent::Block(_) | LoopEvent::Call { .. } | LoopEvent::Ret(_) => {}
            }
        }
        if let Some(at) = at {
            self.iiv.coords_into(&mut self.coords);
            self.snaps.invalidate();
            self.out.boundary(&self.coords, at);
        }
    }

    #[inline]
    fn current_stmt(&mut self, instr: InstrRef) -> StmtId {
        let path = self.interner.current_path(&self.iiv);
        let slot = stmt_cache_slot(instr);
        if let Some((p, i, s)) = self.stmt_cache[slot] {
            if p == path && i == instr {
                return s;
            }
        }
        let s = self.interner.stmt(path, instr);
        self.stmt_cache[slot] = Some((path, instr, s));
        s
    }

    fn push_frame(&mut self, n_regs: usize) {
        let mut f = self.frame_pool.pop().unwrap_or_default();
        f.clear();
        f.resize(n_regs, None);
        self.reg_frames.push(f);
    }

    fn pop_frame(&mut self) {
        if let Some(f) = self.reg_frames.pop() {
            self.frame_pool.push(f);
        }
    }
}

impl<'p, F: FoldSink> EventSink for DdgProfiler<'p, F> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.loop_buf);
        self.drain_loop_events();
    }

    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen
            .on_call(callsite, callee, entry, &mut self.loop_buf);
        self.drain_loop_events();
        let n_regs = self.prog.func(callee).n_regs as usize;
        self.push_frame(n_regs);
    }

    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.loop_buf);
        self.drain_loop_events();
        self.pop_frame();
    }

    fn exec(&mut self, instr: InstrRef, value: Option<Value>) {
        self.dyn_ops += 1;
        let stmt = self.current_stmt(instr);
        let ins = self.prog.instr(instr);

        // Disjoint field borrows: the writer records are `Copy`, so no clone
        // is needed to emit across the sink call.
        let frame = self.reg_frames.last().expect("live frame");
        let arena = self.snaps.arena();
        let coords = &self.coords;
        let out = &mut self.out;
        ins.for_each_use(|r| {
            if let Some(w) = frame[r.0 as usize] {
                out.dependence(DepKind::Reg, w.stmt, w.coords.resolve(arena), stmt, coords);
            }
        });
        if let Some(d) = ins.def() {
            let snap = self.snaps.get(&self.coords);
            let frame = self.reg_frames.last_mut().expect("live frame");
            frame[d.0 as usize] = Some(Writer { stmt, coords: snap });
        }

        let label = match value {
            Some(Value::I64(v)) => Some(v),
            _ => None,
        };
        self.out.instr_point(stmt, &self.coords, label);
    }

    fn mem(&mut self, instr: InstrRef, addr: u64, is_write: bool) {
        self.mem_events += 1;
        if let Some(plan) = &self.faults {
            if plan.should_fire(FaultSite::PanicPre) {
                panic!(
                    "injected fault: pre-profiler panic (memory event {})",
                    self.mem_events
                );
            }
        }
        let stmt = self.current_stmt(instr);
        self.shadow.resolve(
            &mut self.snaps,
            stmt,
            &self.coords,
            addr,
            is_write,
            &mut self.out,
        );
    }

    fn poll_abort(&mut self) -> bool {
        if let Some(plan) = &self.faults {
            plan.stall_at_beat();
        }
        match &self.budget {
            Some(b) => b.beat(self.dyn_ops, self.out.events_seen()),
            None => false,
        }
    }
}

/// One collected dependence: kind, producer + coords, consumer + coords.
pub type DepRecord = (DepKind, StmtId, Vec<i64>, StmtId, Vec<i64>);

/// A [`FoldSink`] that materializes everything (tests / Table 1 printing —
/// small programs only).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Instruction points.
    pub points: Vec<(StmtId, Vec<i64>, Option<i64>)>,
    /// Memory accesses.
    pub accesses: Vec<(StmtId, Vec<i64>, u64, bool)>,
    /// Dependences.
    pub deps: Vec<DepRecord>,
}

impl FoldSink for CollectSink {
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.points.push((stmt, coords.to_vec(), value));
    }
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.accesses.push((stmt, coords.to_vec(), addr, is_write));
    }
    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        self.deps
            .push((kind, src, src_coords.to_vec(), dst, dst_coords.to_vec()));
    }
}

/// Convenience: run both profiling passes over `prog` and return the
/// collected raw streams plus structure and interner (test/report helper).
/// Panics on a VM error.
pub fn profile_collected(prog: &Program) -> (CollectSink, ContextInterner, StaticStructure) {
    let structure = StaticStructure::record(prog).expect("pass-1 execution failed");
    let mut prof = DdgProfiler::new(prog, &structure, CollectSink::default());
    polyvm::Vm::new(prog)
        .run(&[], &mut prof)
        .expect("pass-2 execution failed");
    let (sink, interner) = prof.finish();
    (sink, interner, structure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use polyir::FBinOp;

    /// a[i] = i; then s += a[i] — flow deps within the same iteration.
    #[test]
    fn flow_dep_same_iteration() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(8);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 4i64, 1, |f, i| {
            f.store(base as i64, i, i);
            let v = f.load(base as i64, i);
            let _ = v;
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, _, _) = profile_collected(&p);
        let flows: Vec<_> = sink
            .deps
            .iter()
            .filter(|(k, ..)| *k == DepKind::Flow)
            .collect();
        assert_eq!(flows.len(), 4);
        for (_, _, sc, _, dc) in &flows {
            assert_eq!(sc, dc, "producer/consumer in the same iteration");
        }
    }

    /// a[i] written in iteration i, read in iteration i+1: distance-1 flow.
    #[test]
    fn loop_carried_flow_dep() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 5i64, 1, |f, i| {
            let prev = f.load(base as i64, i); // reads what iteration i-1 wrote
            let next = f.add(i, 1i64);
            let v = f.add(prev, 1i64);
            f.store(base as i64, next, v);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, _, _) = profile_collected(&p);
        let flows: Vec<_> = sink
            .deps
            .iter()
            .filter(|(k, ..)| *k == DepKind::Flow)
            .collect();
        // iterations 1..4 read what 0..3 wrote
        assert_eq!(flows.len(), 4);
        for (_, _, sc, _, dc) in &flows {
            // distance 1 on the loop dimension (last coordinate)
            assert_eq!(dc.last().unwrap() - sc.last().unwrap(), 1);
        }
    }

    #[test]
    fn output_and_anti_deps() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(4);
        let mut f = pb.func("main", 0);
        // two stores to the same cell → WAW; load between them → WAR
        f.store(base as i64, 0i64, 1i64);
        f.load(base as i64, 0i64);
        f.store(base as i64, 0i64, 2i64);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, _, _) = profile_collected(&p);
        assert_eq!(
            sink.deps
                .iter()
                .filter(|(k, ..)| *k == DepKind::Output)
                .count(),
            1
        );
        assert_eq!(
            sink.deps
                .iter()
                .filter(|(k, ..)| *k == DepKind::Anti)
                .count(),
            1
        );
        assert_eq!(
            sink.deps
                .iter()
                .filter(|(k, ..)| *k == DepKind::Flow)
                .count(),
            1
        );
    }

    #[test]
    fn register_deps_tracked() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let a = f.const_f(1.5);
        let b = f.fop(FBinOp::Mul, a, 2.0f64); // reg dep a→b
        let c = f.fop(FBinOp::Add, b, a); // deps b→c and a→c
        f.ret(Some(c.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, _, _) = profile_collected(&p);
        let regs = sink
            .deps
            .iter()
            .filter(|(k, ..)| *k == DepKind::Reg)
            .count();
        assert_eq!(regs, 3); // a→b, b→c, a→c (Ret is a terminator: no exec event)
    }

    /// Values produced are captured as labels (SCEV input): the IV increment
    /// chain yields values 1, 2, 3, ... at coords 0, 1, 2, ...
    #[test]
    fn labels_capture_produced_values() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 4i64, 1, |_, _| {});
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, interner, _) = profile_collected(&p);
        // find the latch add (value = iv + 1): points with increasing labels
        let mut found = false;
        for (stmt, info) in interner.stmts() {
            let pts: Vec<_> = sink.points.iter().filter(|(s, ..)| *s == stmt).collect();
            if pts.len() == 4 {
                let labels: Vec<_> = pts.iter().filter_map(|(_, _, l)| *l).collect();
                if labels == vec![1, 2, 3, 4] {
                    found = true;
                }
            }
            let _ = info;
        }
        assert!(found, "latch increment must fold to labels 1..=4");
    }

    /// Registers are frame-local: a callee writing r0 must not create deps
    /// with the caller's r0.
    #[test]
    fn register_frames_isolated() {
        let mut pb = ProgramBuilder::new("t");
        let mut g = pb.func("g", 0);
        g.const_i(42); // writes callee r0
        g.ret(None);
        let g_id = g.finish();
        let mut f = pb.func("main", 0);
        let a = f.const_i(7); // caller r0
        f.call_void(g_id, &[]);
        let b = f.add(a, 1i64); // dep must be from const, not from callee
        f.ret(Some(b.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, interner, _) = profile_collected(&p);
        for (_, src, _, _, _) in sink.deps.iter().filter(|(k, ..)| *k == DepKind::Reg) {
            let info = interner.stmt_info(*src);
            assert_eq!(info.instr.block.func, fid, "no cross-frame register deps");
        }
    }

    /// A run under a memory budget (what `with_memory_budget` arms) charges
    /// exactly its shadow pages and its snapshot table's slots: a 2-D nest
    /// spread over three pages, every element written at its own
    /// coordinates, so the table holds one slot per element.
    #[test]
    fn memory_budget_charges_pages_and_snapshot_table() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(3 * 4096);
        let mut f = pb.func("main", 0);
        f.for_loop("Li", 0i64, 3i64, 1, |f, i| {
            let row = f.mul(i, 4096i64);
            f.for_loop("Lj", 0i64, 20i64, 1, |f, j| {
                let at = f.add(row, j);
                f.store(base as i64, at, j);
            });
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let structure = StaticStructure::record(&p).unwrap();
        let budget = Arc::new(ResourceBudget::new(Some(1 << 30), None));
        let mut prof = DdgProfiler::new(&p, &structure, CollectSink::default());
        prof.set_budget(Arc::clone(&budget));
        polyvm::Vm::new(&p).run(&[], &mut prof).unwrap();
        let pages = prof.resident_shadow_pages();
        let slots = prof.peak_live_snapshots();
        assert!(pages >= 3, "{pages} pages");
        assert!(slots >= 60, "{slots} slots");
        assert_eq!(prof.arena_bytes(), 0);
        assert_eq!(
            budget.used_bytes(),
            (pages * 16 * 4096 + slots * coords::SLOT_BYTES) as u64
        );
    }

    #[test]
    fn accesses_streamed_with_addresses() {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 4i64, 1, |f, i| {
            let two_i = f.mul(i, 2i64);
            f.store(base as i64, two_i, i); // stride-2 store
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (sink, _, _) = profile_collected(&p);
        let writes: Vec<u64> = sink
            .accesses
            .iter()
            .filter(|(_, _, _, w)| *w)
            .map(|(_, _, a, _)| *a)
            .collect();
        assert_eq!(writes.len(), 4);
        assert_eq!(writes[1] - writes[0], 2);
    }
}
