//! Retained reference implementation of the stage-2 profiler — the
//! pre-optimization hot path, kept verbatim for differential testing: the
//! interned-coordinate [`DdgProfiler`](crate::DdgProfiler) must produce a
//! byte-identical folding stream (`tests/differential.rs`).
//!
//! Differences from the production path, by construction:
//! * every writer record boxes its own coordinate vector (`Box<[i64]>`),
//!   allocated per register definition and per memory access;
//! * writes and reads shadow in two separate `HashMap<u64, Page>` tables, so
//!   a write event costs up to four hash probes (prev-writer lookup,
//!   prev-reader lookup, writer-page entry, reader-page clear);
//! * the statement cache holds a single entry.
//!
//! Nothing in the production pipeline uses this module.

use crate::{DepKind, FoldSink};
use polycfg::{LoopEventGen, StaticStructure};
use polyiiv::context::{ContextInterner, CtxPathId, StmtId};
use polyiiv::IivTracker;
use polyir::{BlockRef, FuncId, InstrRef, Program, Value};
use polyvm::EventSink;
use std::collections::HashMap;

/// The boxed producer record of the naive path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NaiveWriter {
    /// The statement (context + instruction).
    stmt: StmtId,
    /// Its iteration-vector coordinates, owned.
    coords: Box<[i64]>,
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

type Page = Box<[Option<NaiveWriter>]>;

fn new_page() -> Page {
    let mut v = Vec::with_capacity(PAGE_SIZE);
    v.resize(PAGE_SIZE, None);
    v.into_boxed_slice()
}

/// The original two-table paged shadow memory.
#[derive(Debug, Default)]
struct NaiveShadowMemory {
    writes: HashMap<u64, Page>,
    reads: HashMap<u64, Page>,
}

impl NaiveShadowMemory {
    /// Empty shadow memory.
    fn new() -> Self {
        Self::default()
    }

    /// Last writer of `addr`, if any.
    fn last_write(&self, addr: u64) -> Option<&NaiveWriter> {
        self.writes
            .get(&(addr >> PAGE_BITS))?
            .get((addr as usize) & (PAGE_SIZE - 1))?
            .as_ref()
    }

    /// Last reader of `addr`, if any (cleared on write).
    fn last_read(&self, addr: u64) -> Option<&NaiveWriter> {
        self.reads
            .get(&(addr >> PAGE_BITS))?
            .get((addr as usize) & (PAGE_SIZE - 1))?
            .as_ref()
    }

    /// Record a write: updates the writer and clears the reader (two hash
    /// probes — the double lookup the production path eliminates).
    fn record_write(&mut self, addr: u64, w: NaiveWriter) {
        let page = self
            .writes
            .entry(addr >> PAGE_BITS)
            .or_insert_with(new_page);
        page[(addr as usize) & (PAGE_SIZE - 1)] = Some(w);
        if let Some(rp) = self.reads.get_mut(&(addr >> PAGE_BITS)) {
            rp[(addr as usize) & (PAGE_SIZE - 1)] = None;
        }
    }

    /// Record a read (for last-reader anti-dependence tracking).
    fn record_read(&mut self, addr: u64, r: NaiveWriter) {
        let page = self.reads.entry(addr >> PAGE_BITS).or_insert_with(new_page);
        page[(addr as usize) & (PAGE_SIZE - 1)] = Some(r);
    }
}

/// The pre-optimization stage-2 profiler: clones the full coordinate vector
/// on every writer record and dependence emission.
pub struct NaiveDdgProfiler<'p, F: FoldSink> {
    prog: &'p Program,
    gen: LoopEventGen<'p>,
    iiv: IivTracker,
    /// Context/statement interner, exposed after the run for reporting.
    pub interner: ContextInterner,
    shadow: NaiveShadowMemory,
    reg_frames: Vec<Vec<Option<NaiveWriter>>>,
    out: F,
    coords: Vec<i64>,
    loop_buf: Vec<polycfg::LoopEvent>,
    stmt_cache: Option<(CtxPathId, InstrRef, StmtId)>,
    /// Dynamic instruction count (all ops).
    pub dyn_ops: u64,
}

impl<'p, F: FoldSink> NaiveDdgProfiler<'p, F> {
    /// Build a profiler over a program and its stage-1 structure; `out`
    /// receives the folding streams.
    pub fn new(prog: &'p Program, structure: &'p StaticStructure, out: F) -> Self {
        let entry_fn = prog.entry.expect("program must have an entry");
        let entry = BlockRef {
            func: entry_fn,
            block: prog.func(entry_fn).entry(),
        };
        let n_regs = prog.func(entry_fn).n_regs as usize;
        NaiveDdgProfiler {
            prog,
            gen: LoopEventGen::new(structure),
            iiv: IivTracker::new(entry),
            interner: ContextInterner::new(),
            shadow: NaiveShadowMemory::new(),
            reg_frames: vec![vec![None; n_regs]],
            out,
            coords: Vec::with_capacity(8),
            loop_buf: Vec::with_capacity(8),
            stmt_cache: None,
            dyn_ops: 0,
        }
    }

    /// Consume the profiler, returning the sink and interner.
    pub fn finish(self) -> (F, ContextInterner) {
        (self.out, self.interner)
    }

    fn drain_loop_events(&mut self) {
        for ev in self.loop_buf.drain(..) {
            self.iiv.apply(&ev);
        }
    }

    fn current_stmt(&mut self, instr: InstrRef) -> StmtId {
        let path = self.interner.current_path(&self.iiv);
        if let Some((p, i, s)) = self.stmt_cache {
            if p == path && i == instr {
                return s;
            }
        }
        let s = self.interner.stmt(path, instr);
        self.stmt_cache = Some((path, instr, s));
        s
    }
}

impl<'p, F: FoldSink> EventSink for NaiveDdgProfiler<'p, F> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.loop_buf);
        self.drain_loop_events();
    }

    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen
            .on_call(callsite, callee, entry, &mut self.loop_buf);
        self.drain_loop_events();
        let n_regs = self.prog.func(callee).n_regs as usize;
        self.reg_frames.push(vec![None; n_regs]);
    }

    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.loop_buf);
        self.drain_loop_events();
        self.reg_frames.pop();
    }

    fn exec(&mut self, instr: InstrRef, value: Option<Value>) {
        self.dyn_ops += 1;
        let stmt = self.current_stmt(instr);
        self.iiv.coords_into(&mut self.coords);
        let ins = self.prog.instr(instr);

        let frame = self.reg_frames.last().expect("live frame");
        // Clone to avoid holding a borrow across the sink call.
        for r in ins.uses() {
            if let Some(w) = &frame[r.0 as usize] {
                let (ws, wc) = (w.stmt, w.coords.clone());
                self.out
                    .dependence(DepKind::Reg, ws, &wc, stmt, &self.coords);
            }
        }
        if let Some(d) = ins.def() {
            let coords = self.coords.clone().into_boxed_slice();
            let frame = self.reg_frames.last_mut().expect("live frame");
            frame[d.0 as usize] = Some(NaiveWriter { stmt, coords });
        }

        let label = match value {
            Some(Value::I64(v)) => Some(v),
            _ => None,
        };
        self.out.instr_point(stmt, &self.coords, label);
    }

    fn mem(&mut self, instr: InstrRef, addr: u64, is_write: bool) {
        let stmt = self.current_stmt(instr);
        self.iiv.coords_into(&mut self.coords);
        if is_write {
            if let Some(w) = self.shadow.last_write(addr) {
                let (ws, wc) = (w.stmt, w.coords.clone());
                self.out
                    .dependence(DepKind::Output, ws, &wc, stmt, &self.coords);
            }
            if let Some(r) = self.shadow.last_read(addr) {
                let (rs, rc) = (r.stmt, r.coords.clone());
                self.out
                    .dependence(DepKind::Anti, rs, &rc, stmt, &self.coords);
            }
            self.shadow.record_write(
                addr,
                NaiveWriter {
                    stmt,
                    coords: self.coords.clone().into_boxed_slice(),
                },
            );
        } else {
            if let Some(w) = self.shadow.last_write(addr) {
                let (ws, wc) = (w.stmt, w.coords.clone());
                self.out
                    .dependence(DepKind::Flow, ws, &wc, stmt, &self.coords);
            }
            self.shadow.record_read(
                addr,
                NaiveWriter {
                    stmt,
                    coords: self.coords.clone().into_boxed_slice(),
                },
            );
        }
        self.out.mem_access(stmt, &self.coords, addr, is_write);
    }
}

/// As [`crate::profile_collected`], but through the naive profiler.
pub fn profile_collected_naive(
    prog: &Program,
) -> (crate::CollectSink, ContextInterner, StaticStructure) {
    let structure = StaticStructure::record(prog).expect("pass-1 execution failed");
    let mut prof = NaiveDdgProfiler::new(prog, &structure, crate::CollectSink::default());
    polyvm::Vm::new(prog)
        .run(&[], &mut prof)
        .expect("pass-2 execution failed");
    let (sink, interner) = prof.finish();
    (sink, interner, structure)
}
