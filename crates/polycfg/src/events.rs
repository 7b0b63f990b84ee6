//! Loop-event generation — Algorithms 1 and 2 of the paper.
//!
//! Pass 2 of "Instrumentation I": the raw control events (jump / call /
//! return) are translated online into *loop events* — entry `E`, iterate
//! `I`, exit `X` for CFG loops, their recursive-component counterparts
//! `Ec`/`Ic`/`Ir`/`Xr`, plus plain block `N`, call `C` and return `R`
//! events. These drive the dynamic-IIV update (Alg. 3, in `polyiiv`).
//!
//! The generator keeps the paper's `inLoops` stack of currently live loops,
//! the per-CFG-loop `visiting` flag, and the per-recursive-component
//! `stackcount` / `entry` state. Every static question an event asks (is
//! this block a header, does this loop contain it, is this function a
//! component entry or header) is answered from tables that
//! [`LoopEventGen::new`] flattens once per run out of the stage-1
//! structure: a jump, call or return indexes vectors and tests one bit —
//! no hash probe, no tree search.

use crate::loop_forest::LoopIdx;
use crate::recorder::StaticStructure;
use crate::recursive::RecCompIdx;
use polyir::{BlockRef, FuncId, LocalBlockId};

/// A live loop on the `inLoops` stack: either a CFG loop of a specific
/// function or a recursive component of the call graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LoopRef {
    /// A CFG loop `l` of function `f`.
    Cfg(FuncId, LoopIdx),
    /// A recursive component.
    Rec(RecCompIdx),
}

/// Loop events, matching the paper's emitted-event alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopEvent {
    /// `E(L, H)` — entry into CFG loop `l`; `block` is its header.
    Enter {
        /// The entered loop.
        l: LoopRef,
        /// Header block.
        block: BlockRef,
    },
    /// `Ec(L, B)` — call to a component entry; enters the recursive loop.
    EnterRec {
        /// The entered recursive loop.
        l: LoopRef,
        /// Callee entry block.
        block: BlockRef,
    },
    /// `I(L, H)` — new iteration of CFG loop `l` (back-edge to header).
    Iter {
        /// The iterated loop.
        l: LoopRef,
        /// Header block.
        block: BlockRef,
    },
    /// `Ic(L, B)` — call to a component header: recursive iteration.
    IterCall {
        /// The iterated recursive loop.
        l: LoopRef,
        /// Callee entry block.
        block: BlockRef,
    },
    /// `Ir(L, B)` — return from a component header: recursive iteration.
    IterRet {
        /// The iterated recursive loop.
        l: LoopRef,
        /// Block execution resumes in.
        block: BlockRef,
    },
    /// `X(L, B)` — exit of CFG loop `l`, jumping to `block`.
    Exit {
        /// The exited loop.
        l: LoopRef,
        /// Jump target outside the loop.
        block: BlockRef,
    },
    /// `Xr(L, B)` — the entering call of a recursive loop unstacked.
    ExitRec {
        /// The exited recursive loop.
        l: LoopRef,
        /// Block execution resumes in.
        block: BlockRef,
    },
    /// `N(B)` — local jump to `block`.
    Block(BlockRef),
    /// `C(F, B)` — plain call; `block` is the callee entry block.
    Call {
        /// Callee function.
        callee: FuncId,
        /// Callee entry block.
        block: BlockRef,
    },
    /// `R(B)` — plain return; `block` is where execution resumes.
    Ret(BlockRef),
}

#[derive(Debug, Clone, Copy, Default)]
struct RecState {
    stackcount: i64,
    entry: Option<FuncId>,
}

/// `header_loop` entry of a block that heads no loop.
const NO_LOOP: u32 = u32::MAX;

/// Everything Alg. 1/2 ask about one function, flattened once per run into
/// vectors indexed by `LocalBlockId` / `LoopIdx` so that no event hashes or
/// searches a tree.
#[derive(Debug, Clone, Default)]
struct FuncTable {
    /// Block → the loop it heads, [`NO_LOOP`] otherwise.
    header_loop: Vec<u32>,
    /// Loop × block membership bitmap: `words` words per loop, bit `b` of
    /// loop `l`'s row set iff block `b` lies in `l`'s region.
    member: Vec<u64>,
    words: usize,
    /// The paper's per-CFG-loop `visiting` flag, by loop index.
    visiting: Vec<bool>,
    /// The function's recursive component and its roles in it.
    rec: Option<RecRole>,
}

#[derive(Debug, Clone, Copy)]
struct RecRole {
    comp: RecCompIdx,
    is_entry: bool,
    is_header: bool,
}

impl FuncTable {
    fn contains(&self, l: LoopIdx, b: LocalBlockId) -> bool {
        let (word, bit) = (b.0 as usize / 64, b.0 % 64);
        word < self.words && (self.member[l.0 as usize * self.words + word] >> bit) & 1 == 1
    }

    fn loop_of_header(&self, b: LocalBlockId) -> Option<LoopIdx> {
        match self.header_loop.get(b.0 as usize) {
            Some(&l) if l != NO_LOOP => Some(LoopIdx(l)),
            _ => None,
        }
    }
}

/// Online translator from raw control events to [`LoopEvent`]s.
#[derive(Debug)]
pub struct LoopEventGen<'s> {
    /// Per-function tables, indexed by `FuncId`; functions that never
    /// executed in pass 1 have empty ones.
    funcs: Vec<FuncTable>,
    in_loops: Vec<LoopRef>,
    rec: Vec<RecState>,
    /// The tables are a snapshot of this structure.
    _structure: std::marker::PhantomData<&'s StaticStructure>,
}

impl<'s> LoopEventGen<'s> {
    /// New generator over a completed stage-1 structure.
    pub fn new(structure: &'s StaticStructure) -> Self {
        let rcs = &structure.rcs;
        let n_funcs = structure
            .forests
            .keys()
            .chain(rcs.components.iter().flat_map(|c| &c.members))
            .map(|f| f.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut funcs = vec![FuncTable::default(); n_funcs];
        for (f, forest) in &structure.forests {
            let n_blocks = forest
                .loops
                .iter()
                .filter_map(|l| l.blocks.last())
                .map(|b| b.0 as usize + 1)
                .max()
                .unwrap_or(0);
            let words = n_blocks.div_ceil(64);
            let t = &mut funcs[f.0 as usize];
            t.header_loop = vec![NO_LOOP; n_blocks];
            t.member = vec![0; forest.loops.len() * words];
            t.words = words;
            t.visiting = vec![false; forest.loops.len()];
            for (l, info) in forest.loops.iter().enumerate() {
                t.header_loop[info.header.0 as usize] = l as u32;
                for b in &info.blocks {
                    t.member[l * words + b.0 as usize / 64] |= 1 << (b.0 % 64);
                }
            }
        }
        for (c, comp) in rcs.components.iter().enumerate() {
            for f in &comp.members {
                funcs[f.0 as usize].rec = Some(RecRole {
                    comp: RecCompIdx(c as u32),
                    is_entry: comp.entries.contains(f),
                    is_header: comp.headers.contains(f),
                });
            }
        }
        LoopEventGen {
            funcs,
            in_loops: Vec::new(),
            rec: vec![RecState::default(); rcs.components.len()],
            _structure: std::marker::PhantomData,
        }
    }

    /// `f`'s role in the recursive-component-set, if it has one.
    fn rec_role(&self, f: FuncId) -> Option<RecRole> {
        self.funcs.get(f.0 as usize)?.rec
    }

    /// Pop `top` (a live CFG loop) and emit its exit towards `block`.
    fn exit_cfg_loop(
        &mut self,
        f: FuncId,
        l: LoopIdx,
        block: Option<BlockRef>,
        out: &mut Vec<LoopEvent>,
    ) {
        self.funcs[f.0 as usize].visiting[l.0 as usize] = false;
        self.in_loops.pop();
        if let Some(block) = block {
            out.push(LoopEvent::Exit {
                l: LoopRef::Cfg(f, l),
                block,
            });
        }
    }

    /// Alg. 1: process a local jump; appends emitted events to `out`.
    pub fn on_jump(&mut self, _from: BlockRef, to: BlockRef, out: &mut Vec<LoopEvent>) {
        // Exit live CFG loops of this function that the target lies outside.
        while let Some(&LoopRef::Cfg(f, l)) = self.in_loops.last() {
            if f != to.func || self.funcs[f.0 as usize].contains(l, to.block) {
                break;
            }
            self.exit_cfg_loop(f, l, Some(to), out);
        }
        let table = &mut self.funcs[to.func.0 as usize];
        if let Some(l) = table.loop_of_header(to.block) {
            let lref = LoopRef::Cfg(to.func, l);
            let visiting = &mut table.visiting[l.0 as usize];
            if !*visiting {
                *visiting = true;
                self.in_loops.push(lref);
                out.push(LoopEvent::Enter { l: lref, block: to });
            } else {
                out.push(LoopEvent::Iter { l: lref, block: to });
            }
        }
        out.push(LoopEvent::Block(to));
    }

    /// Alg. 2 (call half): process a call; appends emitted events to `out`.
    pub fn on_call(
        &mut self,
        _callsite: BlockRef,
        callee: FuncId,
        entry: BlockRef,
        out: &mut Vec<LoopEvent>,
    ) {
        if let Some(RecRole {
            comp,
            is_entry,
            is_header,
        }) = self.rec_role(callee)
        {
            let lref = LoopRef::Rec(comp);
            let state = &mut self.rec[comp.0 as usize];
            if is_entry && state.entry.is_none() {
                state.entry = Some(callee);
                self.in_loops.push(lref);
                out.push(LoopEvent::EnterRec {
                    l: lref,
                    block: entry,
                });
                return;
            }
            if is_header {
                // Exit CFG loops still live inside the component's functions:
                // a new recursive iteration begins.
                while let Some(&LoopRef::Cfg(f, l)) = self.in_loops.last() {
                    if self.rec_role(f).map(|r| r.comp) != Some(comp) {
                        break;
                    }
                    self.exit_cfg_loop(f, l, Some(entry), out);
                }
                self.rec[comp.0 as usize].stackcount += 1;
                out.push(LoopEvent::IterCall {
                    l: lref,
                    block: entry,
                });
                return;
            }
        }
        out.push(LoopEvent::Call {
            callee,
            block: entry,
        });
    }

    /// Alg. 2 (return half): process a return from `from`; `to` is the
    /// caller block (None when the root frame returns — state is cleaned but
    /// nothing user-visible is emitted).
    pub fn on_ret(&mut self, from: FuncId, to: Option<BlockRef>, out: &mut Vec<LoopEvent>) {
        // Exit CFG loops of the returning function that are still live.
        while let Some(&LoopRef::Cfg(f, l)) = self.in_loops.last() {
            if f != from {
                break;
            }
            self.exit_cfg_loop(f, l, to, out);
        }
        if let Some(RecRole {
            comp,
            is_entry,
            is_header,
        }) = self.rec_role(from)
        {
            let lref = LoopRef::Rec(comp);
            let state = &mut self.rec[comp.0 as usize];
            if is_entry && state.stackcount == 0 && state.entry == Some(from) {
                state.entry = None;
                // Pop the recursive loop (pushed at Ec).
                if self.in_loops.last() == Some(&lref) {
                    self.in_loops.pop();
                }
                if let Some(b) = to {
                    out.push(LoopEvent::ExitRec { l: lref, block: b });
                }
                return;
            }
            if is_header {
                state.stackcount -= 1;
                if let Some(b) = to {
                    out.push(LoopEvent::IterRet { l: lref, block: b });
                }
                return;
            }
        }
        if let Some(b) = to {
            out.push(LoopEvent::Ret(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use polyir::{IBinOp, Program};
    use polyvm::{EventSink, Vm};

    /// Adapter: runs raw events through the generator, collecting loop events.
    struct Collect<'s> {
        gen: LoopEventGen<'s>,
        out: Vec<LoopEvent>,
    }
    impl EventSink for Collect<'_> {
        fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
            self.gen.on_jump(from, to, &mut self.out);
        }
        fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
            self.gen.on_call(callsite, callee, entry, &mut self.out);
        }
        fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
            self.gen.on_ret(from, to, &mut self.out);
        }
    }

    fn loop_events(p: &Program) -> Vec<LoopEvent> {
        let s = StaticStructure::record(p).unwrap();
        let mut c = Collect {
            gen: LoopEventGen::new(&s),
            out: Vec::new(),
        };
        Vm::new(p).run(&[], &mut c).unwrap();
        c.out
    }

    fn counts(evs: &[LoopEvent]) -> (usize, usize, usize) {
        let e = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::Enter { .. }))
            .count();
        let i = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::Iter { .. }))
            .count();
        let x = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::Exit { .. }))
            .count();
        (e, i, x)
    }

    #[test]
    fn single_loop_event_counts() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let acc = f.const_i(0);
        f.for_loop("L", 0i64, 5i64, 1, |f, i| {
            f.iop_to(acc, IBinOp::Add, acc, i);
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let evs = loop_events(&p);
        // one loop: 1 entry, 5 iterations (6 header visits: the last one
        // fails the compare and exits), 1 exit
        assert_eq!(counts(&evs), (1, 5, 1));
    }

    #[test]
    fn nested_loops_inner_exits_on_outer_iter() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let acc = f.const_i(0);
        f.for_loop("Li", 0i64, 3i64, 1, |f, _i| {
            f.for_loop("Lj", 0i64, 2i64, 1, |f, j| {
                f.iop_to(acc, IBinOp::Add, acc, j);
            });
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let evs = loop_events(&p);
        // inner loop entered 3 times, exited 3 times; outer once.
        // Iterations: outer 3 (header visits 4) + inner 3×2 (visits 3 each).
        assert_eq!(counts(&evs), (1 + 3, 3 + 3 * 2, 1 + 3));
    }

    /// The paper's Fig. 3 Ex. 1: a loop in A calls B which has its own loop.
    /// The callee's loop events must nest inside the caller's without the
    /// caller's loop being exited.
    #[test]
    fn interprocedural_nesting() {
        let mut pb = ProgramBuilder::new("ex1");
        let mut b = pb.func("B", 0);
        let acc = b.const_i(0);
        b.for_loop("L2", 0i64, 2i64, 1, |f, j| {
            f.iop_to(acc, IBinOp::Add, acc, j);
        });
        b.ret(Some(acc.into()));
        let b_id = b.finish();
        let mut a = pb.func("A", 0);
        a.for_loop("L1", 0i64, 2i64, 1, |f, _| {
            f.call(b_id, &[]);
        });
        a.ret(None);
        let a_id = a.finish();
        let mut m = pb.func("main", 0);
        m.call_void(a_id, &[]);
        m.ret(None);
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let evs = loop_events(&p);
        // L1 entered once; L2 entered twice (once per call to B).
        let enters: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                LoopEvent::Enter { block, .. } => Some(block.func),
                _ => None,
            })
            .collect();
        assert_eq!(enters.iter().filter(|f| **f == a_id).count(), 1);
        assert_eq!(enters.iter().filter(|f| **f == b_id).count(), 2);
        // plain calls to B emit C events
        let calls = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::Call { callee, .. } if *callee == b_id))
            .count();
        assert_eq!(calls, 2);
    }

    /// Self recursion: f(3) → f(2) → f(1) → f(0); one Ec, then Ic per deeper
    /// call, Ir per inner return, one Xr when the entering call unstacks.
    #[test]
    fn recursion_events() {
        let mut pb = ProgramBuilder::new("rec");
        let r = pb.declare("r", 1);
        let mut f = pb.func("r", 1);
        let n = f.param(0);
        let c = f.icmp(polyir::CmpOp::Le, n, 0i64);
        let bb = f.block("base");
        let go = f.block("go");
        f.br(c, bb, go);
        f.switch_to(bb);
        f.ret(Some(n.into()));
        f.switch_to(go);
        let n1 = f.sub(n, 1i64);
        let v = f.call(r, &[n1.into()]);
        f.ret(Some(v.into()));
        f.finish();
        let mut m = pb.func("main", 0);
        let three = m.const_i(3);
        let v = m.call(r, &[three.into()]);
        m.ret(Some(v.into()));
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let evs = loop_events(&p);
        let ec = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::EnterRec { .. }))
            .count();
        let ic = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::IterCall { .. }))
            .count();
        let ir = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::IterRet { .. }))
            .count();
        let xr = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::ExitRec { .. }))
            .count();
        assert_eq!((ec, ic, ir, xr), (1, 3, 3, 1));
    }

    /// A function called both inside and outside a recursion (Fig. 3 Ex. 2's
    /// C) emits plain C events in both contexts.
    #[test]
    fn helper_call_inside_recursion_stays_plain() {
        let mut pb = ProgramBuilder::new("ex2");
        let mut cf = pb.func("C", 0);
        cf.const_i(1);
        cf.ret(None);
        let c_id = cf.finish();
        let b = pb.declare("B", 1);
        let mut bf = pb.func("B", 1);
        let n = bf.param(0);
        bf.call_void(c_id, &[]);
        let cnd = bf.icmp(polyir::CmpOp::Le, n, 0i64);
        let done = bf.block("done");
        let go = bf.block("go");
        bf.br(cnd, done, go);
        bf.switch_to(go);
        let n1 = bf.sub(n, 1i64);
        bf.call_void(b, &[n1.into()]);
        bf.jump(done);
        bf.switch_to(done);
        bf.ret(None);
        bf.finish();
        let mut m = pb.func("main", 0);
        m.call_void(c_id, &[]); // call outside the recursion
        let two = m.const_i(2);
        m.call_void(b, &[two.into()]);
        m.ret(None);
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let evs = loop_events(&p);
        let plain_calls_to_c = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::Call { callee, .. } if *callee == c_id))
            .count();
        assert_eq!(plain_calls_to_c, 4); // once from main, once per B activation
        let ec = evs
            .iter()
            .filter(|e| matches!(e, LoopEvent::EnterRec { .. }))
            .count();
        assert_eq!(ec, 1);
    }

    /// Early return from inside a CFG loop exits the loop via the return path.
    #[test]
    fn early_return_exits_loop() {
        let mut pb = ProgramBuilder::new("early");
        let mut g = pb.func("g", 0);
        let iv = g.const_i(0);
        let header = g.block("h");
        let body = g.block("b");
        let out = g.block("out");
        g.jump(header);
        g.switch_to(header);
        let c = g.icmp(polyir::CmpOp::Lt, iv, 10i64);
        g.br(c, body, out);
        g.switch_to(body);
        let stop = g.icmp(polyir::CmpOp::Eq, iv, 3i64);
        let retb = g.block("ret");
        let cont = g.block("cont");
        g.br(stop, retb, cont);
        g.switch_to(retb);
        g.ret(None); // return from *inside* the loop
        g.switch_to(cont);
        g.iop_to(iv, IBinOp::Add, iv, 1i64);
        g.jump(header);
        g.switch_to(out);
        g.ret(None);
        let g_id = g.finish();
        let mut m = pb.func("main", 0);
        m.call_void(g_id, &[]);
        m.ret(None);
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let evs = loop_events(&p);
        let (e, i, x) = counts(&evs);
        assert_eq!(e, 1);
        assert_eq!(i, 3);
        assert_eq!(x, 1, "return must exit the live loop");
    }
}
