//! Pass 1 of the paper's "Instrumentation I": record the *dynamic* CFG of
//! every executed function and the dynamic call graph, then build the
//! loop-nesting forests and the recursive-component-set.
//!
//! Only executed blocks and edges are analyzed — the paper highlights this
//! as an advantage over static analysis for large programs with small hot
//! regions.
//!
//! Recording runs once per executed instruction, so it touches no tree.
//! [`StructureRecorder`] keeps dense tables per `FuncId`, grown on first
//! touch: an executed-block bitset, a two-slot successor list per block (a
//! `Jump` or `Br` names at most two successors) and a callee bitset. An
//! `exec` event compares one cached `BlockRef`; a jump, call or return sets
//! a bit or fills a slot. After the run the tables become the ordered
//! [`DynCfg`] sets and the call graph — pass 1's whole output, which a
//! `.ptrace` recording also carries — and [`StaticStructure::from_graphs`]
//! builds the forests from those graphs.

use crate::loop_forest::LoopForest;
use crate::recursive::RecursiveComponentSet;
use polyir::{BlockRef, FuncId, InstrRef, LocalBlockId, Program, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Dynamic CFG of one function: observed blocks and local edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynCfg {
    /// Blocks that executed at least one instruction or control event.
    pub blocks: BTreeSet<LocalBlockId>,
    /// Observed local jump edges.
    pub edges: BTreeSet<(LocalBlockId, LocalBlockId)>,
}

/// An empty successor slot.
const NO_SUCC: u32 = u32::MAX;

/// What pass 1 saw of one function: block tables indexed by
/// `LocalBlockId`, the callee bitset by `FuncId`.
#[derive(Debug, Default)]
struct FuncTables {
    /// Executed blocks, one bit each; all zero if the function never ran.
    blocks: Vec<u64>,
    /// Observed successors per block, [`NO_SUCC`] where unused.
    succs: Vec<[u32; 2]>,
    /// Edges beyond a block's two slots. A terminator cannot produce one;
    /// this only keeps a hand-fed event stream exact.
    more_edges: Vec<(LocalBlockId, LocalBlockId)>,
    /// Called functions, one bit each.
    callees: Vec<u64>,
}

fn set_bit(bits: &mut Vec<u64>, i: usize) {
    let w = i / 64;
    if w >= bits.len() {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (i % 64);
}

fn ones(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        (0..64u32)
            .filter(move |b| word >> b & 1 == 1)
            .map(move |b| w as u32 * 64 + b)
    })
}

/// [`polyvm::EventSink`] that records dynamic CFGs and the call graph.
#[derive(Debug, Default)]
pub struct StructureRecorder {
    /// Per-function tables, indexed by `FuncId`.
    funcs: Vec<FuncTables>,
    last_block: Option<BlockRef>,
}

impl StructureRecorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn tables(&mut self, f: FuncId) -> &mut FuncTables {
        let i = f.0 as usize;
        if i >= self.funcs.len() {
            self.funcs.resize_with(i + 1, FuncTables::default);
        }
        &mut self.funcs[i]
    }

    #[inline]
    fn touch_block(&mut self, b: BlockRef) {
        // Cache the last touched block: the exec stream revisits the same
        // block for every instruction.
        if self.last_block == Some(b) {
            return;
        }
        self.last_block = Some(b);
        set_bit(&mut self.tables(b.func).blocks, b.block.0 as usize);
    }

    /// The recorded dynamic CFGs of every executed function and the
    /// call-graph edges, as ordered sets.
    fn into_graphs(self) -> (BTreeMap<FuncId, DynCfg>, BTreeSet<(FuncId, FuncId)>) {
        let mut cfgs = BTreeMap::new();
        let mut cg_edges = BTreeSet::new();
        for (f, t) in self.funcs.into_iter().enumerate() {
            let f = FuncId(f as u32);
            cg_edges.extend(ones(&t.callees).map(|g| (f, FuncId(g))));
            if t.blocks.iter().all(|&w| w == 0) {
                continue;
            }
            let mut edges: BTreeSet<_> = t.more_edges.into_iter().collect();
            for (from, succ) in t.succs.iter().enumerate() {
                for &to in succ.iter().filter(|&&s| s != NO_SUCC) {
                    edges.insert((LocalBlockId(from as u32), LocalBlockId(to)));
                }
            }
            let blocks = ones(&t.blocks).map(LocalBlockId).collect();
            cfgs.insert(f, DynCfg { blocks, edges });
        }
        (cfgs, cg_edges)
    }
}

impl polyvm::EventSink for StructureRecorder {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        debug_assert_eq!(from.func, to.func);
        self.touch_block(from);
        self.touch_block(to);
        let t = self.tables(from.func);
        let i = from.block.0 as usize;
        if i >= t.succs.len() {
            t.succs.resize(i + 1, [NO_SUCC; 2]);
        }
        let slots = &mut t.succs[i];
        let to = to.block.0;
        if slots[0] == to || slots[1] == to {
            return;
        }
        if slots[0] == NO_SUCC {
            slots[0] = to;
        } else if slots[1] == NO_SUCC {
            slots[1] = to;
        } else {
            let e = (from.block, LocalBlockId(to));
            if !t.more_edges.contains(&e) {
                t.more_edges.push(e);
            }
        }
    }

    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.touch_block(callsite);
        self.touch_block(entry);
        set_bit(&mut self.tables(callsite.func).callees, callee.0 as usize);
    }

    fn ret(&mut self, _from: FuncId, to: Option<BlockRef>) {
        if let Some(b) = to {
            self.touch_block(b);
        }
        self.last_block = to;
    }

    #[inline]
    fn exec(&mut self, instr: InstrRef, _value: Option<Value>) {
        self.touch_block(instr.block);
    }
}

/// Stage-1 output: loop forests for every executed function plus the
/// recursive-component-set — the "interprocedural loop context tree" inputs
/// of Fig. 1.
#[derive(Debug, Default)]
pub struct StaticStructure {
    /// Loop-nesting forest per executed function.
    pub forests: BTreeMap<FuncId, LoopForest>,
    /// Recursive components of the dynamic call graph.
    pub rcs: RecursiveComponentSet,
    /// The recorded dynamic CFGs (kept for reporting).
    pub cfgs: BTreeMap<FuncId, DynCfg>,
    /// The recorded dynamic call-graph edges `(caller, callee)` `rcs` was
    /// built from.
    pub cg_edges: BTreeSet<(FuncId, FuncId)>,
}

impl StaticStructure {
    /// Pass 1 of `prog`: run it once under a [`StructureRecorder`] and
    /// analyze what it recorded.
    pub fn record(prog: &Program) -> Result<StaticStructure, polyvm::VmError> {
        let mut rec = StructureRecorder::new();
        polyvm::Vm::new(prog).run(&[], &mut rec)?;
        Ok(Self::analyze(prog, rec))
    }

    /// Analyze a completed recording. `prog` supplies entry-function and
    /// entry-block information.
    pub fn analyze(prog: &Program, rec: StructureRecorder) -> StaticStructure {
        let (cfgs, cg_edges) = rec.into_graphs();
        Self::from_graphs(prog, cfgs, cg_edges)
    }

    /// Build the forests and the recursive components from pass 1's graphs:
    /// the dynamic CFG of every executed function and the call-graph edges.
    /// Every function in `cfgs` must exist in `prog`.
    pub fn from_graphs(
        prog: &Program,
        cfgs: BTreeMap<FuncId, DynCfg>,
        cg_edges: BTreeSet<(FuncId, FuncId)>,
    ) -> StaticStructure {
        let mut forests = BTreeMap::new();
        for (&f, cfg) in &cfgs {
            let entry = prog.func(f).entry();
            forests.insert(f, LoopForest::build(&cfg.blocks, &cfg.edges, entry));
        }
        let funcs: BTreeSet<FuncId> = cfgs.keys().copied().collect();
        let rcs = RecursiveComponentSet::build(&funcs, &cg_edges, Self::root(prog));
        StaticStructure {
            forests,
            rcs,
            cfgs,
            cg_edges,
        }
    }

    /// The function the recursive components treat as the program root.
    pub fn root(prog: &Program) -> FuncId {
        prog.entry.unwrap_or(FuncId(0))
    }

    /// Forest lookup; panics if the function never executed.
    pub fn forest(&self, f: FuncId) -> &LoopForest {
        &self.forests[&f]
    }

    /// Maximum loop depth observed in any single function ("ld-bin" is
    /// derived later from the interprocedural schedule tree; this is the
    /// intraprocedural bound).
    pub fn max_cfg_loop_depth(&self) -> u32 {
        self.forests
            .values()
            .map(|f| f.max_depth())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use polyir::IBinOp;

    fn profiled(p: &Program) -> StaticStructure {
        StaticStructure::record(p).unwrap()
    }

    #[test]
    fn records_loop_cfg() {
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
        let s = profiled(&p);
        let forest = s.forest(fid);
        assert_eq!(forest.loops.len(), 1);
        // header is block 1 in the canonical for_loop shape
        assert_eq!(forest.loops[0].header, LocalBlockId(1));
        assert_eq!(s.max_cfg_loop_depth(), 1);
        assert!(s.rcs.components.is_empty());
    }

    #[test]
    fn only_executed_paths_recorded() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let c = f.const_i(1); // always true
        let t = f.block("taken");
        let e = f.block("nottaken");
        f.br(c, t, e);
        f.switch_to(t);
        f.ret(None);
        f.switch_to(e);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let s = profiled(&p);
        let cfg = &s.cfgs[&fid];
        assert!(cfg.blocks.contains(&LocalBlockId(1)));
        assert!(
            !cfg.blocks.contains(&LocalBlockId(2)),
            "untaken branch must be absent"
        );
    }

    #[test]
    fn call_graph_and_recursion_recorded() {
        let mut pb = ProgramBuilder::new("t");
        let r = pb.declare("rec", 1);
        let mut f = pb.func("rec", 1);
        let n = f.param(0);
        let c = f.icmp(polyir::CmpOp::Le, n, 0i64);
        let bb = f.block("base");
        let rb = f.block("go");
        f.br(c, bb, rb);
        f.switch_to(bb);
        f.ret(Some(n.into()));
        f.switch_to(rb);
        let n1 = f.sub(n, 1i64);
        let v = f.call(r, &[n1.into()]);
        f.ret(Some(v.into()));
        f.finish();
        let mut m = pb.func("main", 0);
        let five = m.const_i(5);
        let v = m.call(r, &[five.into()]);
        m.ret(Some(v.into()));
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let s = profiled(&p);
        assert_eq!(s.rcs.components.len(), 1);
        assert!(s.rcs.is_header(r));
        assert!(s.rcs.is_entry(r));
        assert_eq!(s.rcs.component_of(mid), None);
    }
}
