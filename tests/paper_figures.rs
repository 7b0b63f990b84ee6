//! Integration tests reproducing the paper's figures exactly:
//! Fig. 2 (loop-nesting-tree, recursive-component-set), Fig. 3 (dynamic
//! IIVs for the two worked examples), Fig. 5 (schedule tree vs CCT),
//! Fig. 7 (flame graph renders).

use polyprof_core::polycfg::{
    LoopEvent, LoopEventGen, LoopForest, RecursiveComponentSet, StaticStructure,
};
use polyprof_core::polyiiv::{cct::Cct, IivTracker};
use polyprof_core::polyir::{BlockRef, FuncId, LocalBlockId};
use polyprof_core::polyvm::{EventSink, Vm};
use polyprof_core::profile;
use std::collections::BTreeSet;

/// Fig. 2a/2b: the example CFG folds into L1{B,C,D}/L2{C,D} with headers B
/// and C and back-edges (D,B), (D,C).
#[test]
fn figure2_cfg_loop_nesting_tree() {
    let blocks: BTreeSet<LocalBlockId> = (0..5).map(LocalBlockId).collect();
    let edges: BTreeSet<(LocalBlockId, LocalBlockId)> =
        [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2), (3, 1), (2, 4)]
            .into_iter()
            .map(|(u, v)| (LocalBlockId(u), LocalBlockId(v)))
            .collect();
    let f = LoopForest::build(&blocks, &edges, LocalBlockId(0));
    assert_eq!(f.loops.len(), 2);
    let l1 = f.loop_of_header(LocalBlockId(1)).unwrap();
    let l2 = f.loop_of_header(LocalBlockId(2)).unwrap();
    assert_eq!(f.info(l1).depth, 1);
    assert_eq!(f.info(l2).parent, Some(l1));
    assert_eq!(
        f.info(l1).back_edges,
        vec![(LocalBlockId(3), LocalBlockId(1))]
    );
    assert_eq!(
        f.info(l2).back_edges,
        vec![(LocalBlockId(3), LocalBlockId(2))]
    );
}

/// Fig. 2c/2d: the example CG yields one component, entries {B},
/// headers {B, C}.
#[test]
fn figure2_recursive_component_set() {
    let funcs: BTreeSet<FuncId> = (0..3).map(FuncId).collect();
    let cg: BTreeSet<(FuncId, FuncId)> = [(0, 1), (1, 2), (2, 1), (2, 2)]
        .into_iter()
        .map(|(u, v)| (FuncId(u), FuncId(v)))
        .collect();
    let rcs = RecursiveComponentSet::build(&funcs, &cg, FuncId(0));
    assert_eq!(rcs.components.len(), 1);
    let c = &rcs.components[0];
    assert_eq!(c.entries.iter().map(|f| f.0).collect::<Vec<_>>(), vec![1]);
    assert_eq!(
        c.headers.iter().map(|f| f.0).collect::<Vec<_>>(),
        vec![1, 2]
    );
}

/// Collects loop-event statistics and the maximal IIV depth over a run.
struct IivProbe<'p> {
    gen: LoopEventGen<'p>,
    iiv: IivTracker,
    buf: Vec<LoopEvent>,
    max_depth: usize,
    iters_rec: usize,
}

impl EventSink for IivProbe<'_> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.buf);
        self.drain();
    }
    fn call(&mut self, cs: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen.on_call(cs, callee, entry, &mut self.buf);
        self.drain();
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.buf);
        self.drain();
    }
}

impl IivProbe<'_> {
    fn new<'p>(p: &'p polyprof_core::polyir::Program, s: &'p StaticStructure) -> IivProbe<'p> {
        let entry = p.entry.unwrap();
        IivProbe {
            gen: LoopEventGen::new(s),
            iiv: IivTracker::new(BlockRef {
                func: entry,
                block: p.func(entry).entry(),
            }),
            buf: Vec::new(),
            max_depth: 0,
            iters_rec: 0,
        }
    }
    fn drain(&mut self) {
        for ev in self.buf.drain(..).collect::<Vec<_>>() {
            if matches!(ev, LoopEvent::IterCall { .. } | LoopEvent::IterRet { .. }) {
                self.iters_rec += 1;
            }
            self.iiv.apply(&ev);
            self.max_depth = self.max_depth.max(self.iiv.depth());
        }
    }
}

/// Fig. 3 Ex. 1: a 2×2 interprocedural nest reaches IIV depth 3 (root +
/// two loops across the call).
#[test]
fn figure3_example1_iiv_depth() {
    let p = rodinia::paper_examples::fig3_example1(2, 2);
    let s = StaticStructure::record(&p).unwrap();
    let mut probe = IivProbe::new(&p, &s);
    Vm::new(&p).run(&[], &mut probe).unwrap();
    assert_eq!(probe.max_depth, 3);
    assert_eq!(probe.iters_rec, 0, "no recursion in Ex. 1");
}

/// Fig. 3 Ex. 2: recursion depth k yields exactly k Ic + k Ir events
/// (the IV advances on calls AND returns) and the IIV depth stays at 2
/// regardless of k.
#[test]
fn figure3_example2_recursion_iv() {
    for k in [3i64, 7] {
        let p = rodinia::paper_examples::fig3_example2(k);
        let s = StaticStructure::record(&p).unwrap();
        let mut probe = IivProbe::new(&p, &s);
        Vm::new(&p).run(&[], &mut probe).unwrap();
        assert_eq!(probe.iters_rec as i64, 2 * k, "k Ic + k Ir events");
        assert_eq!(probe.max_depth, 2, "recursion folds to one dimension");
    }
}

/// Fig. 5 table: the CCT grows with recursion depth; the folded
/// representation (statement count) does not.
#[test]
fn figure5_cct_vs_schedule_tree() {
    let deep = rodinia::paper_examples::fig3_example2(32);
    let shallow = rodinia::paper_examples::fig3_example2(4);
    let cct_depth = |p: &polyprof_core::polyir::Program| {
        let mut cct = Cct::new(p.entry.unwrap());
        Vm::new(p).run(&[], &mut cct).unwrap();
        cct.max_depth()
    };
    assert!(
        cct_depth(&deep) > cct_depth(&shallow) + 20,
        "CCT grows linearly"
    );
    let rep_deep = profile(&deep);
    let rep_shallow = profile(&shallow);
    assert_eq!(
        rep_deep.folded_stats.0, rep_shallow.folded_stats.0,
        "folded statement count is recursion-depth independent"
    );
}

/// Fig. 7: flame graphs render for backprop with both kernels visible.
#[test]
fn figure7_flamegraph_renders() {
    let report = profile(&rodinia::backprop::build().program);
    let svg = &report.flamegraph_svg;
    assert!(svg.contains("<svg") && svg.contains("</svg>"));
    assert!(svg.contains("bpnn_layerforward"));
    assert!(svg.contains("bpnn_adjust_weights"));
    assert!(
        svg.matches("<rect").count() >= 6,
        "expected a populated flame graph"
    );
}
