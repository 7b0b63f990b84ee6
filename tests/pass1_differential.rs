//! Pass 1 against its tree-set reference: the dense recorder must hand
//! `StaticStructure::analyze` exactly the structure the old recorder built.
//!
//! `TreeRecorder` below is the recorder as it was before it kept dense
//! tables — two `BTreeMap::entry` lookups and up to three `BTreeSet`
//! inserts per jump — with its own copy of the analysis. Both see the same
//! event stream; the dynamic CFGs (blocks and edges), the loop forests and
//! the recursive components must be `Debug`-identical.

mod common;

use polyir::build::ProgramBuilder;
use polyir::{BlockRef, CmpOp, FuncId, InstrRef, LocalBlockId, Program, Value};
use polyprof_core::polycfg::{
    DynCfg, LoopForest, RecursiveComponentSet, StaticStructure, StructureRecorder,
};
use polyprof_core::polyvm::{EventSink, Vm};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
struct TreeRecorder {
    cfgs: BTreeMap<FuncId, DynCfg>,
    cg_edges: BTreeSet<(FuncId, FuncId)>,
    funcs: BTreeSet<FuncId>,
    last_block: Option<BlockRef>,
}

impl TreeRecorder {
    fn touch_block(&mut self, b: BlockRef) {
        if self.last_block == Some(b) {
            return;
        }
        self.last_block = Some(b);
        self.funcs.insert(b.func);
        self.cfgs.entry(b.func).or_default().blocks.insert(b.block);
    }

    fn analyze(self, prog: &Program) -> StaticStructure {
        let mut forests = BTreeMap::new();
        for (&f, cfg) in &self.cfgs {
            let entry = prog.func(f).entry();
            forests.insert(f, LoopForest::build(&cfg.blocks, &cfg.edges, entry));
        }
        let root = prog.entry.unwrap_or(FuncId(0));
        let rcs = RecursiveComponentSet::build(&self.funcs, &self.cg_edges, root);
        StaticStructure {
            forests,
            rcs,
            cfgs: self.cfgs,
            cg_edges: self.cg_edges,
        }
    }
}

impl EventSink for TreeRecorder {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.touch_block(from);
        self.touch_block(to);
        self.cfgs
            .entry(from.func)
            .or_default()
            .edges
            .insert((from.block, to.block));
    }

    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.touch_block(callsite);
        self.touch_block(entry);
        self.cg_edges.insert((callsite.func, callee));
    }

    fn ret(&mut self, _from: FuncId, to: Option<BlockRef>) {
        if let Some(b) = to {
            self.touch_block(b);
        }
        self.last_block = to;
    }

    fn exec(&mut self, instr: InstrRef, _value: Option<Value>) {
        self.touch_block(instr.block);
    }
}

/// Feeds one event stream to both recorders.
struct Both(StructureRecorder, TreeRecorder);

impl EventSink for Both {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.0.local_jump(from, to);
        self.1.local_jump(from, to);
    }
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.0.call(callsite, callee, entry);
        self.1.call(callsite, callee, entry);
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.0.ret(from, to);
        self.1.ret(from, to);
    }
    fn exec(&mut self, instr: InstrRef, value: Option<Value>) {
        self.0.exec(instr, value);
        self.1.exec(instr, value);
    }
}

/// `Debug` of the structure, with the forests' and components' hash-keyed
/// lookups read out through their queries in key order.
fn rendered(prog: &Program, s: &StaticStructure) -> [String; 3] {
    let forests: Vec<String> = s
        .forests
        .iter()
        .map(|(f, forest)| {
            let blocks = (0..prog.func(*f).blocks.len() as u32).map(LocalBlockId);
            let lookups: Vec<_> = blocks
                .map(|b| (b, forest.loop_of_header(b), forest.innermost(b)))
                .collect();
            let mut index: Vec<_> = forest.static_index.iter().collect();
            index.sort();
            format!("{f:?}: {:?} {lookups:?} {index:?}", forest.loops)
        })
        .collect();
    let comp_of: Vec<_> = (0..prog.funcs.len() as u32)
        .map(|f| s.rcs.component_of(FuncId(f)))
        .collect();
    [
        format!("{:?} {:?}", s.cfgs, s.cg_edges),
        format!("{forests:?}"),
        format!("{:?} {comp_of:?}", s.rcs.components),
    ]
}

fn assert_same(name: &str, prog: &Program, both: Both) {
    let Both(dense, tree) = both;
    let (dense, tree) = (StaticStructure::analyze(prog, dense), tree.analyze(prog));
    assert!(!tree.cfgs.is_empty(), "{name}: nothing recorded");
    let [cfgs, forests, rcs] = rendered(prog, &dense);
    let [want_cfgs, want_forests, want_rcs] = rendered(prog, &tree);
    assert_eq!(cfgs, want_cfgs, "{name}: dynamic CFGs differ");
    assert_eq!(forests, want_forests, "{name}: loop forests differ");
    assert_eq!(rcs, want_rcs, "{name}: recursive components differ");
}

fn check(name: &str, prog: &Program) {
    let mut both = Both(StructureRecorder::new(), TreeRecorder::default());
    Vm::new(prog).run(&[], &mut both).expect("program runs");
    assert_same(name, prog, both);
}

/// A loop whose body branches on loaded data (and on `i`) into three
/// different paths, two of which call out.
fn data_dependent_branches(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("branchy");
    let data = pb.array_i64(&(0..n).map(|i| (i * 7 + 3) % 5).collect::<Vec<_>>());
    let out = pb.alloc(n as u64);
    let mut h = pb.func("h", 1);
    let x = h.param(0);
    let y = h.mul(x, 2i64);
    h.ret(Some(y.into()));
    let hid = h.finish();

    let mut f = pb.func("main", 0);
    f.for_loop("L", 0i64, n, 1, |f, i| {
        let v = f.load(data as i64, i);
        let big = f.icmp(CmpOp::Gt, v, 2i64);
        let hi = f.block("hi");
        let lo = f.block("lo");
        let odd = f.block("odd");
        let join = f.block("join");
        f.br(big, hi, lo);
        f.switch_to(hi);
        let w = f.call(hid, &[v.into()]);
        f.store(out as i64, i, w);
        f.jump(join);
        f.switch_to(lo);
        let r = f.rem(i, 2i64);
        f.br(r, odd, join);
        f.switch_to(odd);
        f.call_void(hid, &[i.into()]);
        f.jump(join);
        f.switch_to(join);
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}

/// Two mutually recursive functions under a loop.
fn mutual_recursion(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("mutual");
    let even = pb.declare("even", 1);
    let odd = pb.declare("odd", 1);
    for (name, other) in [("even", odd), ("odd", even)] {
        let mut g = pb.func(name, 1);
        let k = g.param(0);
        let more = g.icmp(CmpOp::Gt, k, 0i64);
        let go = g.block("go");
        let done = g.block("done");
        g.br(more, go, done);
        g.switch_to(go);
        let k1 = g.sub(k, 1i64);
        let r = g.call(other, &[k1.into()]);
        g.ret(Some(r.into()));
        g.switch_to(done);
        g.ret(Some(k.into()));
        g.finish();
    }
    let mut m = pb.func("main", 0);
    m.for_loop("L", 0i64, n, 1, |f, i| {
        f.call_void(even, &[i.into()]);
    });
    m.ret(None);
    let mid = m.finish();
    pb.set_entry(mid);
    pb.finish()
}

#[test]
fn suite_programs_record_the_same_structure() {
    let mut n = 0;
    for w in rodinia::all_rodinia() {
        check(w.name, &w.program);
        n += 1;
    }
    check("gemsfdtd", &rodinia::gemsfdtd::build().program);
    use rodinia::paper_examples::{fig3_example1, fig3_example2, fig6_kernel};
    check("fig3_example1", &fig3_example1(8, 8));
    check("fig3_example2", &fig3_example2(64));
    check("fig6_kernel", &fig6_kernel(64, 32));
    assert_eq!(n + 4, 23, "the suite_backend program set");
}

#[test]
fn recursion_and_branches_record_the_same_structure() {
    use rodinia::paper_examples::{fig3_example1, fig3_example2};
    check("fig3_example1(3, 5)", &fig3_example1(3, 5));
    check("fig3_example2(0)", &fig3_example2(0));
    check("fig3_example2(5)", &fig3_example2(5));
    check("mutual_recursion", &mutual_recursion(9));
    check("data_dependent_branches", &data_dependent_branches(40));
    check("elementwise", &common::elementwise(50, 3));
    check("stencil", &common::stencil(20, 4));
    check("deep_nest", &common::deep_nest(3));
}

/// Streams no terminator can produce — a block with many successors, calls
/// between arbitrary blocks, returns to nowhere, far-apart ids — still
/// record identically.
#[test]
fn arbitrary_event_streams_record_the_same_structure() {
    let mut prog = ProgramBuilder::new("shell");
    for name in ["f0", "f1", "f2", "f3"] {
        let mut f = prog.func(name, 0);
        for b in 1..80 {
            let blk = f.block(&format!("b{b}"));
            f.jump(blk);
            f.switch_to(blk);
        }
        f.ret(None);
        let fid = f.finish();
        prog.set_entry(fid);
    }
    let prog = prog.finish();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    for _ in 0..40 {
        let mut both = Both(StructureRecorder::new(), TreeRecorder::default());
        for _ in 0..300 {
            let f = FuncId(next(4) as u32);
            let block = |b: u64| BlockRef {
                func: f,
                block: LocalBlockId(b as u32),
            };
            match next(5) {
                0 => both.local_jump(block(next(6)), block(next(80))),
                1 => {
                    let g = FuncId(next(4) as u32);
                    let entry = BlockRef {
                        func: g,
                        block: LocalBlockId(0),
                    };
                    both.call(block(next(80)), g, entry);
                }
                2 => both.ret(f, (next(3) > 0).then(|| block(next(80)))),
                _ => both.exec(
                    InstrRef {
                        block: block(next(80)),
                        idx: 0,
                    },
                    None,
                ),
            }
        }
        assert_same("random stream", &prog, both);
    }
}
