//! Seeded program generators, the event-count model that checks them, and
//! the program sets of the in-process workloads.
//!
//! The seed reaches the generators only; the profiler under test sees
//! nothing but the generated [`Program`]s.

use polyprof_core::polyir::build::ProgramBuilder;
use polyprof_core::polyir::{CmpOp, IBinOp, Operand, Program, Value};
use polyprof_core::polyvm::sinks::CountingSink;
use std::ops::{Add, AddAssign, Mul};

/// SplitMix64: small, seedable, and good enough to shuffle a graph.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Dynamic event counts of one execution, by `EventSink` callback.
///
/// The model side of the count check: it is built from the three expansion
/// rules of `polyir::build` (`for_loop`, `while_loop`, `if_else`) and the
/// instruction counts written beside each generator, with trip counts from
/// a native simulation of the generated data — never from the VM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// `exec` callbacks (= `RunOutcome::dyn_instrs`).
    pub instrs: u64,
    /// `mem` callbacks.
    pub mems: u64,
    /// `local_jump` callbacks.
    pub jumps: u64,
    /// `call` callbacks.
    pub calls: u64,
    /// `ret` callbacks.
    pub rets: u64,
}

impl Cost {
    /// All callbacks of one pass.
    pub fn events(&self) -> u64 {
        self.instrs + self.mems + self.jumps + self.calls + self.rets
    }
}

impl From<&CountingSink> for Cost {
    fn from(c: &CountingSink) -> Cost {
        Cost {
            instrs: c.instrs,
            mems: c.loads + c.stores,
            jumps: c.jumps,
            calls: c.calls,
            rets: c.rets,
        }
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, o: Cost) -> Cost {
        Cost {
            instrs: self.instrs + o.instrs,
            mems: self.mems + o.mems,
            jumps: self.jumps + o.jumps,
            calls: self.calls + o.calls,
            rets: self.rets + o.rets,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        *self = *self + o;
    }
}

impl Mul<Cost> for u64 {
    type Output = Cost;
    fn mul(self, c: Cost) -> Cost {
        Cost {
            instrs: self * c.instrs,
            mems: self * c.mems,
            jumps: self * c.jumps,
            calls: self * c.calls,
            rets: self * c.rets,
        }
    }
}

/// `n` register-only instructions.
pub fn ops(n: u64) -> Cost {
    Cost {
        instrs: n,
        ..Cost::default()
    }
}

/// `n` loads or stores.
pub fn mem(n: u64) -> Cost {
    Cost {
        instrs: n,
        mems: n,
        ..Cost::default()
    }
}

const JUMP: Cost = Cost {
    instrs: 0,
    mems: 0,
    jumps: 1,
    calls: 0,
    rets: 0,
};

const RET: Cost = Cost {
    instrs: 0,
    mems: 0,
    jumps: 0,
    calls: 0,
    rets: 1,
};

/// `FuncBuilder::for_loop` run for `trips` iterations whose bodies cost
/// `bodies` in total: the induction move and jump in, the header compare and
/// branch `trips + 1` times, and per iteration the jump to the latch, the
/// increment and the jump back.
pub fn for_loop(trips: u64, bodies: Cost) -> Cost {
    ops(1) + JUMP + (trips + 1) * (ops(1) + JUMP) + trips * (JUMP + ops(1) + JUMP) + bodies
}

/// `FuncBuilder::while_loop`: the header (`cond` plus its branch) runs
/// `trips + 1` times, each body ends in one jump back.
pub fn while_loop(trips: u64, cond: Cost, bodies: Cost) -> Cost {
    JUMP + (trips + 1) * (cond + JUMP) + trips * JUMP + bodies
}

/// `FuncBuilder::if_else` taking an arm that costs `arm`: the branch and the
/// jump to the join block.
pub fn if_else(arm: Cost) -> Cost {
    JUMP + arm + JUMP
}

/// A call instruction, the callee's body and its return.
pub fn call(callee: Cost) -> Cost {
    ops(1)
        + Cost {
            calls: 1,
            ..Cost::default()
        }
        + callee
        + RET
}

/// What the benchmark expects of one loop region, written by hand from the
/// generator's source and never from a profile.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// `RegionReport::name` (`file:line` of the outermost loop). Several
    /// regions may share it; the verdict then holds for each of them.
    pub region: String,
    /// Binary loop depth of the region.
    pub loop_depth: usize,
    /// Whether the outermost loop is parallel as written.
    pub outer_parallel: bool,
    /// Whether the innermost loop of each region of this name is parallel
    /// (`false`: it carries a dependence, such as a reduction), in ascending
    /// order; empty where the data decides and nothing is asserted.
    pub innermost_parallel: Vec<bool>,
}

/// One generated program with everything needed to check its profile.
#[derive(Clone)]
pub struct Case {
    /// Stable name (registry key on the server, row label in reports).
    pub name: String,
    pub program: Program,
    /// Modelled event counts; `None` for the fixed Rodinia programs, whose
    /// counts are pinned by the repository's own tests.
    pub model: Option<Cost>,
    pub verdicts: Vec<Verdict>,
}

/// The dense workload: `polyprof_bench::trace::big_backprop(n1, n2)` with
/// every float of its data segment drawn from the seed. Control flow and
/// addresses do not depend on the data, so the event count is a polynomial
/// in the layer sizes.
pub fn dense_affine(seed: u64, n1: i64, n2: i64) -> Case {
    let mut program = polyprof_bench::trace::big_backprop(n1, n2);
    let mut rng = Rng::new(seed ^ 0xd15e);
    for (_, v) in &mut program.data {
        if let Value::F64(x) = v {
            *x = rng.unit();
        }
    }
    let (n1, n2) = (n1 as u64, n2 as u64);
    // squash: one intrinsic.
    let squash = ops(1);
    // layerforward: Lj over 1..n2 { const; Lk over 0..n1 { mul, add, 2
    // loads, fmul, fadd }; call squash; store }.
    let lk_forward = for_loop(n1, n1 * (ops(4) + mem(2)));
    let forward = for_loop(
        n2 - 1,
        (n2 - 1) * (ops(1) + lk_forward + call(squash) + mem(1)),
    );
    // adjust_weights: Lj over 1..n2 { Lk over 0..n1 { mul, add, 3 fmul,
    // 2 fadd, 4 loads, 2 stores } }.
    let lk_adjust = for_loop(n1, n1 * (ops(7) + mem(6)));
    let adjust = for_loop(n2 - 1, (n2 - 1) * lk_adjust);
    let model = call(forward) + call(adjust) + RET;
    Case {
        name: format!("backprop_big_{n1}x{n2}"),
        program,
        model: Some(model),
        // Both kernels are 2-deep with a parallel Lj. The forward kernel's
        // Lk carries the `sum` reduction; the update kernel's Lk is parallel.
        verdicts: vec![Verdict {
            region: "backprop_big.c:1".into(),
            loop_depth: 2,
            outer_parallel: true,
            innermost_parallel: vec![false, true],
        }],
    }
}

/// Sizes of the irregular generator; `full()` is the 1.0–1.5 M event
/// instance of the `irregular_pointer` workload.
#[derive(Debug, Clone, Copy)]
pub struct IrregularSize {
    /// Nodes of the CSR graph the frontier sweep walks.
    pub graph_nodes: usize,
    /// Nodes of the shuffled linked list.
    pub list_nodes: usize,
    /// Words between consecutive list nodes: spreads the chase over shadow
    /// pages so the page MRU misses on nearly every step.
    pub list_stride: usize,
    /// Times the chase walks the whole cycle.
    pub list_laps: usize,
    /// Nodes of the random binary search tree the recursion descends.
    pub tree_nodes: usize,
}

impl IrregularSize {
    pub fn full() -> Self {
        IrregularSize {
            graph_nodes: 2048,
            list_nodes: 8192,
            list_stride: 160,
            list_laps: 6,
            tree_nodes: 8192,
        }
    }

    /// `full()` with every node count divided by `d`.
    pub fn divided(d: usize) -> Self {
        let f = Self::full();
        IrregularSize {
            graph_nodes: (f.graph_nodes / d).max(8),
            list_nodes: (f.list_nodes / d).max(8),
            tree_nodes: (f.tree_nodes / d).max(8),
            ..f
        }
    }
}

/// Levels the frontier sweep runs: more than a random graph with two to
/// four edges a node needs at any size used here, so the search always
/// completes and the sweep's cost barely varies with the seed.
const LEVELS: u64 = 12;
const LINE_BFS: u32 = 100;
const LINE_CHASE: u32 = 200;

/// The irregular workload: three kernels behind calls from `main`.
///
/// 1. `bfs` — level-synchronous frontier sweep over a seeded CSR graph
///    ([`LEVELS`] levels, mask-guarded node loop, data-dependent edge loop
///    with `cost[edges[e]]` indirection, commit loop).
/// 2. `chase` — `p = next[p]` around a seeded single-cycle permutation of
///    widely strided list nodes, accumulating into each node.
/// 3. `visit` — recursive descent of a seeded random binary search tree
///    returning subtree sums (two recursive call sites).
pub fn irregular_pointer(seed: u64, size: IrregularSize) -> Case {
    let mut rng = Rng::new(seed ^ 0x1bb3);
    let mut pb = ProgramBuilder::new("irregular_pointer");
    let mut model = Cost::default();

    // --- data: CSR graph ------------------------------------------------
    let n = size.graph_nodes;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut edges: Vec<i64> = Vec::new();
    for node in 0..n as i64 {
        // Two to four distinct neighbours, never the node itself: whether a
        // dependence exists inside one node's edge loop must not be left to
        // the seed, or the folded DDG would change shape with it.
        let first = edges.len();
        offsets.push(first as i64);
        for _ in 0..2 + rng.below(3) {
            let mut to = rng.below(n as u64) as i64;
            while to == node || edges[first..].contains(&to) {
                to = rng.below(n as u64) as i64;
            }
            edges.push(to);
        }
    }
    offsets.push(edges.len() as i64);
    let off = pb.array_i64(&offsets) as i64;
    let edg = pb.array_i64(&edges) as i64;
    let mut cost0 = vec![-1i64; n];
    cost0[0] = 0;
    let cost = pb.array_i64(&cost0) as i64;
    let mut mask0 = vec![0i64; n];
    mask0[0] = 1;
    let mask = pb.array_i64(&mask0) as i64;
    let upd = pb.array_i64(&vec![0i64; n]) as i64;

    // --- data: strided list, one cycle through every node -----------------
    let m = size.list_nodes;
    let list = pb.alloc((m * size.list_stride) as u64) as i64;
    let node_addr = |i: usize| list + (i * size.list_stride) as i64;
    let mut order: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut order);
    let mut list_data = Vec::with_capacity(2 * m);
    for (k, &i) in order.iter().enumerate() {
        let next = order[(k + 1) % m];
        list_data.push((node_addr(i) as u64, Value::I64(node_addr(next))));
        list_data.push((node_addr(i) as u64 + 1, Value::I64(rng.below(100) as i64)));
    }
    let list_head = node_addr(order[0]);
    let chase_out = pb.alloc(1) as i64;

    // --- data: random BST, nodes [key, left, right, sum] ------------------
    let t = size.tree_nodes;
    let tree = pb.alloc((4 * t) as u64) as i64;
    let tnode = |i: usize| tree + 4 * i as i64;
    let mut keys: Vec<i64> = (0..t as i64).collect();
    rng.shuffle(&mut keys);
    let mut left = vec![0i64; t];
    let mut right = vec![0i64; t];
    for i in 1..t {
        let mut at = 0usize;
        loop {
            let child = if keys[i] < keys[at] {
                &mut left[at]
            } else {
                &mut right[at]
            };
            if *child == 0 {
                *child = tnode(i);
                break;
            }
            at = ((*child - tree) / 4) as usize;
        }
    }
    let mut tree_data = Vec::with_capacity(3 * t);
    for i in 0..t {
        tree_data.push((tnode(i) as u64, Value::I64(keys[i])));
        tree_data.push((tnode(i) as u64 + 1, Value::I64(left[i])));
        tree_data.push((tnode(i) as u64 + 2, Value::I64(right[i])));
    }
    let tree_out = pb.alloc(1) as i64;

    // --- kernel 1: frontier sweep -----------------------------------------
    let mut f = pb.func("bfs", 0);
    f.at_line(LINE_BFS);
    f.for_loop("levels", 0i64, LEVELS as i64, 1, |f, _| {
        f.for_loop("Lnodes", 0i64, n as i64, 1, |f, tid| {
            let on = f.load(mask, tid);
            f.if_else(
                on,
                |f| {
                    f.store(mask, tid, 0i64);
                    let my_cost = f.load(cost, tid);
                    let lo = f.load(off, tid);
                    let tid1 = f.add(tid, 1i64);
                    let hi = f.load(off, tid1);
                    let e = f.mov(lo);
                    f.while_loop(
                        "Ledges",
                        |f| f.icmp(CmpOp::Lt, e, hi),
                        |f| {
                            let nb = f.load(edg, e);
                            let nc = f.load(cost, nb);
                            let unvisited = f.icmp(CmpOp::Lt, nc, 0i64);
                            f.if_else(
                                unvisited,
                                |f| {
                                    let c1 = f.add(my_cost, 1i64);
                                    f.store(cost, nb, c1);
                                    f.store(upd, nb, 1i64);
                                },
                                |_| {},
                            );
                            f.iop_to(e, IBinOp::Add, e, 1i64);
                        },
                    );
                },
                |_| {},
            );
        });
        f.for_loop("Lcommit", 0i64, n as i64, 1, |f, tid| {
            let u = f.load(upd, tid);
            f.if_else(
                u,
                |f| {
                    f.store(mask, tid, 1i64);
                    f.store(upd, tid, 0i64);
                },
                |_| {},
            );
        });
    });
    f.ret(None);
    let bfs = f.finish();
    model += call(bfs_model(&offsets, &edges));

    // --- kernel 2: pointer chase ------------------------------------------
    let steps = (m * size.list_laps) as u64;
    let mut f = pb.func("chase", 0);
    f.at_line(LINE_CHASE);
    let p = f.const_i(list_head);
    let acc = f.const_i(0);
    f.for_loop("Lchase", 0i64, steps as i64, 1, |f, _| {
        let v = f.load(p, 1i64);
        f.iop_to(acc, IBinOp::Add, acc, v);
        f.store(p, 2i64, acc);
        let next = f.load(p, 0i64);
        f.mov_to(p, next);
    });
    f.store(chase_out, 0i64, acc);
    f.ret(None);
    let chase = f.finish();
    model += call(ops(2) + for_loop(steps, steps * (mem(3) + ops(2))) + mem(1));

    // --- kernel 3: recursive tree descent ---------------------------------
    let visit = pb.declare("visit", 1);
    let mut f = pb.func("visit", 1);
    {
        let node = f.param(0);
        let is_null = f.icmp(CmpOp::Eq, node, 0i64);
        let null_b = f.block("null");
        let work_b = f.block("work");
        f.br(is_null, null_b, work_b);
        f.switch_to(null_b);
        f.ret(Some(Operand::ImmI(0)));
        f.switch_to(work_b);
        let key = f.load(node, 0i64);
        let l = f.load(node, 1i64);
        let r = f.load(node, 2i64);
        let sl = f.call(visit, &[l.into()]);
        let sr = f.call(visit, &[r.into()]);
        let s1 = f.add(key, sl);
        let s2 = f.add(s1, sr);
        f.store(node, 3i64, s2);
        f.ret(Some(s2.into()));
    }
    f.finish();
    // A real node: compare, branch, 3 loads, two calls, 2 adds, 1 store; a
    // null: compare and branch. The calls' own instruction, call and return
    // events are counted by `call`.
    let null_visit = ops(1) + JUMP;
    let real_visit = ops(1) + JUMP + mem(3) + ops(2) + mem(1);
    let t64 = t as u64;
    // 2t + 1 activations: t real nodes, t + 1 nulls; all but the root are
    // called from inside `visit`.
    let visit_all = t64 * real_visit + (t64 + 1) * null_visit + (2 * t64) * call(Cost::default());

    let mut f = pb.func("main", 0);
    f.call_void(bfs, &[]);
    f.call_void(chase, &[]);
    let total = f.call(visit, &[Operand::ImmI(tnode(0))]);
    f.store(tree_out, 0i64, total);
    f.ret(None);
    let main = f.finish();
    pb.set_entry(main);
    model += call(visit_all) + mem(1) + RET;

    let mut program = pb.finish();
    program.data.extend(list_data);
    program.data.extend(tree_data);
    Case {
        name: format!("irregular_{n}_{m}_{t}_s{seed}"),
        program,
        model: Some(model),
        verdicts: vec![
            // Levels depend on each other through `cost`, `mask` and `upd`.
            Verdict {
                region: format!("irregular_pointer.c:{LINE_BFS}"),
                loop_depth: 3,
                outer_parallel: false,
                innermost_parallel: Vec::new(),
            },
            // Every step needs the pointer the previous one loaded.
            Verdict {
                region: format!("irregular_pointer.c:{LINE_CHASE}"),
                loop_depth: 1,
                outer_parallel: false,
                innermost_parallel: vec![false],
            },
        ],
    }
}

/// Native run of the frontier sweep, returning the body cost of `bfs`.
fn bfs_model(offsets: &[i64], edges: &[i64]) -> Cost {
    let n = offsets.len() - 1;
    let mut cost = vec![-1i64; n];
    cost[0] = 0;
    let mut mask = vec![false; n];
    mask[0] = true;
    let mut upd = vec![false; n];
    let (mut node_bodies, mut commit_bodies) = (Cost::default(), Cost::default());
    for _ in 0..LEVELS {
        for tid in 0..n {
            // load mask; then either the empty arm or the expansion.
            let mut arm = Cost::default();
            if mask[tid] {
                mask[tid] = false;
                let (lo, hi) = (offsets[tid] as usize, offsets[tid + 1] as usize);
                let mut edge_bodies = Cost::default();
                for &nb in &edges[lo..hi] {
                    let nb = nb as usize;
                    let mut hit = Cost::default();
                    if cost[nb] < 0 {
                        cost[nb] = cost[tid] + 1;
                        upd[nb] = true;
                        hit = ops(1) + mem(2);
                    }
                    // 2 loads, compare, the branch, the edge increment.
                    edge_bodies += mem(2) + ops(1) + if_else(hit) + ops(1);
                }
                // store mask, 3 loads, add, mov, then the edge loop.
                arm = mem(4) + ops(2) + while_loop((hi - lo) as u64, ops(1), edge_bodies);
            }
            node_bodies += mem(1) + if_else(arm);
        }
        for tid in 0..n {
            let mut arm = Cost::default();
            if upd[tid] {
                mask[tid] = true;
                upd[tid] = false;
                arm = mem(2);
            }
            commit_bodies += mem(1) + if_else(arm);
        }
    }
    let n = n as u64;
    // Per level: the node loop and the commit loop.
    let level_fixed = for_loop(n, Cost::default()) + for_loop(n, Cost::default());
    for_loop(LEVELS, LEVELS * level_fixed + node_bodies + commit_bodies)
}

/// The programs of the `suite_backend` workload: the 19 Rodinia kernels,
/// GemsFDTD and the paper's three worked examples at their native sizes.
pub fn suite_backend() -> Vec<(Case, Option<rodinia::PaperRow>)> {
    let fixed = |name: &str, program: Program| Case {
        name: name.to_string(),
        program,
        model: None,
        verdicts: Vec::new(),
    };
    let mut out: Vec<(Case, Option<rodinia::PaperRow>)> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| (fixed(w.name, w.program), Some(w.paper)))
        .collect();
    out.push((fixed("gemsfdtd", rodinia::gemsfdtd::build().program), None));
    out.push((
        fixed(
            "fig3_example1",
            rodinia::paper_examples::fig3_example1(8, 8),
        ),
        None,
    ));
    out.push((
        fixed("fig3_example2", rodinia::paper_examples::fig3_example2(64)),
        None,
    ));
    out.push((
        fixed("fig6_kernel", rodinia::paper_examples::fig6_kernel(64, 32)),
        None,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyprof_core::polyrec::program_hash;
    use polyprof_core::polyvm::Vm;

    fn counted(p: &Program) -> (Cost, u64) {
        let mut c = CountingSink::default();
        let out = Vm::new(p).run(&[], &mut c).expect("program runs");
        (Cost::from(&c), out.dyn_instrs)
    }

    #[test]
    fn same_seed_same_program_other_seed_other_program() {
        let size = IrregularSize::divided(32);
        let a = irregular_pointer(7, size);
        let b = irregular_pointer(7, size);
        let c = irregular_pointer(8, size);
        assert_eq!(program_hash(&a.program), program_hash(&b.program));
        assert_ne!(program_hash(&a.program), program_hash(&c.program));
        let d = dense_affine(7, 12, 12);
        assert_eq!(
            program_hash(&d.program),
            program_hash(&dense_affine(7, 12, 12).program)
        );
        assert_ne!(
            program_hash(&d.program),
            program_hash(&dense_affine(8, 12, 12).program)
        );
    }

    #[test]
    fn models_match_the_vm_event_for_event() {
        for seed in [1, 2, 3] {
            for case in [
                irregular_pointer(seed, IrregularSize::divided(16)),
                irregular_pointer(seed, IrregularSize::divided(64)),
                dense_affine(seed, 9, 14),
            ] {
                assert!(case.program.validate().is_empty(), "{}", case.name);
                let (seen, dyn_instrs) = counted(&case.program);
                let model = case.model.expect("generators carry a model");
                assert_eq!(model, seen, "{}", case.name);
                assert_eq!(model.instrs, dyn_instrs, "{}", case.name);
            }
        }
    }

    #[test]
    fn loop_rules_count_each_callback() {
        // for (i = 0; i < 3; i++) { one op }
        let c = for_loop(3, 3 * ops(1));
        assert_eq!((c.instrs, c.jumps), (1 + 4 + 3 + 3, 1 + 4 + 6));
        let w = while_loop(2, ops(1), 2 * mem(1));
        assert_eq!((w.instrs, w.mems, w.jumps), (3 + 2, 2, 1 + 3 + 2));
        assert_eq!(call(ops(1)).events(), 1 + 1 + 1 + 1);
    }
}
