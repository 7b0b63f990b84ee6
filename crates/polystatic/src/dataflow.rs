//! Static affine pre-pass over `polyir`: the oracle the dynamic profile is
//! linted against.
//!
//! The folding stage classifies SCEV statements from the dynamic run; most
//! of that structure is statically decidable. This module proves, per
//! instruction, membership in one of three categories that the dynamic
//! classifier in `polyfold::FoldingSink::finalize` is guaranteed to mark
//! `is_scev`:
//!
//! 1. **Compares** (`ICmp`/`FCmp`) — unconditionally SCEV dynamically (loop
//!    control overhead; the folded domain already carries their payload).
//! 2. **Self-increments** — `r = r ± const` recurrences, unconditionally
//!    SCEV dynamically (induction bookkeeping).
//! 3. **Affine values in canonical counted loops** — `Const`/`Move`/`IOp`
//!    instructions in a *runs-once* function whose produced value is a
//!    static affine form over the induction variables of its enclosing
//!    loops, when every enclosing loop is [`CountedLoop`]-canonical and the
//!    block has no execution holes (it dominates every back-edge source of
//!    every enclosing loop). These fold to exact domains with affine labels.
//!
//! The post-fold DDG lint (`crate::lint`) checks the dynamic run against
//! every static claim made here; none of it feeds pass 2, with which it
//! shares no code.
//!
//! The analysis is deliberately conservative: every rule below errs toward
//! *not* proving. A statically-missed SCEV only weakens the lint; a
//! wrongly-proven one is a lint violation on a correct profile.

use crate::{classify_registers, eval_instr, eval_operand, Base, Sym};
use polycfg::loop_forest::{LoopForest, LoopIdx};
use polyir::*;
use std::collections::{BTreeMap, BTreeSet};

/// Immediate-dominator tree of one function's static CFG
/// (Cooper–Harvey–Kennedy over a reverse-postorder numbering).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]`: immediate dominator; the entry points at itself;
    /// `None` for blocks unreachable from entry.
    idom: Vec<Option<u32>>,
    /// Reverse-postorder position per block (`u32::MAX` if unreachable).
    rpo_pos: Vec<u32>,
}

impl DomTree {
    /// Build the dominator tree for `f`.
    pub fn build(f: &Function) -> DomTree {
        let n = f.blocks.len();
        let entry = f.entry().0 as usize;
        // Iterative DFS postorder, reversed.
        let mut post: Vec<usize> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        // Stack of (block, next successor index).
        let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
        seen[entry] = true;
        let succs: Vec<Vec<usize>> = f
            .blocks
            .iter()
            .map(|b| b.term.successors().iter().map(|s| s.0 as usize).collect())
            .collect();
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let s = succs[b][*i];
                *i += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<usize> = post.into_iter().rev().collect();
        let mut rpo_pos = vec![u32::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i as u32;
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, ss) in succs.iter().enumerate() {
            if rpo_pos[b] == u32::MAX {
                continue;
            }
            for &s in ss {
                preds[s].push(b);
            }
        }
        let mut idom: Vec<Option<u32>> = vec![None; n];
        idom[entry] = Some(entry as u32);
        let intersect = |idom: &[Option<u32>], rpo_pos: &[u32], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_pos[a] > rpo_pos[b] {
                    a = idom[a].expect("processed") as usize;
                }
                while rpo_pos[b] > rpo_pos[a] {
                    b = idom[b].expect("processed") as usize;
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &preds[b] {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_pos, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni as u32) {
                        idom[b] = Some(ni as u32);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, rpo_pos }
    }

    /// Does `a` dominate `b`? Unreachable blocks dominate nothing and are
    /// dominated by nothing.
    pub fn dominates(&self, a: LocalBlockId, b: LocalBlockId) -> bool {
        let (a, mut cur) = (a.0 as usize, b.0 as usize);
        if self.rpo_pos[a] == u32::MAX || self.rpo_pos[cur] == u32::MAX {
            return false;
        }
        // idom chains walk strictly upward in RPO position.
        while self.rpo_pos[cur] > self.rpo_pos[a] {
            cur = self.idom[cur].expect("reachable") as usize;
        }
        cur == a
    }

    /// Is the block reachable from the function entry?
    pub fn reachable(&self, b: LocalBlockId) -> bool {
        self.rpo_pos[b.0 as usize] != u32::MAX
    }
}

/// SSA-lite reaching definitions: the def sites of every register. A
/// register with a *unique* def whose site dominates a use definitely
/// reaches it — the discipline the affine rules below build on.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// Def sites per register: `(block, instruction index)`.
    pub sites: Vec<Vec<(LocalBlockId, usize)>>,
}

impl ReachingDefs {
    /// Collect def sites for every register of `f`.
    pub fn build(f: &Function) -> ReachingDefs {
        let mut sites = vec![Vec::new(); f.n_regs as usize];
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, ins) in b.instrs.iter().enumerate() {
                if let Some(d) = ins.def() {
                    sites[d.0 as usize].push((LocalBlockId(bi as u32), ii));
                }
            }
        }
        ReachingDefs { sites }
    }

    /// The unique def site of `r`, if it has exactly one.
    pub fn unique(&self, r: Reg) -> Option<(LocalBlockId, usize)> {
        match self.sites[r.0 as usize].as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

/// Why an instruction is statically proven SCEV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScevKind {
    /// Integer or float compare (category 1).
    Cmp,
    /// `r = r ± const` recurrence (category 2).
    SelfIncrement,
    /// Affine value in a canonical counted nest (category 3).
    Affine,
}

/// A canonical counted loop: unique induction variable with a constant
/// step, header-only exit testing the IV against an invariant bound, init
/// and bound static constants (directly or via a `runs_once`-constant
/// parameter chain). The only loop shape category 3 trusts.
#[derive(Debug, Clone)]
pub struct CountedLoop {
    /// The loop in the static forest.
    pub idx: LoopIdx,
    /// Header block.
    pub header: LocalBlockId,
    /// The induction variable register.
    pub iv: Reg,
    /// Constant step per iteration.
    pub step: i64,
    /// Every value the IV can ever hold — including the final out-of-range
    /// value observable after exit — when init and bound are numeric
    /// constants. Drives the base-pointer interval partition.
    pub range: Option<(i64, i64)>,
    /// The IV's initial value, when a numeric constant.
    pub init: Option<i64>,
    /// Exact body-execution count per loop entry, when init and bound are
    /// numeric constants. Unlike `range` this is not widened: it is the
    /// precise trip count the dependence test's iteration domain uses
    /// (`iv = init + step·k` for `0 ≤ k < trips`).
    pub trips: Option<u64>,
}

/// A same-block `store → load` pair through syntactically identical
/// base/offset operands with no intervening redefinition, store, or call:
/// whenever the block executes, the load *must* incur a flow dependence
/// from the store. The DDG lint checks each pair against the folded graph.
#[derive(Debug, Clone, Copy)]
pub struct MustFlow {
    /// The producing store.
    pub store: InstrRef,
    /// The consuming load.
    pub load: InstrRef,
}

/// Per-function results of the pre-pass.
#[derive(Debug)]
pub struct FuncDataflow {
    /// Dominator tree of the static CFG.
    pub dom: DomTree,
    /// Static loop forest (full CFG, not just executed edges).
    pub forest: LoopForest,
    /// Canonical counted loops, keyed by header block.
    pub counted: BTreeMap<LocalBlockId, CountedLoop>,
    /// Does this function execute at most once per program run?
    pub runs_once: bool,
    /// Statically-proven SCEV instructions with their proof category.
    pub scev: BTreeMap<InstrRef, ScevKind>,
}

/// Whole-program static summary: SCEV proofs, must-exist flow dependences,
/// and the base-pointer partition.
#[derive(Debug)]
pub struct StaticSummary {
    /// Per-function analyses, indexed by `FuncId`.
    pub funcs: Vec<FuncDataflow>,
    /// Same-block store→load pairs that must fold to flow dependences.
    pub must_flow: Vec<MustFlow>,
    /// Base-pointer partition id per access site. Sites absent from the map
    /// have statically-unknown address ranges (⊤) and are never claimed
    /// disjoint from anything.
    pub partitions: BTreeMap<InstrRef, u32>,
    /// Number of distinct partitions.
    pub n_partitions: u32,
}

impl StaticSummary {
    /// Run the pre-pass over a whole program.
    pub fn analyze(prog: &Program) -> StaticSummary {
        let forests: Vec<LoopForest> = prog.funcs.iter().map(LoopForest::from_function).collect();
        let runs_once = compute_runs_once(prog, &forests);
        let mut funcs = Vec::with_capacity(prog.funcs.len());
        let mut must_flow = Vec::new();
        let mut intervals: Vec<(InstrRef, i64, i64)> = Vec::new();
        for (fi, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let forest = forests[fi].clone();
            let dom = DomTree::build(f);
            let defs = ReachingDefs::build(f);
            let sym = classify_registers(f, &forest);
            let counted = find_counted_loops(f, &forest, &dom, &defs, &sym);
            let scev = prove_scevs(f, fid, &forest, &dom, &counted, &sym, runs_once[fi]);
            collect_must_flow(f, fid, &mut must_flow);
            collect_access_intervals(f, fid, &counted, &sym, &mut intervals);
            funcs.push(FuncDataflow {
                dom,
                forest,
                counted,
                runs_once: runs_once[fi],
                scev,
            });
        }
        let (partitions, n_partitions) = partition_intervals(intervals);
        StaticSummary {
            funcs,
            must_flow,
            partitions,
            n_partitions,
        }
    }

    /// Number of instructions statically proven SCEV.
    pub fn n_scev(&self) -> usize {
        self.funcs.iter().map(|f| f.scev.len()).sum()
    }

    /// Is this instruction statically proven SCEV?
    pub fn is_proven_scev(&self, i: InstrRef) -> bool {
        self.funcs[i.block.func.0 as usize].scev.contains_key(&i)
    }

    /// The proof category for an instruction, if proven.
    pub fn scev_kind(&self, i: InstrRef) -> Option<ScevKind> {
        self.funcs[i.block.func.0 as usize].scev.get(&i).copied()
    }
}

/// Which functions execute at most once per program run: the entry (when
/// nothing calls it), and functions with exactly one static call site that
/// sits outside every loop of a runs-once caller.
fn compute_runs_once(prog: &Program, forests: &[LoopForest]) -> Vec<bool> {
    let n = prog.funcs.len();
    let mut sites: Vec<Vec<(usize, LocalBlockId)>> = vec![Vec::new(); n];
    for (fi, f) in prog.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for ins in &b.instrs {
                if let Instr::Call { func, .. } = ins {
                    sites[func.0 as usize].push((fi, LocalBlockId(bi as u32)));
                }
            }
        }
    }
    let entry = prog.entry.map(|f| f.0 as usize);
    // Memoized DFS along the unique-caller chain; cycles (recursion) fail.
    let mut memo: Vec<Option<bool>> = vec![None; n];
    let mut visiting = vec![false; n];
    fn go(
        fi: usize,
        entry: Option<usize>,
        sites: &[Vec<(usize, LocalBlockId)>],
        forests: &[LoopForest],
        memo: &mut [Option<bool>],
        visiting: &mut [bool],
    ) -> bool {
        if let Some(v) = memo[fi] {
            return v;
        }
        if visiting[fi] {
            return false; // recursion
        }
        visiting[fi] = true;
        let v = if Some(fi) == entry {
            // The entry runs once as the entry; any call site could run it
            // again.
            sites[fi].is_empty()
        } else {
            match sites[fi].as_slice() {
                [] => true, // never called: zero runs
                [(caller, block)] => {
                    forests[*caller].innermost(*block).is_none()
                        && go(*caller, entry, sites, forests, memo, visiting)
                }
                _ => false,
            }
        };
        visiting[fi] = false;
        memo[fi] = Some(v);
        v
    }
    (0..n)
        .map(|fi| go(fi, entry, &sites, forests, &mut memo, &mut visiting))
        .collect()
}

/// The chain of loops enclosing `b`, innermost first.
pub(crate) fn loop_chain(forest: &LoopForest, b: LocalBlockId) -> Vec<LoopIdx> {
    let mut chain = Vec::new();
    let mut cur = forest.innermost(b);
    while let Some(l) = cur {
        chain.push(l);
        cur = forest.info(l).parent;
    }
    chain
}

/// Does `b` dominate every back-edge source of every loop in `chain`?
/// (The "no execution holes" condition: each completed iteration of each
/// enclosing loop passed through `b`.)
pub(crate) fn dominates_all_latches(
    dom: &DomTree,
    forest: &LoopForest,
    chain: &[LoopIdx],
    b: LocalBlockId,
) -> bool {
    chain.iter().all(|&l| {
        forest
            .info(l)
            .back_edges
            .iter()
            .all(|&(src, _)| dom.dominates(b, src))
    })
}

/// Recognize canonical counted loops (see [`CountedLoop`]).
fn find_counted_loops(
    f: &Function,
    forest: &LoopForest,
    dom: &DomTree,
    defs: &ReachingDefs,
    sym: &[Sym],
) -> BTreeMap<LocalBlockId, CountedLoop> {
    let mut counted = BTreeMap::new();
    for (li, l) in forest.loops.iter().enumerate() {
        let idx = LoopIdx(li as u32);
        let header = l.header;
        // Header-only exit: every non-header block stays inside the loop and
        // cannot leave the program (no Ret/Unreachable).
        let header_only_exits = l.blocks.iter().all(|&bid| {
            let term = &f.block(bid).term;
            if bid == header {
                matches!(term, Terminator::Br { .. })
            } else {
                match term {
                    Terminator::Jump(t) => l.blocks.contains(t),
                    Terminator::Br { then_, else_, .. } => {
                        l.blocks.contains(then_) && l.blocks.contains(else_)
                    }
                    Terminator::Ret(_) | Terminator::Unreachable => false,
                }
            }
        });
        if !header_only_exits {
            continue;
        }
        let Terminator::Br { cond, then_, else_ } = &f.block(header).term else {
            continue;
        };
        // Canonical polarity: true enters the body, false exits.
        if !l.blocks.contains(then_) || l.blocks.contains(else_) {
            continue;
        }
        let Operand::Reg(c) = cond else { continue };
        let Some((cb, ci)) = defs.unique(*c) else {
            continue;
        };
        if cb != header {
            continue;
        }
        let Instr::ICmp { op, a, b, .. } = &f.block(cb).instrs[ci] else {
            continue;
        };
        // One side is exactly an IV of this loop; the other is the bound.
        let is_loop_iv = |o: &Operand| match o {
            Operand::Reg(r) => matches!(&sym[r.0 as usize], Sym::Linear(m, 0)
                    if m.len() == 1 && m.get(&Base::Iv(header)) == Some(&1))
            .then_some(*r),
            _ => None,
        };
        let (iv, bound_op, iv_on_left) = match (is_loop_iv(a), is_loop_iv(b)) {
            (Some(r), None) => (r, b, true),
            (None, Some(r)) => (r, a, false),
            _ => continue,
        };
        // IV shape: exactly one self-increment (constant step, executing
        // exactly once per iteration) plus one init def whose value is fresh
        // on every entry to the loop.
        let iv_defs = &defs.sites[iv.0 as usize];
        let mut step: Option<(i64, LocalBlockId)> = None;
        let mut init: Option<(LocalBlockId, usize)> = None;
        let mut bad = false;
        for &(db, di) in iv_defs {
            let ins = &f.block(db).instrs[di];
            match ins {
                // Monotone increment: `iv = iv + imm` (either operand order)
                // or `iv = iv - imm` (iv on the left only — `imm - iv`
                // oscillates and is no induction).
                Instr::IOp {
                    dst,
                    op: op @ (IBinOp::Add | IBinOp::Sub),
                    a,
                    b,
                } if *dst == iv => {
                    let s = match (op, a, b) {
                        (IBinOp::Add, Operand::Reg(r), Operand::ImmI(v))
                        | (IBinOp::Add, Operand::ImmI(v), Operand::Reg(r))
                            if *r == iv =>
                        {
                            Some(*v)
                        }
                        (IBinOp::Sub, Operand::Reg(r), Operand::ImmI(v)) if *r == iv => {
                            v.checked_neg() // i64::MIN negation must reject, not wrap
                        }
                        _ => None,
                    };
                    match s {
                        Some(s) => {
                            if step.is_some() {
                                bad = true; // more than one increment site
                            }
                            step = Some((s, db));
                        }
                        None => bad = true,
                    }
                }
                Instr::Const { .. } | Instr::Move { .. } if init.is_none() => {
                    init = Some((db, di));
                }
                _ => bad = true,
            }
        }
        let (Some((step, step_block)), Some((init_block, init_idx))) = (step, init) else {
            continue;
        };
        if bad || step == 0 {
            continue;
        }
        // The increment belongs to this loop and runs exactly once per
        // iteration.
        if forest.innermost(step_block) != Some(idx)
            || !l
                .back_edges
                .iter()
                .all(|&(src, _)| dom.dominates(step_block, src))
        {
            continue;
        }
        // Step direction must agree with the exit test.
        let dir_ok = if iv_on_left {
            (step > 0 && matches!(op, CmpOp::Lt | CmpOp::Le))
                || (step < 0 && matches!(op, CmpOp::Gt | CmpOp::Ge))
        } else {
            (step > 0 && matches!(op, CmpOp::Gt | CmpOp::Ge))
                || (step < 0 && matches!(op, CmpOp::Lt | CmpOp::Le))
        };
        if !dir_ok {
            continue;
        }
        // Init freshness: the init def must dominate the header, sit outside
        // this loop in exactly the parent chain, and execute on every
        // enclosing iteration (no holes) — otherwise re-entry would start
        // the IV from its stale final value.
        let parent_chain: Vec<LoopIdx> = loop_chain(forest, header)
            .into_iter()
            .filter(|&x| x != idx)
            .collect();
        if !dom.dominates(init_block, header) {
            continue;
        }
        if loop_chain(forest, init_block) != parent_chain {
            continue;
        }
        if !dominates_all_latches(dom, forest, &parent_chain, init_block) {
            continue;
        }
        let init_sym = eval_instr(&f.block(init_block).instrs[init_idx], sym);
        if !matches!(init_sym, Sym::Const(_)) {
            continue;
        }
        // Bound invariance: an immediate, or a register with a unique
        // constant-valued def dominating the header.
        let bound_sym = match bound_op {
            Operand::ImmI(v) => Sym::Const(*v),
            Operand::Reg(rb) => {
                let Some((bb, _)) = defs.unique(*rb) else {
                    continue;
                };
                if !dom.dominates(bb, header) {
                    continue;
                }
                match &sym[rb.0 as usize] {
                    Sym::Const(v) => Sym::Const(*v),
                    _ => continue,
                }
            }
            Operand::ImmF(_) => continue,
        };
        // Widened IV value interval: all in-loop values plus the final
        // overshoot observable after exit. All arithmetic is checked: a
        // bound near i64::MAX (or a step of i64::MIN) must degrade to an
        // unknown range — which keeps the site out of the base-pointer
        // partition — never wrap into a bogus interval.
        let range = match (&init_sym, &bound_sym) {
            (Sym::Const(i0), Sym::Const(bv)) => {
                let slack = match op {
                    CmpOp::Lt | CmpOp::Gt => step.checked_abs().map(|a| a - 1),
                    CmpOp::Le | CmpOp::Ge => step.checked_abs(),
                    _ => unreachable!("dir_ok filtered"),
                };
                slack.and_then(|slack| {
                    if step > 0 {
                        bv.checked_add(slack).map(|hi| (*i0, hi.max(*i0)))
                    } else {
                        bv.checked_sub(slack).map(|lo| (lo.min(*i0), *i0))
                    }
                })
            }
            _ => None,
        };
        // Exact trip count (body executions per loop entry). Mirror the
        // comparison so the IV reads on the left, then count in `i128` —
        // every i64 init/bound/step combination fits without overflow; only
        // a count exceeding `u64` (impossible here) would yield `None`.
        let init_val = match &init_sym {
            Sym::Const(i0) => Some(*i0),
            _ => None,
        };
        let trips = match (&init_sym, &bound_sym) {
            (Sym::Const(i0), Sym::Const(bv)) => {
                let cop = if iv_on_left {
                    *op
                } else {
                    match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        _ => unreachable!("dir_ok filtered"),
                    }
                };
                let (i0, bv, s) = (*i0 as i128, *bv as i128, step as i128);
                let n = match cop {
                    CmpOp::Lt => {
                        if i0 < bv {
                            (bv - 1 - i0) / s + 1
                        } else {
                            0
                        }
                    }
                    CmpOp::Le => {
                        if i0 <= bv {
                            (bv - i0) / s + 1
                        } else {
                            0
                        }
                    }
                    CmpOp::Gt => {
                        if i0 > bv {
                            (i0 - bv - 1) / (-s) + 1
                        } else {
                            0
                        }
                    }
                    CmpOp::Ge => {
                        if i0 >= bv {
                            (i0 - bv) / (-s) + 1
                        } else {
                            0
                        }
                    }
                    _ => unreachable!("dir_ok filtered"),
                };
                u64::try_from(n).ok()
            }
            _ => None,
        };
        counted.insert(
            header,
            CountedLoop {
                idx,
                header,
                iv,
                step,
                range,
                init: init_val,
                trips,
            },
        );
    }
    counted
}

/// Category-3 value check: the produced value is affine over the IVs of the
/// (all-counted) enclosing chain, plus constants.
fn affine_over_chain(v: &Sym, chain_headers: &BTreeSet<LocalBlockId>) -> bool {
    match v {
        Sym::Const(_) => true,
        Sym::Linear(m, _) => m.keys().all(|b| match b {
            Base::Iv(h) => chain_headers.contains(h),
            Base::Param(_) => false,
        }),
        _ => false,
    }
}

/// Prove SCEV membership per instruction (the three categories).
fn prove_scevs(
    f: &Function,
    fid: FuncId,
    forest: &LoopForest,
    dom: &DomTree,
    counted: &BTreeMap<LocalBlockId, CountedLoop>,
    sym: &[Sym],
    runs_once: bool,
) -> BTreeMap<InstrRef, ScevKind> {
    let mut out = BTreeMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let bid = LocalBlockId(bi as u32);
        let chain = loop_chain(forest, bid);
        // Category-3 preconditions shared by all instructions of the block.
        let block_exact = runs_once
            && dom.reachable(bid)
            && chain
                .iter()
                .all(|&l| counted.contains_key(&forest.info(l).header))
            && dominates_all_latches(dom, forest, &chain, bid);
        let chain_headers: BTreeSet<LocalBlockId> =
            chain.iter().map(|&l| forest.info(l).header).collect();
        for (ii, ins) in b.instrs.iter().enumerate() {
            let iref = InstrRef {
                block: BlockRef::new(fid, bid.0),
                idx: ii as u32,
            };
            // Category 1: compares (mirrors `is_cmp` in the folder).
            if matches!(ins, Instr::ICmp { .. } | Instr::FCmp { .. }) {
                out.insert(iref, ScevKind::Cmp);
                continue;
            }
            // Category 2: self-increments (mirrors `is_self_increment`).
            let self_inc = matches!(
                ins,
                Instr::IOp {
                    dst,
                    op: IBinOp::Add | IBinOp::Sub,
                    a,
                    b,
                } if (*a == Operand::Reg(*dst) && matches!(b, Operand::ImmI(_)))
                    || (*b == Operand::Reg(*dst) && matches!(a, Operand::ImmI(_)))
            );
            if self_inc {
                out.insert(iref, ScevKind::SelfIncrement);
                continue;
            }
            // Category 3: affine integer value, exact domain.
            if !block_exact {
                continue;
            }
            let value = match ins {
                Instr::Const {
                    value: Value::I64(_),
                    ..
                } => eval_instr(ins, sym),
                Instr::Move { src, .. } => eval_operand(src, sym),
                Instr::IOp { .. } => eval_instr(ins, sym),
                _ => continue,
            };
            if affine_over_chain(&value, &chain_headers) {
                out.insert(iref, ScevKind::Affine);
            }
        }
    }
    out
}

/// Same-block must-flow pairs: track the latest store with a statically
/// identifiable address key (its syntactic base/offset operands); a later
/// load through the *same operands* with no intervening store, call, or
/// redefinition of the operand registers must read the stored value.
fn collect_must_flow(f: &Function, fid: FuncId, out: &mut Vec<MustFlow>) {
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut last: Option<(Operand, Operand, usize)> = None;
        for (ii, ins) in b.instrs.iter().enumerate() {
            match ins {
                Instr::Store { base, offset, .. } => {
                    last = Some((*base, *offset, ii));
                }
                Instr::Call { .. } => last = None,
                Instr::Load { base, offset, .. } => {
                    if let Some((b0, o0, si)) = &last {
                        if b0 == base && o0 == offset {
                            out.push(MustFlow {
                                store: InstrRef {
                                    block: BlockRef::new(fid, bi as u32),
                                    idx: *si as u32,
                                },
                                load: InstrRef {
                                    block: BlockRef::new(fid, bi as u32),
                                    idx: ii as u32,
                                },
                            });
                        }
                    }
                }
                _ => {}
            }
            if let (Some(d), Some((b0, o0, _))) = (ins.def(), &last) {
                let touches = |o: &Operand| matches!(o, Operand::Reg(r) if *r == d);
                if touches(b0) || touches(o0) {
                    last = None;
                }
            }
        }
    }
}

/// Collect conservative `[lo, hi]` address intervals for access sites with
/// a constant base and an affine offset over constant-range counted IVs.
fn collect_access_intervals(
    f: &Function,
    fid: FuncId,
    counted: &BTreeMap<LocalBlockId, CountedLoop>,
    sym: &[Sym],
    out: &mut Vec<(InstrRef, i64, i64)>,
) {
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, ins) in b.instrs.iter().enumerate() {
            let (base, offset) = match ins {
                Instr::Load { base, offset, .. } | Instr::Store { base, offset, .. } => {
                    (base, offset)
                }
                _ => continue,
            };
            let Sym::Const(base_addr) = eval_operand(base, sym) else {
                continue;
            };
            let interval = match eval_operand(offset, sym) {
                Sym::Const(c) => Some((c, c)),
                Sym::Linear(m, c) => {
                    let mut lo = c as i128;
                    let mut hi = c as i128;
                    let mut ok = true;
                    for (bse, &coeff) in &m {
                        let Base::Iv(h) = bse else {
                            ok = false;
                            break;
                        };
                        let Some(cl) = counted.get(h) else {
                            ok = false;
                            break;
                        };
                        let Some((l, u)) = cl.range else {
                            ok = false;
                            break;
                        };
                        let (a, bb) = (coeff as i128 * l as i128, coeff as i128 * u as i128);
                        lo += a.min(bb);
                        hi += a.max(bb);
                    }
                    ok.then_some((lo, hi)).and_then(|(lo, hi)| {
                        Some((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?))
                    })
                }
                _ => None,
            };
            if let Some((lo, hi)) = interval {
                let (Some(alo), Some(ahi)) = (base_addr.checked_add(lo), base_addr.checked_add(hi))
                else {
                    continue;
                };
                out.push((
                    InstrRef {
                        block: BlockRef::new(fid, bi as u32),
                        idx: ii as u32,
                    },
                    alo,
                    ahi,
                ));
            }
        }
    }
}

/// Sweep-line connected components of interval overlap: sites whose
/// intervals can never intersect land in different partitions, so no memory
/// dependence can ever connect them.
fn partition_intervals(mut intervals: Vec<(InstrRef, i64, i64)>) -> (BTreeMap<InstrRef, u32>, u32) {
    intervals.sort_by_key(|&(_, lo, hi)| (lo, hi));
    let mut parts = BTreeMap::new();
    let mut next_part = 0u32;
    let mut cur_hi = i64::MIN;
    for (site, lo, hi) in intervals {
        if parts.is_empty() || lo > cur_hi {
            next_part += 1;
        }
        parts.insert(site, next_part - 1);
        cur_hi = cur_hi.max(hi);
    }
    (parts, next_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;

    /// `main { for i in 0..8 { store a[i] = i; load a[i] } }`
    fn simple_kernel() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let v = f.add(i, 0i64);
            f.store(a as i64, i, v);
            f.load(a as i64, i);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        pb.finish()
    }

    #[test]
    fn dom_tree_basics() {
        let p = simple_kernel();
        let f = p.func(FuncId(0));
        let dom = DomTree::build(f);
        let entry = f.entry();
        for b in 0..f.blocks.len() as u32 {
            assert!(dom.dominates(entry, LocalBlockId(b)), "entry dominates {b}");
        }
        // The loop header dominates body and latch but not vice versa.
        let forest = LoopForest::from_function(f);
        let l = &forest.loops[0];
        let body = *l
            .blocks
            .iter()
            .find(|b| **b != l.header)
            .expect("loop has a body");
        assert!(dom.dominates(l.header, body));
        assert!(!dom.dominates(body, l.header));
    }

    #[test]
    fn counted_loop_recognized_with_widened_range() {
        let p = simple_kernel();
        let s = StaticSummary::analyze(&p);
        let fd = &s.funcs[0];
        assert!(fd.runs_once);
        assert_eq!(fd.counted.len(), 1, "one counted loop");
        let cl = fd.counted.values().next().unwrap();
        assert_eq!(cl.step, 1);
        // 0..8 stepping 1, Lt: values 0..=7 in-loop plus the final 8.
        assert_eq!(cl.range, Some((0, 8)));
    }

    #[test]
    fn scev_categories_cover_loop_bookkeeping() {
        let p = simple_kernel();
        let s = StaticSummary::analyze(&p);
        let fd = &s.funcs[0];
        let kinds: Vec<ScevKind> = fd.scev.values().copied().collect();
        assert!(kinds.contains(&ScevKind::Cmp), "header compare proven");
        assert!(
            kinds.contains(&ScevKind::SelfIncrement),
            "latch increment proven"
        );
        assert!(
            kinds.contains(&ScevKind::Affine),
            "affine body value proven: {:?}",
            fd.scev
        );
        assert_eq!(s.n_scev(), fd.scev.len());
    }

    #[test]
    fn must_flow_found_for_same_operands_only() {
        let p = simple_kernel();
        let s = StaticSummary::analyze(&p);
        assert_eq!(s.must_flow.len(), 1, "store a[i] → load a[i]");
        let mf = s.must_flow[0];
        assert_eq!(mf.store.block, mf.load.block);
        assert!(mf.store.idx < mf.load.idx);
    }

    #[test]
    fn disjoint_arrays_get_distinct_partitions() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(16);
        let b = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let v = f.load(a as i64, i);
            f.store(b as i64, i, v);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let s = StaticSummary::analyze(&p);
        assert_eq!(s.n_partitions, 2, "{:?}", s.partitions);
        let parts: BTreeSet<u32> = s.partitions.values().copied().collect();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn call_in_loop_blocks_runs_once_and_category3() {
        let mut pb = ProgramBuilder::new("t");
        let mut g = pb.func("g", 0);
        let c = g.const_i(7);
        g.ret(Some(Operand::Reg(c)));
        let gid = g.finish();
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 4i64, 1, |f, _| {
            f.call(gid, &[]);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let s = StaticSummary::analyze(&p);
        let g_idx = p.func_by_name("g").unwrap().0 as usize;
        assert!(
            !s.funcs[g_idx].runs_once,
            "callee inside a loop runs many times"
        );
        // g's Const is not provable (not runs-once), but main's loop
        // bookkeeping still is.
        assert!(!s.funcs[g_idx].scev.values().any(|k| *k == ScevKind::Affine));
        assert!(s.funcs[fid.0 as usize]
            .scev
            .values()
            .any(|k| *k == ScevKind::SelfIncrement));
    }

    #[test]
    fn data_dependent_bound_is_not_counted() {
        let mut pb = ProgramBuilder::new("t");
        let nb = pb.array_i64(&[8]);
        let mut f = pb.func("main", 0);
        let n = f.load(nb as i64, 0i64);
        f.for_loop("L", 0i64, n, 1, |f, i| {
            f.add(i, 1i64);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let s = StaticSummary::analyze(&p);
        assert!(
            s.funcs[0].counted.is_empty(),
            "loaded bound rejects counting"
        );
        // Compares/self-increments are still proven (they are unconditional
        // dynamically), and straight-line constants outside the loop are too
        // — but nothing *inside* the non-counted loop can be proven Affine.
        for (iref, kind) in &s.funcs[0].scev {
            if *kind == ScevKind::Affine {
                assert!(
                    s.funcs[0].forest.innermost(iref.block.block).is_none(),
                    "Affine proof {iref:?} inside a non-counted loop"
                );
            }
        }
    }

    #[test]
    fn trips_and_init_are_exact() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        f.for_loop("A", 0i64, 8i64, 1, |f, i| {
            f.add(i, 0i64);
        });
        // i ∈ {2, 5, 8}: a non-unit step with a non-dividing bound.
        f.for_loop("B", 2i64, 9i64, 3, |f, i| {
            f.add(i, 0i64);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let s = StaticSummary::analyze(&p);
        let by_trips: Vec<(Option<i64>, Option<u64>)> = s.funcs[0]
            .counted
            .values()
            .map(|cl| (cl.init, cl.trips))
            .collect();
        assert!(by_trips.contains(&(Some(0), Some(8))), "{by_trips:?}");
        assert!(by_trips.contains(&(Some(2), Some(3))), "{by_trips:?}");
    }

    #[test]
    fn downward_loop_trips_exact() {
        // iv = 10; while iv > 0 { ... iv -= 3 }  →  iv ∈ {10, 7, 4, 1}.
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let iv = f.mov(10i64);
        let header = f.block("header");
        let body = f.block("body");
        let latch = f.block("latch");
        let exit = f.block("exit");
        f.jump(header);
        f.switch_to(header);
        let c = f.icmp(CmpOp::Gt, iv, 0i64);
        f.br(c, body, exit);
        f.switch_to(body);
        f.add(iv, 0i64);
        f.jump(latch);
        f.switch_to(latch);
        f.iop_to(iv, IBinOp::Sub, iv, 3i64);
        f.jump(header);
        f.switch_to(exit);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let s = StaticSummary::analyze(&p);
        let cl = s.funcs[0].counted.values().next().expect("counted");
        assert_eq!(cl.step, -3);
        assert_eq!(cl.init, Some(10));
        assert_eq!(cl.trips, Some(4));
        // Widened range: final overshoot 1 − 3 = −2.
        assert_eq!(cl.range, Some((-2, 10)));
    }

    #[test]
    fn non_constant_step_is_not_counted() {
        let mut pb = ProgramBuilder::new("t");
        let sb = pb.array_i64(&[1]);
        let mut f = pb.func("main", 0);
        let s = f.load(sb as i64, 0i64);
        let iv = f.mov(0i64);
        let header = f.block("header");
        let body = f.block("body");
        let latch = f.block("latch");
        let exit = f.block("exit");
        f.jump(header);
        f.switch_to(header);
        let c = f.icmp(CmpOp::Lt, iv, 8i64);
        f.br(c, body, exit);
        f.switch_to(body);
        f.jump(latch);
        f.switch_to(latch);
        f.iop_to(iv, IBinOp::Add, iv, s); // register step: no induction
        f.jump(header);
        f.switch_to(exit);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let sm = StaticSummary::analyze(&p);
        assert!(sm.funcs[0].counted.is_empty(), "{:?}", sm.funcs[0].counted);
    }

    #[test]
    fn iv_redefined_in_body_is_not_counted() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            f.mov_to(i, 3i64); // stray IV def inside the body
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let sm = StaticSummary::analyze(&p);
        assert!(sm.funcs[0].counted.is_empty(), "{:?}", sm.funcs[0].counted);
    }

    #[test]
    fn latch_not_reached_by_increment_is_not_counted() {
        // Two back edges; the increment sits on only one of them, so the IV
        // does not advance every iteration.
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let iv = f.mov(0i64);
        let header = f.block("header");
        let body = f.block("body");
        let latch1 = f.block("latch1");
        let latch2 = f.block("latch2");
        let exit = f.block("exit");
        f.jump(header);
        f.switch_to(header);
        let c = f.icmp(CmpOp::Lt, iv, 8i64);
        f.br(c, body, exit);
        f.switch_to(body);
        let c2 = f.icmp(CmpOp::Lt, iv, 4i64);
        f.br(c2, latch1, latch2);
        f.switch_to(latch1);
        f.iop_to(iv, IBinOp::Add, iv, 1i64);
        f.jump(header);
        f.switch_to(latch2);
        f.jump(header);
        f.switch_to(exit);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let sm = StaticSummary::analyze(&p);
        assert!(sm.funcs[0].counted.is_empty(), "{:?}", sm.funcs[0].counted);
    }

    #[test]
    fn near_max_bound_degrades_range_without_wrapping() {
        // iv = 0; while iv <= i64::MAX { iv += 1 }: the widened range would
        // need MAX + 1 and must degrade to unknown instead of wrapping.
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let iv = f.mov(0i64);
        let header = f.block("header");
        let body = f.block("body");
        let latch = f.block("latch");
        let exit = f.block("exit");
        f.jump(header);
        f.switch_to(header);
        let c = f.icmp(CmpOp::Le, iv, i64::MAX);
        f.br(c, body, exit);
        f.switch_to(body);
        f.jump(latch);
        f.switch_to(latch);
        f.iop_to(iv, IBinOp::Add, iv, 1i64);
        f.jump(header);
        f.switch_to(exit);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let sm = StaticSummary::analyze(&p);
        let cl = sm.funcs[0].counted.values().next().expect("still counted");
        assert_eq!(cl.range, None, "overflow-adjacent bound must not wrap");
        // The trip count itself fits exactly (2^63 iterations).
        assert_eq!(cl.trips, Some(1u64 << 63));
    }
}
