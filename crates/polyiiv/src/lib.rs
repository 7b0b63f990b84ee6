//! # polyiiv — dynamic interprocedural iteration vectors (paper §4)
//!
//! The dynamic IIV unifies Kelly's mapping (intraprocedural schedule trees)
//! with calling-context paths: it alternates *context* entries (a stack of
//! call-sites topped by the current loop/block) with *canonical induction
//! variables* that start at 0 and increment by 1 — including for recursive
//! loops, whose IV advances on both calls *to* and returns *from* component
//! headers so the indexing stays lexicographically increasing (the paper's
//! Fig. 3 Ex. 2, steps 10–21).
//!
//! Modules:
//! * [`IivTracker`] — the online Alg. 3 update driven by `polycfg` loop
//!   events;
//! * [`context`] — interning of (context-path, instruction) pairs into dense
//!   statement ids, splitting the IIV into the non-numeric *context* and the
//!   numeric *coordinates* that feed the folding stage;
//! * [`schedule_tree`] — the dynamic schedule tree and its flame-graph
//!   rendering (paper Figs. 3e/3j, 5, 7);
//! * [`cct`] — a classic calling-context tree for comparison (Fig. 3h);
//! * [`kelly`] — static Kelly mapping / iteration vectors (Fig. 4).

pub mod cct;
pub mod context;
pub mod kelly;
pub mod schedule_tree;

use polycfg::{LoopEvent, LoopRef};
use polyir::BlockRef;

/// One element of a context stack: a call-site/block or a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CtxElem {
    /// A basic block (call site or current block).
    Block(BlockRef),
    /// A loop (CFG loop or recursive component).
    Loop(LoopRef),
}

/// One dimension of a dynamic IIV: a context stack plus a canonical IV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dim {
    /// Canonical induction variable (starts at 0, increments by 1).
    pub iv: i64,
    /// Context stack: call-sites topped by the current loop or block.
    pub ctx: Vec<CtxElem>,
}

/// Online maintainer of the dynamic IIV — Algorithm 3 of the paper.
///
/// `dims` is ordered outermost → innermost; `version` increments whenever
/// the *context* part changes (used by [`context::ContextInterner`] to cache
/// statement-context lookups between context changes).
///
/// The context part is also a state machine. [`apply`](Self::apply) moves
/// the context stacks as a pure function of (stacks, event), so the tracker
/// numbers the distinct stacks it has reached — *states*, assigned by
/// content, so two histories that reach the same stacks share one — and
/// memoises `(state, event) → state` in a short per-state successor list.
/// Only a transition taken for the first time hashes the stacks; the
/// interner then maps [`state`](Self::state) to its path id by index. The
/// tables are bounded by the program's control structure (distinct contexts
/// × successors of a block), never by trip counts.
#[derive(Debug)]
pub struct IivTracker {
    dims: Vec<Dim>,
    version: u64,
    /// Process-unique identity of this tracker's state numbering.
    id: u64,
    /// The state the context stacks are in now.
    state: u32,
    /// Context stacks of every state reached so far, by content.
    states: context::PathTable,
    /// Memoised transitions out of each state, scanned linearly: a block has
    /// a handful of successors.
    succ: Vec<Vec<(LoopEvent, u32)>>,
    memo_misses: u64,
    /// Context vectors of closed dimensions, reused by the next dimension
    /// opened, so that entering a loop allocates nothing in steady state.
    spare_ctx: Vec<Vec<CtxElem>>,
}

impl IivTracker {
    /// Start tracking at the program entry block.
    pub fn new(entry: BlockRef) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Identity only (nothing is published through it): `Relaxed`.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let dims = vec![Dim {
            iv: 0,
            ctx: vec![CtxElem::Block(entry)],
        }];
        let mut states = context::PathTable::default();
        let state = states.intern(&dims);
        IivTracker {
            dims,
            version: 0,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            state,
            states,
            succ: vec![Vec::new()],
            memo_misses: 0,
            spare_ctx: Vec::new(),
        }
    }

    /// `(tracker identity, state)`: the state numbers the current context
    /// stacks among those this tracker has reached; numbers of different
    /// trackers are unrelated, which the identity tells apart.
    pub fn state(&self) -> (u64, u32) {
        (self.id, self.state)
    }

    /// Transitions that were not in the memo and interned the stacks by
    /// content — the only hashing [`apply`](Self::apply) ever does.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Current dimensions, outermost first.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Numeric part of the IIV (the coordinates), outermost first.
    pub fn coords(&self) -> Vec<i64> {
        self.dims.iter().map(|d| d.iv).collect()
    }

    /// Fill `out` with the coordinates without allocating.
    pub fn coords_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend(self.dims.iter().map(|d| d.iv));
    }

    /// Monotone counter bumped on every context change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current loop depth (number of dimensions, including the root).
    pub fn depth(&self) -> usize {
        self.dims.len()
    }

    fn innermost(&mut self) -> &mut Dim {
        self.dims
            .last_mut()
            .expect("IIV always has a root dimension")
    }

    /// Open an innermost dimension whose context starts at `block`.
    fn open_dim(&mut self, block: BlockRef) {
        let mut ctx = self.spare_ctx.pop().unwrap_or_default();
        ctx.push(CtxElem::Block(block));
        self.dims.push(Dim { iv: 0, ctx });
    }

    /// Close the innermost dimension, keeping its context vector.
    fn close_dim(&mut self) {
        let mut closed = self.dims.pop().expect("IIV always has a root dimension");
        assert!(!self.dims.is_empty(), "exited the root dimension");
        closed.ctx.clear();
        self.spare_ctx.push(closed.ctx);
    }

    fn set_ctx_last(&mut self, e: CtxElem) {
        let dim = self.innermost();
        if dim.ctx.last() == Some(&e) {
            return; // common idempotent N(B) after E/I/X
        }
        *dim.ctx.last_mut().expect("non-empty context") = e;
        self.version += 1;
    }

    /// Apply one loop event (Alg. 3).
    pub fn apply(&mut self, ev: &LoopEvent) {
        let before = self.version;
        self.move_stacks(ev);
        if self.version == before {
            // Every stack change bumps the version: same stacks, same state.
            return;
        }
        let known = &self.succ[self.state as usize];
        if let Some(&(_, next)) = known.iter().find(|(e, _)| e == ev) {
            self.state = next;
            return;
        }
        self.memo_misses += 1;
        let next = self.states.intern(&self.dims);
        if next as usize == self.succ.len() {
            self.succ.push(Vec::new());
        }
        self.succ[self.state as usize].push((*ev, next));
        self.state = next;
    }

    fn move_stacks(&mut self, ev: &LoopEvent) {
        match *ev {
            // C(B): push the callee entry block onto the innermost context.
            LoopEvent::Call { block, .. } => {
                self.innermost().ctx.push(CtxElem::Block(block));
                self.version += 1;
            }
            // Ec(L,B): push the recursive loop, then open a new dimension.
            LoopEvent::EnterRec { l, block } => {
                self.innermost().ctx.push(CtxElem::Loop(l));
                self.open_dim(block);
                self.version += 1;
            }
            // E(L,H): replace the current block with the loop id, then open
            // a new dimension whose context starts at the header.
            LoopEvent::Enter { l, block } => {
                self.set_ctx_last(CtxElem::Loop(l));
                self.open_dim(block);
                self.version += 1;
            }
            // X(L,B): close the dimension; execution continues at B. The
            // matching E replaced the context top in place, so X replaces it
            // back.
            LoopEvent::Exit { block, .. } => {
                self.close_dim();
                self.version += 1;
                self.set_ctx_last(CtxElem::Block(block));
            }
            // Xr(L,B): the matching Ec *pushed* the loop onto the context
            // (the entering call grew the stack), so Xr pops it — the final
            // return unwinds that call — before restoring the block.
            LoopEvent::ExitRec { block, .. } => {
                self.close_dim();
                let dim = self.innermost();
                dim.ctx.pop();
                assert!(!dim.ctx.is_empty(), "recursive exit past the root context");
                self.version += 1;
                self.set_ctx_last(CtxElem::Block(block));
            }
            // I/Ic/Ir(L,B): advance the canonical IV.
            LoopEvent::Iter { block, .. }
            | LoopEvent::IterCall { block, .. }
            | LoopEvent::IterRet { block, .. } => {
                self.innermost().iv += 1;
                self.set_ctx_last(CtxElem::Block(block));
            }
            // R(B): pop the call-site, back to the caller block.
            LoopEvent::Ret(block) => {
                let dim = self.innermost();
                dim.ctx.pop();
                assert!(!dim.ctx.is_empty(), "returned past the root context");
                self.version += 1;
                self.set_ctx_last(CtxElem::Block(block));
            }
            // N(B): plain block transition.
            LoopEvent::Block(block) => {
                self.set_ctx_last(CtxElem::Block(block));
            }
        }
    }

    /// Render in the paper's notation, e.g. `(M0/L1, 0, A1/L2, 1, B1)`,
    /// using a caller-provided naming function for context elements.
    pub fn display_with(&self, name: &dyn Fn(&CtxElem) -> String) -> String {
        let mut s = String::from("(");
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
                s.push_str(&d.iv.to_string());
                s.push_str(", ");
            }
            s.push_str(&d.ctx.iter().map(name).collect::<Vec<_>>().join("/"));
        }
        s.push(')');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycfg::{LoopIdx, RecCompIdx};
    use polyir::{FuncId, LocalBlockId};

    fn blk(f: u32, b: u32) -> BlockRef {
        BlockRef {
            func: FuncId(f),
            block: LocalBlockId(b),
        }
    }
    fn cfg_loop(f: u32, l: u32) -> LoopRef {
        LoopRef::Cfg(FuncId(f), LoopIdx(l))
    }

    fn namer(e: &CtxElem) -> String {
        match e {
            CtxElem::Block(b) => format!("B{}_{}", b.func.0, b.block.0),
            CtxElem::Loop(LoopRef::Cfg(f, l)) => format!("L{}_{}", f.0, l.0),
            CtxElem::Loop(LoopRef::Rec(c)) => format!("R{}", c.0),
        }
    }

    /// Mirrors the paper's Fig. 3d (Ex. 1) shape: main calls A; A's loop L1
    /// calls B; B's loop L2 iterates.
    #[test]
    fn example1_iiv_shapes() {
        let mut t = IivTracker::new(blk(0, 0)); // (M0)
        assert_eq!(t.coords(), vec![0]);

        // C(A0): call into A
        t.apply(&LoopEvent::Call {
            callee: FuncId(1),
            block: blk(1, 0),
        });
        assert_eq!(t.dims()[0].ctx.len(), 2); // M0/A0

        // E(L1, A1): enter A's loop
        t.apply(&LoopEvent::Enter {
            l: cfg_loop(1, 0),
            block: blk(1, 1),
        });
        assert_eq!(t.depth(), 2);
        assert_eq!(t.coords(), vec![0, 0]);

        // C(B0): call into B from inside the loop
        t.apply(&LoopEvent::Call {
            callee: FuncId(2),
            block: blk(2, 0),
        });
        // E(L2, B1): B's loop
        t.apply(&LoopEvent::Enter {
            l: cfg_loop(2, 0),
            block: blk(2, 1),
        });
        assert_eq!(t.depth(), 3);
        assert_eq!(t.coords(), vec![0, 0, 0]);

        // I(L2, B1): iterate inner loop
        t.apply(&LoopEvent::Iter {
            l: cfg_loop(2, 0),
            block: blk(2, 1),
        });
        assert_eq!(t.coords(), vec![0, 0, 1]);

        // X(L2, B3): exit inner loop
        t.apply(&LoopEvent::Exit {
            l: cfg_loop(2, 0),
            block: blk(2, 3),
        });
        assert_eq!(t.depth(), 2);

        // R(A1): return to A
        t.apply(&LoopEvent::Ret(blk(1, 1)));
        // I(L1, A1): outer loop iterates
        t.apply(&LoopEvent::Iter {
            l: cfg_loop(1, 0),
            block: blk(1, 1),
        });
        assert_eq!(t.coords(), vec![0, 1]);
        let s = t.display_with(&namer);
        assert_eq!(s, "(B0_0/L1_0, 1, B1_1)");
    }

    /// Mirrors Fig. 3i (Ex. 2): recursion folds to one dimension whose IV
    /// advances on recursive calls AND returns.
    #[test]
    fn example2_recursion_folds() {
        let rec = LoopRef::Rec(RecCompIdx(0));
        let mut t = IivTracker::new(blk(0, 0)); // (M1)

        // Ec(L1, B0): first call to the component entry
        t.apply(&LoopEvent::EnterRec {
            l: rec,
            block: blk(1, 0),
        });
        assert_eq!(t.depth(), 2);
        assert_eq!(t.coords(), vec![0, 0]);
        // ctx of outer dim = M/L1
        assert_eq!(t.dims()[0].ctx.len(), 2);

        // N(B1), C(C0), R(B2): helper call inside the recursion
        t.apply(&LoopEvent::Block(blk(1, 1)));
        t.apply(&LoopEvent::Call {
            callee: FuncId(2),
            block: blk(2, 0),
        });
        assert_eq!(t.dims()[1].ctx.len(), 2); // B1/C0
        t.apply(&LoopEvent::Ret(blk(1, 2)));
        assert_eq!(t.dims()[1].ctx.len(), 1); // B2

        // Ic(L1, B0): recursive call — same depth, IV advances.
        t.apply(&LoopEvent::IterCall {
            l: rec,
            block: blk(1, 0),
        });
        assert_eq!(t.depth(), 2);
        assert_eq!(t.coords(), vec![0, 1]);

        // Ic again (deeper recursion): IV keeps increasing.
        t.apply(&LoopEvent::IterCall {
            l: rec,
            block: blk(1, 0),
        });
        assert_eq!(t.coords(), vec![0, 2]);

        // Ir on inner returns: IV still increases (paper steps 20–21).
        t.apply(&LoopEvent::IterRet {
            l: rec,
            block: blk(1, 5),
        });
        assert_eq!(t.coords(), vec![0, 3]);
        t.apply(&LoopEvent::IterRet {
            l: rec,
            block: blk(1, 5),
        });
        assert_eq!(t.coords(), vec![0, 4]);

        // Xr: loop exits; back to (M2).
        t.apply(&LoopEvent::ExitRec {
            l: rec,
            block: blk(0, 2),
        });
        assert_eq!(t.depth(), 1);
        assert_eq!(t.coords(), vec![0]);
        assert_eq!(t.display_with(&namer), "(B0_2)");
    }

    #[test]
    fn version_changes_only_on_context_changes() {
        let mut t = IivTracker::new(blk(0, 0));
        let v0 = t.version();
        // Same-block N is idempotent.
        t.apply(&LoopEvent::Block(blk(0, 0)));
        assert_eq!(t.version(), v0);
        t.apply(&LoopEvent::Block(blk(0, 1)));
        assert!(t.version() > v0);
    }

    #[test]
    fn iterate_keeps_depth() {
        let mut t = IivTracker::new(blk(0, 0));
        t.apply(&LoopEvent::Enter {
            l: cfg_loop(0, 0),
            block: blk(0, 1),
        });
        for i in 1..100 {
            t.apply(&LoopEvent::Iter {
                l: cfg_loop(0, 0),
                block: blk(0, 1),
            });
            assert_eq!(t.coords(), vec![0, i]);
        }
        assert_eq!(t.depth(), 2);
    }

    /// Dynamic IIVs are lexicographically non-decreasing along a trace of
    /// the same loop's events (the property the paper needs for folding).
    #[test]
    fn lexicographic_monotonicity_within_loop() {
        let mut t = IivTracker::new(blk(0, 0));
        t.apply(&LoopEvent::Enter {
            l: cfg_loop(0, 0),
            block: blk(0, 1),
        });
        let mut prev = t.coords();
        for _ in 0..10 {
            t.apply(&LoopEvent::Iter {
                l: cfg_loop(0, 0),
                block: blk(0, 1),
            });
            let cur = t.coords();
            assert!(cur > prev, "{cur:?} must be lex-greater than {prev:?}");
            prev = cur;
        }
    }
}
