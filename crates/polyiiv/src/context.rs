//! Context interning: splitting the dynamic IIV into its non-numeric
//! *context* part and numeric *coordinates* (paper §5, "Folding interface").
//!
//! Folding operates per context, so every dynamic instruction must be mapped
//! to a dense *statement id* keyed by (context path, static instruction).
//! Context paths change only on loop events, so lookups are cached against
//! [`IivTracker::version`]: an instruction in an unchanged context costs one
//! compare. When the version moved, the tracker's
//! [`state`](IivTracker::state) indexes a dense state → path vector; the
//! stacks are hashed by content only the first time a state is seen, so a
//! loop pays for a context the first time round and never again.

use crate::{CtxElem, Dim, IivTracker};
use polyir::InstrRef;
use std::collections::HashMap;

/// Dense id of an interned context path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxPathId(pub u32);

/// Dense id of a *statement*: one static instruction in one context path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Everything known about one statement.
#[derive(Debug, Clone)]
pub struct StmtInfo {
    /// The context path the statement executes under.
    pub path: CtxPathId,
    /// The static instruction.
    pub instr: InstrRef,
    /// Number of IIV dimensions (coordinates) for this statement.
    pub depth: usize,
}

/// Context paths (one context stack per IIV dimension) addressed by content,
/// numbered in first-seen order. The one place a path is hashed: the
/// interner's slow path, [`ContextInterner::from_parts`] and the tracker's
/// state numbering all come through here.
#[derive(Debug, Default)]
pub(crate) struct PathTable {
    pub(crate) paths: Vec<Vec<Vec<CtxElem>>>,
    /// Content hash of a path → candidate ids (collision bucket).
    index: HashMap<u64, Vec<u32>>,
}

impl PathTable {
    fn content_hash<'a>(stacks: impl Iterator<Item = &'a Vec<CtxElem>>) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for stack in stacks {
            stack.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Index an existing table: `paths[i]` keeps number `i`.
    fn from_paths(paths: Vec<Vec<Vec<CtxElem>>>) -> Self {
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, stacks) in paths.iter().enumerate() {
            let h = Self::content_hash(stacks.iter());
            index.entry(h).or_default().push(i as u32);
        }
        PathTable { paths, index }
    }

    /// The number of the path equal to `dims`' stacks, added if new. Hashes
    /// `dims` in place and compares against stored paths, so a known path
    /// never allocates.
    pub(crate) fn intern(&mut self, dims: &[Dim]) -> u32 {
        let h = Self::content_hash(dims.iter().map(|d| &d.ctx));
        let cands = self.index.entry(h).or_default();
        let known = cands.iter().copied().find(|&id| {
            let p = &self.paths[id as usize];
            p.len() == dims.len() && p.iter().zip(dims).all(|(stack, d)| *stack == d.ctx)
        });
        known.unwrap_or_else(|| {
            let id = self.paths.len() as u32;
            self.paths
                .push(dims.iter().map(|d| d.ctx.clone()).collect());
            cands.push(id);
            id
        })
    }
}

/// `state_path` entry of a tracker state not yet mapped to a path.
const UNMAPPED: u32 = u32::MAX;

/// Interner for context paths and statements.
#[derive(Debug, Default)]
pub struct ContextInterner {
    paths: PathTable,
    stmts: Vec<StmtInfo>,
    stmt_map: HashMap<(CtxPathId, InstrRef), StmtId>,
    /// `(tracker identity, version, path)` of the last lookup.
    cache: Option<(u64, u64, CtxPathId)>,
    /// Identity of the tracker `state_path` belongs to: the first one shown.
    /// Another tracker numbers its states differently, so it is answered by
    /// content.
    bound_tracker: Option<u64>,
    /// Path id of each state of the bound tracker, [`UNMAPPED`] until seen.
    state_path: Vec<u32>,
    /// Version-cache hit/miss tally (plain fields — one register increment
    /// per lookup; harvested into the `polytrace` collector at stage end).
    cache_hits: u64,
    cache_misses: u64,
    /// Lookups that hashed the stacks by content (a subset of the misses).
    content_interns: u64,
}

impl ContextInterner {
    /// Fresh interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern the tracker's current context path (cached by version).
    pub fn current_path(&mut self, t: &IivTracker) -> CtxPathId {
        let (tracker, state) = t.state();
        if let Some((tr, v, id)) = self.cache {
            if v == t.version() && tr == tracker {
                self.cache_hits += 1;
                return id;
            }
        }
        self.cache_misses += 1;
        let id = if *self.bound_tracker.get_or_insert(tracker) != tracker {
            self.intern_content(t)
        } else {
            let state = state as usize;
            if state >= self.state_path.len() {
                self.state_path.resize(state + 1, UNMAPPED);
            }
            if self.state_path[state] == UNMAPPED {
                self.state_path[state] = self.intern_content(t).0;
            }
            CtxPathId(self.state_path[state])
        };
        self.cache = Some((tracker, t.version(), id));
        id
    }

    fn intern_content(&mut self, t: &IivTracker) -> CtxPathId {
        self.content_interns += 1;
        CtxPathId(self.paths.intern(t.dims()))
    }

    /// Intern a statement (context path + instruction).
    pub fn stmt(&mut self, path: CtxPathId, instr: InstrRef) -> StmtId {
        match self.stmt_map.get(&(path, instr)) {
            Some(&id) => id,
            None => {
                let id = StmtId(self.stmts.len() as u32);
                let depth = self.path(path).len();
                self.stmts.push(StmtInfo { path, instr, depth });
                self.stmt_map.insert((path, instr), id);
                id
            }
        }
    }

    /// Statement lookup.
    pub fn stmt_info(&self, s: StmtId) -> &StmtInfo {
        &self.stmts[s.0 as usize]
    }

    /// Context path lookup: one context stack per IIV dimension.
    pub fn path(&self, p: CtxPathId) -> &[Vec<CtxElem>] {
        &self.paths.paths[p.0 as usize]
    }

    /// The flattened context path (all stacks concatenated) — the spine the
    /// schedule tree hangs this statement's subtree on.
    pub fn flat_path(&self, p: CtxPathId) -> Vec<CtxElem> {
        self.path(p).iter().flatten().copied().collect()
    }

    /// Number of interned statements.
    pub fn n_stmts(&self) -> usize {
        self.stmts.len()
    }

    /// Number of interned context paths.
    pub fn n_paths(&self) -> usize {
        self.paths.paths.len()
    }

    /// Version-cache `(hits, misses)` since construction. Hits + misses
    /// equals total `current_path` lookups — the invariant the metrics
    /// consistency suite checks.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Lookups since construction that hashed the context stacks by content:
    /// the first sight of each tracker state, plus every miss on behalf of a
    /// tracker other than the first one shown. A subset of the misses of
    /// [`cache_stats`](Self::cache_stats), bounded by the program's control
    /// structure rather than its trip counts.
    pub fn content_interns(&self) -> u64 {
        self.content_interns
    }

    /// Iterate all statements.
    pub fn stmts(&self) -> impl Iterator<Item = (StmtId, &StmtInfo)> {
        self.stmts
            .iter()
            .enumerate()
            .map(|(i, s)| (StmtId(i as u32), s))
    }

    /// Rebuild an interner from a serialized statement table (trace replay).
    ///
    /// Path and statement ids are positional, so `paths[i]` answers
    /// `CtxPathId(i)` and `stmts[i]` answers `StmtId(i)` — exactly the ids
    /// baked into a recorded event stream. The lookup indices are
    /// reconstructed with the same content hash as
    /// [`current_path`](Self::current_path), so a replayed interner is
    /// indistinguishable from the live one that produced the table.
    pub fn from_parts(paths: Vec<Vec<Vec<CtxElem>>>, stmts: Vec<StmtInfo>) -> Self {
        let stmt_map = stmts
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.path, s.instr), StmtId(i as u32)))
            .collect();
        Self {
            paths: PathTable::from_paths(paths),
            stmts,
            stmt_map,
            ..Self::default()
        }
    }
}

// A fold's statement table may be handed to another thread with the
// result it describes. Everything here is owned data (no interior
// mutability), so these hold automatically — the assertions make the
// guarantee a compile-time contract instead of an accident.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ContextInterner>();
    assert_send_sync::<StmtInfo>();
    assert_send_sync::<CtxPathId>();
    assert_send_sync::<StmtId>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use polycfg::{LoopEvent, LoopIdx, LoopRef};
    use polyir::{BlockRef, FuncId, LocalBlockId};

    fn blk(f: u32, b: u32) -> BlockRef {
        BlockRef {
            func: FuncId(f),
            block: LocalBlockId(b),
        }
    }
    fn iref(f: u32, b: u32, i: u32) -> InstrRef {
        InstrRef {
            block: blk(f, b),
            idx: i,
        }
    }

    #[test]
    fn same_context_same_path() {
        let mut t = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        let p1 = int.current_path(&t);
        let l = LoopRef::Cfg(FuncId(0), LoopIdx(0));
        t.apply(&LoopEvent::Enter {
            l,
            block: blk(0, 1),
        });
        let p2 = int.current_path(&t);
        assert_ne!(p1, p2);
        // Iterating changes the IV but the ctx.last update is idempotent
        // after N; the path from the same header block stays interned once.
        t.apply(&LoopEvent::Iter {
            l,
            block: blk(0, 1),
        });
        let p3 = int.current_path(&t);
        assert_eq!(p2, p3);
        assert_eq!(int.n_paths(), 2);
    }

    #[test]
    fn statements_deduplicate() {
        let t = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        let p = int.current_path(&t);
        let s1 = int.stmt(p, iref(0, 0, 0));
        let s2 = int.stmt(p, iref(0, 0, 0));
        let s3 = int.stmt(p, iref(0, 0, 1));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(int.n_stmts(), 2);
        assert_eq!(int.stmt_info(s1).depth, 1);
    }

    #[test]
    fn distinct_calling_contexts_distinct_paths() {
        // Same instruction reached through two different call sites must get
        // two different statement ids (the CCT disambiguation property).
        let mut t = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        t.apply(&LoopEvent::Call {
            callee: FuncId(2),
            block: blk(2, 0),
        });
        let p_a = int.current_path(&t);
        let s_a = int.stmt(p_a, iref(2, 0, 0));
        t.apply(&LoopEvent::Ret(blk(0, 0)));
        t.apply(&LoopEvent::Block(blk(0, 1)));
        t.apply(&LoopEvent::Call {
            callee: FuncId(2),
            block: blk(2, 0),
        });
        let p_b = int.current_path(&t);
        let s_b = int.stmt(p_b, iref(2, 0, 0));
        assert_ne!(p_a, p_b);
        assert_ne!(s_a, s_b);
    }

    /// Two histories that reach the same stacks share a state and a path;
    /// coming back through a memoised transition hashes nothing.
    #[test]
    fn revisited_contexts_intern_once() {
        let mut t = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        let l = LoopRef::Cfg(FuncId(0), LoopIdx(0));
        let p0 = int.current_path(&t);
        t.apply(&LoopEvent::Enter {
            l,
            block: blk(0, 1),
        });
        let p1 = int.current_path(&t);
        t.apply(&LoopEvent::Exit {
            l,
            block: blk(0, 0),
        });
        assert_eq!(int.current_path(&t), p0, "back at the entry stacks");
        let (state_then, misses_then, interns_then) =
            (t.state(), t.memo_misses(), int.content_interns());
        assert_eq!(interns_then, 2);
        for _ in 0..10 {
            t.apply(&LoopEvent::Enter {
                l,
                block: blk(0, 1),
            });
            assert_eq!(int.current_path(&t), p1);
            t.apply(&LoopEvent::Exit {
                l,
                block: blk(0, 0),
            });
            assert_eq!(int.current_path(&t), p0);
        }
        assert_eq!(t.state(), state_then);
        assert_eq!(
            t.memo_misses(),
            misses_then,
            "every transition was memoised"
        );
        assert_eq!(int.content_interns(), interns_then, "no path hashed again");
        assert_eq!(int.cache_stats(), (0, 23), "the version moved every time");
    }

    /// State numbers mean nothing outside the tracker that handed them out:
    /// a second tracker shown to the same interner is answered by content,
    /// even when its state number and version coincide with the first's.
    #[test]
    fn a_second_tracker_is_answered_by_content() {
        let mut a = IivTracker::new(blk(0, 0));
        let mut b = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        a.apply(&LoopEvent::Block(blk(0, 1)));
        b.apply(&LoopEvent::Block(blk(0, 2)));
        assert_eq!((a.state().1, a.version()), (b.state().1, b.version()));
        let pa = int.current_path(&a);
        let pb = int.current_path(&b);
        assert_ne!(pa, pb, "same state number, different stacks");
        assert_eq!(int.path(pb), &[vec![CtxElem::Block(blk(0, 2))]]);
        assert_eq!(int.current_path(&a), pa);
        // The same stacks reached by the other tracker are the same path.
        b.apply(&LoopEvent::Block(blk(0, 1)));
        assert_eq!(int.current_path(&b), pa);
        assert_eq!(int.n_paths(), 2);
    }

    /// A table rebuilt from parts finds its paths by content again.
    #[test]
    fn from_parts_keeps_paths_findable() {
        let mut t = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        let p0 = int.current_path(&t);
        t.apply(&LoopEvent::Call {
            callee: FuncId(1),
            block: blk(1, 0),
        });
        let p1 = int.current_path(&t);
        let paths = vec![int.path(p0).to_vec(), int.path(p1).to_vec()];
        let mut rebuilt = ContextInterner::from_parts(paths, Vec::new());
        assert_eq!(rebuilt.current_path(&t), p1);
        assert_eq!(rebuilt.n_paths(), 2);
    }

    #[test]
    fn flat_path_concatenates_dims() {
        let mut t = IivTracker::new(blk(0, 0));
        let mut int = ContextInterner::new();
        let l = LoopRef::Cfg(FuncId(0), LoopIdx(0));
        t.apply(&LoopEvent::Enter {
            l,
            block: blk(0, 1),
        });
        let p = int.current_path(&t);
        let flat = int.flat_path(p);
        assert_eq!(flat.len(), 2); // [Loop(L), Block(header)]
        assert!(matches!(flat[0], CtxElem::Loop(_)));
        assert!(matches!(flat[1], CtxElem::Block(_)));
    }
}
