//! Interned IIV coordinate snapshots — the allocation-free backbone of the
//! stage-2 hot path.
//!
//! The dynamic IIV changes only on loop events (enter/iterate/exit,
//! call/ret); between two loop events every executed instruction shares one
//! coordinate vector. The profiler therefore captures the vector **once per
//! change** as a [`CoordSnap`] and hands copies of that snapshot to every
//! writer record, instead of boxing a fresh `Box<[i64]>` per register
//! definition and memory access.
//!
//! Two representations back a snapshot:
//! * up to [`INLINE_DIMS`] dimensions live inline in the `Copy` value — this
//!   covers every Rodinia kernel in the suite and never touches the arena;
//! * deeper vectors spill into a [`CoordArena`], a flat append-only store
//!   addressed by [`CoordId`] (`u32` index + generation tag).
//!
//! The arena deliberately does **not** deduplicate: IIV snapshots are
//! lexicographically monotone during a run, so no value ever repeats —
//! "interning" here means *sharing one id across the many writers created
//! between two loop events*, which the profiler achieves by caching the
//! snapshot of the current vector. The generation tag catches use of a stale
//! id after [`CoordArena::clear`] in debug builds.
//!
//! Shadow records do not copy the snapshot: [`SnapCache`] keeps each one
//! in a reference-counted table slot, and a record holds a 4-byte counted
//! handle on it. A slot is recycled when its last record is overwritten, so
//! the table is bounded by the records alive, not by the trip count.

/// Coordinate vectors up to this many dimensions are stored inline in a
/// [`CoordSnap`] and never touch the arena.
pub const INLINE_DIMS: usize = 4;

/// Handle to a spilled coordinate vector in a [`CoordArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoordId {
    idx: u32,
    gen: u32,
}

/// Flat append-only arena for coordinate vectors deeper than
/// [`INLINE_DIMS`]. One entry per *coordinate change* (loop event), not per
/// profiled instruction.
#[derive(Debug, Clone)]
pub struct CoordArena {
    storage: Vec<i64>,
    /// `(start, len)` spans into `storage`, indexed by `CoordId::idx`.
    spans: Vec<(u32, u32)>,
    gen: u32,
    /// Optional resource budget charged per interned vector.
    budget: Option<std::sync::Arc<polyresist::ResourceBudget>>,
}

impl Default for CoordArena {
    fn default() -> Self {
        Self::new()
    }
}

impl CoordArena {
    /// Empty arena (generation 1; generation 0 is never valid, so a
    /// zero-initialized `CoordId` can't alias a live entry).
    pub fn new() -> Self {
        CoordArena {
            storage: Vec::new(),
            spans: Vec::new(),
            gen: 1,
            budget: None,
        }
    }

    /// Track interned bytes against `budget` (spilled vectors only — inline
    /// snapshots never reach the arena and cost nothing).
    pub fn set_budget(&mut self, budget: std::sync::Arc<polyresist::ResourceBudget>) {
        self.budget = Some(budget);
    }

    /// Append a snapshot of `coords` and return its id.
    pub fn intern(&mut self, coords: &[i64]) -> CoordId {
        if let Some(b) = &self.budget {
            b.charge((std::mem::size_of_val(coords) + std::mem::size_of::<(u32, u32)>()) as u64);
        }
        let start = self.storage.len() as u32;
        self.storage.extend_from_slice(coords);
        let idx = self.spans.len() as u32;
        self.spans.push((start, coords.len() as u32));
        CoordId { idx, gen: self.gen }
    }

    /// Resolve an id back to its slice.
    ///
    /// Debug builds panic on a stale id (interned before the last
    /// [`clear`](Self::clear)); release builds index out of the current
    /// spans, which at worst panics on out-of-bounds.
    #[inline]
    pub fn resolve(&self, id: CoordId) -> &[i64] {
        debug_assert_eq!(id.gen, self.gen, "stale CoordId across arena clear");
        let (start, len) = self.spans[id.idx as usize];
        &self.storage[start as usize..(start + len) as usize]
    }

    /// Number of interned vectors.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing was interned since creation / the last clear.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Heap footprint of the stored coordinates in bytes (statistics).
    pub fn bytes(&self) -> usize {
        self.storage.len() * std::mem::size_of::<i64>()
            + self.spans.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// Drop all entries and invalidate every outstanding [`CoordId`] by
    /// bumping the generation. Capacity is retained.
    pub fn clear(&mut self) {
        self.storage.clear();
        self.spans.clear();
        self.gen += 1;
    }
}

/// A `Copy` snapshot of one IIV coordinate vector: inline for shallow nests,
/// an arena id for deep ones.
#[derive(Debug, Clone, Copy)]
pub enum CoordSnap {
    /// `len` coordinates stored directly in the value.
    Inline {
        /// Number of live dimensions in `buf`.
        len: u8,
        /// The coordinates (`buf[..len]`).
        buf: [i64; INLINE_DIMS],
    },
    /// Vector deeper than [`INLINE_DIMS`], spilled to the arena.
    Spilled(CoordId),
}

impl CoordSnap {
    /// Capture `coords`, spilling into `arena` only when it doesn't fit
    /// inline.
    #[inline]
    pub fn capture(coords: &[i64], arena: &mut CoordArena) -> Self {
        if coords.len() <= INLINE_DIMS {
            let mut buf = [0i64; INLINE_DIMS];
            buf[..coords.len()].copy_from_slice(coords);
            CoordSnap::Inline {
                len: coords.len() as u8,
                buf,
            }
        } else {
            CoordSnap::Spilled(arena.intern(coords))
        }
    }

    /// The captured slice. `arena` must be the arena passed to
    /// [`capture`](Self::capture) (only consulted for spilled snapshots).
    #[inline]
    pub fn resolve<'a>(&'a self, arena: &'a CoordArena) -> &'a [i64] {
        match self {
            CoordSnap::Inline { len, buf } => &buf[..*len as usize],
            CoordSnap::Spilled(id) => arena.resolve(*id),
        }
    }
}

/// A counted reference to a snapshot in a [`SnapCache`]'s table: what a
/// shadow record keeps instead of the 40-byte [`CoordSnap`] itself.
///
/// The value is the table index; debug builds keep a generation tag in the
/// bits above [`IDX_BITS`], so resolving a handle whose slot was released
/// (and perhaps reused) is caught, as [`CoordArena`] catches a stale
/// [`CoordId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapHandle(u32);

/// Bits of a [`SnapHandle`] that index the table.
const IDX_BITS: u32 = if cfg!(debug_assertions) { 24 } else { 32 };
/// The generation tag's mask: 0 in release builds, which keep no tag.
const GEN_MASK: u32 = ((1u64 << (32 - IDX_BITS)) - 1) as u32;

impl SnapHandle {
    /// A handle no table slot is reached through (the handle of an empty
    /// shadow record, never resolved).
    pub(crate) const NONE: SnapHandle = SnapHandle(u32::MAX);

    #[inline]
    fn idx(self) -> usize {
        (u64::from(self.0) & ((1u64 << IDX_BITS) - 1)) as usize
    }

    #[inline]
    fn gen(self) -> u32 {
        (u64::from(self.0) >> IDX_BITS) as u32
    }
}

/// One slot of the snapshot table.
#[derive(Debug, Clone, Copy)]
struct Slot {
    snap: CoordSnap,
    /// References held: shadow records, plus the cache's own while the
    /// snapshot is current. The slot is free at 0.
    refs: u32,
    /// Bumped each time the slot is freed (within [`GEN_MASK`]).
    gen: u32,
}

/// Bytes one table slot charges against the budget when the table grows.
pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// A [`CoordArena`] plus the snapshot of the *current* coordinate vector,
/// captured on first use after a change; every writer record created
/// between two changes shares the one snapshot. The profiler sees loop
/// events and calls [`invalidate`](Self::invalidate) when they move the
/// coordinates.
///
/// Shadow records reach their snapshot through a reference-counted table:
/// `hold` hands out a counted handle on the current snapshot (one slot per
/// coordinate change), a record gives it back with `release` when it is
/// overwritten, and a slot whose count reaches 0 goes on a free list. The
/// slots live at once are the distinct snapshots the shadow records hold,
/// plus the current one.
#[derive(Debug, Default)]
pub struct SnapCache {
    arena: CoordArena,
    cur: Option<CoordSnap>,
    /// The table slot of the current snapshot, once something held it; the
    /// cache keeps one reference on it until [`invalidate`](Self::invalidate).
    held: Option<SnapHandle>,
    table: Vec<Slot>,
    /// Free slots of `table`.
    free: Vec<u32>,
    /// Optional resource budget charged per table slot pushed.
    budget: Option<std::sync::Arc<polyresist::ResourceBudget>>,
}

impl SnapCache {
    /// The coordinates changed: the next [`get`](Self::get) captures anew.
    /// Earlier snapshots stay valid for the records that hold them.
    #[inline]
    pub fn invalidate(&mut self) {
        self.cur = None;
        if let Some(h) = self.held.take() {
            self.release(h);
        }
    }

    /// A counted handle on the snapshot of `coords` (which must be the
    /// current vector): the caller owns one reference and gives it back with
    /// [`release`](Self::release).
    #[inline]
    pub(crate) fn hold(&mut self, coords: &[i64]) -> SnapHandle {
        let h = match self.held {
            Some(h) => h,
            None => {
                let snap = self.get(coords);
                let h = self.alloc(snap);
                self.held = Some(h);
                h
            }
        };
        self.table[h.idx()].refs += 1;
        h
    }

    /// A slot for `snap` holding the cache's own reference: a free one if
    /// any, else a new one, charged against the budget.
    fn alloc(&mut self, snap: CoordSnap) -> SnapHandle {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                if let Some(b) = &self.budget {
                    b.charge(SLOT_BYTES as u64);
                }
                self.table.push(Slot {
                    snap,
                    refs: 0,
                    gen: 0,
                });
                let i = self.table.len() - 1;
                assert!(i < (1u64 << IDX_BITS) as usize, "snapshot table full");
                i as u32
            }
        };
        let slot = &mut self.table[idx as usize];
        slot.snap = snap;
        slot.refs = 1;
        SnapHandle(((u64::from(slot.gen) << IDX_BITS) | u64::from(idx)) as u32)
    }

    /// Give back one reference taken by [`hold`](Self::hold); the last one
    /// frees the slot.
    #[inline]
    pub(crate) fn release(&mut self, h: SnapHandle) {
        let slot = &mut self.table[h.idx()];
        slot.refs -= 1;
        if slot.refs == 0 {
            slot.gen = (slot.gen + 1) & GEN_MASK;
            self.free.push(h.idx() as u32);
        }
    }

    /// The coordinates `h` was held on.
    ///
    /// Debug builds panic on a handle whose slot was released since.
    #[inline]
    pub(crate) fn resolve(&self, h: SnapHandle) -> &[i64] {
        let slot = &self.table[h.idx()];
        debug_assert!(
            slot.refs > 0 && slot.gen == h.gen(),
            "released snapshot handle"
        );
        slot.snap.resolve(&self.arena)
    }

    /// Table slots live now: one per distinct snapshot a record holds, plus
    /// the current snapshot once held.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.table.len() - self.free.len()
    }

    /// The most table slots ever live at once (the table only grows when no
    /// slot is free).
    pub(crate) fn peak_live(&self) -> usize {
        self.table.len()
    }

    /// The shared snapshot of `coords` (which must be the current vector).
    #[inline]
    pub fn get(&mut self, coords: &[i64]) -> CoordSnap {
        match self.cur {
            Some(s) => s,
            None => {
                let s = CoordSnap::capture(coords, &mut self.arena);
                self.cur = Some(s);
                s
            }
        }
    }

    /// The arena every snapshot handed out by [`get`](Self::get) resolves in.
    #[inline]
    pub fn arena(&self) -> &CoordArena {
        &self.arena
    }

    /// Charge spilled coordinate vectors and snapshot-table growth against
    /// `budget`.
    pub fn set_budget(&mut self, budget: std::sync::Arc<polyresist::ResourceBudget>) {
        self.arena.set_budget(std::sync::Arc::clone(&budget));
        self.budget = Some(budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_roundtrip() {
        let mut arena = CoordArena::new();
        for dims in 0..=INLINE_DIMS {
            let v: Vec<i64> = (0..dims as i64).map(|i| i * 7 - 3).collect();
            let s = CoordSnap::capture(&v, &mut arena);
            assert!(matches!(s, CoordSnap::Inline { .. }));
            assert_eq!(s.resolve(&arena), &v[..]);
        }
        assert!(
            arena.is_empty(),
            "inline snapshots must not touch the arena"
        );
    }

    #[test]
    fn spill_roundtrip() {
        let mut arena = CoordArena::new();
        let a: Vec<i64> = (0..7).collect();
        let b: Vec<i64> = (10..16).collect();
        let sa = CoordSnap::capture(&a, &mut arena);
        let sb = CoordSnap::capture(&b, &mut arena);
        assert!(matches!(sa, CoordSnap::Spilled(_)));
        assert_eq!(sa.resolve(&arena), &a[..]);
        assert_eq!(sb.resolve(&arena), &b[..]);
        assert_eq!(arena.len(), 2);
        assert!(arena.bytes() > 0);
    }

    #[test]
    fn snapshots_are_copy_and_shared() {
        let mut arena = CoordArena::new();
        let v: Vec<i64> = (0..6).collect();
        let s = CoordSnap::capture(&v, &mut arena);
        let t = s; // Copy — both resolve to the same span
        assert_eq!(s.resolve(&arena), t.resolve(&arena));
        assert_eq!(arena.len(), 1, "sharing does not re-intern");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale CoordId")]
    fn stale_id_detected_in_debug() {
        let mut arena = CoordArena::new();
        let v: Vec<i64> = (0..8).collect();
        let s = CoordSnap::capture(&v, &mut arena);
        arena.clear();
        let _ = s.resolve(&arena);
    }

    /// One slot per coordinate change, whatever the number of holders; the
    /// cache's own reference goes with `invalidate`, the last holder's
    /// frees the slot, and the next change reuses it.
    #[test]
    fn table_counts_holders_and_recycles() {
        let mut c = SnapCache::default();
        let v: Vec<i64> = (0..6).collect();
        let (a, b) = (c.hold(&v), c.hold(&v));
        assert_eq!(a, b);
        assert_eq!(c.resolve(a), &v[..]);
        assert_eq!(c.live(), 1);
        c.invalidate();
        c.release(a);
        assert_eq!(c.live(), 1, "one holder left");
        c.release(b);
        assert_eq!(c.live(), 0);
        let d = c.hold(&[7, 8]);
        assert_eq!(c.resolve(d), &[7, 8]);
        assert_eq!((c.live(), c.peak_live()), (1, 1));
        c.invalidate();
        c.release(d);
        assert_eq!(c.live(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released snapshot handle")]
    fn released_handle_detected_in_debug() {
        let mut c = SnapCache::default();
        let h = c.hold(&[1, 2]);
        c.invalidate();
        c.release(h);
        // The slot is reused by the next snapshot; the old handle is stale.
        let _ = c.hold(&[3, 4]);
        let _ = c.resolve(h);
    }

    #[test]
    fn clear_retains_capacity_and_invalidates() {
        let mut arena = CoordArena::new();
        let v: Vec<i64> = (0..8).collect();
        arena.intern(&v);
        arena.clear();
        assert!(arena.is_empty());
        let id = arena.intern(&v);
        assert_eq!(arena.resolve(id), &v[..]);
    }
}
