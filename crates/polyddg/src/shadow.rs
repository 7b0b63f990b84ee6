//! Shadow memory (paper §9 "Dynamic dependence graph"): one record per
//! storage location holding the last dynamic instruction that wrote it (and,
//! for anti-dependence tracking, the last that read it).
//!
//! Layout is tuned for the per-event cost of stage 2:
//!
//! * Writer records are `Copy` ([`CoordSnap`] instead of `Box<[i64]>`), so
//!   recording never allocates.
//! * Last-writer and last-reader live in one [`Cell`] per word, in shared
//!   pages of 4096 cells — a memory *write* event (read prev writer, read
//!   prev reader, store new writer, clear reader) resolves its page **once**
//!   instead of probing separate write/read page tables four times.
//! * An MRU (last-page) cache in front of the page table turns the
//!   overwhelmingly common same-page access streams of dense kernels into
//!   a compare + index, no hashing at all.
//! * Pages are carved out of slabs reserved whole and filled a page at a
//!   time (see `SLAB_PAGES`), so what a run costs does not depend on what
//!   the allocator happened to keep from the run before it.

use crate::coords::{CoordSnap, SnapCache};
use crate::{DdgConfig, DepKind, FoldSink};
use polyiiv::context::StmtId;
use polyresist::{FaultPlan, FaultSite, ResourceBudget};
use std::collections::HashMap;
use std::sync::Arc;

/// The producer record: a statement at specific coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    /// The statement (context + instruction).
    pub stmt: StmtId,
    /// Its iteration-vector coordinates (resolve via the profiler's arena).
    pub coords: CoordSnap,
}

/// Per-word shadow state: last writer and last reader (reader is cleared on
/// every write).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Last write to this word.
    pub write: Option<Writer>,
    /// Last read since that write.
    pub read: Option<Writer>,
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Sentinel page number that can never equal `addr >> PAGE_BITS`.
const NO_PAGE: u64 = u64::MAX;

/// Pages per slab. A slab is one `Vec<Cell>` reserved at full capacity and
/// extended by one page per first touch, so a page costs its own cells and
/// nothing else, and a page slot is a (slab, offset) pair by shift and mask.
///
/// The size is chosen so that a slab is larger than any request glibc will
/// place on its heap (the mmap threshold adapts upwards, but never beyond
/// 32 MiB): a slab is mapped when reserved and unmapped when dropped. One
/// heap allocation per 320 KiB page leaves it to chance — which small blocks
/// sit above the pages when they are freed — whether the ~100 MB of a
/// pointer-chasing run go back to the system or stay on the heap for the
/// next run, and the same program profiled in a loop then takes 100 or 125
/// ns/event from one process to the next. Only touched pages become
/// resident; the reservation itself is address space.
const SLAB_PAGES: usize = 1 << SLAB_PAGE_BITS;
const SLAB_PAGE_BITS: u32 = 7;
const SLAB_CELLS: usize = SLAB_PAGES * PAGE_SIZE;
const _: () = assert!(SLAB_CELLS * std::mem::size_of::<Cell>() > 32 << 20);

/// Index within its slab of the cell of `addr` on page slot `slot`.
#[inline]
fn cell_index(slot: u32, addr: u64) -> usize {
    ((slot as usize & (SLAB_PAGES - 1)) << PAGE_BITS) | (addr as usize & (PAGE_SIZE - 1))
}

/// Paged shadow memory: last writer and last reader per word address.
#[derive(Debug)]
pub struct ShadowMemory {
    /// Page storage: page slot `s` is page `s % SLAB_PAGES` of slab
    /// `s / SLAB_PAGES`. Every slab but the last is full.
    slabs: Vec<Vec<Cell>>,
    /// Pages allocated so far; the next page slot `index` hands out.
    n_pages: u32,
    /// Page number (`addr >> PAGE_BITS`) → page slot.
    index: HashMap<u64, u32>,
    /// MRU cache: the last page touched by `page_slot`.
    mru: (u64, u32),
    /// MRU hit/miss tally on the `cell_mut` (update) path — plain fields,
    /// harvested into the `polytrace` collector at stage end. The read-only
    /// `cell` path is deliberately uncounted: with the default tracking
    /// config every memory event makes exactly one `cell_mut` call, so
    /// hits + misses == memory events (the gated consistency invariant).
    mru_hits: u64,
    mru_misses: u64,
    /// Optional deterministic fault plan: probed on *new-page allocation*
    /// only (never on the MRU/resident hot path).
    faults: Option<Arc<FaultPlan>>,
    /// Optional resource budget charged per allocated page.
    budget: Option<Arc<ResourceBudget>>,
    /// Page allocations refused by the fault plan.
    alloc_failures: u64,
}

impl Default for ShadowMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowMemory {
    /// Empty shadow memory.
    pub fn new() -> Self {
        ShadowMemory {
            slabs: Vec::new(),
            n_pages: 0,
            index: HashMap::new(),
            mru: (NO_PAGE, 0),
            mru_hits: 0,
            mru_misses: 0,
            faults: None,
            budget: None,
            alloc_failures: 0,
        }
    }

    /// Arm a deterministic fault plan: new-page allocations probe
    /// [`FaultSite::AllocShadow`] and fail when it fires.
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Charge every allocated page against `budget` (tracking only — shadow
    /// pages are required for correctness, so allocation proceeds even under
    /// pressure; the folding layer is what degrades).
    pub fn set_budget(&mut self, budget: Arc<ResourceBudget>) {
        self.budget = Some(budget);
    }

    /// Page allocations refused by the armed fault plan so far.
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Index of the page holding `page_num`, allocating it if absent.
    /// Updates the MRU cache. `None` only when an armed fault plan refuses
    /// the allocation.
    #[inline]
    fn page_slot(&mut self, page_num: u64) -> Option<u32> {
        if self.mru.0 == page_num {
            self.mru_hits += 1;
            return Some(self.mru.1);
        }
        self.mru_misses += 1;
        let slot = match self.index.entry(page_num) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                if let Some(plan) = &self.faults {
                    if plan.should_fire(FaultSite::AllocShadow) {
                        self.alloc_failures += 1;
                        return None;
                    }
                }
                if let Some(b) = &self.budget {
                    b.charge((PAGE_SIZE * std::mem::size_of::<Cell>()) as u64);
                }
                let slot = self.n_pages;
                if slot as usize == self.slabs.len() * SLAB_PAGES {
                    self.slabs.push(Vec::with_capacity(SLAB_CELLS));
                }
                let slab = self.slabs.last_mut().expect("a slab with room");
                slab.resize(slab.len() + PAGE_SIZE, Cell::default());
                self.n_pages += 1;
                e.insert(slot);
                slot
            }
        };
        self.mru = (page_num, slot);
        Some(slot)
    }

    /// The shadow cell for `addr`, allocating its page on first touch.
    ///
    /// This is the single-resolution hot path: one MRU compare (or one hash
    /// probe on a page switch) serves the whole event — previous writer,
    /// previous reader, and the update.
    ///
    /// Panics if an armed fault plan refuses the allocation — fault-aware
    /// callers use [`try_cell_mut`](Self::try_cell_mut) instead.
    #[inline]
    pub fn cell_mut(&mut self, addr: u64) -> &mut Cell {
        self.try_cell_mut(addr)
            .expect("shadow page allocation refused by fault plan")
    }

    /// Fallible variant of [`cell_mut`](Self::cell_mut): `None` when an
    /// armed fault plan refused the page allocation. The caller skips
    /// dependence emission for this event and counts it as unresolved.
    #[inline]
    pub fn try_cell_mut(&mut self, addr: u64) -> Option<&mut Cell> {
        let slot = self.page_slot(addr >> PAGE_BITS)?;
        Some(&mut self.slabs[slot as usize >> SLAB_PAGE_BITS][cell_index(slot, addr)])
    }

    /// The shadow cell for `addr` if its page is resident (read-only; checks
    /// the MRU cache first, does not update it).
    #[inline]
    pub fn cell(&self, addr: u64) -> Option<&Cell> {
        let page_num = addr >> PAGE_BITS;
        let slot = if self.mru.0 == page_num {
            self.mru.1
        } else {
            *self.index.get(&page_num)?
        };
        Some(&self.slabs[slot as usize >> SLAB_PAGE_BITS][cell_index(slot, addr)])
    }

    /// Last writer of `addr`, if any.
    pub fn last_write(&self, addr: u64) -> Option<&Writer> {
        self.cell(addr)?.write.as_ref()
    }

    /// Last reader of `addr`, if any (cleared on write).
    pub fn last_read(&self, addr: u64) -> Option<&Writer> {
        self.cell(addr)?.read.as_ref()
    }

    /// Record a write: updates the writer and clears the reader.
    pub fn record_write(&mut self, addr: u64, w: Writer) {
        let cell = self.cell_mut(addr);
        cell.write = Some(w);
        cell.read = None;
    }

    /// Record a read (for last-reader anti-dependence tracking).
    pub fn record_read(&mut self, addr: u64, r: Writer) {
        self.cell_mut(addr).read = Some(r);
    }

    /// Number of resident shadow pages (overhead statistics).
    pub fn resident_pages(&self) -> usize {
        self.n_pages as usize
    }

    /// MRU page-cache `(hits, misses)` on the update path since
    /// construction; hits + misses equals total `cell_mut` calls.
    pub fn mru_stats(&self) -> (u64, u64) {
        (self.mru_hits, self.mru_misses)
    }

    /// Resolve one memory touch by `stmt` at `coords` on word `addr`: read
    /// and update the shadow cell, emit the flow / output / anti dependences
    /// `cfg` tracks, then the `mem_access` event. `snaps` supplies the
    /// writer snapshot of `coords` (taken only when a record is stored) and
    /// the arena earlier records resolve in.
    ///
    /// When an armed fault plan refuses the shadow page, the access is still
    /// emitted but its dependences are unknowable: every count in
    /// [`alloc_failures`](Self::alloc_failures) is one such unresolved access.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn resolve<F: FoldSink>(
        &mut self,
        cfg: &DdgConfig,
        snaps: &mut SnapCache,
        stmt: StmtId,
        coords: &[i64],
        addr: u64,
        is_write: bool,
        out: &mut F,
    ) {
        // The cell is resolved once; prior records are copied out so the
        // update and the dependence emission don't contend for borrows.
        let prev = if is_write || cfg.track_anti {
            let me = Writer {
                stmt,
                coords: snaps.get(coords),
            };
            self.try_cell_mut(addr).map(|cell| {
                if is_write {
                    let prev = (cell.write, cell.read);
                    cell.write = Some(me);
                    cell.read = None;
                    prev
                } else {
                    cell.read = Some(me);
                    (cell.write, None)
                }
            })
        } else {
            Some((self.last_write(addr).copied(), None))
        };
        let Some((prev_write, prev_read)) = prev else {
            out.mem_access(stmt, coords, addr, is_write);
            return;
        };
        let arena = snaps.arena();
        let mut dep = |kind, w: Writer| {
            out.dependence(kind, w.stmt, w.coords.resolve(arena), stmt, coords);
        };
        if is_write {
            if let Some(w) = prev_write.filter(|_| cfg.track_output) {
                dep(DepKind::Output, w);
            }
            if let Some(r) = prev_read.filter(|_| cfg.track_anti) {
                dep(DepKind::Anti, r);
            }
        } else if let Some(w) = prev_write {
            dep(DepKind::Flow, w);
        }
        out.mem_access(stmt, coords, addr, is_write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::CoordArena;

    fn w(arena: &mut CoordArena, stmt: u32, coords: &[i64]) -> Writer {
        Writer {
            stmt: StmtId(stmt),
            coords: CoordSnap::capture(coords, arena),
        }
    }

    #[test]
    fn write_then_read_back() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        assert!(s.last_write(100).is_none());
        s.record_write(100, w(&mut arena, 1, &[0, 3]));
        let got = s.last_write(100).unwrap();
        assert_eq!(got.stmt, StmtId(1));
        assert_eq!(got.coords.resolve(&arena), &[0, 3]);
        assert!(s.last_write(101).is_none());
    }

    #[test]
    fn write_overwrites() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        s.record_write(5, w(&mut arena, 1, &[0]));
        s.record_write(5, w(&mut arena, 2, &[1]));
        assert_eq!(s.last_write(5).unwrap().stmt, StmtId(2));
    }

    #[test]
    fn write_clears_reader() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        s.record_read(7, w(&mut arena, 1, &[0]));
        assert!(s.last_read(7).is_some());
        s.record_write(7, w(&mut arena, 2, &[1]));
        assert!(s.last_read(7).is_none());
    }

    #[test]
    fn cross_page_addresses() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        let far = 1u64 << 40;
        s.record_write(far, w(&mut arena, 9, &[2]));
        s.record_write(far + PAGE_SIZE as u64, w(&mut arena, 10, &[3]));
        assert_eq!(s.last_write(far).unwrap().stmt, StmtId(9));
        assert_eq!(
            s.last_write(far + PAGE_SIZE as u64).unwrap().stmt,
            StmtId(10)
        );
        assert_eq!(s.resident_pages(), 2);
    }

    /// The MRU cache must stay coherent across page switches, including
    /// reads that race ahead of the cached write page.
    #[test]
    fn mru_cache_coherent_across_page_switches() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        let a = 10u64; // page 0
        let b = 10u64 + (PAGE_SIZE as u64) * 3; // page 3
        s.record_write(a, w(&mut arena, 1, &[0]));
        s.record_write(b, w(&mut arena, 2, &[1]));
        // MRU now points at b's page; reads of a must still resolve.
        assert_eq!(s.last_write(a).unwrap().stmt, StmtId(1));
        assert_eq!(s.last_write(b).unwrap().stmt, StmtId(2));
        s.record_write(a, w(&mut arena, 3, &[2]));
        assert_eq!(s.last_write(a).unwrap().stmt, StmtId(3));
        assert_eq!(s.last_write(b).unwrap().stmt, StmtId(2));
        assert_eq!(s.resident_pages(), 2);
    }

    /// Page slots past the first slab resolve into the next one, and no
    /// page's cells alias another's.
    #[test]
    fn pages_spill_into_a_second_slab() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        let n = SLAB_PAGES as u64 + 2;
        // First and last cell of every page, pages visited out of order.
        for p in (0..n).rev() {
            let base = (p * 7 + 3) << PAGE_BITS;
            s.record_write(base, w(&mut arena, 2 * p as u32, &[0]));
            s.record_write(
                base + PAGE_SIZE as u64 - 1,
                w(&mut arena, 2 * p as u32 + 1, &[0]),
            );
        }
        assert_eq!(s.resident_pages(), n as usize);
        assert_eq!(s.slabs.len(), 2);
        assert_eq!(s.slabs[1].len(), 2 * PAGE_SIZE);
        for p in 0..n {
            let base = (p * 7 + 3) << PAGE_BITS;
            assert_eq!(s.last_write(base).unwrap().stmt, StmtId(2 * p as u32));
            assert_eq!(
                s.last_write(base + PAGE_SIZE as u64 - 1).unwrap().stmt,
                StmtId(2 * p as u32 + 1)
            );
            assert!(s.last_write(base + 1).is_none());
        }
    }

    /// One cell carries both roles: a combined write+read probe sequence
    /// through `cell_mut` matches the individual record/query API.
    #[test]
    fn combined_cell_roundtrip() {
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        s.record_read(42, w(&mut arena, 5, &[1]));
        let cell = s.cell_mut(42);
        assert!(cell.write.is_none());
        assert_eq!(cell.read.unwrap().stmt, StmtId(5));
        cell.write = Some(Writer {
            stmt: StmtId(6),
            coords: cell.read.unwrap().coords,
        });
        cell.read = None;
        assert_eq!(s.last_write(42).unwrap().stmt, StmtId(6));
        assert!(s.last_read(42).is_none());
    }

    /// Differential check against a naive map (the property-test invariant).
    #[test]
    fn matches_naive_map() {
        use std::collections::HashMap as Naive;
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        let mut naive: Naive<u64, u32> = Naive::new();
        // pseudo-random-ish address pattern without rand dependency
        let mut x = 12345u64;
        for i in 0..10_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = x % 8192;
            s.record_write(addr, w(&mut arena, i, &[i as i64]));
            naive.insert(addr, i);
        }
        for addr in 0..8192u64 {
            assert_eq!(
                s.last_write(addr).map(|w| w.stmt.0),
                naive.get(&addr).copied(),
                "mismatch at {addr}"
            );
        }
    }

    #[test]
    fn alloc_fault_refuses_one_page_then_recovers() {
        let mut s = ShadowMemory::new();
        s.set_faults(Arc::new(FaultPlan::single(FaultSite::AllocShadow, 1)));
        assert!(s.try_cell_mut(0).is_none(), "first allocation refused");
        assert_eq!(s.alloc_failures(), 1);
        // One-shot fault: the retry allocates normally.
        assert!(s.try_cell_mut(0).is_some());
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.alloc_failures(), 1);
    }

    #[test]
    fn budget_charged_per_allocated_page() {
        let b = Arc::new(ResourceBudget::new(Some(1), None));
        let mut arena = CoordArena::new();
        let mut s = ShadowMemory::new();
        s.set_budget(Arc::clone(&b));
        s.record_write(0, w(&mut arena, 1, &[0]));
        assert!(b.used_bytes() >= (PAGE_SIZE * std::mem::size_of::<Cell>()) as u64);
        assert!(b.under_pressure(), "1-byte budget crossed by first page");
        // Same page again: no further charge.
        let used = b.used_bytes();
        s.record_write(1, w(&mut arena, 2, &[1]));
        assert_eq!(b.used_bytes(), used);
    }
}
