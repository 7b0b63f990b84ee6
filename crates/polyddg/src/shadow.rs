//! Shadow memory (paper §9 "Dynamic dependence graph"): one record per
//! storage location holding the last dynamic instruction that wrote it (and,
//! for anti-dependence tracking, the last that read it).
//!
//! Layout is tuned for the per-event cost of stage 2:
//!
//! * A record is a statement and a counted handle on its coordinate
//!   snapshot in the profiler's [`SnapCache`], 8 bytes; recording never
//!   allocates, and the snapshot itself is stored once per coordinate
//!   change, not once per record.
//! * Last-writer and last-reader live in one 16-byte `Cell` per word, in
//!   shared pages of 4096 cells — a memory *write* event (read prev writer,
//!   read prev reader, store new writer, clear reader) resolves its page
//!   **once** instead of probing separate write/read page tables four times.
//! * An MRU (last-page) cache in front of the page table turns the
//!   overwhelmingly common same-page access streams of dense kernels into
//!   a compare + index, no hashing at all.
//! * Pages are carved out of slabs reserved whole and filled a page at a
//!   time (see `SLAB_PAGES`), so what a run costs does not depend on what
//!   the allocator happened to keep from the run before it.
//!
//! [`ShadowMemory::resolve`] is the only routine that reads or writes a
//! cell, and so the only one that takes and gives back snapshot references.

use crate::coords::{CoordSnap, SnapCache, SnapHandle};
use crate::{DepKind, FoldSink};
use polyiiv::context::StmtId;
use polyresist::{FaultPlan, FaultSite, ResourceBudget};
use std::collections::HashMap;
use std::sync::Arc;

/// The producer record of a register frame: a statement at specific
/// coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    /// The statement (context + instruction).
    pub stmt: StmtId,
    /// Its iteration-vector coordinates (resolve via the profiler's arena).
    pub coords: CoordSnap,
}

/// A shadow record: a statement and one counted reference on the snapshot
/// of its coordinates.
#[derive(Debug, Clone, Copy)]
struct Rec {
    stmt: StmtId,
    snap: SnapHandle,
}

impl Rec {
    /// No record. Real statement ids are interned densely from 0, so
    /// `u32::MAX` can never collide.
    const NONE: Rec = Rec {
        stmt: StmtId(u32::MAX),
        snap: SnapHandle::NONE,
    };

    #[inline]
    fn is_some(self) -> bool {
        self.stmt != Rec::NONE.stmt
    }
}

/// Per-word shadow state: last writer and last reader (reader is cleared on
/// every write).
#[derive(Debug, Clone, Copy)]
struct Cell {
    write: Rec,
    read: Rec,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 16);

impl Cell {
    const EMPTY: Cell = Cell {
        write: Rec::NONE,
        read: Rec::NONE,
    };
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Sentinel page number that can never equal `addr >> PAGE_BITS`.
const NO_PAGE: u64 = u64::MAX;

/// Pages per slab. A slab is one `Vec<Cell>` reserved at full capacity and
/// extended by one page per first touch, so a page costs its own cells and
/// nothing else, and a page slot is a (slab, offset) pair by shift and mask.
///
/// The size is chosen so that a slab (64 MiB of address space) is larger
/// than any request glibc will place on its heap (the mmap threshold adapts
/// upwards, but never beyond 32 MiB): a slab is mapped when reserved and
/// unmapped when dropped. One heap allocation per page leaves it to chance —
/// which small blocks sit above the pages when they are freed — whether the
/// tens of MB of a pointer-chasing run go back to the system or stay on the
/// heap for the next run, and the same program profiled in a loop then
/// changes speed from one process to the next. Only touched pages become
/// resident; the reservation itself is address space.
const SLAB_PAGES: usize = 1 << SLAB_PAGE_BITS;
const SLAB_PAGE_BITS: u32 = 10;
const SLAB_CELLS: usize = SLAB_PAGES * PAGE_SIZE;
const _: () = assert!(SLAB_CELLS * std::mem::size_of::<Cell>() > 32 << 20);
/// Bytes one page charges against the budget.
const PAGE_BYTES: usize = PAGE_SIZE * std::mem::size_of::<Cell>();

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
    /// MRU hit/miss tally on the `try_cell_mut` (update) path — plain
    /// fields, harvested into the `polytrace` collector at stage end. Every
    /// memory event makes exactly one `try_cell_mut` call, so hits + misses
    /// == memory events (the gated consistency invariant).
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
                    b.charge(PAGE_BYTES as u64);
                }
                let slot = self.n_pages;
                if slot as usize == self.slabs.len() * SLAB_PAGES {
                    self.slabs.push(Vec::with_capacity(SLAB_CELLS));
                }
                let slab = self.slabs.last_mut().expect("a slab with room");
                slab.resize(slab.len() + PAGE_SIZE, Cell::EMPTY);
                self.n_pages += 1;
                e.insert(slot);
                slot
            }
        };
        self.mru = (page_num, slot);
        Some(slot)
    }

    /// The shadow cell for `addr`, allocating its page on first touch; `None`
    /// when an armed fault plan refused the page allocation.
    ///
    /// This is the single-resolution hot path: one MRU compare (or one hash
    /// probe on a page switch) serves the whole event — previous writer,
    /// previous reader, and the update.
    #[inline]
    fn try_cell_mut(&mut self, addr: u64) -> Option<&mut Cell> {
        let slot = self.page_slot(addr >> PAGE_BITS)?;
        Some(&mut self.slabs[slot as usize >> SLAB_PAGE_BITS][cell_index(slot, addr)])
    }

    /// The shadow cell for `addr` if its page is resident (read-only; checks
    /// the MRU cache first, does not update it).
    #[cfg(test)]
    fn cell(&self, addr: u64) -> Option<&Cell> {
        let page_num = addr >> PAGE_BITS;
        let slot = if self.mru.0 == page_num {
            self.mru.1
        } else {
            *self.index.get(&page_num)?
        };
        Some(&self.slabs[slot as usize >> SLAB_PAGE_BITS][cell_index(slot, addr)])
    }

    /// Number of resident shadow pages (overhead statistics).
    pub fn resident_pages(&self) -> usize {
        self.n_pages as usize
    }

    /// MRU page-cache `(hits, misses)` on the update path since
    /// construction; hits + misses equals the memory touches that stored a
    /// record (every one).
    pub fn mru_stats(&self) -> (u64, u64) {
        (self.mru_hits, self.mru_misses)
    }

    /// Resolve one memory touch by `stmt` at `coords` on word `addr`: read
    /// and update the shadow cell, emit the flow / output / anti dependences
    /// it closes, then the `mem_access` event. `snaps` resolves earlier
    /// records' coordinates and counts their references: a stored record
    /// holds one on the snapshot of `coords`, and a record overwritten here
    /// gives its own back once its dependence is out.
    ///
    /// When an armed fault plan refuses the shadow page, the access is still
    /// emitted but its dependences are unknowable: every count in
    /// [`alloc_failures`](Self::alloc_failures) is one such unresolved access.
    #[inline]
    pub fn resolve<F: FoldSink>(
        &mut self,
        snaps: &mut SnapCache,
        stmt: StmtId,
        coords: &[i64],
        addr: u64,
        is_write: bool,
        out: &mut F,
    ) {
        let dep = |out: &mut F, snaps: &SnapCache, kind, r: Rec| {
            out.dependence(kind, r.stmt, snaps.resolve(r.snap), stmt, coords);
        };
        // The cell is resolved once; prior records are copied out so the
        // update and the dependence emission don't contend for borrows. The
        // reference is taken only once the page exists: a refused page
        // holds nothing.
        let Some(cell) = self.try_cell_mut(addr) else {
            out.mem_access(stmt, coords, addr, is_write);
            return;
        };
        let me = Rec {
            stmt,
            snap: snaps.hold(coords),
        };
        if is_write {
            let prev = std::mem::replace(
                cell,
                Cell {
                    write: me,
                    read: Rec::NONE,
                },
            );
            if prev.write.is_some() {
                dep(out, snaps, DepKind::Output, prev.write);
                snaps.release(prev.write.snap);
            }
            if prev.read.is_some() {
                dep(out, snaps, DepKind::Anti, prev.read);
                snaps.release(prev.read.snap);
            }
        } else {
            let prev_read = std::mem::replace(&mut cell.read, me);
            let w = cell.write;
            if prev_read.is_some() {
                snaps.release(prev_read.snap);
            }
            if w.is_some() {
                dep(out, snaps, DepKind::Flow, w);
            }
        }
        out.mem_access(stmt, coords, addr, is_write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;

    /// Shadow memory driven the way the profiler drives it: every touch
    /// goes through `resolve` into a `CollectSink`, and a coordinate change
    /// invalidates the snapshot cache.
    #[derive(Default)]
    struct Rig {
        s: ShadowMemory,
        snaps: SnapCache,
        out: CollectSink,
        at: Vec<i64>,
    }

    impl Rig {
        fn touch(&mut self, stmt: u32, coords: &[i64], addr: u64, is_write: bool) {
            if self.at != coords {
                self.snaps.invalidate();
                self.at = coords.to_vec();
            }
            self.out.deps.clear();
            let (s, snaps, out) = (&mut self.s, &mut self.snaps, &mut self.out);
            s.resolve(snaps, StmtId(stmt), coords, addr, is_write, out);
        }

        fn write(&mut self, stmt: u32, coords: &[i64], addr: u64) {
            self.touch(stmt, coords, addr, true);
        }

        fn read(&mut self, stmt: u32, coords: &[i64], addr: u64) {
            self.touch(stmt, coords, addr, false);
        }

        /// The dependences the last touch emitted, as `(kind, src, src coords)`.
        fn deps(&self) -> Vec<(DepKind, u32, Vec<i64>)> {
            self.out
                .deps
                .iter()
                .map(|(k, s, c, ..)| (*k, s.0, c.clone()))
                .collect()
        }

        /// The last writer of `addr`, read off its cell.
        fn last_write(&self, addr: u64) -> Option<(u32, Vec<i64>)> {
            let w = self.s.cell(addr)?.write;
            w.is_some()
                .then(|| (w.stmt.0, self.snaps.resolve(w.snap).to_vec()))
        }
    }

    #[test]
    fn write_then_read_back() {
        let mut r = Rig::default();
        assert!(r.last_write(100).is_none());
        r.write(1, &[0, 3], 100);
        assert_eq!(r.last_write(100), Some((1, vec![0, 3])));
        assert!(r.last_write(101).is_none());
        r.read(2, &[1, 0], 100);
        assert_eq!(r.deps(), [(DepKind::Flow, 1, vec![0, 3])]);
        assert_eq!(r.out.accesses.last().unwrap().2, 100);
    }

    /// An overwrite emits the output dependence from the record it
    /// replaces, then frees that record's snapshot.
    #[test]
    fn write_overwrites() {
        let mut r = Rig::default();
        r.write(1, &[0], 5);
        assert_eq!(r.snaps.live(), 1);
        r.write(2, &[1], 5);
        assert_eq!(r.deps(), [(DepKind::Output, 1, vec![0])]);
        assert_eq!(r.last_write(5), Some((2, vec![1])));
        assert_eq!(r.snaps.live(), 1, "the overwritten snapshot was freed");
        assert_eq!(r.snaps.peak_live(), 2);
    }

    /// A write emits the anti dependence from the reader and clears it: the
    /// next write sees no reader.
    #[test]
    fn write_clears_reader() {
        let mut r = Rig::default();
        r.read(1, &[0], 7);
        assert!(r.deps().is_empty());
        r.write(2, &[1], 7);
        assert_eq!(r.deps(), [(DepKind::Anti, 1, vec![0])]);
        r.write(3, &[2], 7);
        assert_eq!(r.deps(), [(DepKind::Output, 2, vec![1])]);
        assert_eq!(r.snaps.live(), 1);
    }

    /// Records at one coordinate vector share one slot; each reference is
    /// counted, and the slot is freed with the last of them.
    #[test]
    fn shared_snapshot_is_counted() {
        let mut r = Rig::default();
        for a in 0..4 {
            r.write(1, &[0], a);
            r.read(2, &[0], a + 10);
        }
        assert_eq!(r.snaps.live(), 1);
        assert_eq!(r.snaps.peak_live(), 1);
        // New coordinates: the cache lets go of [0], the eight records do not.
        r.write(3, &[1], 0);
        assert_eq!(r.snaps.live(), 2);
        for a in 1..4 {
            r.write(3, &[1], a);
        }
        for a in 10..13 {
            r.read(4, &[1], a);
        }
        assert_eq!(r.snaps.live(), 2, "the reader of word 13 still holds [0]");
        r.write(5, &[1], 13);
        assert_eq!(r.deps(), [(DepKind::Anti, 2, vec![0])]);
        assert_eq!(r.snaps.live(), 1, "[0] freed with its last record");
        assert_eq!(r.snaps.peak_live(), 2);
    }

    /// One cell carries both roles: each write sees the writer and the
    /// reader before it, each read the writer.
    #[test]
    fn combined_cell_roundtrip() {
        let mut r = Rig::default();
        r.read(5, &[1], 42);
        assert!(r.deps().is_empty());
        r.write(6, &[2], 42);
        assert_eq!(r.deps(), [(DepKind::Anti, 5, vec![1])]);
        r.read(7, &[3], 42);
        assert_eq!(r.deps(), [(DepKind::Flow, 6, vec![2])]);
        r.write(8, &[4], 42);
        assert_eq!(
            r.deps(),
            [(DepKind::Output, 6, vec![2]), (DepKind::Anti, 7, vec![3])]
        );
        assert_eq!(r.snaps.live(), 1, "only the last writer's snapshot is held");
    }

    #[test]
    fn cross_page_addresses() {
        let mut r = Rig::default();
        let far = 1u64 << 40;
        r.write(9, &[2], far);
        r.write(10, &[3], far + PAGE_SIZE as u64);
        assert_eq!(r.last_write(far), Some((9, vec![2])));
        assert_eq!(r.last_write(far + PAGE_SIZE as u64), Some((10, vec![3])));
        assert_eq!(r.s.resident_pages(), 2);
    }

    /// The MRU cache must stay coherent across page switches, including
    /// reads that race ahead of the cached write page.
    #[test]
    fn mru_cache_coherent_across_page_switches() {
        let mut r = Rig::default();
        let a = 10u64; // page 0
        let b = 10u64 + (PAGE_SIZE as u64) * 3; // page 3
        r.write(1, &[0], a);
        r.write(2, &[1], b);
        // MRU now points at b's page; reads of a must still resolve.
        assert_eq!(r.last_write(a), Some((1, vec![0])));
        assert_eq!(r.last_write(b), Some((2, vec![1])));
        r.write(3, &[2], a);
        assert_eq!(r.deps(), [(DepKind::Output, 1, vec![0])]);
        assert_eq!(r.last_write(a), Some((3, vec![2])));
        assert_eq!(r.last_write(b), Some((2, vec![1])));
        assert_eq!(r.s.resident_pages(), 2);
        let (hits, misses) = r.s.mru_stats();
        assert_eq!(hits + misses, 3, "one update-path lookup per stored record");
    }

    /// Page slots past the first slab resolve into the next one, and no
    /// page's cells alias another's.
    #[test]
    fn pages_spill_into_a_second_slab() {
        let mut r = Rig::default();
        let n = SLAB_PAGES as u64 + 2;
        // First and last cell of every page, pages visited out of order.
        for p in (0..n).rev() {
            let base = (p * 7 + 3) << PAGE_BITS;
            r.write(2 * p as u32, &[0], base);
            r.write(2 * p as u32 + 1, &[0], base + PAGE_SIZE as u64 - 1);
        }
        assert_eq!(r.s.resident_pages(), n as usize);
        assert_eq!(r.s.slabs.len(), 2);
        assert_eq!(r.s.slabs[1].len(), 2 * PAGE_SIZE);
        for p in 0..n {
            let base = (p * 7 + 3) << PAGE_BITS;
            assert_eq!(r.last_write(base), Some((2 * p as u32, vec![0])));
            assert_eq!(
                r.last_write(base + PAGE_SIZE as u64 - 1),
                Some((2 * p as u32 + 1, vec![0]))
            );
            assert!(r.last_write(base + 1).is_none());
        }
    }

    /// Differential check against a naive map (the property-test
    /// invariant), and the table bound: one live slot per written word, each
    /// written at its own coordinates.
    #[test]
    fn matches_naive_map() {
        use std::collections::HashMap as Naive;
        let mut r = Rig::default();
        let mut naive: Naive<u64, u32> = Naive::new();
        // pseudo-random-ish address pattern without rand dependency
        let mut x = 12345u64;
        for i in 0..10_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = x % 8192;
            r.write(i, &[i as i64], addr);
            let want = naive
                .insert(addr, i)
                .map(|w| (DepKind::Output, w, vec![w as i64]));
            assert_eq!(r.deps(), Vec::from_iter(want), "at write {i}");
        }
        assert_eq!(r.snaps.live(), naive.len());
        for addr in 0..8192u64 {
            assert_eq!(
                r.last_write(addr),
                naive.get(&addr).map(|&w| (w, vec![w as i64])),
                "mismatch at {addr}"
            );
        }
    }

    /// A refused page stores no record and takes no reference; the access
    /// is still emitted, without dependences.
    #[test]
    fn alloc_fault_refuses_one_page_then_recovers() {
        let mut r = Rig::default();
        r.s.set_faults(Arc::new(FaultPlan::single(FaultSite::AllocShadow, 1)));
        r.write(1, &[0], 0);
        assert_eq!(r.s.alloc_failures(), 1);
        assert_eq!(r.s.resident_pages(), 0);
        assert_eq!(r.out.accesses.len(), 1);
        assert_eq!(
            (r.snaps.live(), r.snaps.peak_live()),
            (0, 0),
            "nothing held"
        );
        // One-shot fault: the retry allocates normally.
        r.write(2, &[0], 0);
        assert!(r.deps().is_empty());
        assert_eq!(r.s.resident_pages(), 1);
        assert_eq!(r.s.alloc_failures(), 1);
        assert_eq!(r.snaps.live(), 1);
    }

    /// A page charges its 16-byte cells, a grown table its slot; a reused
    /// page and a recycled slot charge nothing.
    #[test]
    fn budget_charged_per_allocated_page() {
        let b = Arc::new(ResourceBudget::new(Some(1), None));
        let mut r = Rig::default();
        r.s.set_budget(Arc::clone(&b));
        r.snaps.set_budget(Arc::clone(&b));
        r.write(1, &[0], 0);
        let slot = crate::coords::SLOT_BYTES as u64;
        assert_eq!(b.used_bytes(), 64 * 1024 + slot);
        assert!(b.under_pressure(), "1-byte budget crossed by first page");
        // Same page, new coordinates: the table grows by one slot.
        r.write(2, &[1], 1);
        assert_eq!(b.used_bytes(), 64 * 1024 + 2 * slot);
        // Overwrite word 0: [2] is held before [0] is given back, so the
        // table grows once more.
        r.write(3, &[2], 0);
        assert_eq!(b.used_bytes(), 64 * 1024 + 3 * slot);
        // Overwrite word 1: [3] recycles the slot [0] freed.
        r.write(4, &[3], 1);
        assert_eq!(r.snaps.live(), 2);
        assert_eq!(b.used_bytes(), 64 * 1024 + 3 * slot);
    }
}
