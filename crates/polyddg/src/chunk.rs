//! Fixed-size event chunks — the unit of transfer between the producer and
//! the folding workers of an intra-trace parallel profiling run.
//!
//! A [`EventChunk`] is a flat, reusable buffer of folding-interface events:
//! per-event records live in one `Vec`, all coordinate vectors in a shared
//! `i64` buffer addressed by spans. Chunks are recycled through bounded
//! channels, so a steady-state pipeline moves events between threads with
//! **zero allocation per event** — the only per-chunk work is a `memcpy`
//! into the flat buffers and one channel send per `chunk_events` events.
//! A chunk holds exactly the [`FoldSink`] alphabet: points, accesses,
//! dependences.

use crate::{DepKind, FoldSink};
use polyiiv::context::StmtId;
use polyresist::{FaultPlan, FaultSite};
use polytrace::{Collector, Counter, HistKind, Histogram, Journal, TID_PRE};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Span into an [`EventChunk`]'s shared coordinate buffer.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u32,
    len: u32,
}

/// One event record; coordinates live in the chunk's flat buffer.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// A dynamic instruction point.
    Point {
        stmt: StmtId,
        coords: Span,
        value: Option<i64>,
    },
    /// A resolved memory access.
    Access {
        stmt: StmtId,
        coords: Span,
        addr: u64,
        is_write: bool,
    },
    /// A resolved data dependence.
    Dep {
        kind: DepKind,
        src: StmtId,
        src_coords: Span,
        dst: StmtId,
        dst_coords: Span,
    },
}

/// Borrowed view of one chunk event.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// A dynamic instruction point.
    Point {
        /// Statement.
        stmt: StmtId,
        /// IIV coordinates.
        coords: &'a [i64],
        /// Produced integer value, if any.
        value: Option<i64>,
    },
    /// A resolved memory access.
    Access {
        /// Statement.
        stmt: StmtId,
        /// IIV coordinates.
        coords: &'a [i64],
        /// Word address.
        addr: u64,
        /// True for stores.
        is_write: bool,
    },
    /// A resolved data dependence.
    Dep {
        /// Dependence kind.
        kind: DepKind,
        /// Producer statement.
        src: StmtId,
        /// Producer coordinates.
        src_coords: &'a [i64],
        /// Consumer statement.
        dst: StmtId,
        /// Consumer coordinates.
        dst_coords: &'a [i64],
    },
}

/// A reusable flat buffer of events (see module docs).
#[derive(Debug, Default)]
pub struct EventChunk {
    recs: Vec<Rec>,
    coords: Vec<i64>,
}

impl EventChunk {
    /// Chunk with room for `events` records (the coordinate buffer sizes
    /// itself on first use and is retained across [`clear`](Self::clear)).
    pub fn with_capacity(events: usize) -> Self {
        EventChunk {
            recs: Vec::with_capacity(events),
            coords: Vec::new(),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Drop all events, retaining both buffers' capacity.
    pub fn clear(&mut self) {
        self.recs.clear();
        self.coords.clear();
    }

    #[inline]
    fn span(&mut self, c: &[i64]) -> Span {
        let off = self.coords.len() as u32;
        self.coords.extend_from_slice(c);
        Span {
            off,
            len: c.len() as u32,
        }
    }

    #[inline]
    fn slice(&self, s: Span) -> &[i64] {
        &self.coords[s.off as usize..(s.off + s.len) as usize]
    }

    /// Append an instruction point.
    #[inline]
    pub fn push_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        let coords = self.span(coords);
        self.recs.push(Rec::Point {
            stmt,
            coords,
            value,
        });
    }

    /// Append a resolved memory access.
    #[inline]
    pub fn push_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        let coords = self.span(coords);
        self.recs.push(Rec::Access {
            stmt,
            coords,
            addr,
            is_write,
        });
    }

    /// Append a resolved dependence.
    #[inline]
    pub fn push_dep(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        let src_coords = self.span(src_coords);
        let dst_coords = self.span(dst_coords);
        self.recs.push(Rec::Dep {
            kind,
            src,
            src_coords,
            dst,
            dst_coords,
        });
    }

    /// Iterate the buffered events in push order.
    pub fn events(&self) -> impl Iterator<Item = EventRef<'_>> {
        self.recs.iter().map(move |rec| match *rec {
            Rec::Point {
                stmt,
                coords,
                value,
            } => EventRef::Point {
                stmt,
                coords: self.slice(coords),
                value,
            },
            Rec::Access {
                stmt,
                coords,
                addr,
                is_write,
            } => EventRef::Access {
                stmt,
                coords: self.slice(coords),
                addr,
                is_write,
            },
            Rec::Dep {
                kind,
                src,
                src_coords,
                dst,
                dst_coords,
            } => EventRef::Dep {
                kind,
                src,
                src_coords: self.slice(src_coords),
                dst,
                dst_coords: self.slice(dst_coords),
            },
        })
    }

    /// Structural integrity check: every record's coordinate spans must lie
    /// inside the shared buffer. Well-formed by construction in production;
    /// receivers call this only when a fault plan is armed, to reject chunks
    /// corrupted by [`corrupt_for_fault_injection`](Self::corrupt_for_fault_injection).
    pub fn validate(&self) -> Result<(), String> {
        let limit = self.coords.len() as u64;
        let check = |s: Span| -> Result<(), String> {
            let end = s.off as u64 + s.len as u64;
            if end > limit {
                Err(format!(
                    "coordinate span {}..{} exceeds buffer of {} words",
                    s.off, end, limit
                ))
            } else {
                Ok(())
            }
        };
        for r in &self.recs {
            match *r {
                Rec::Point { coords, .. } | Rec::Access { coords, .. } => check(coords)?,
                Rec::Dep {
                    src_coords,
                    dst_coords,
                    ..
                } => {
                    check(src_coords)?;
                    check(dst_coords)?;
                }
            }
        }
        Ok(())
    }

    /// Deliberately break the chunk's span invariants (deterministic fault
    /// injection only — see `polyresist::FaultSite::MalformedChunk`). The
    /// damage is always detectable by [`validate`](Self::validate).
    pub fn corrupt_for_fault_injection(&mut self) {
        match self.recs.first_mut() {
            Some(Rec::Point { coords, .. })
            | Some(Rec::Access { coords, .. })
            | Some(Rec::Dep {
                src_coords: coords, ..
            }) => coords.len = coords.len.wrapping_add(1 << 20),
            None => {
                // Empty chunk: fabricate a record pointing past the buffer.
                self.recs.push(Rec::Point {
                    stmt: StmtId(u32::MAX),
                    coords: Span {
                        off: u32::MAX / 2,
                        len: 1 << 20,
                    },
                    value: None,
                });
            }
        }
    }

    /// Replay the chunk into a [`FoldSink`], in push order.
    pub fn replay_into<F: FoldSink>(&self, sink: &mut F) {
        for ev in self.events() {
            match ev {
                EventRef::Point {
                    stmt,
                    coords,
                    value,
                } => sink.instr_point(stmt, coords, value),
                EventRef::Access {
                    stmt,
                    coords,
                    addr,
                    is_write,
                } => sink.mem_access(stmt, coords, addr, is_write),
                EventRef::Dep {
                    kind,
                    src,
                    src_coords,
                    dst,
                    dst_coords,
                } => sink.dependence(kind, src, src_coords, dst, dst_coords),
            }
        }
    }
}

/// A chunk is itself a sink: events land in it in arrival order (what a
/// `.ptrace` reader decodes a frame into when asked for a chunk).
impl FoldSink for EventChunk {
    #[inline]
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.push_point(stmt, coords, value);
    }

    #[inline]
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.push_access(stmt, coords, addr, is_write);
    }

    #[inline]
    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        self.push_dep(kind, src, src_coords, dst, dst_coords);
    }
}

/// Per-writer telemetry tally: plain fields incremented on the hot path
/// (no atomics), harvested by [`ChunkWriter::finish`] and merged into the
/// run's `polytrace` collector by the owning stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    /// Events pushed through this writer.
    pub events: u64,
    /// Chunks obtained from the recycling pool.
    pub chunks_recycled: u64,
    /// Chunks freshly allocated (pool momentarily dry).
    pub chunks_fresh: u64,
    /// Nanoseconds blocked in bounded-channel sends (only measured when the
    /// attached collector records at `Timing`; otherwise stays 0).
    pub send_stall_ns: u64,
    /// Chunks lost on this edge: injected drops plus sends that errored out
    /// because the consumer was gone (early-exited or panicked).
    pub dropped_chunks: u64,
    /// Chunks deliberately corrupted before send (fault injection).
    pub malformed_sent: u64,
    /// Sends artificially delayed by an armed fault plan.
    pub stalled_sends: u64,
}

impl ChunkStats {
    /// Accumulate another writer's tally (shard routers sum their writers).
    pub fn merge(&mut self, other: &ChunkStats) {
        self.events += other.events;
        self.chunks_recycled += other.chunks_recycled;
        self.chunks_fresh += other.chunks_fresh;
        self.send_stall_ns += other.send_stall_ns;
        self.dropped_chunks += other.dropped_chunks;
        self.malformed_sent += other.malformed_sent;
        self.stalled_sends += other.stalled_sends;
    }
}

/// Per-writer latency distributions, kept out of [`ChunkStats`] so the
/// plain tally stays `Copy`. Present only when the attached collector
/// records at `Timing` or above; the journal only at `Trace`.
#[derive(Debug, Default)]
struct WriterTelemetry {
    occupancy: Histogram,
    send_stall: Histogram,
    queue_depth: Histogram,
    journal: Option<Journal>,
}

/// A [`FoldSink`] that batches events into [`EventChunk`]s and
/// ships full chunks over a bounded channel (backpressure: `send` blocks
/// when the consumer lags). Consumed chunks come back through the `recycled`
/// channel, so a warmed-up pipeline allocates nothing per chunk.
#[derive(Debug)]
pub struct ChunkWriter {
    cur: EventChunk,
    capacity: usize,
    tx: SyncSender<EventChunk>,
    recycled: Receiver<EventChunk>,
    stats: ChunkStats,
    /// Optional telemetry: queue-depth gauge + stall timing per flush.
    /// Chunk-granularity only — the per-event path never touches it.
    trace: Option<(Arc<Collector>, usize)>,
    /// Histograms + trace journal, allocated only at `Timing`+.
    telemetry: Option<Box<WriterTelemetry>>,
    /// Optional deterministic fault plan probed once per flushed chunk.
    faults: Option<Arc<FaultPlan>>,
}

impl ChunkWriter {
    /// Writer emitting `capacity`-event chunks into `tx`, reusing buffers
    /// returned through `recycled`.
    pub fn new(
        capacity: usize,
        tx: SyncSender<EventChunk>,
        recycled: Receiver<EventChunk>,
    ) -> Self {
        let capacity = capacity.max(1);
        ChunkWriter {
            cur: EventChunk::with_capacity(capacity),
            capacity,
            tx,
            recycled,
            stats: ChunkStats::default(),
            trace: None,
            telemetry: None,
            faults: None,
        }
    }

    /// Arm a deterministic fault plan: each flushed chunk probes the
    /// send-side fault sites (stall, drop, corrupt). Costs nothing when
    /// never called — the hot path only tests an `Option`.
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Attach a telemetry collector; `edge` names this writer's channel edge
    /// in the collector's queue gauges (edge `k` = producer → shard `k`).
    /// Every writer lives on the producer thread, so its journal goes in
    /// that lane.
    pub fn set_trace(&mut self, collector: Arc<Collector>, edge: usize) {
        if collector.timing() {
            self.telemetry = Some(Box::new(WriterTelemetry {
                journal: collector.new_journal(TID_PRE),
                ..WriterTelemetry::default()
            }));
        }
        self.trace = Some((collector, edge));
    }

    /// Ship the current chunk (no-op when empty). A disconnected consumer
    /// never blocks or aborts this writer: the chunk is counted as dropped
    /// and the stage keeps draining — the supervisor decides afterwards
    /// whether the run degraded.
    pub fn flush(&mut self) {
        if self.cur.is_empty() {
            return;
        }
        let mut next = match self.recycled.try_recv() {
            Ok(chunk) => {
                self.stats.chunks_recycled += 1;
                chunk
            }
            Err(_) => {
                self.stats.chunks_fresh += 1;
                EventChunk::with_capacity(self.capacity)
            }
        };
        next.clear();
        let mut full = std::mem::replace(&mut self.cur, next);
        if let Some(plan) = &self.faults {
            if plan.should_fire(FaultSite::MalformedChunk) {
                full.corrupt_for_fault_injection();
                self.stats.malformed_sent += 1;
            }
            if plan.should_fire(FaultSite::StallSend) {
                std::thread::sleep(plan.stall_duration());
                self.stats.stalled_sends += 1;
            }
            if plan.should_fire(FaultSite::DropSend) {
                self.stats.dropped_chunks += 1;
                return;
            }
        }
        match &self.trace {
            Some((col, edge)) => {
                if col.timing() {
                    let occupancy = full.len() as u64;
                    let t0 = Instant::now();
                    if self.tx.send(full).is_err() {
                        self.stats.dropped_chunks += 1;
                    }
                    let stall = t0.elapsed().as_nanos() as u64;
                    self.stats.send_stall_ns += stall;
                    let depth = col.queue_send(*edge);
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.occupancy.record(occupancy);
                        t.send_stall.record(stall);
                        t.queue_depth.record(depth);
                        if let Some(j) = t.journal.as_mut() {
                            let seq = self.stats.chunks_recycled + self.stats.chunks_fresh;
                            j.instant("chunk-send", *edge as u64, seq);
                        }
                    }
                } else {
                    if self.tx.send(full).is_err() {
                        self.stats.dropped_chunks += 1;
                    }
                    col.queue_send(*edge);
                }
            }
            None => {
                if self.tx.send(full).is_err() {
                    self.stats.dropped_chunks += 1;
                }
            }
        }
    }

    #[inline]
    fn after_push(&mut self) {
        self.stats.events += 1;
        if self.cur.len() >= self.capacity {
            self.flush();
        }
    }

    /// The tally so far (finish() returns the final value).
    pub fn stats(&self) -> ChunkStats {
        self.stats
    }

    /// Flush the trailing partial chunk and close the channel (consumers see
    /// disconnect and finish), returning this writer's telemetry tally.
    /// Histograms and the trace journal (if any) merge straight into the
    /// attached collector here — they never ride through [`ChunkStats`].
    pub fn finish(mut self) -> ChunkStats {
        self.flush();
        if let (Some(t), Some((col, _))) = (self.telemetry.take(), &self.trace) {
            col.merge_hist(HistKind::ChunkOccupancy, &t.occupancy);
            col.merge_hist(HistKind::SendStallNs, &t.send_stall);
            col.merge_hist(HistKind::QueueDepth, &t.queue_depth);
            if let Some(j) = t.journal {
                col.submit_journal(j);
            }
        }
        self.stats
    }

    /// Merge a tally into a collector's named counters (the owning stage
    /// calls this once, after its writers finish).
    pub fn harvest(stats: &ChunkStats, col: &Collector) {
        col.add(Counter::EventsRouted, stats.events);
        col.add(Counter::ChunkRecycled, stats.chunks_recycled);
        col.add(Counter::ChunkFresh, stats.chunks_fresh);
        col.add(Counter::SendStallNs, stats.send_stall_ns);
        // One sending thread per harvest: the per-thread stall mean divides
        // the summed stall nanoseconds by this tally.
        col.add(Counter::SendStallThreads, 1);
        col.add(Counter::DroppedChunks, stats.dropped_chunks);
        col.add(Counter::MalformedChunks, stats.malformed_sent);
    }
}

impl FoldSink for ChunkWriter {
    #[inline]
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.cur.push_point(stmt, coords, value);
        self.after_push();
    }

    #[inline]
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.cur.push_access(stmt, coords, addr, is_write);
        self.after_push();
    }

    #[inline]
    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        self.cur.push_dep(kind, src, src_coords, dst, dst_coords);
        self.after_push();
    }

    fn events_seen(&self) -> u64 {
        self.stats.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn chunk_roundtrip_preserves_events_in_order() {
        let mut c = EventChunk::with_capacity(8);
        c.push_point(StmtId(1), &[0, 1], Some(7));
        c.push_dep(DepKind::Flow, StmtId(1), &[0, 0], StmtId(2), &[0, 1]);
        c.push_access(StmtId(2), &[0, 1], 100, true);
        let mut sink = CollectSink::default();
        c.replay_into(&mut sink);
        assert_eq!(sink.points, vec![(StmtId(1), vec![0, 1], Some(7))]);
        assert_eq!(
            sink.deps,
            vec![(DepKind::Flow, StmtId(1), vec![0, 0], StmtId(2), vec![0, 1])]
        );
        assert_eq!(sink.accesses, vec![(StmtId(2), vec![0, 1], 100, true)]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut c = EventChunk::with_capacity(4);
        c.push_point(StmtId(0), &[1, 2, 3], None);
        let rec_cap = c.recs.capacity();
        let coord_cap = c.coords.capacity();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.recs.capacity(), rec_cap);
        assert_eq!(c.coords.capacity(), coord_cap);
    }

    #[test]
    fn writer_ships_full_chunks_and_recycles() {
        let (tx, rx) = sync_channel(8);
        let (pool_tx, pool_rx) = sync_channel(8);
        let mut w = ChunkWriter::new(2, tx, pool_rx);
        for i in 0..5 {
            w.instr_point(StmtId(i), &[i as i64], None);
        }
        // Two full chunks shipped; one partial pending.
        let c1 = rx.try_recv().expect("first chunk");
        assert_eq!(c1.len(), 2);
        pool_tx.send(c1).unwrap(); // recycle
        let c2 = rx.try_recv().expect("second chunk");
        assert_eq!(c2.len(), 2);
        w.finish();
        let c3 = rx.try_recv().expect("trailing partial chunk");
        assert_eq!(c3.len(), 1);
        assert!(rx.recv().is_err(), "writer closed the channel");
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_corrupted() {
        let mut c = EventChunk::with_capacity(4);
        c.push_point(StmtId(1), &[0, 1], None);
        c.push_dep(DepKind::Flow, StmtId(1), &[0], StmtId(2), &[1]);
        assert!(c.validate().is_ok());
        c.corrupt_for_fault_injection();
        assert!(c.validate().is_err());

        // An empty chunk gains a fabricated out-of-range record.
        let mut e = EventChunk::with_capacity(1);
        assert!(e.validate().is_ok());
        e.corrupt_for_fault_injection();
        assert!(e.validate().is_err());
    }

    #[test]
    fn writer_drop_fault_loses_exactly_the_probed_chunk() {
        let (tx, rx) = sync_channel(8);
        let (_pool_tx, pool_rx) = sync_channel(8);
        let mut w = ChunkWriter::new(2, tx, pool_rx);
        w.set_faults(Arc::new(FaultPlan::single(FaultSite::DropSend, 2)));
        for i in 0..6 {
            w.instr_point(StmtId(i), &[i as i64], None);
        }
        let stats = w.finish();
        assert_eq!(stats.dropped_chunks, 1);
        // Chunks 1 and 3 arrive; chunk 2 (the second flush) was dropped.
        let delivered: usize = rx.iter().map(|c| c.len()).sum();
        assert_eq!(delivered, 4);
    }

    #[test]
    fn writer_malformed_fault_is_detectable_downstream() {
        let (tx, rx) = sync_channel(8);
        let (_pool_tx, pool_rx) = sync_channel(8);
        let mut w = ChunkWriter::new(2, tx, pool_rx);
        w.set_faults(Arc::new(FaultPlan::single(FaultSite::MalformedChunk, 1)));
        for i in 0..4 {
            w.instr_point(StmtId(i), &[i as i64], None);
        }
        let stats = w.finish();
        assert_eq!(stats.malformed_sent, 1);
        let chunks: Vec<EventChunk> = rx.iter().collect();
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].validate().is_err(), "first chunk corrupted");
        assert!(chunks[1].validate().is_ok(), "second chunk untouched");
    }

    /// Shutdown-ordering regression (1-slot channel): a consumer that exits
    /// early MUST drop its receiver; the writer's pending and future sends
    /// then error out — counted as dropped chunks — instead of blocking
    /// forever against the full bounded channel.
    #[test]
    fn early_consumer_exit_unblocks_writer_sends() {
        let (tx, rx) = sync_channel::<EventChunk>(1);
        let (_pool_tx, pool_rx) = sync_channel(1);
        let writer = std::thread::spawn(move || {
            let mut w = ChunkWriter::new(1, tx, pool_rx);
            for i in 0..64 {
                w.instr_point(StmtId(i), &[i as i64], None);
            }
            w.finish()
        });
        // Consume a single chunk, then exit early *dropping the receiver*.
        let first = rx.recv().expect("one chunk");
        assert_eq!(first.len(), 1);
        drop(rx);
        let stats = writer.join().expect("writer must not deadlock");
        assert_eq!(stats.events, 64);
        assert!(stats.dropped_chunks > 0, "post-exit sends counted as drops");
    }
}
