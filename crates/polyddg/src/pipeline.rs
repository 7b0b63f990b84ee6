//! Key-sharded fan-out of the resolved stream, for intra-trace parallel
//! folding.
//!
//! [`DdgProfiler`](crate::DdgProfiler) does everything but folding on the VM
//! thread — loop events, IIV maintenance, statement interning, register
//! tracking, shadow-memory resolution — because all of it follows the one
//! control-flow trace. Folding does not: each folding key's stream is
//! independent of every other key's. [`ShardRouter`] is the
//! [`FoldSink`] that exploits that: handed to the profiler in place of a
//! folding sink, it partitions the resolved stream over K folding workers
//! by statement id (dependences by *consumer* id — the folding key contains
//! the consumer, so every dependence stream lives wholly in one shard) and
//! ships it in [`EventChunk`](crate::chunk::EventChunk)s over bounded
//! channels. Orchestration lives in `polyfold::pass2`, which owns the
//! folding side.
//!
//! Event order is preserved *per folding key*: the producer is
//! single-threaded and the channels are FIFO, so the subsequence of events a
//! given shard sees for one key is exactly the serial profiler's
//! subsequence. That is the invariant `StreamFolder` needs
//! (lexicographically non-decreasing coordinates per key) and the reason the
//! sharded run folds byte-identical state.

use crate::chunk::ChunkWriter;
use crate::{DepKind, FoldSink};
use polyiiv::context::StmtId;
use polyresist::FaultPlan;
use polytrace::Collector;
use std::sync::Arc;

/// Routes a resolved fold stream across K [`ChunkWriter`] shards.
///
/// Points and accesses shard by statement id; dependences by the
/// *consumer* statement id. The fold key of a dependence is
/// `(kind, src, dst, class)` — routing by `dst` keeps every key's stream
/// whole within one shard, so per-key folding state is identical to the
/// serial run.
pub struct ShardRouter {
    shards: Vec<ChunkWriter>,
}

impl ShardRouter {
    /// Router over one writer per folding worker (at least one).
    pub fn new(shards: Vec<ChunkWriter>) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        ShardRouter { shards }
    }

    #[inline]
    fn shard_of(&self, stmt: StmtId) -> usize {
        stmt.0 as usize % self.shards.len()
    }

    /// Flush all trailing partial chunks and close the shard channels,
    /// returning the summed telemetry tally of every shard writer (its
    /// `events` field is the routed-event total).
    pub fn finish(self) -> crate::chunk::ChunkStats {
        let mut total = crate::chunk::ChunkStats::default();
        for w in self.shards {
            total.merge(&w.finish());
        }
        total
    }

    /// Attach a telemetry collector to every shard writer; shard `k` reports
    /// on channel edge `k`.
    pub fn set_trace(&mut self, collector: &Arc<Collector>) {
        for (k, w) in self.shards.iter_mut().enumerate() {
            w.set_trace(Arc::clone(collector), k);
        }
    }

    /// Arm a deterministic fault plan on every shard writer (send-side
    /// stall/drop/corrupt sites).
    pub fn set_faults(&mut self, plan: &Arc<FaultPlan>) {
        for w in self.shards.iter_mut() {
            w.set_faults(Arc::clone(plan));
        }
    }
}

impl FoldSink for ShardRouter {
    #[inline]
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        let s = self.shard_of(stmt);
        self.shards[s].instr_point(stmt, coords, value);
    }

    #[inline]
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        let s = self.shard_of(stmt);
        self.shards[s].mem_access(stmt, coords, addr, is_write);
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
        let s = self.shard_of(dst);
        self.shards[s].dependence(kind, src, src_coords, dst, dst_coords);
    }

    fn events_seen(&self) -> u64 {
        self.shards.iter().map(ChunkWriter::events_seen).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::EventChunk;
    use crate::CollectSink;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn router_partitions_by_key_and_preserves_order() {
        let k = 3;
        let mut writers = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..k {
            let (tx, rx) = sync_channel::<EventChunk>(16);
            let (_pool_tx, pool_rx) = sync_channel::<EventChunk>(1);
            writers.push(ChunkWriter::new(4, tx, pool_rx));
            rxs.push(rx);
        }
        let mut router = ShardRouter::new(writers);
        for i in 0..10u32 {
            router.instr_point(StmtId(i), &[i as i64], None);
            // dependence routed by dst (= i), src deliberately elsewhere
            router.dependence(DepKind::Flow, StmtId(i + 1), &[0], StmtId(i), &[i as i64]);
        }
        router.finish();
        for (shard, rx) in rxs.into_iter().enumerate() {
            let mut sink = CollectSink::default();
            for chunk in rx {
                chunk.replay_into(&mut sink);
            }
            let mut last = -1i64;
            for (stmt, coords, _) in &sink.points {
                assert_eq!(stmt.0 as usize % k, shard, "point routed to wrong shard");
                assert!(coords[0] > last, "per-shard order must be FIFO");
                last = coords[0];
            }
            for (_, _, _, dst, _) in &sink.deps {
                assert_eq!(dst.0 as usize % k, shard, "dep routed by consumer id");
            }
        }
    }
}
