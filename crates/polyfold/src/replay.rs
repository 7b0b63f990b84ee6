//! Offline re-folding of `.ptrace` recordings (capture/replay split).
//!
//! A recording holds the fully-resolved folding-interface stream, so replay
//! needs neither the VM nor the shadow resolver: [`fold_recording`] decodes
//! frames back into recycled [`EventChunk`]s and folds them — serially for
//! K ≤ 1, or through the same [`ShardRouter`] → K-worker shape (and the same
//! worker loop) as the live pipeline for K > 1. Sharding is by folding key with per-key serial order
//! preserved, so the replayed [`FoldedDdg`] is byte-identical (see
//! [`FoldedDdg::canonical_text`]) to the live fold at *every* K — the
//! invariant the CI replay gate enforces.

use crate::pass2::harvest_fold;
use crate::pipeline::{fold_worker, shard_edges};
use crate::{ChunkScratch, FoldOptions, FoldedDdg, FoldingSink};
use polyddg::chunk::EventChunk;
use polyddg::pipeline::ShardRouter;
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyrec::{program_hash, ReadStats, TraceReader};
use polyresist::PolyProfError;
use polytrace::{Collector, Counter};
use std::path::Path;
use std::sync::Arc;

/// Fold a recording at `path` into a [`FoldedDdg`] using `fold_threads`
/// shards, without executing the program.
///
/// `prog` must be the program the recording was captured from: the header's
/// program hash is checked first (a mismatch is a structured error), and
/// finalization classifies SCEVs against the program's instructions.
pub fn fold_recording(
    path: &Path,
    prog: &Program,
    fold_threads: usize,
    options: FoldOptions,
    trace: Option<&Arc<Collector>>,
) -> Result<(FoldedDdg, ContextInterner), PolyProfError> {
    let mut reader = TraceReader::open(path)?;
    let want = program_hash(prog);
    let got = reader.meta().program_hash;
    if want != got {
        return Err(PolyProfError::Recording {
            path: path.display().to_string(),
            detail: format!(
                "program hash mismatch: recording was captured from {got:#018x}, \
                 replaying against {want:#018x} ({})",
                prog.name
            ),
        });
    }
    let k = fold_threads.max(1);
    let (sinks, interner, stats) = if k == 1 {
        let mut sink = FoldingSink::with_options(options);
        let mut scratch = ChunkScratch::default();
        let mut chunk = EventChunk::default();
        while reader.next_chunk(&mut chunk)? {
            sink.fold_chunk(&chunk, &mut scratch);
        }
        let (interner, stats) = reader.finish()?;
        (vec![sink], interner, stats)
    } else {
        fold_replay_sharded(reader, k, options)?
    };
    if let Some(c) = trace {
        c.add(Counter::RecFramesRead, stats.frames);
        c.add(Counter::RecBytesRead, stats.bytes);
        for sink in &sinks {
            harvest_fold(c, &sink.fold_stats());
        }
    }
    let parts = sinks
        .into_iter()
        .map(|s| s.finalize(prog, &interner))
        .collect::<Vec<_>>();
    Ok((FoldedDdg::merge_parts(parts), interner))
}

/// K > 1 replay: a reader thread decodes frames and routes the events by
/// folding key into K worker channels (the live pipeline's stage-2 → stage-3
/// edge, minus the VM and resolver in front of it).
fn fold_replay_sharded<R: std::io::Read + Send>(
    mut reader: TraceReader<R>,
    k: usize,
    options: FoldOptions,
) -> Result<(Vec<FoldingSink>, ContextInterner, ReadStats), PolyProfError> {
    // Mirror the live pipeline's defaults for batching and backpressure.
    let chunk_events = reader.meta().chunk_events.max(1) as usize;
    let queue = 4;

    std::thread::scope(|s| {
        let (shard_writers, shard_ends) = shard_edges(k, chunk_events, queue);

        let feeder = s.spawn(
            move || -> Result<(ContextInterner, ReadStats), PolyProfError> {
                let mut router = ShardRouter::new(shard_writers);
                let mut chunk = EventChunk::default();
                while reader.next_chunk(&mut chunk)? {
                    // Recordings carry only resolved events, so replay_into
                    // (which rejects MemPre) is safe by construction.
                    chunk.replay_into(&mut router);
                }
                router.finish();
                reader.finish()
            },
        );

        let workers: Vec<_> = shard_ends
            .into_iter()
            .enumerate()
            .map(|(shard, (rx, pool_tx))| {
                s.spawn(move || fold_worker(shard, &rx, &pool_tx, options, None, None, None).sink)
            })
            .collect();

        let fed = feeder.join().expect("replay feeder never panics");
        let sinks: Vec<FoldingSink> = workers
            .into_iter()
            .map(|h| h.join().expect("replay worker never panics"))
            .collect();
        let (interner, stats) = fed?;
        Ok((sinks, interner, stats))
    })
}
