//! Offline re-folding of `.ptrace` recordings (capture/replay split).
//!
//! A recording holds the folding-interface stream itself, so replay needs
//! neither the VM nor the shadow memory: [`fold_recording`] decodes frames
//! back into recycled [`EventChunk`]s and folds them — serially for K ≤ 1,
//! or through the live pipeline's own scaffold (`with_fold_workers`: a
//! `ShardRouter` in front of K workers) for K > 1. Sharding is by folding
//! key with per-key serial order preserved, so the replayed [`FoldedDdg`]
//! is byte-identical (see [`FoldedDdg::canonical_text`]) to the live fold at
//! *every* K — the invariant the CI replay gate enforces.

use crate::pass2::harvest_fold;
use crate::pipeline::with_fold_workers;
use crate::{FoldOptions, FoldedDdg, FoldingSink};
use polyddg::chunk::EventChunk;
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyrec::{program_hash, TraceReader};
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
    let mut chunk = EventChunk::default();
    let (sinks, chunks_folded, interner, stats) = if fold_threads <= 1 {
        let mut sink = FoldingSink::with_options(options);
        while reader.next_chunk(&mut chunk)? {
            chunk.replay_into(&mut sink);
        }
        let (interner, stats) = reader.finish()?;
        (vec![sink], stats.frames, interner, stats)
    } else {
        // The feeder routes by folding key into K worker channels: the live
        // pipeline with a trace reader where the VM and profiler would be.
        let chunk_events = reader.meta().chunk_events.max(1) as usize;
        let (fed, workers) = with_fold_workers(
            fold_threads,
            chunk_events,
            options,
            None,
            None,
            None,
            |mut router| {
                while reader.next_chunk(&mut chunk)? {
                    chunk.replay_into(&mut router);
                }
                router.finish();
                reader.finish()
            },
        );
        let (interner, stats) = fed?;
        let workers = workers.into_iter().collect::<Result<Vec<_>, _>>()?;
        let chunks = workers.iter().map(|w| w.chunks).sum();
        let sinks: Vec<FoldingSink> = workers.into_iter().map(|w| w.sink).collect();
        (sinks, chunks, interner, stats)
    };
    if let Some(c) = trace {
        c.add(Counter::RecFramesRead, stats.frames);
        c.add(Counter::RecBytesRead, stats.bytes);
        c.add(Counter::ChunksFolded, chunks_folded);
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
