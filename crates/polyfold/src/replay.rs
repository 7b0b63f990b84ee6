//! Offline re-folding of `.ptrace` recordings (capture/replay split).
//!
//! A recording holds the folding-interface stream itself, so replay needs
//! neither the VM nor the shadow memory. Worker targets shard it by folding
//! key with per-key serial order preserved, so the replayed [`FoldedDdg`] is
//! byte-identical (see [`FoldedDdg::canonical_text`]) to the live fold at
//! *every* K — the invariant the CI replay gate enforces.

use crate::pass2::{run, Pass2, Source, Target};
use crate::{FoldOptions, FoldedDdg};
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyresist::PolyProfError;
use polytrace::Collector;
use std::path::Path;
use std::sync::Arc;

/// Fold a recording at `path` into a [`FoldedDdg`] without executing the
/// program: [`run`] over a [`Source::Recording`], on the calling thread for
/// `fold_threads` ≤ 1 and on that many supervised workers above.
///
/// `prog` must be the program the recording was captured from: the header's
/// program hash is checked first (a mismatch is a structured error), and
/// finalization classifies SCEVs against the program's instructions. A shard
/// lost to a worker panic — without budget or fault plan, the only loss
/// possible — is an error here, not a partial fold.
pub fn fold_recording(
    path: &Path,
    prog: &Program,
    fold_threads: usize,
    options: FoldOptions,
    trace: Option<&Arc<Collector>>,
) -> Result<(FoldedDdg, ContextInterner), PolyProfError> {
    let cfg = Pass2 {
        target: match fold_threads {
            0 | 1 => Target::Inline,
            n => Target::workers(n),
        },
        options,
        trace: trace.cloned(),
        ..Pass2::default()
    };
    let out = run(prog, &Source::Recording(path), &cfg)?;
    if !out.degradation.missing_shards.is_empty() {
        let msg = format!("shards {:?} lost", out.degradation.missing_shards);
        return Err(PolyProfError::StagePanic { stage: "fold", msg });
    }
    Ok((out.ddg, out.interner))
}
