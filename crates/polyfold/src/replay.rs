//! Offline re-folding of `.ptrace` recordings (capture/replay split).
//!
//! A recording holds pass 1's graphs and the folding-interface stream
//! itself, in the order the live run produced it, so replay needs neither
//! the VM nor the shadow memory, and the replayed [`FoldedDdg`] is byte-identical (see
//! [`FoldedDdg::canonical_text`]) to the live fold — the invariant the CI
//! replay gate enforces.

use crate::pass2::{run, Pass2, Replay, Source};
use crate::{FoldOptions, FoldedDdg};
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyresist::PolyProfError;
use polytrace::Collector;
use std::path::Path;
use std::sync::Arc;

/// Fold a recording at `path` into a [`FoldedDdg`] without executing the
/// program: [`run`] over a [`Source::Recording`], on the calling thread.
/// `_fold_threads` is ignored; removed when ROADMAP item 1e drops the call.
///
/// `prog` must be the program the recording was captured from: the header's
/// program id is checked first (a mismatch is a structured error), and
/// finalization classifies SCEVs against the program's instructions.
pub fn fold_recording(
    path: &Path,
    prog: &Program,
    _fold_threads: usize,
    options: FoldOptions,
    trace: Option<&Arc<Collector>>,
) -> Result<(FoldedDdg, ContextInterner), PolyProfError> {
    let cfg = Pass2 {
        options,
        trace: trace.cloned(),
        ..Pass2::default()
    };
    let out = run(prog, &Source::Recording(&Replay::from(path)), &cfg)?;
    Ok((out.ddg, out.interner))
}
