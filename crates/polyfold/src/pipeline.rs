//! The worker scaffold of [`Target::Workers`](crate::pass2::Target): the
//! source stays on the calling thread (live it is inherently sequential —
//! IIV, interner and shadow memory all follow the one control-flow trace)
//! and writes into a [`ShardRouter`] in front of `n` folding threads.
//!
//! The router shards by folding key — statement id for points/accesses,
//! *consumer* statement id for dependences — so each key's whole stream
//! lands in exactly one [`FoldingSink`], in serial order (single producer,
//! FIFO channels). Per-shard folding state is therefore identical to the
//! calling-thread fold, and [`FoldedDdg::merge_parts`] produces
//! byte-identical output.
//!
//! All channels are bounded (`sync_channel`): a slow worker backpressures
//! the source instead of letting chunks pile up. Consumed chunks are recycled
//! through never-blocking return channels, preserving the zero-allocation
//! steady state on both sides.
//!
//! The source and every worker run under `catch_unwind`, so a panic in
//! either becomes a structured [`PolyProfError`] instead of poisoning the
//! scope. Unwinding drops the stage's channel endpoints, which unblocks its
//! peers: a dead worker makes the source's sends error out (counted as
//! dropped chunks by [`ChunkWriter`]), and a dead source makes `recv`
//! disconnect — no fault can deadlock the scaffold. What to do about a lost
//! stage is the supervisor's business (`pass2::supervise`).

use crate::pass2::Pass2;
use crate::{FoldedDdg, FoldingSink};
use polyddg::chunk::{ChunkWriter, EventChunk};
use polyddg::pipeline::ShardRouter;
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyresist::{panic_msg, FaultPlan, FaultSite, PolyProfError};
use polytrace::{tid_shard, Collector, Counter, HistKind, Histogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Bounded-channel depth, in chunks, of every source → worker edge: the
/// backpressure window.
const QUEUE_CHUNKS: usize = 4;

/// One bounded-channel receive, timed when `timing` is on; `None` on
/// disconnect. Each individual stall lands in `hist` (feeding the p50/p99
/// recv-stall distribution) and in the `stall_ns` sum.
#[inline]
fn recv_timed(
    rx: &Receiver<EventChunk>,
    timing: bool,
    stall_ns: &mut u64,
    hist: &mut Histogram,
) -> Option<EventChunk> {
    if timing {
        let t0 = Instant::now();
        let r = rx.recv().ok();
        let dt = t0.elapsed().as_nanos() as u64;
        *stall_ns += dt;
        hist.record(dt);
        r
    } else {
        rx.recv().ok()
    }
}

/// What one fold sink's thread hands back: the sink and, from a worker, its
/// chunk-level tallies.
#[derive(Default)]
pub(crate) struct WorkerOut {
    pub(crate) sink: FoldingSink,
    /// Chunks folded (one `fold-chunk` span each at `Trace`).
    chunks: u64,
    pub(crate) malformed: u64,
    recv_stall: u64,
    fold_hist: Histogram,
    stall_hist: Histogram,
}

impl WorkerOut {
    pub(crate) fn new(sink: FoldingSink) -> Self {
        let tallies = WorkerOut::default();
        WorkerOut { sink, ..tallies }
    }

    /// Add worker `shard`'s tallies to the run's collector. Registers the
    /// shard slot even at zero `events_folded`, so shard balance sees every
    /// configured shard.
    pub(crate) fn harvest(&self, c: &Collector, shard: usize, events_folded: u64) {
        c.record_shard_events(shard, events_folded);
        c.add(Counter::ChunksFolded, self.chunks);
        c.add(Counter::RecvStallNs, self.recv_stall);
        c.add(Counter::RecvStallThreads, 1);
        c.merge_hist(HistKind::RecvStallNs, &self.stall_hist);
        c.merge_hist(HistKind::FoldChunkNs, &self.fold_hist);
    }
}

/// The worker loop: fold every chunk arriving on `rx` into one shard's
/// [`FoldingSink`], recycling consumed chunks through `pool_tx` (never
/// blocks: a full pool just drops the chunk), until the sender hangs up.
fn fold_worker(
    shard: usize,
    rx: &Receiver<EventChunk>,
    pool_tx: &SyncSender<EventChunk>,
    cfg: &Pass2,
    faults: Option<&Arc<FaultPlan>>,
) -> WorkerOut {
    let trace = cfg.trace.as_deref();
    let _span = trace.map(|c| c.shard_span(shard));
    let timing = trace.is_some_and(|c| c.timing());
    let mut journal = trace.and_then(|c| c.new_journal(tid_shard(shard)));
    let mut out = WorkerOut::new(cfg.new_sink());
    while let Some(mut chunk) = recv_timed(rx, timing, &mut out.recv_stall, &mut out.stall_hist) {
        if let Some(c) = trace {
            c.queue_recv(shard);
        }
        if let Some(p) = faults {
            if p.should_fire(FaultSite::PanicFold) {
                panic!("injected fault: folding worker panic (shard {shard})");
            }
            // Validation runs only under an armed plan: production chunks
            // come from our own writer and the check would tax the hot path.
            if chunk.validate().is_err() {
                out.malformed += 1;
                chunk.clear();
                let _ = pool_tx.try_send(chunk);
                continue;
            }
        }
        let seq = out.chunks;
        let opened = journal
            .as_mut()
            .is_some_and(|j| j.begin("fold-chunk", shard as u64, seq));
        let t0 = timing.then(Instant::now);
        chunk.replay_into(&mut out.sink);
        if let Some(t0) = t0 {
            out.fold_hist.record(t0.elapsed().as_nanos() as u64);
        }
        if let Some(j) = journal.as_mut() {
            j.end(opened, "fold-chunk", shard as u64, seq);
        }
        out.chunks += 1;
        chunk.clear();
        let _ = pool_tx.try_send(chunk);
    }
    if let (Some(c), Some(j)) = (trace, journal) {
        c.submit_journal(j);
    }
    out
}

/// Run a stage body under `catch_unwind`, surfacing a panic as
/// [`PolyProfError::StagePanic`] so a stage never poisons the scope.
fn catch_stage<T>(
    stage: &'static str,
    body: impl FnOnce() -> Result<T, PolyProfError>,
) -> Result<T, PolyProfError> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|p| {
        Err(PolyProfError::StagePanic {
            stage,
            msg: panic_msg(&*p),
        })
    })
}

/// Spawn `n` folding workers, run `feed` on the calling thread over the
/// [`ShardRouter`] that fans out to them, join. `feed` owns the router, so
/// returning from it — or unwinding out of it — hangs up every channel and
/// lets the workers drain and finish. Returns what `feed` returned and one
/// slot per shard, `Err` where the stage panicked. `faults` arms the
/// send-side sites on the router and the worker-side ones.
pub(crate) fn with_fold_workers<T>(
    n: usize,
    cfg: &Pass2,
    faults: Option<&Arc<FaultPlan>>,
    feed: impl FnOnce(ShardRouter) -> Result<T, PolyProfError>,
) -> (
    Result<T, PolyProfError>,
    Vec<Result<WorkerOut, PolyProfError>>,
) {
    std::thread::scope(|s| {
        let mut writers = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for shard in 0..n {
            let (tx, rx) = sync_channel::<EventChunk>(QUEUE_CHUNKS);
            let (pool_tx, pool_rx) = sync_channel::<EventChunk>(QUEUE_CHUNKS + 2);
            writers.push(ChunkWriter::new(cfg.chunk_events.max(1), tx, pool_rx));
            workers.push(s.spawn(move || {
                catch_stage("fold", || {
                    Ok(fold_worker(shard, &rx, &pool_tx, cfg, faults))
                })
            }));
        }
        let mut router = ShardRouter::new(writers);
        if let Some(c) = &cfg.trace {
            router.set_trace(c);
        }
        if let Some(p) = faults {
            router.set_faults(p);
        }
        let fed = catch_stage("pre", || feed(router));
        let workers = workers
            .into_iter()
            .map(|h| h.join().expect("supervised stage never panics"))
            .collect();
        (fed, workers)
    })
}

/// Finalize every present shard — a lone one directly, several in parallel
/// and then merged deterministically (the vendored rayon stand-in has no
/// owned `into_par_iter`, hence the one-element-chunk option dance). Absent
/// shards are reported back by index.
pub(crate) fn finalize_shards(
    mut shards: Vec<Option<FoldingSink>>,
    prog: &Program,
    interner: &ContextInterner,
) -> (FoldedDdg, Vec<usize>) {
    use rayon::prelude::*;
    if let [Some(_)] = shards[..] {
        let sink = shards.pop().flatten().expect("matched above");
        return (sink.finalize(prog, interner), Vec::new());
    }
    let mut parts: Vec<Option<FoldedDdg>> =
        std::iter::repeat_with(|| None).take(shards.len()).collect();
    shards
        .par_chunks_mut(1)
        .zip(parts.par_chunks_mut(1))
        .for_each(|(slot, part)| {
            if let Some(sink) = slot[0].take() {
                part[0] = Some(sink.finalize(prog, interner));
            }
        });
    FoldedDdg::merge_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold_program;
    use crate::pass2::{run, Live, Source, Target};
    use polycfg::StaticStructure;
    use polyir::build::ProgramBuilder;
    use polyresist::RunDegradation;

    fn stencil_prog() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(64);
        let mut f = pb.func("main", 0);
        f.for_loop("T", 0i64, 3i64, 1, |f, _t| {
            f.for_loop("L", 1i64, 30i64, 1, |f, i| {
                let prev = f.load(base as i64, i);
                let im1 = f.add(i, -1i64);
                let left = f.load(base as i64, im1);
                let v = f.add(prev, left);
                f.store(base as i64, i, v);
            });
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        pb.finish()
    }

    /// `k` workers behind tiny chunks (exercise flush boundaries), with an
    /// optional fault plan.
    fn tiny_cfg(k: usize, faults: Option<FaultPlan>, max_retries: u32) -> Pass2 {
        Pass2 {
            target: Target::Workers {
                n: k,
                faults: faults.map(Arc::new),
                max_retries,
            },
            chunk_events: 16,
            ..Default::default()
        }
    }

    fn supervised(p: &Program, cfg: &Pass2) -> (FoldedDdg, RunDegradation) {
        let mut rec = polycfg::StructureRecorder::new();
        polyvm::Vm::new(p).run(&[], &mut rec).unwrap();
        let structure = StaticStructure::analyze(p, rec);
        let out = run(p, &Source::Live(Live::new(&structure)), cfg).unwrap();
        (out.ddg, out.degradation)
    }

    /// Smallest possible end-to-end check: shard counts and chunk sizes must
    /// not change any folded fact (the full byte-compare lives in
    /// tests/sharded.rs).
    #[test]
    fn pipelined_matches_serial_counts() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        for k in [1usize, 3] {
            let (piped, _) = supervised(&p, &tiny_cfg(k, None, 2));
            assert_eq!(piped.total_ops, serial.total_ops, "k={k}");
            assert_eq!(piped.n_stmts(), serial.n_stmts(), "k={k}");
            assert_eq!(piped.deps.len(), serial.deps.len(), "k={k}");
            assert_eq!(piped.accesses.len(), serial.accesses.len(), "k={k}");
            let aff_s = serial.affine_fraction();
            let aff_p = piped.affine_fraction();
            assert!((aff_s - aff_p).abs() < 1e-12, "k={k}");
        }
    }

    /// A panic inside a stage must reach the caller with its payload.
    #[test]
    fn stage_panic_propagates() {
        let p = stencil_prog();
        let res = std::panic::catch_unwind(|| {
            let cfg = Pass2 {
                target: Target::workers(1),
                chunk_events: 0, // clamped to 1 — still valid
                ..Default::default()
            };
            // Sanity: a valid run inside catch_unwind works.
            let _ = supervised(&p, &cfg);
            panic!("deliberate: payload must survive");
        });
        let payload = res.expect_err("panic expected");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("deliberate"), "payload lost");
    }

    /// With no faults and no budget, the supervised path must reproduce the
    /// calling-thread fold exactly — the hooks are zero-cost `None` branches.
    #[test]
    fn supervised_fault_free_matches_plain() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let (ddg, deg) = supervised(&p, &tiny_cfg(2, None, 2));
        assert!(!deg.is_degraded(), "{deg:?}");
        assert_eq!(ddg.total_ops, serial.total_ops);
        assert_eq!(ddg.n_stmts(), serial.n_stmts());
        assert_eq!(ddg.deps.len(), serial.deps.len());
        assert_eq!(ddg.accesses.len(), serial.accesses.len());
    }

    /// A one-shot producer panic fails the first attempt; the retry probes
    /// past the armed occurrence and completes with full-fidelity output.
    #[test]
    fn one_shot_producer_panic_retries_to_full_result() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let plan = FaultPlan::single(FaultSite::PanicPre, 1);
        let (ddg, deg) = supervised(&p, &tiny_cfg(2, Some(plan), 2));
        assert_eq!(deg.stage_retries, 1, "{deg:?}");
        assert!(!deg.fell_back_serial);
        assert!(deg.faults_injected >= 1);
        assert_eq!(ddg.total_ops, serial.total_ops, "retry must be lossless");
        assert_eq!(ddg.deps.len(), serial.deps.len());
    }

    /// A folding-worker panic only loses its shard: the run completes with
    /// the surviving shards and records the hole.
    #[test]
    fn fold_worker_panic_yields_partial_result() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let plan = FaultPlan::single(FaultSite::PanicFold, 1);
        let (ddg, deg) = supervised(&p, &tiny_cfg(3, Some(plan), 2));
        assert_eq!(deg.stage_retries, 0, "worker loss is salvaged, not retried");
        assert_eq!(deg.missing_shards.len(), 1, "{deg:?}");
        assert!(deg.is_degraded());
        assert!(
            ddg.n_stmts() <= serial.n_stmts(),
            "partial result never invents statements"
        );
    }

    /// An every-occurrence panic defeats retry and forces the serial
    /// fallback — which, being fault-free, produces the full exact result.
    #[test]
    fn persistent_panic_falls_back_serial() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let plan = FaultPlan::always(FaultSite::PanicPre);
        let (ddg, deg) = supervised(&p, &tiny_cfg(2, Some(plan), 1));
        assert!(deg.fell_back_serial, "{deg:?}");
        assert_eq!(deg.stage_retries, 1);
        assert_eq!(ddg.total_ops, serial.total_ops, "fallback is lossless");
        assert_eq!(ddg.deps.len(), serial.deps.len());
        assert_eq!(ddg.n_stmts(), serial.n_stmts());
    }

    /// A dropped chunk completes the run and is accounted for.
    #[test]
    fn dropped_chunk_completes_with_degradation() {
        let p = stencil_prog();
        let plan = FaultPlan::single(FaultSite::DropSend, 1);
        let (_, deg) = supervised(&p, &tiny_cfg(2, Some(plan), 2));
        assert!(deg.dropped_chunks >= 1, "{deg:?}");
        assert!(deg.is_degraded());
    }

    /// A corrupted chunk is caught by validation, skipped, and counted —
    /// never replayed into a folder.
    #[test]
    fn malformed_chunk_rejected_and_counted() {
        let p = stencil_prog();
        let plan = FaultPlan::single(FaultSite::MalformedChunk, 1);
        let (_, deg) = supervised(&p, &tiny_cfg(2, Some(plan), 2));
        assert_eq!(deg.malformed_chunks, 1, "{deg:?}");
        assert!(deg.is_degraded());
    }

    /// A refused shadow-page allocation skips that access's dependences but
    /// the run completes with the loss accounted.
    #[test]
    fn shadow_alloc_fault_counted_as_unresolved() {
        let p = stencil_prog();
        let plan = FaultPlan::single(FaultSite::AllocShadow, 1);
        let (_, deg) = supervised(&p, &tiny_cfg(2, Some(plan), 2));
        assert_eq!(deg.shadow_alloc_failures, 1, "{deg:?}");
        assert!(deg.unresolved_accesses >= 1, "{deg:?}");
    }
}
