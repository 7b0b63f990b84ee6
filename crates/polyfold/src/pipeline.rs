//! Intra-trace pipeline parallelism: one profiling run, many threads.
//!
//! The serial pass 2 ([`fold_serial`]) does everything on the calling
//! thread. [`fold_pipelined_supervised`] — the one staged entry point —
//! keeps the producer there and moves only the folding onto K worker
//! threads, behind bounded channels:
//!
//! ```text
//!  calling thread                              K folding workers
//! ┌──────────────────────────────────────┐     ┌─────────────────┐
//! │ drive_serial                         │  ┌─▶│ FoldingSink #0  │
//! │  VM → DdgProfiler (IIV, interning,   │ ch  ├─────────────────┤
//! │  register deps, shadow resolution)   ├──┼─▶│       ...       │
//! │  → [Recorder tap] → ShardRouter      │  └─▶│ FoldingSink #K-1│
//! └──────────────────────────────────────┘     └─────────────────┘
//!                        resolved events, sharded by key
//! ```
//!
//! * The producer is `pass2::drive_serial`, the serial driver's own body,
//!   writing into a [`ShardRouter`] where the serial driver writes into a
//!   [`FoldingSink`]. It is inherently sequential — the IIV, the interner
//!   and the shadow memory all follow the single control-flow trace — and
//!   shadow resolution is its thinnest part, so it has no stage of its own.
//! * The router shards by folding key — statement id for points/accesses,
//!   *consumer* statement id for dependences — so each key's whole stream
//!   lands in exactly one [`FoldingSink`] partition, in serial order
//!   (single producer, FIFO channels). Per-shard folding state is therefore
//!   identical to the serial run, and [`FoldedDdg::merge_parts`] produces
//!   byte-identical output. The scaffold (`with_fold_workers`) is shared
//!   with the K > 1 replay of recordings (`crate::replay`), whose producer
//!   is a trace reader instead of the VM.
//!
//! All channels are bounded (`sync_channel`): a slow worker backpressures
//! the VM instead of letting chunks pile up. Consumed chunks are recycled
//! through never-blocking return channels, preserving the zero-allocation
//! steady state on both sides.
//!
//! ## Supervision
//!
//! The producer and every worker run under `catch_unwind`, so a panic in
//! either is converted into a structured [`PolyProfError`] instead of
//! poisoning the scope. Unwinding drops the stage's channel endpoints, which
//! unblocks its peers: a dead worker makes the producer's sends error out
//! (counted as dropped chunks by [`ChunkWriter`]), and a dead producer makes
//! `recv` disconnect — no fault can deadlock the pipeline.
//!
//! The supervisor layers policy on top:
//!
//! * a dead *folding worker* only loses its shard — the surviving shards are
//!   merged with [`FoldedDdg::merge_parts_tolerant`] and the lost shard ids
//!   are recorded in the [`RunDegradation`];
//! * a dead *producer* (or the loss of every shard) fails the attempt, which
//!   is retried with linear backoff. [`FaultPlan`] occurrence counters keep
//!   counting across attempts, so a one-shot injected fault does not re-fire
//!   on retry;
//! * after `max_retries` failed attempts the run falls back to
//!   [`fold_serial`] (no fault hooks — the trusted baseline), still honoring
//!   the resource budget and the recording request.
//!
//! Stages only *tally*; the counters of an attempt reach the collector once
//! it has succeeded, so failed attempts leave no counts behind. With no
//! fault plan and no budget armed, every hook is a skipped `None` branch.

use crate::pass2::{close_degradation, drive_serial, fold_serial, harvest_fold, FrontTallies};
use crate::{FoldOptions, FoldedDdg, FoldingSink};
use polycfg::StaticStructure;
use polyddg::chunk::{ChunkStats, ChunkWriter, EventChunk};
use polyddg::pipeline::ShardRouter;
use polyddg::prune::{PruneMask, PrunedEvents};
use polyddg::{DdgConfig, MemSynth};
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyresist::{panic_msg, FaultPlan, FaultSite, PolyProfError, ResourceBudget, RunDegradation};
use polytrace::{tid_shard, Collector, Counter, HistKind, Histogram, PipeStage, Stage, TID_DRIVER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of one pass-2 run. The staged pipeline reads all of them; the
/// serial driver ([`fold_serial`]) reads `options`, `ddg` and — for the
/// recorder's frame size — `chunk_events`.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Folding worker count K (≥ 1): K threads beside the calling one.
    pub fold_threads: usize,
    /// Events per chunk — the batching granularity between the producer and
    /// the workers.
    pub chunk_events: usize,
    /// Folding options for every shard.
    pub options: FoldOptions,
    /// DDG tracking switches (must match the serial config being compared).
    pub ddg: DdgConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            fold_threads: 1,
            chunk_events: 4096,
            options: FoldOptions::default(),
            ddg: DdgConfig::default(),
        }
    }
}

/// Bounded-channel depth, in chunks, of every producer → worker edge: the
/// backpressure window, live and on replay.
const QUEUE_CHUNKS: usize = 4;

/// Supervision policy and resilience hooks for one profiling run.
///
/// The default is fully disarmed: no fault plan, no budget (panics are
/// still caught and retried — genuine transient failures recover too).
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Deterministic fault-injection schedule (tests / resilience gate).
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared byte/deadline budget; stages degrade instead of aborting.
    pub budget: Option<Arc<ResourceBudget>>,
    /// Failed pipeline attempts to retry before the serial fallback.
    pub max_retries: u32,
    /// Base backoff between attempts (scaled linearly by attempt number).
    pub backoff: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            faults: None,
            budget: None,
            max_retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

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

/// What one folding worker hands back: its shard's sink and its tallies.
pub(crate) struct WorkerOut {
    pub(crate) sink: FoldingSink,
    /// Chunks folded (one `fold-chunk` span each at `Trace`).
    pub(crate) chunks: u64,
    malformed: u64,
    recv_stall: u64,
    fold_hist: Histogram,
    stall_hist: Histogram,
}

/// The worker loop: fold every chunk arriving on `rx` into one shard's
/// [`FoldingSink`], recycling consumed chunks through `pool_tx` (never
/// blocks: a full pool just drops the chunk), until the sender hangs up.
fn fold_worker(
    shard: usize,
    rx: &Receiver<EventChunk>,
    pool_tx: &SyncSender<EventChunk>,
    options: FoldOptions,
    trace: Option<&Arc<Collector>>,
    faults: Option<&Arc<FaultPlan>>,
    budget: Option<&Arc<ResourceBudget>>,
) -> WorkerOut {
    let _span = trace.map(|c| c.shard_span(shard));
    let timing = trace.is_some_and(|c| c.timing());
    let mut journal = trace.and_then(|c| c.new_journal(tid_shard(shard)));
    let mut out = WorkerOut {
        sink: FoldingSink::with_options(options),
        chunks: 0,
        malformed: 0,
        recv_stall: 0,
        fold_hist: Histogram::new(),
        stall_hist: Histogram::new(),
    };
    if let Some(b) = budget {
        out.sink.set_budget(Arc::clone(b));
    }
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

/// The scaffold of every sharded fold, live or replayed: spawn `k` folding
/// workers, run `feed` on the calling thread over the [`ShardRouter`] that
/// fans out to them, join. `feed` owns the router, so returning from it — or
/// unwinding out of it — hangs up every channel and lets the workers drain
/// and finish. Returns what `feed` returned and one slot per shard, `Err`
/// where the stage panicked. `trace`, `faults` and `budget` are the live
/// pipeline's hooks; replay passes `None`.
pub(crate) fn with_fold_workers<T>(
    k: usize,
    chunk_events: usize,
    options: FoldOptions,
    trace: Option<&Arc<Collector>>,
    faults: Option<&Arc<FaultPlan>>,
    budget: Option<&Arc<ResourceBudget>>,
    feed: impl FnOnce(ShardRouter) -> Result<T, PolyProfError>,
) -> (
    Result<T, PolyProfError>,
    Vec<Result<WorkerOut, PolyProfError>>,
) {
    std::thread::scope(|s| {
        let mut writers = Vec::with_capacity(k);
        let mut workers = Vec::with_capacity(k);
        for shard in 0..k {
            let (tx, rx) = sync_channel::<EventChunk>(QUEUE_CHUNKS);
            let (pool_tx, pool_rx) = sync_channel::<EventChunk>(QUEUE_CHUNKS + 2);
            writers.push(ChunkWriter::new(chunk_events, tx, pool_rx));
            workers.push(s.spawn(move || {
                catch_stage("fold", || {
                    Ok(fold_worker(
                        shard, &rx, &pool_tx, options, trace, faults, budget,
                    ))
                })
            }));
        }
        let mut router = ShardRouter::new(writers);
        if let Some(c) = trace {
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

/// Everything a successful pipeline attempt produced, before shard
/// finalization: the (possibly gap-ridden) shard sinks, the loss accounting
/// the supervisor folds into the [`RunDegradation`], and the stage tallies
/// [`harvest`](AttemptOk::harvest) adds to the collector.
struct AttemptOk {
    /// One slot per shard; `Err` where the worker died.
    workers: Vec<Result<WorkerOut, PolyProfError>>,
    interner: ContextInterner,
    front: FrontTallies,
    route_stats: ChunkStats,
}

impl AttemptOk {
    /// Add this attempt's stage tallies to the run's collector. Called once,
    /// on the attempt whose result the run keeps.
    fn harvest(&self, c: &Collector) {
        self.front.harvest(c);
        ChunkWriter::harvest(&self.route_stats, c);
        for (shard, w) in self.workers.iter().enumerate() {
            let Ok(w) = w else { continue };
            let fs = w.sink.fold_stats();
            // Registers the shard slot even at zero events, so shard balance
            // sees every configured shard.
            c.record_shard_events(shard, fs.events_folded);
            harvest_fold(c, &fs);
            c.add(Counter::ChunksFolded, w.chunks);
            c.add(Counter::RecvStallNs, w.recv_stall);
            c.add(Counter::RecvStallThreads, 1);
            c.merge_hist(HistKind::RecvStallNs, &w.stall_hist);
            c.merge_hist(HistKind::FoldChunkNs, &w.fold_hist);
        }
    }
}

/// One supervised pipeline attempt. A producer error — or the loss of every
/// folding worker — fails the attempt; losing *some* workers only punches
/// holes in `workers`. With `record` set the producer taps its stream into a
/// `.ptrace` file, so a failed attempt leaves a detectably unfinished
/// recording behind.
#[allow(clippy::too_many_arguments)]
fn fold_attempt(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    prune: Option<Arc<PruneMask>>,
    synth: Option<&Arc<dyn MemSynth>>,
    faults: Option<&Arc<FaultPlan>>,
    budget: Option<&Arc<ResourceBudget>>,
    record: Option<&Path>,
) -> Result<AttemptOk, PolyProfError> {
    let (fed, workers) = with_fold_workers(
        cfg.fold_threads.max(1),
        cfg.chunk_events.max(1),
        cfg.options,
        trace,
        faults,
        budget,
        |router| {
            let _span = trace.map(|c| c.pipe_span(PipeStage::PreProfile));
            let (router, interner, front) = drive_serial(
                prog, structure, cfg, trace, prune, synth, record, budget, faults, router,
            )?;
            Ok((interner, front, router.finish()))
        },
    );
    // A producer failure is unrecoverable within the attempt: the event
    // stream itself is incomplete in a way no shard merge can repair.
    let (interner, front, route_stats) = fed?;
    if workers.iter().all(Result::is_err) {
        let last = workers.last().and_then(|w| w.as_ref().err());
        let msg = last.expect("k >= 1").to_string();
        return Err(PolyProfError::StagePanic { stage: "fold", msg });
    }
    Ok(AttemptOk {
        workers,
        interner,
        front,
        route_stats,
    })
}

/// Pass 2 as a supervised staged pipeline — the one pipelined entry point:
/// the producer of the module docs on the calling thread and `fold_threads`
/// worker threads, plus fault hooks, bounded retry, serial fallback, and a
/// [`RunDegradation`] record of everything the run lost. Byte-identical to
/// [`fold_serial`] → `finalize` (the sharded differential suite). `Err` only
/// when even the serial fallback cannot complete (a deterministic VM
/// failure).
///
/// `prune` installs a static prune mask on the profiler; when it carries
/// access-level bits, `synth` must re-emit the pruned memory streams (see
/// [`MemSynth`]). The third return value counts the events it skipped.
/// `record` streams each attempt's events into a `.ptrace` file
/// (a retry, and the serial fallback, recreate it). `trace` gets spans,
/// gauges and journals live, and the winning attempt's counters once.
#[allow(clippy::too_many_arguments)]
pub fn fold_pipelined_supervised(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    prune: Option<Arc<PruneMask>>,
    synth: Option<Arc<dyn MemSynth>>,
    record: Option<&Path>,
    res: &ResilienceConfig,
) -> Result<(FoldedDdg, ContextInterner, PrunedEvents, RunDegradation), PolyProfError> {
    let mut deg = RunDegradation::default();

    let mut attempt_no: u32 = 0;
    let outcome = loop {
        match fold_attempt(
            prog,
            structure,
            cfg,
            trace,
            prune.clone(),
            synth.as_ref(),
            res.faults.as_ref(),
            res.budget.as_ref(),
            record,
        ) {
            Ok(ok) => break Some(ok),
            Err(e) if attempt_no < res.max_retries => {
                attempt_no += 1;
                deg.stage_retries += 1;
                deg.note(
                    "supervisor",
                    format!("attempt {attempt_no} failed ({e}); retrying"),
                );
                if let Some(c) = trace {
                    c.add(Counter::StageRetries, 1);
                    c.timeline_instant("stage-retry", TID_DRIVER, attempt_no as u64, 0);
                }
                let _span = trace.map(|c| c.span(Stage::Recovery));
                std::thread::sleep(res.backoff * attempt_no);
                // The budget is shared across attempts; give the retry the
                // full deadline from *its* start instead of the stale (often
                // already-expired) instant the failed attempt armed.
                if let Some(b) = &res.budget {
                    b.rearm();
                }
            }
            Err(e) => {
                deg.note(
                    "supervisor",
                    format!("pipeline abandoned after {attempt_no} retries ({e}); serial fallback"),
                );
                break None;
            }
        }
    };

    let (ddg, interner, pruned_events) = match outcome {
        Some(ok) => {
            if let Some(c) = trace {
                ok.harvest(c);
            }
            deg.dropped_chunks = ok.route_stats.dropped_chunks;
            ok.front.note_losses(&mut deg);
            let mut shards = Vec::with_capacity(ok.workers.len());
            for (shard, w) in ok.workers.into_iter().enumerate() {
                match &w {
                    Ok(w) => {
                        deg.malformed_chunks += w.malformed;
                        deg.budget_overapprox_stmts += w.sink.fold_stats().budget_degraded;
                    }
                    Err(e) => deg.note(
                        "fold",
                        format!("shard {shard} lost ({e}); output is partial"),
                    ),
                }
                shards.push(w.ok().map(|w| w.sink));
            }
            let (ddg, missing) = {
                let _span = trace.map(|c| c.pipe_span(PipeStage::Merge));
                finalize_shards_tolerant(shards, prog, &ok.interner)
            };
            deg.missing_shards = missing;
            (ddg, ok.interner, ok.front.pruned)
        }
        None => {
            // Serial fallback: the trusted single-thread driver, fault hooks
            // off, budget and recording still honored.
            deg.fell_back_serial = true;
            if let Some(c) = trace {
                c.add(Counter::SerialFallbacks, 1);
                c.timeline_instant("serial-fallback", TID_DRIVER, attempt_no as u64, 0);
            }
            let _span = trace.map(|c| c.span(Stage::Recovery));
            let budget = res.budget.as_ref();
            fold_serial(
                prog,
                structure,
                cfg,
                trace,
                prune,
                synth.as_ref(),
                record,
                budget,
            )?
            .finalize(prog, &mut deg)
        }
    };

    close_degradation(&mut deg, res.budget.as_ref(), res.faults.as_ref(), trace);
    Ok((ddg, interner, pruned_events, deg))
}

/// Finalize every present shard in parallel (the vendored rayon stand-in has
/// no owned `into_par_iter`, hence the one-element-chunk option dance), then
/// merge deterministically; absent shards are reported back by index.
fn finalize_shards_tolerant(
    shards: Vec<Option<FoldingSink>>,
    prog: &Program,
    interner: &ContextInterner,
) -> (FoldedDdg, Vec<usize>) {
    use rayon::prelude::*;
    let mut slots = shards;
    let mut parts: Vec<Option<FoldedDdg>> =
        std::iter::repeat_with(|| None).take(slots.len()).collect();
    slots
        .par_chunks_mut(1)
        .zip(parts.par_chunks_mut(1))
        .for_each(|(slot, part)| {
            if let Some(sink) = slot[0].take() {
                part[0] = Some(sink.finalize(prog, interner));
            }
        });
    FoldedDdg::merge_parts_tolerant(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold_program;
    use polyir::build::ProgramBuilder;

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

    fn tiny_cfg(k: usize) -> PipelineConfig {
        PipelineConfig {
            fold_threads: k,
            chunk_events: 16, // tiny chunks: exercise flush boundaries
            ..Default::default()
        }
    }

    fn supervised(
        p: &Program,
        cfg: &PipelineConfig,
        res: &ResilienceConfig,
    ) -> (FoldedDdg, RunDegradation) {
        let mut rec = polycfg::StructureRecorder::new();
        polyvm::Vm::new(p).run(&[], &mut rec).unwrap();
        let structure = StaticStructure::analyze(p, rec);
        let (ddg, _, _, deg) =
            fold_pipelined_supervised(p, &structure, cfg, None, None, None, None, res).unwrap();
        (ddg, deg)
    }

    /// Smallest possible end-to-end check: shard counts and chunk sizes must
    /// not change any folded fact (the full byte-compare lives in
    /// tests/sharded.rs).
    #[test]
    fn pipelined_matches_serial_counts() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        for k in [1usize, 3] {
            let cfg = tiny_cfg(k);
            let (piped, _) = supervised(&p, &cfg, &ResilienceConfig::default());
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
            let cfg = PipelineConfig {
                fold_threads: 1,
                chunk_events: 0, // clamped to 1 — still valid
                ..Default::default()
            };
            // Sanity: a valid run inside catch_unwind works.
            let _ = supervised(&p, &cfg, &ResilienceConfig::default());
            panic!("deliberate: payload must survive");
        });
        let payload = res.expect_err("panic expected");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("deliberate"), "payload lost");
    }

    /// With no faults and no budget, the supervised path must reproduce the
    /// serial fold exactly — the hooks are zero-cost `None` branches.
    #[test]
    fn supervised_fault_free_matches_plain() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let (ddg, deg) = supervised(&p, &tiny_cfg(2), &ResilienceConfig::default());
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
        let res = ResilienceConfig {
            faults: Some(Arc::new(FaultPlan::single(FaultSite::PanicPre, 1))),
            ..Default::default()
        };
        let (ddg, deg) = supervised(&p, &tiny_cfg(2), &res);
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
        let res = ResilienceConfig {
            faults: Some(Arc::new(FaultPlan::single(FaultSite::PanicFold, 1))),
            ..Default::default()
        };
        let (ddg, deg) = supervised(&p, &tiny_cfg(3), &res);
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
        let res = ResilienceConfig {
            faults: Some(Arc::new(FaultPlan::always(FaultSite::PanicPre))),
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let (ddg, deg) = supervised(&p, &tiny_cfg(2), &res);
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
        let res = ResilienceConfig {
            faults: Some(Arc::new(FaultPlan::single(FaultSite::DropSend, 1))),
            ..Default::default()
        };
        let (_, deg) = supervised(&p, &tiny_cfg(2), &res);
        assert!(deg.dropped_chunks >= 1, "{deg:?}");
        assert!(deg.is_degraded());
    }

    /// A corrupted chunk is caught by validation, skipped, and counted —
    /// never replayed into a folder.
    #[test]
    fn malformed_chunk_rejected_and_counted() {
        let p = stencil_prog();
        let res = ResilienceConfig {
            faults: Some(Arc::new(FaultPlan::single(FaultSite::MalformedChunk, 1))),
            ..Default::default()
        };
        let (_, deg) = supervised(&p, &tiny_cfg(2), &res);
        assert_eq!(deg.malformed_chunks, 1, "{deg:?}");
        assert!(deg.is_degraded());
    }

    /// A refused shadow-page allocation skips that access's dependences but
    /// the run completes with the loss accounted.
    #[test]
    fn shadow_alloc_fault_counted_as_unresolved() {
        let p = stencil_prog();
        let res = ResilienceConfig {
            faults: Some(Arc::new(FaultPlan::single(FaultSite::AllocShadow, 1))),
            ..Default::default()
        };
        let (_, deg) = supervised(&p, &tiny_cfg(2), &res);
        assert_eq!(deg.shadow_alloc_failures, 1, "{deg:?}");
        assert!(deg.unresolved_accesses >= 1, "{deg:?}");
    }
}
