//! Pass 2, the one way: [`run`] streams a [`Source`] into a fold [`Target`].
//!
//! ```text
//!            source                                  target
//! ┌───────────────────────────────────┐   ┌──────────────────────────────┐
//! │ Live: VM → DdgProfiler (IIV,      │   │ Inline: one FoldingSink on   │
//! │   interning, register deps,       │   │   the calling thread         │
//! │   shadow) → [Recorder] → MemSynth ├──▶├──────────────────────────────┤
//! ├───────────────────────────────────┤   │ Workers: ShardRouter → n     │
//! │ Recording: TraceReader decodes    │   │   threads, one FoldingSink   │
//! │   each frame into the target      │   │   each, under the supervisor │
//! └───────────────────────────────────┘   └──────────────────────────────┘
//! ```
//!
//! The source side (`feed`) is generic over the sink it writes into, so
//! every source × target pair is the same code and the default run still
//! monomorphises to VM → profiler → [`FoldingSink`]. Every field of [`Pass2`]
//! means the same thing for every pair (DESIGN.md §5 has the table):
//!
//! * `budget` — folder allocations (and, live, shadow pages and the
//!   coordinate arena) are charged to it, pressure degrades folders to sound
//!   over-approximation, and its deadline or [`ResourceBudget::cancel`] stops
//!   the source — the VM at its next watchdog poll, a recording at its next
//!   frame — leaving a valid fold of a prefix. That same poll is
//!   [`ResourceBudget::beat`]: the source publishes how far it has got, so
//!   whoever shares the budget can watch the run without a thread of its own.
//! * `trace` — the spans `profile` (one per attempt), `recovery` (between
//!   attempts) and `finalize` partition the call; worker targets add the
//!   producer and shard lanes. Counters reach the collector once, from the
//!   attempt that produced the result.
//! * A fault plan and a retry bound exist only on [`Target::Workers`], with
//!   the supervisor (`supervise`) that absorbs them. [`Target::Inline`] is
//!   not supervised: there is no thread to lose, and a panic in it is the
//!   caller's.

use crate::pipeline::{finalize_shards, with_fold_workers, WorkerOut};
use crate::{FoldOptions, FoldedDdg, FoldingSink};
use polycfg::StaticStructure;
use polyddg::chunk::{ChunkStats, ChunkWriter};
use polyddg::prune::{PruneMask, PrunedEvents};
use polyddg::{DdgConfig, DdgProfiler, DepKind, FoldSink, MemSynth};
use polyiiv::context::{ContextInterner, StmtId};
use polyir::Program;
use polyrec::{program_hash, Recorder, TraceReader};
use polyresist::{FaultPlan, PolyProfError, ResourceBudget, RunDegradation};
use polytrace::{Collector, Counter, PipeStage, Stage, TID_DRIVER};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The live source: run the program under the profiler.
pub struct Live<'a> {
    /// Pass 1's result for the program.
    pub structure: &'a StaticStructure,
    /// Static prune mask to install on the profiler.
    pub prune: Option<Arc<PruneMask>>,
    /// Re-emits the memory streams an access-level `prune` mask skipped (see
    /// [`MemSynth`]); required when the mask carries access-level bits.
    pub synth: Option<Arc<dyn MemSynth>>,
    /// Also write the event stream to a `.ptrace` file here, in frames of
    /// [`Pass2::chunk_events`]. Every attempt recreates the file, so a
    /// failed one leaves a detectably unfinished recording behind.
    pub record: Option<&'a Path>,
}

impl<'a> Live<'a> {
    /// The plain live source: no pruning, no recording.
    pub fn new(structure: &'a StaticStructure) -> Self {
        Live {
            structure,
            prune: None,
            synth: None,
            record: None,
        }
    }
}

/// Where pass 2's resolved event stream comes from.
pub enum Source<'a> {
    /// VM → [`DdgProfiler`] → optional [`Recorder`] tap → sink → [`MemSynth`].
    Live(Live<'a>),
    /// A `.ptrace` recording of the program: its program hash is checked,
    /// then every frame is replayed into the sink — no VM, no shadow memory.
    Recording(&'a Path),
}

/// Where the stream is folded.
#[derive(Debug, Clone)]
pub enum Target {
    /// One [`FoldingSink`] on the calling thread, in line with the source.
    Inline,
    /// A `ShardRouter` on the calling thread in front of `n` folding threads
    /// (0 means 1), sharded by folding key, run under the supervisor.
    Workers {
        /// Folding threads beside the calling one.
        n: usize,
        /// Deterministic fault-injection schedule (tests, the CI gate).
        faults: Option<Arc<FaultPlan>>,
        /// Panicked attempts to retry before folding on the calling thread.
        max_retries: u32,
    },
}

impl Target {
    /// `n` workers, no fault plan, the default retry bound of 2.
    pub fn workers(n: usize) -> Target {
        Target::Workers {
            n,
            faults: None,
            max_retries: 2,
        }
    }

    fn faults(&self) -> Option<&Arc<FaultPlan>> {
        match self {
            Target::Inline => None,
            Target::Workers { faults, .. } => faults.as_ref(),
        }
    }
}

/// Knobs of one pass-2 run; each means the same for every [`Source`].
#[derive(Debug, Clone)]
pub struct Pass2 {
    /// Where the stream is folded.
    pub target: Target,
    /// Events per chunk between the source and fold workers, and per frame
    /// of a recording being written.
    pub chunk_events: usize,
    /// Folding options of every sink.
    pub options: FoldOptions,
    /// Telemetry collector: spans, gauges and journals live, the winning
    /// attempt's counters once.
    pub trace: Option<Arc<Collector>>,
    /// Byte and deadline budget, shared by every attempt.
    pub budget: Option<Arc<ResourceBudget>>,
}

impl Default for Pass2 {
    fn default() -> Self {
        Pass2 {
            target: Target::Inline,
            chunk_events: 4096,
            options: FoldOptions::default(),
            trace: None,
            budget: None,
        }
    }
}

impl Pass2 {
    /// A fresh fold sink under this run's options and budget.
    pub(crate) fn new_sink(&self) -> FoldingSink {
        let mut sink = FoldingSink::with_options(self.options);
        if let Some(b) = &self.budget {
            sink.set_budget(Arc::clone(b));
        }
        sink
    }
}

/// What [`run`] hands back.
pub struct Pass2Out {
    /// The folded DDG, before SCEV removal.
    pub ddg: FoldedDdg,
    /// The statement table the fold's ids refer to.
    pub interner: ContextInterner,
    /// Events the prune mask skipped (zero for a recording).
    pub pruned: PrunedEvents,
    /// Everything the run lost or recovered from.
    pub degradation: RunDegradation,
}

/// Backoff before retry `n` is `n` times this.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// Run pass 2 of `prog`: stream `source` into `cfg.target`, finalize, and
/// account for every loss. `Err` only for what no retry can repair: a VM
/// error, or a recording that cannot be read, matched or written.
pub fn run(prog: &Program, source: &Source<'_>, cfg: &Pass2) -> Result<Pass2Out, PolyProfError> {
    let trace = cfg.trace.as_deref();
    let mut deg = RunDegradation::default();
    let kept = match &cfg.target {
        Target::Inline => {
            let _span = trace.map(|c| c.span(Stage::Profile));
            fold_inline(prog, source, cfg)?
        }
        Target::Workers { n, max_retries, .. } => {
            supervise(prog, source, cfg, (*n).max(1), *max_retries, &mut deg)?
        }
    };

    // Loss accounting and counters, from the one attempt that got here.
    let (tallies, routed) = (kept.tallies, kept.routed);
    deg.shadow_alloc_failures = tallies.shadow_alloc_failures;
    deg.unresolved_accesses = tallies.shadow_alloc_failures;
    if let Some(c) = trace {
        if let Some(t) = &tallies.opcodes {
            t.harvest(c);
        }
        for &(counter, n) in &tallies.counts {
            c.add(counter, n);
        }
    }
    if let Some(r) = &routed {
        deg.dropped_chunks = r.dropped_chunks;
        if let Some(c) = trace {
            ChunkWriter::harvest(r, c);
        }
    }
    let mut shards = Vec::with_capacity(kept.sinks.len());
    for (shard, w) in kept.sinks.into_iter().enumerate() {
        match &w {
            Ok(w) => {
                let fs = w.sink.fold_stats();
                deg.malformed_chunks += w.malformed;
                deg.budget_overapprox_stmts += fs.budget_degraded;
                if let Some(c) = trace {
                    c.add(Counter::EventsFolded, fs.events_folded);
                    c.add(Counter::DepsFolded, fs.deps_folded);
                    c.add(Counter::FoldPredicted, fs.predicted);
                    if routed.is_some() {
                        w.harvest(c, shard, fs.events_folded);
                    }
                }
            }
            Err(e) => deg.note(
                "fold",
                format!("shard {shard} lost ({e}); output is partial"),
            ),
        }
        shards.push(w.ok().map(|w| w.sink));
    }

    let ddg = {
        let _span = trace.map(|c| c.span(Stage::Finalize));
        let (ddg, missing) = finalize_shards(shards, prog, &kept.interner);
        deg.missing_shards = missing;
        ddg
    };

    if let Some(b) = &cfg.budget {
        deg.budget_pressure = b.under_pressure();
        deg.peak_tracked_bytes = b.peak_bytes();
        deg.deadline_hit = b.deadline_was_hit();
    }
    if let Some(p) = cfg.target.faults() {
        // Fire counts of every attempt, the failed ones included.
        deg.absorb_plan(p);
    }
    if let Some(c) = trace {
        c.add(Counter::FaultsInjected, deg.faults_injected);
        c.add(Counter::UnresolvedAccesses, deg.unresolved_accesses);
        c.add(Counter::BudgetOverapprox, deg.budget_overapprox_stmts);
        if deg.deadline_hit {
            c.add(Counter::DeadlineHits, 1);
            c.timeline_instant("deadline-hit", TID_DRIVER, 0, 0);
        }
        if deg.budget_pressure {
            c.timeline_instant("budget-pressure", TID_DRIVER, deg.peak_tracked_bytes, 0);
        }
    }
    Ok(Pass2Out {
        ddg,
        interner: kept.interner,
        pruned: tallies.pruned,
        degradation: deg,
    })
}

/// One pass over the source, folded but not finalized.
struct Attempt {
    /// One slot per fold sink — exactly one for [`Target::Inline`] — `Err`
    /// where the worker died.
    sinks: Vec<Result<WorkerOut, PolyProfError>>,
    /// The router's tally; `None` when the fold ran on the calling thread.
    routed: Option<ChunkStats>,
    interner: ContextInterner,
    tallies: SourceTallies,
}

/// Source → one [`FoldingSink`], all on the calling thread, no fault hooks.
fn fold_inline(prog: &Program, source: &Source<'_>, cfg: &Pass2) -> Result<Attempt, PolyProfError> {
    let (sink, interner, tallies) = feed(prog, source, cfg, None, cfg.new_sink())?;
    Ok(Attempt {
        sinks: vec![Ok(WorkerOut::new(sink))],
        routed: None,
        interner,
        tallies,
    })
}

/// Source → `ShardRouter` on the calling thread → `n` folding workers. A
/// source error — or the loss of every worker — fails the attempt; losing
/// *some* workers only punches holes in `sinks`.
fn fold_on_workers(
    prog: &Program,
    source: &Source<'_>,
    cfg: &Pass2,
    n: usize,
) -> Result<Attempt, PolyProfError> {
    let (faults, trace) = (cfg.target.faults(), cfg.trace.as_deref());
    let (fed, sinks) = with_fold_workers(n, cfg, faults, |router| {
        let _span = trace.map(|c| c.pipe_span(PipeStage::PreProfile));
        let (router, interner, tallies) = feed(prog, source, cfg, faults, router)?;
        Ok((interner, tallies, router.finish()))
    });
    // A source failure is unrecoverable within the attempt: the event stream
    // itself is incomplete in a way no shard merge can repair.
    let (interner, tallies, routed) = fed?;
    if sinks.iter().all(Result::is_err) {
        let last = sinks.last().and_then(|w| w.as_ref().err());
        let msg = last.expect("n >= 1").to_string();
        return Err(PolyProfError::StagePanic { stage: "fold", msg });
    }
    Ok(Attempt {
        sinks,
        routed: Some(routed),
        interner,
        tallies,
    })
}

/// The supervisor of worker targets, whatever the source: retry a panicked
/// attempt up to `max_retries` times with linear backoff ([`FaultPlan`]
/// occurrence counters keep counting, so a one-shot injected fault does not
/// re-fire), then fold on the calling thread with the fault hooks off. Errors
/// that would repeat — the VM's, the recording's — are returned at once.
fn supervise(
    prog: &Program,
    source: &Source<'_>,
    cfg: &Pass2,
    n: usize,
    max_retries: u32,
    deg: &mut RunDegradation,
) -> Result<Attempt, PolyProfError> {
    let trace = cfg.trace.as_deref();
    let mut attempt_no: u32 = 0;
    loop {
        let attempt = {
            let _span = trace.map(|c| c.span(Stage::Profile));
            fold_on_workers(prog, source, cfg, n)
        };
        let e = match attempt {
            Err(e @ PolyProfError::StagePanic { .. }) => e,
            done => return done,
        };
        if attempt_no == max_retries {
            deg.note(
                "supervisor",
                format!(
                    "workers abandoned after {attempt_no} retries ({e}); \
                     folding on the calling thread"
                ),
            );
            deg.fell_back_serial = true;
            if let Some(c) = trace {
                c.add(Counter::SerialFallbacks, 1);
                c.timeline_instant("serial-fallback", TID_DRIVER, attempt_no as u64, 0);
            }
            let _span = trace.map(|c| c.span(Stage::Profile));
            return fold_inline(prog, source, cfg);
        }
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
        std::thread::sleep(RETRY_BACKOFF * attempt_no);
        // The budget is shared across attempts; give the retry the full
        // deadline from *its* start instead of the stale (often
        // already-expired) instant the failed attempt armed.
        if let Some(b) = &cfg.budget {
            b.rearm();
        }
    }
}

/// What one pass over the source left behind, besides the events.
#[derive(Default)]
struct SourceTallies {
    /// What to add to the collector if this attempt is the one kept.
    counts: Vec<(Counter, u64)>,
    opcodes: Option<Box<polyvm::OpcodeTelemetry>>,
    pruned: PrunedEvents,
    /// Shadow pages an armed fault plan refused; each left exactly one
    /// access without its dependences.
    shadow_alloc_failures: u64,
}

/// Stream `source` into `out`. Generic over the sink, so the recording tap
/// composes without touching the plain hot path and a `ShardRouter` is fed by
/// the same code as a [`FoldingSink`]. `faults` arms the live source's own
/// sites (`panic:pre`, `alloc:shadow`); a recording has none.
fn feed<S: FoldSink>(
    prog: &Program,
    source: &Source<'_>,
    cfg: &Pass2,
    faults: Option<&Arc<FaultPlan>>,
    out: S,
) -> Result<(S, ContextInterner, SourceTallies), PolyProfError> {
    let live = match source {
        Source::Live(live) => live,
        Source::Recording(path) => return replay(prog, path, cfg.budget.as_deref(), out),
    };
    let Some(path) = live.record else {
        return run_profiler(prog, live, cfg, faults, out);
    };
    let tap = Recorder::to_file(path, prog, cfg.chunk_events.max(1), out)?;
    let (tap, interner, mut tallies) = run_profiler(prog, live, cfg, faults, tap)?;
    // The footer needs the interner's statement table. A failure here fails
    // the run: a footer-less recording is useless.
    let (out, stats) = tap.finish(&interner)?;
    tallies.counts.extend([
        (Counter::RecFramesWritten, stats.frames),
        (Counter::RecBytesWritten, stats.bytes),
    ]);
    Ok((out, interner, tallies))
}

/// The live source: VM → profiler → `out`, then the synthesized streams of
/// access-level-pruned sites. `cfg.trace` only decides whether the VM counts
/// opcodes (plain-u64 counting at `Timing`, plus sampled dispatch timing at
/// `Trace`; `Off`/`Counters` never arm it).
fn run_profiler<S: FoldSink>(
    prog: &Program,
    live: &Live<'_>,
    cfg: &Pass2,
    faults: Option<&Arc<FaultPlan>>,
    out: S,
) -> Result<(S, ContextInterner, SourceTallies), PolyProfError> {
    let mut prof = DdgProfiler::new(prog, live.structure, out);
    if let Some(m) = &live.prune {
        prof.set_prune_mask(Arc::clone(m));
    }
    if let Some(p) = faults {
        prof.set_faults(Arc::clone(p));
    }
    if let Some(b) = &cfg.budget {
        prof.set_budget(Arc::clone(b));
    }
    let mut vm = polyvm::Vm::new(prog);
    if let Some(c) = cfg.trace.as_deref().filter(|c| c.timing()) {
        vm.enable_opcode_telemetry(c.tracing());
    }
    // `Aborted` is the budget's deadline stopping the VM through the
    // profiler's watchdog hook: the stream so far is a valid prefix.
    let aborted = match vm.run(&[], &mut prof) {
        Ok(_) => false,
        Err(polyvm::VmError::Aborted) => true,
        Err(e) => {
            return Err(PolyProfError::Vm {
                stage: "pass-2",
                msg: e.to_string(),
            })
        }
    };
    let (ctx_hit, ctx_miss) = prof.interner.cache_stats();
    let (mru_hit, mru_miss) = prof.shadow_mru_stats();
    let tallies = SourceTallies {
        counts: vec![
            (Counter::DynOps, prof.dyn_ops),
            (Counter::MemEvents, prof.mem_events),
            (Counter::PrunedEvents, prof.pruned_events),
            (Counter::PrunedMemEvents, prof.pruned_mem_events),
            (Counter::CtxCacheHit, ctx_hit),
            (Counter::CtxCacheMiss, ctx_miss),
            (Counter::CtxContentInterns, prof.interner.content_interns()),
            (Counter::ShadowMruHit, mru_hit),
            (Counter::ShadowMruMiss, mru_miss),
            (Counter::ShadowPages, prof.resident_shadow_pages() as u64),
            (Counter::ArenaBytes, prof.arena_bytes() as u64),
        ],
        opcodes: vm.take_opcode_telemetry(),
        pruned: PrunedEvents {
            reg: prof.pruned_events,
            mem: prof.pruned_mem_events,
        },
        shadow_alloc_failures: prof.shadow_alloc_failures(),
    };
    let (mut out, interner) = prof.finish();
    // Re-emit the access-level-pruned memory streams into the same sink. The
    // pruned statements' access/dep keys never appear dynamically, so
    // appending after the trace keeps every per-key stream in serial order.
    // An aborted trace is partial — skip: synthesizing full streams would
    // invent events the dynamic run never reached.
    if let Some(sy) = live.synth.as_ref().filter(|_| !aborted) {
        sy.synthesize(&interner, &DdgConfig::default(), &mut out);
    }
    Ok((out, interner, tallies))
}

/// Where a recording's frames go once the deadline has latched: decoded and
/// verified, then dropped.
struct Discard;

impl FoldSink for Discard {
    fn instr_point(&mut self, _: StmtId, _: &[i64], _: Option<i64>) {}
    fn mem_access(&mut self, _: StmtId, _: &[i64], _: u64, _: bool) {}
    fn dependence(&mut self, _: DepKind, _: StmtId, _: &[i64], _: StmtId, _: &[i64]) {}
}

/// The recording source: check that `path` was captured from `prog`, then
/// decode every frame straight into `out`, with one heartbeat and deadline
/// poll per frame. Once the deadline latches, the remaining frames are
/// decoded and verified — the statement table is in the footer — but not
/// folded.
fn replay<S: FoldSink>(
    prog: &Program,
    path: &Path,
    budget: Option<&ResourceBudget>,
    mut out: S,
) -> Result<(S, ContextInterner, SourceTallies), PolyProfError> {
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
    loop {
        let more = if budget.is_some_and(|b| b.beat(0, out.events_seen())) {
            reader.next_into(&mut Discard)?
        } else {
            reader.next_into(&mut out)?
        };
        if !more {
            break;
        }
    }
    let (interner, stats) = reader.finish()?;
    let tallies = SourceTallies {
        counts: vec![
            (Counter::RecFramesRead, stats.frames),
            (Counter::RecBytesRead, stats.bytes),
            (Counter::RecEventsPredicted, stats.predicted),
        ],
        ..SourceTallies::default()
    };
    Ok((out, interner, tallies))
}
