//! Pass 2, the serial way, plus what every executor of it shares.
//!
//! * `drive_serial` is the producer of every live executor: VM →
//!   [`DdgProfiler`] (IIV, interning, register and shadow tracking, all in
//!   line) → optional [`Recorder`] tap → a [`FoldSink`] → [`MemSynth`]. It
//!   holds the only pass-2 `Vm::run` and the only `Recorder::to_file` in the
//!   crate, so prune mask, budget, deadline and recording behave the same
//!   whatever the sink is.
//! * [`fold_serial`] hands it a [`FoldingSink`]: everything on the calling
//!   thread. [`try_fold_program`](crate::try_fold_program), the driver's
//!   default arm and the supervised pipeline's fallback all run it. The
//!   pipeline (`crate::pipeline`) hands it a `ShardRouter` instead.
//! * [`close_degradation`] finishes a run's loss accounting.
//!
//! Executors only tally; counters reach the collector from the attempt that
//! produced the result, so a failed attempt leaves no counts behind.

use crate::pipeline::PipelineConfig;
use crate::{FoldStats, FoldedDdg, FoldingSink};
use polycfg::StaticStructure;
use polyddg::prune::{PruneMask, PrunedEvents};
use polyddg::{DdgProfiler, FoldSink, MemSynth};
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyrec::{Recorder, WriteStats};
use polyresist::{FaultPlan, PolyProfError, ResourceBudget, RunDegradation};
use polytrace::{Collector, Counter, TID_DRIVER};
use std::path::Path;
use std::sync::Arc;

/// What the producer tallied over one VM run.
pub(crate) struct FrontTallies {
    dyn_ops: u64,
    mem_events: u64,
    pub(crate) pruned: PrunedEvents,
    ctx_cache: (u64, u64),
    ctx_content_interns: u64,
    shadow_mru: (u64, u64),
    shadow_pages: u64,
    /// Shadow pages an armed fault plan refused; each left exactly one
    /// access without its dependences.
    shadow_alloc_failures: u64,
    arena_bytes: u64,
    opcodes: Option<Box<polyvm::OpcodeTelemetry>>,
    /// The budget watchdog stopped the VM: the stream is a valid prefix.
    deadline_hit: bool,
    recording: Option<WriteStats>,
}

impl FrontTallies {
    pub(crate) fn harvest(&self, c: &Collector) {
        if let Some(t) = &self.opcodes {
            t.harvest(c);
        }
        c.add(Counter::DynOps, self.dyn_ops);
        c.add(Counter::MemEvents, self.mem_events);
        c.add(Counter::PrunedEvents, self.pruned.reg);
        c.add(Counter::PrunedMemEvents, self.pruned.mem);
        c.add(Counter::CtxCacheHit, self.ctx_cache.0);
        c.add(Counter::CtxCacheMiss, self.ctx_cache.1);
        c.add(Counter::CtxContentInterns, self.ctx_content_interns);
        c.add(Counter::ShadowMruHit, self.shadow_mru.0);
        c.add(Counter::ShadowMruMiss, self.shadow_mru.1);
        c.add(Counter::ShadowPages, self.shadow_pages);
        c.add(Counter::ArenaBytes, self.arena_bytes);
        if let Some(rec) = &self.recording {
            c.add(Counter::RecFramesWritten, rec.frames);
            c.add(Counter::RecBytesWritten, rec.bytes);
        }
    }

    /// Note what the producer lost in `deg`.
    pub(crate) fn note_losses(&self, deg: &mut RunDegradation) {
        deg.deadline_hit |= self.deadline_hit;
        deg.shadow_alloc_failures = self.shadow_alloc_failures;
        deg.unresolved_accesses = self.shadow_alloc_failures;
    }
}

/// Add a sink's fold-side tallies to the run's counters.
pub(crate) fn harvest_fold(c: &Collector, fs: &FoldStats) {
    c.add(Counter::EventsFolded, fs.events_folded);
    c.add(Counter::DepsFolded, fs.deps_folded);
    c.add(Counter::FoldPredicted, fs.predicted);
}

/// A finished serial pass 2, folded but not yet finalized (so the caller
/// can time finalization as a stage of its own).
pub struct SerialRun {
    sink: FoldingSink,
    interner: ContextInterner,
    front: FrontTallies,
}

impl SerialRun {
    /// Finalize the fold, noting what the run lost in `deg`.
    pub fn finalize(
        self,
        prog: &Program,
        deg: &mut RunDegradation,
    ) -> (FoldedDdg, ContextInterner, PrunedEvents) {
        self.front.note_losses(deg);
        deg.budget_overapprox_stmts = self.sink.fold_stats().budget_degraded;
        let ddg = self.sink.finalize(prog, &self.interner);
        (ddg, self.interner, self.front.pruned)
    }
}

/// The serial pass-2 driver: everything on the calling thread, no fault
/// hooks — the trusted path. Of `cfg` it reads `options`, `ddg` and (for
/// the recorder's frame size) `chunk_events`. `record` also writes the
/// event stream to a `.ptrace` file; `budget` is charged for retained state
/// and its deadline stops the VM gracefully.
#[allow(clippy::too_many_arguments)]
pub fn fold_serial(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    prune: Option<Arc<PruneMask>>,
    synth: Option<&Arc<dyn MemSynth>>,
    record: Option<&Path>,
    budget: Option<&Arc<ResourceBudget>>,
) -> Result<SerialRun, PolyProfError> {
    let mut sink = FoldingSink::with_options(cfg.options);
    if let Some(b) = budget {
        sink.set_budget(Arc::clone(b));
    }
    let (sink, interner, front) = drive_serial(
        prog, structure, cfg, trace, prune, synth, record, budget, None, sink,
    )?;
    if let Some(c) = trace {
        front.harvest(c);
        harvest_fold(c, &sink.fold_stats());
    }
    Ok(SerialRun {
        sink,
        interner,
        front,
    })
}

/// Run pass 2 of `prog` into `out`, through the recording tap when `record`
/// names a file. Generic over the sink so the tap composes without touching
/// the plain hot path, and so the pipeline's producer is this same function
/// over a `ShardRouter`. `faults` arms the producer-side fault sites
/// (`panic:pre`, `alloc:shadow`); the serial driver passes `None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_serial<S: FoldSink>(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    prune: Option<Arc<PruneMask>>,
    synth: Option<&Arc<dyn MemSynth>>,
    record: Option<&Path>,
    budget: Option<&Arc<ResourceBudget>>,
    faults: Option<&Arc<FaultPlan>>,
    out: S,
) -> Result<(S, ContextInterner, FrontTallies), PolyProfError> {
    let Some(path) = record else {
        return run_profiler(
            prog, structure, cfg, trace, prune, synth, budget, faults, out,
        );
    };
    let tap = Recorder::to_file(path, prog, cfg.chunk_events.max(1), out)?;
    let (tap, interner, mut front) = run_profiler(
        prog, structure, cfg, trace, prune, synth, budget, faults, tap,
    )?;
    // The footer needs the interner's statement table. A failure here fails
    // the run: a footer-less recording is useless.
    let (out, stats) = tap.finish(&interner)?;
    front.recording = Some(stats);
    Ok((out, interner, front))
}

/// The body of [`drive_serial`]: VM → profiler → `out`, then the
/// synthesized streams of access-level-pruned sites. `trace` only decides
/// whether the VM counts opcodes (plain-u64 counting at `Timing`, plus
/// sampled dispatch timing at `Trace`; `Off`/`Counters` never arm it).
#[allow(clippy::too_many_arguments)]
fn run_profiler<S: FoldSink>(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    prune: Option<Arc<PruneMask>>,
    synth: Option<&Arc<dyn MemSynth>>,
    budget: Option<&Arc<ResourceBudget>>,
    faults: Option<&Arc<FaultPlan>>,
    out: S,
) -> Result<(S, ContextInterner, FrontTallies), PolyProfError> {
    let mut prof = DdgProfiler::with_config(prog, structure, out, cfg.ddg);
    if let Some(m) = prune {
        prof.set_prune_mask(m);
    }
    if let Some(p) = faults {
        prof.set_faults(Arc::clone(p));
    }
    if let Some(b) = budget {
        prof.set_budget(Arc::clone(b));
    }
    let mut vm = polyvm::Vm::new(prog);
    if let Some(c) = trace.filter(|c| c.timing()) {
        vm.enable_opcode_telemetry(c.tracing());
    }
    let deadline_hit = match vm.run(&[], &mut prof) {
        Ok(_) => false,
        Err(polyvm::VmError::Aborted) => true,
        Err(e) => {
            return Err(PolyProfError::Vm {
                stage: "pass-2",
                msg: e.to_string(),
            })
        }
    };
    let front = FrontTallies {
        dyn_ops: prof.dyn_ops,
        mem_events: prof.mem_events,
        pruned: PrunedEvents {
            reg: prof.pruned_events,
            mem: prof.pruned_mem_events,
        },
        ctx_cache: prof.interner.cache_stats(),
        ctx_content_interns: prof.interner.content_interns(),
        shadow_mru: prof.shadow_mru_stats(),
        shadow_pages: prof.resident_shadow_pages() as u64,
        shadow_alloc_failures: prof.shadow_alloc_failures(),
        arena_bytes: prof.arena_bytes() as u64,
        opcodes: vm.take_opcode_telemetry(),
        deadline_hit,
        recording: None,
    };
    let (mut out, interner) = prof.finish();
    // Re-emit the access-level-pruned memory streams into the same sink. The
    // pruned statements' access/dep keys never appear dynamically, so
    // appending after the trace keeps every per-key stream in serial order.
    // A deadline-aborted trace is partial — skip: synthesizing full streams
    // would invent events the dynamic run never reached.
    if let Some(sy) = synth.filter(|_| !deadline_hit) {
        sy.synthesize(&interner, &cfg.ddg, &mut out);
    }
    Ok((out, interner, front))
}

/// Finish a run's loss accounting, once: the budget's and the fault plan's
/// final state go into `deg`, the degradation counters into `trace`.
pub fn close_degradation(
    deg: &mut RunDegradation,
    budget: Option<&Arc<ResourceBudget>>,
    faults: Option<&Arc<FaultPlan>>,
    trace: Option<&Arc<Collector>>,
) {
    if let Some(b) = budget {
        deg.budget_pressure = b.under_pressure();
        deg.peak_tracked_bytes = b.peak_bytes();
        deg.deadline_hit |= b.deadline_was_hit();
    }
    if let Some(p) = faults {
        let alloc_seen = deg.shadow_alloc_failures;
        deg.absorb_plan(p);
        // `absorb_plan` reports plan-fired allocation faults; keep whichever
        // count is larger in case a retried attempt saw real failures too.
        deg.shadow_alloc_failures = deg.shadow_alloc_failures.max(alloc_seen);
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
}
