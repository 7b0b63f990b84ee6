//! Pass 2, the serial way, plus what every executor of it shares.
//!
//! * `run_front_end` drives the VM over a `polyddg::FrontEnd` — the only
//!   pass-2 `Vm::run` in the workspace (serial driver: in-line profiler;
//!   staged producer: chunk-writing one).
//! * [`fold_serial`], the serial driver: front end → in-line shadow
//!   resolution → optional [`Recorder`] tap → [`FoldingSink`] → [`MemSynth`].
//!   [`try_fold_program`](crate::try_fold_program), the driver's default
//!   arm and the supervised pipeline's fallback all run it.
//! * [`close_degradation`] finishes a run's loss accounting.
//!
//! Stages only tally; counters reach the collector from the attempt that
//! produced the result, so a failed attempt leaves no counts behind.

use crate::pipeline::PipelineConfig;
use crate::{FoldStats, FoldedDdg, FoldingSink};
use polycfg::StaticStructure;
use polyddg::prune::{PruneMask, PrunedEvents};
use polyddg::{DdgProfiler, FoldSink, FrontEnd, MemRoute, MemSynth};
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyrec::{Recorder, WriteStats};
use polyresist::{FaultPlan, PolyProfError, ResourceBudget, RunDegradation};
use polytrace::{Collector, Counter, TID_DRIVER};
use std::path::Path;
use std::sync::Arc;

/// What the front end tallied over one VM run.
pub(crate) struct FrontTallies {
    dyn_ops: u64,
    mem_events: u64,
    pub(crate) pruned: PrunedEvents,
    ctx_cache: (u64, u64),
    opcodes: Option<Box<polyvm::OpcodeTelemetry>>,
    /// The budget watchdog stopped the VM: the stream is a valid prefix.
    pub(crate) deadline_hit: bool,
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
    }
}

/// Add a sink's fold-side tallies to the run's counters.
pub(crate) fn harvest_fold(c: &Collector, fs: &FoldStats) {
    c.add(Counter::EventsFolded, fs.events_folded);
    c.add(Counter::DepsFolded, fs.deps_folded);
    c.add(Counter::ChunksFolded, fs.chunks_folded);
}

/// Run pass 2 of `prog` through `prof`. `trace` only decides whether the VM
/// counts opcodes (plain-u64 counting at `Timing`, plus sampled dispatch
/// timing at `Trace`; `Off`/`Counters` never arm it).
pub(crate) fn run_front_end<F: FoldSink, R: MemRoute<F>>(
    prog: &Program,
    prof: &mut FrontEnd<'_, F, R>,
    trace: Option<&Arc<Collector>>,
) -> Result<FrontTallies, PolyProfError> {
    let mut vm = polyvm::Vm::new(prog);
    if let Some(c) = trace.filter(|c| c.timing()) {
        vm.enable_opcode_telemetry(c.tracing());
    }
    let deadline_hit = match vm.run(&[], prof) {
        Ok(_) => false,
        Err(polyvm::VmError::Aborted) => true,
        Err(e) => {
            return Err(PolyProfError::Vm {
                stage: "pass-2",
                msg: e.to_string(),
            })
        }
    };
    Ok(FrontTallies {
        dyn_ops: prof.dyn_ops,
        mem_events: prof.mem_events,
        pruned: PrunedEvents {
            reg: prof.pruned_events,
            mem: prof.pruned_mem_events,
        },
        ctx_cache: prof.interner.cache_stats(),
        opcodes: vm.take_opcode_telemetry(),
        deadline_hit,
    })
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
        deg.deadline_hit |= self.front.deadline_hit;
        deg.budget_overapprox_stmts = self.sink.fold_stats().budget_degraded;
        let ddg = self.sink.finalize(prog, &self.interner);
        (ddg, self.interner, self.front.pruned)
    }
}

/// The serial pass-2 driver: everything on the calling thread, no fault
/// hooks — the trusted path. Of `cfg` it reads `options`, `ddg` and (for
/// the recorder's frame size) `chunk_events`. `record` also writes the
/// resolved stream to a `.ptrace` file; `budget` is charged for retained
/// state and its deadline stops the VM gracefully.
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
    let mut recording = None;
    let (sink, interner, front) = match record {
        Some(path) => {
            let tap = Recorder::to_file(path, prog, cfg.chunk_events.max(1), sink)?;
            let (tap, interner, front) =
                drive_serial(prog, structure, cfg, trace, prune, synth, budget, tap)?;
            let (sink, stats) = tap.finish(&interner)?;
            recording = Some(stats);
            (sink, interner, front)
        }
        None => drive_serial(prog, structure, cfg, trace, prune, synth, budget, sink)?,
    };
    if let Some(c) = trace {
        harvest_fold(c, &sink.fold_stats());
        if let Some(rec) = &recording {
            harvest_recording(c, rec);
        }
    }
    Ok(SerialRun {
        sink,
        interner,
        front,
    })
}

/// Add a finished recording's size to the run's counters.
pub(crate) fn harvest_recording(c: &Collector, rec: &WriteStats) {
    c.add(Counter::RecFramesWritten, rec.frames);
    c.add(Counter::RecBytesWritten, rec.bytes);
}

/// The body of [`fold_serial`], generic over the resolved-event sink so the
/// recording tap composes without touching the plain hot path.
#[allow(clippy::too_many_arguments)]
fn drive_serial<S: FoldSink>(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    prune: Option<Arc<PruneMask>>,
    synth: Option<&Arc<dyn MemSynth>>,
    budget: Option<&Arc<ResourceBudget>>,
    out: S,
) -> Result<(S, ContextInterner, FrontTallies), PolyProfError> {
    let mut prof = DdgProfiler::with_config(prog, structure, out, cfg.ddg);
    if let Some(m) = prune {
        prof.set_prune_mask(m);
    }
    if let Some(b) = budget {
        prof.set_budget(Arc::clone(b));
    }
    let front = run_front_end(prog, &mut prof, trace)?;
    if let Some(c) = trace {
        front.harvest(c);
        let (hits, misses) = prof.shadow_mru_stats();
        c.add(Counter::ShadowMruHit, hits);
        c.add(Counter::ShadowMruMiss, misses);
        c.add(Counter::ShadowPages, prof.resident_shadow_pages() as u64);
        c.add(Counter::ArenaBytes, prof.arena_bytes() as u64);
    }
    let (mut out, interner) = prof.finish();
    // Re-emit the access-level-pruned memory streams. A deadline-aborted
    // trace is partial — skip: synthesizing full streams would invent
    // events the dynamic run never reached.
    if let Some(sy) = synth.filter(|_| !front.deadline_hit) {
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
