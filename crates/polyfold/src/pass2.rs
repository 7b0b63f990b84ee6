//! Pass 2, the one way: [`run`] streams a [`Source`] into one
//! [`FoldingSink`] on the calling thread, then finalizes it.
//!
//! ```text
//!            source                                   sink
//! ┌───────────────────────────────────┐
//! │ Live: VM → DdgProfiler (IIV,      │
//! │   interning, register deps,       │
//! │   shadow) → [Recorder]            ├──▶ FoldingSink ──▶ finalize
//! ├───────────────────────────────────┤
//! │ Recording: TraceReader decodes    │
//! │   each frame into the sink        │
//! └───────────────────────────────────┘
//! ```
//!
//! A recording is the whole profile: besides the event stream it carries
//! pass 1's graphs, so a [`Source::Recording`] runs no VM at all — [`run`]
//! rebuilds the [`StaticStructure`] from the recording's structure section
//! (under the `structure` span) and hands it back in [`Pass2Out::structure`].
//! The recording is a file, streamed through a buffered reader, or bytes
//! already in memory (a [`Replay`]), read in place; both decode the same way.
//!
//! The source side (`feed`) is generic over the sink it writes into, so the
//! recording tap composes without touching the plain hot path, and the
//! default run monomorphises to VM → profiler → [`FoldingSink`]. Every field
//! of [`Pass2`] means the same thing for every source (DESIGN.md §5 has the
//! table):
//!
//! * `budget` — folder allocations (and, live, shadow pages and the
//!   coordinate arena) are charged to it, pressure degrades folders to sound
//!   over-approximation, and its deadline or [`ResourceBudget::cancel`] stops
//!   the source — the VM at its next watchdog poll, a recording at its next
//!   frame — leaving a valid fold of a prefix. That same poll is
//!   [`ResourceBudget::beat`]: the source publishes how far it has got, so
//!   whoever shares the budget can watch the run without a thread of its own.
//! * `faults` — a deterministic fault plan: the live source's `panic:pre` and
//!   `alloc:shadow` sites, and `stall:beat` at every source heartbeat.
//! * `trace` — the spans `profile` and `finalize` partition the call (with
//!   `structure` in front of them for a recording).
//!
//! A panic inside pass 2 — an injected `panic:pre`, or a bug — is caught
//! once, here, and returned as [`PolyProfError::StagePanic`] with stage
//! `"pass-2"`. Nothing retries it: the source is deterministic, so a second
//! run would panic again.

use crate::{FoldOptions, FoldedDdg, FoldingSink};
use polycfg::StaticStructure;
use polyddg::{DdgProfiler, DepKind, FoldSink};
use polyiiv::context::{ContextInterner, StmtId};
use polyir::Program;
use polyrec::{check_statements, check_structure, program_id, Recorder, TraceReader};
use polyresist::{panic_msg, FaultPlan, PolyProfError, ResourceBudget, RunDegradation};
use polytrace::{Collector, Counter, Stage};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The live source: run the program under the profiler.
pub struct Live<'a> {
    /// Pass 1's result for the program.
    pub structure: &'a StaticStructure,
    /// Also write the event stream to a `.ptrace` file here, in frames of
    /// `chunk_events` events. A run that fails leaves a detectably
    /// unfinished recording behind.
    pub record: Option<&'a Path>,
    /// Events per frame of the recording (0 means 1).
    pub chunk_events: usize,
}

impl<'a> Live<'a> {
    /// The plain live source: no recording.
    pub fn new(structure: &'a StaticStructure) -> Self {
        Live {
            structure,
            record: None,
            chunk_events: 4096,
        }
    }
}

/// Where pass 2's resolved event stream comes from.
pub enum Source<'a> {
    /// VM → [`DdgProfiler`] → optional [`Recorder`] tap → sink.
    Live(Live<'a>),
    /// A `.ptrace` recording of the program: its program id is checked, pass
    /// 1's structure is rebuilt from it, then every frame is replayed into
    /// the sink — no VM, no shadow memory.
    Recording(&'a Replay),
}

/// A `.ptrace` recording to replay: a file, or bytes already in memory.
#[derive(Debug, Clone)]
pub enum Replay {
    /// A file, streamed frame by frame — never read whole.
    File(PathBuf),
    /// A whole recording in memory (an upload), read in place through
    /// `&[u8]`: the replay borrows it, no copy of it is made.
    Bytes {
        /// What errors call the recording, in place of a path.
        label: String,
        /// The recording, shared with whoever handed it over.
        bytes: Arc<[u8]>,
    },
}

impl<T: ?Sized + AsRef<Path>> From<&T> for Replay {
    fn from(path: &T) -> Self {
        Replay::File(path.as_ref().to_path_buf())
    }
}

impl From<Arc<[u8]>> for Replay {
    fn from(bytes: Arc<[u8]>) -> Self {
        Replay::Bytes {
            label: "<in-memory recording>".to_string(),
            bytes,
        }
    }
}

/// Knobs of one pass-2 run; each means the same for every [`Source`].
#[derive(Debug, Clone, Default)]
pub struct Pass2 {
    /// Folding options of the sink.
    pub options: FoldOptions,
    /// Telemetry collector: spans and counters.
    pub trace: Option<Arc<Collector>>,
    /// Byte and deadline budget.
    pub budget: Option<Arc<ResourceBudget>>,
    /// Deterministic fault-injection schedule (tests, the CI gate).
    pub faults: Option<Arc<FaultPlan>>,
}

/// What [`run`] hands back.
pub struct Pass2Out {
    /// The folded DDG, before SCEV removal.
    pub ddg: FoldedDdg,
    /// The statement table the fold's ids refer to.
    pub interner: ContextInterner,
    /// Everything the run lost.
    pub degradation: RunDegradation,
    /// Pass 1's output for a [`Source::Recording`], rebuilt from its
    /// structure section with the calls a live run makes; `None` for a
    /// [`Source::Live`], whose structure the caller passed in.
    pub structure: Option<StaticStructure>,
}

/// Run pass 2 of `prog`: stream `source` into one [`FoldingSink`], finalize,
/// and account for every loss. `Err` for a VM error, a recording that cannot
/// be read, matched or written, and a panic ([`PolyProfError::StagePanic`]).
pub fn run(prog: &Program, source: &Source<'_>, cfg: &Pass2) -> Result<Pass2Out, PolyProfError> {
    catch_unwind(AssertUnwindSafe(|| fold(prog, source, cfg))).unwrap_or_else(|p| {
        Err(PolyProfError::StagePanic {
            stage: "pass-2",
            msg: panic_msg(&*p),
        })
    })
}

/// [`run`] without the panic boundary.
fn fold(prog: &Program, source: &Source<'_>, cfg: &Pass2) -> Result<Pass2Out, PolyProfError> {
    let trace = cfg.trace.as_deref();
    let mut sink = FoldingSink::with_options(cfg.options);
    if let Some(b) = &cfg.budget {
        sink.set_budget(Arc::clone(b));
    }
    let (sink, interner, tallies, structure) = match source {
        Source::Live(live) => {
            let _span = trace.map(|c| c.span(Stage::Profile));
            let (sink, interner, tallies) = feed(prog, live, cfg, sink)?;
            (sink, interner, tallies, None)
        }
        Source::Recording(Replay::File(path)) => {
            let label = path.display().to_string();
            let (sink, interner, tallies, structure) =
                recording(prog, &label, || TraceReader::open(path), cfg, sink)?;
            (sink, interner, tallies, Some(structure))
        }
        Source::Recording(Replay::Bytes { label, bytes }) => {
            let open = || TraceReader::new(&bytes[..], label.clone());
            let (sink, interner, tallies, structure) = recording(prog, label, open, cfg, sink)?;
            (sink, interner, tallies, Some(structure))
        }
    };

    let fs = sink.fold_stats();
    // Shadow pages an armed fault plan refused are the plan's to count
    // (`absorb_plan` below): each fire refused one page.
    let mut deg = RunDegradation {
        budget_overapprox_stmts: fs.budget_degraded,
        ..RunDegradation::default()
    };
    if let Some(c) = trace {
        if let Some(t) = &tallies.opcodes {
            t.harvest(c);
        }
        for &(counter, n) in &tallies.counts {
            c.add(counter, n);
        }
        c.add(Counter::EventsFolded, fs.events_folded);
        c.add(Counter::DepsFolded, fs.deps_folded);
        c.add(Counter::FoldPredicted, fs.predicted);
    }

    let ddg = {
        let _span = trace.map(|c| c.span(Stage::Finalize));
        sink.finalize(prog, &interner)
    };

    if let Some(b) = &cfg.budget {
        deg.budget_pressure = b.under_pressure();
        deg.peak_tracked_bytes = b.peak_bytes();
        deg.deadline_hit = b.deadline_was_hit();
    }
    if let Some(p) = &cfg.faults {
        deg.absorb_plan(p);
    }
    if let Some(c) = trace {
        if deg.deadline_hit {
            c.timeline_instant("deadline-hit", 0, 0);
        }
        if deg.budget_pressure {
            c.timeline_instant("budget-pressure", deg.peak_tracked_bytes, 0);
        }
    }
    Ok(Pass2Out {
        ddg,
        interner,
        degradation: deg,
        structure,
    })
}

/// What one pass over the source left behind, besides the events.
#[derive(Default)]
struct SourceTallies {
    /// What to add to the collector.
    counts: Vec<(Counter, u64)>,
    opcodes: Option<Box<polyvm::OpcodeTelemetry>>,
}

/// Stream the live source into `out`. Generic over the sink, so the
/// recording tap composes without touching the plain hot path.
fn feed<S: FoldSink>(
    prog: &Program,
    live: &Live<'_>,
    cfg: &Pass2,
    out: S,
) -> Result<(S, ContextInterner, SourceTallies), PolyProfError> {
    let Some(path) = live.record else {
        return run_profiler(prog, live, cfg, out);
    };
    let tap = Recorder::to_file(path, prog, live.structure, live.chunk_events.max(1), out)?;
    let (tap, interner, mut tallies) = run_profiler(prog, live, cfg, tap)?;
    // The footer needs the interner's statement table. A failure here fails
    // the run: a footer-less recording is useless.
    let (out, stats) = tap.finish(&interner)?;
    tallies.counts.extend([
        (Counter::RecFramesWritten, stats.frames),
        (Counter::RecBytesWritten, stats.bytes),
    ]);
    Ok((out, interner, tallies))
}

/// The live source: VM → profiler → `out`. `cfg.trace` only decides whether
/// the VM counts opcodes (plain-u64 counting at `Timing`, plus sampled
/// dispatch timing at `Trace`; `Off`/`Counters` never arm it).
fn run_profiler<S: FoldSink>(
    prog: &Program,
    live: &Live<'_>,
    cfg: &Pass2,
    out: S,
) -> Result<(S, ContextInterner, SourceTallies), PolyProfError> {
    let mut prof = DdgProfiler::new(prog, live.structure, out);
    if let Some(p) = &cfg.faults {
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
    match vm.run(&[], &mut prof) {
        Ok(_) | Err(polyvm::VmError::Aborted) => {}
        Err(e) => {
            return Err(PolyProfError::Vm {
                stage: "pass-2",
                msg: e.to_string(),
            })
        }
    }
    let (ctx_hit, ctx_miss) = prof.interner.cache_stats();
    let (mru_hit, mru_miss) = prof.shadow_mru_stats();
    let tallies = SourceTallies {
        counts: vec![
            (Counter::DynOps, prof.dyn_ops),
            (Counter::MemEvents, prof.mem_events),
            (Counter::CtxCacheHit, ctx_hit),
            (Counter::CtxCacheMiss, ctx_miss),
            (Counter::CtxContentInterns, prof.interner.content_interns()),
            (Counter::ShadowMruHit, mru_hit),
            (Counter::ShadowMruMiss, mru_miss),
            (Counter::ShadowPages, prof.resident_shadow_pages() as u64),
            (Counter::ArenaBytes, prof.arena_bytes() as u64),
        ],
        opcodes: vm.take_opcode_telemetry(),
    };
    let (out, interner) = prof.finish();
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

fn recording_err(label: &str, detail: String) -> PolyProfError {
    PolyProfError::Recording {
        path: label.to_string(),
        detail,
    }
}

/// The recording source, over whatever `open` reads it through: open it and
/// rebuild pass 1's structure (the `structure` span), then replay its frames
/// into `sink` (the `profile` span).
fn recording<R: Read>(
    prog: &Program,
    label: &str,
    open: impl FnOnce() -> Result<TraceReader<R>, PolyProfError>,
    cfg: &Pass2,
    sink: FoldingSink,
) -> Result<(FoldingSink, ContextInterner, SourceTallies, StaticStructure), PolyProfError> {
    let trace = cfg.trace.as_deref();
    let (reader, structure) = {
        let _span = trace.map(|c| c.span(Stage::Structure));
        open_recording(prog, label, open()?)?
    };
    let _span = trace.map(|c| c.span(Stage::Profile));
    let (sink, interner, tallies) = replay(prog, label, reader, &structure, cfg, sink)?;
    Ok((sink, interner, tallies, structure))
}

/// Check that an opened recording was captured from `prog`, and rebuild
/// pass 1's structure from its structure section — checked against `prog`
/// before anything indexes with it.
fn open_recording<R: Read>(
    prog: &Program,
    label: &str,
    mut reader: TraceReader<R>,
) -> Result<(TraceReader<R>, StaticStructure), PolyProfError> {
    let want = program_id(prog);
    let got = reader.meta().program_id;
    if want != got {
        return Err(recording_err(
            label,
            format!(
                "program id mismatch: recording was captured from {got:#018x}, \
                 replaying against {want:#018x} ({})",
                prog.name
            ),
        ));
    }
    let graphs = reader.take_structure();
    check_structure(prog, &graphs).map_err(|d| recording_err(label, d))?;
    let (cfgs, cg_edges) = graphs;
    Ok((reader, StaticStructure::from_graphs(prog, cfgs, cg_edges)))
}

/// The recording source: decode every frame of an opened recording straight
/// into `out`, with one heartbeat (fault probe and deadline poll) per frame,
/// then check the footer's statement table against `prog` and `structure`.
/// Once the deadline latches, the remaining frames are decoded and verified —
/// the statement table is in the footer — but not folded.
fn replay<S: FoldSink, R: Read>(
    prog: &Program,
    label: &str,
    mut reader: TraceReader<R>,
    structure: &StaticStructure,
    cfg: &Pass2,
    mut out: S,
) -> Result<(S, ContextInterner, SourceTallies), PolyProfError> {
    let budget = cfg.budget.as_deref();
    loop {
        if let Some(p) = &cfg.faults {
            p.stall_at_beat();
        }
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
    check_statements(prog, structure, &interner).map_err(|d| recording_err(label, d))?;
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
