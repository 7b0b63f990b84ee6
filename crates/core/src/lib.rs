//! # polyprof-core — the Poly-Prof pipeline, end to end
//!
//! The top-level API of the reproduction of *"Data-Flow/Dependence
//! Profiling for Structured Transformations"* (PPoPP 2019). One call —
//! [`profile`] — runs the whole Fig. 1 pipeline on a PolyVM program:
//!
//! 1. **Instrumentation I** (`polycfg`): dynamic CFG/CG recording, loop
//!    forests, recursive components;
//! 2. **Instrumentation II** (`polyiiv` + `polyddg`): dynamic
//!    interprocedural iteration vectors, shadow memory, dependence streams;
//! 3. **Folding** (`polyfold`): polyhedral compaction, SCEV removal,
//!    over-approximation;
//! 4. **Feedback** (`polysched` + `polyfeedback`): Pluto-style analysis and
//!    PolyFeat-style metrics, flame graphs, annotated ASTs.
//!
//! The static "Polly" baseline (`polystatic`) runs alongside for the
//! paper's Experiment II comparison.
//!
//! ```
//! use polyprof_core::profile;
//!
//! let workload = rodinia::backprop::build();
//! let report = profile(&workload.program);
//! assert!(report.feedback.regions[0].pct_parallel > 0.9);
//! println!("{}", report.annotated_ast);
//! ```

pub use polycfg;
pub use polyddg;
pub use polyfeedback;
pub use polyfold;
pub use polyiiv;
pub use polyir;
pub use polylib;
pub use polyrec;
pub use polyresist;
pub use polysched;
pub use polystatic;
pub use polytrace;
pub use polyvm;

pub use polyfold::pass2::Replay;
pub use polyresist::{FaultPlan, FaultSite, PolyProfError, ResourceBudget, RunDegradation};
pub use polytrace::{MetricsLevel, RunMetrics};

use polyfeedback::metrics::ProgramFeedback;
use polyfold::pass2::{Live, Pass2, Source};
use polyir::Program;
use polystatic::dataflow::StaticSummary;
use polystatic::deps::StaticDeps;
use polystatic::legality::LegalityReport;
use polystatic::lint::LintReport;
use polystatic::StaticReport;
use polytrace::{Collector, Counter, Stage};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything Poly-Prof produces for one program.
pub struct Report {
    /// PolyFeat-style metrics and suggestions (Tables 3–5 material).
    pub feedback: ProgramFeedback,
    /// The static "Polly" baseline verdicts (Experiment II).
    pub static_report: StaticReport,
    /// Annotated flame graph (SVG, Figs. 5b/7).
    pub flamegraph_svg: String,
    /// Simplified annotated AST of the nest forest (§6 "final output").
    pub annotated_ast: String,
    /// The complete textual feedback document (§6's "extensive" output:
    /// region statistics, dependence summary, transformation sequences,
    /// annotated AST).
    pub full_text: String,
    /// Folded-DDG statistics: (statements after folding+SCEV removal,
    /// dependences, dynamic ops) — the paper's scalability argument
    /// ("thousands of statements → a few hundred").
    pub folded_stats: (usize, usize, u64),
    /// Number of statements removed as SCEVs and dependences removed with
    /// them.
    pub scev_removed: (usize, usize),
    /// Instructions the static pre-pass proved SCEV (0 unless
    /// [`ProfileConfig::lint`] ran it).
    pub static_scevs: usize,
    /// Always 0. Ignored; removed when ROADMAP item 1e drops the call.
    pub pruned_events: u64,
    /// Always 0. Ignored; removed when ROADMAP item 1e drops the call.
    pub pruned_mem_events: u64,
    /// The static affine dependence relations (access functions, per-pair
    /// dependence tests), when the static pre-pass ran.
    pub static_deps: Option<Arc<StaticDeps>>,
    /// Schedule-legality verdicts: per loop the dynamic scheduler claimed
    /// parallel, whether the static direction vectors certify the claim.
    /// Present whenever the static pre-pass ran.
    pub legality: Option<LegalityReport>,
    /// Post-fold DDG lint verdict, when [`ProfileConfig::lint`] was set.
    pub lint: Option<LintReport>,
    /// The profiler's *own* run metrics — per-stage wall times, pipeline
    /// counters, and cache gauges. `None` when the run was
    /// configured with [`MetricsLevel::Off`] (the default): the telemetry
    /// layer then costs nothing and the hot path stays allocation-free.
    pub metrics: Option<RunMetrics>,
    /// Everything the run lost: injected faults, unresolved accesses, budget
    /// over-approximation, the watchdog deadline. All-default (check
    /// [`RunDegradation::is_degraded`])
    /// for a clean run — which every run without a fault plan or budget is.
    pub degradation: RunDegradation,
    /// Canonical text of the folded DDG after SCEV removal — the
    /// byte-comparison artifact: what the tests, the server and the ledger
    /// compare between runs. (`full_text` has matched wherever it was
    /// compared, and `generous_budget_is_invisible` and the replay tests
    /// assert it, but no serving or benchmark check rests on it.) Captured
    /// only when
    /// [`ProfileConfig::with_canonical`] asked for it; `None` otherwise so
    /// the default path allocates nothing extra.
    pub canonical_ddg: Option<String>,
}

impl Report {
    /// The run metrics as a JSON object string, or `None` at
    /// [`MetricsLevel::Off`]. Stable keys, one well-formed JSON value
    /// (`tests/metrics.rs` passes it through `polytrace::validate_json`).
    /// When the static pre-pass ran, the `lint`, `static_deps`, and
    /// `legality` reports are spliced in as additional top-level keys (each
    /// stable-keyed itself).
    pub fn metrics_json(&self) -> Option<String> {
        self.metrics.as_ref().map(|m| {
            let mut j = m.to_json();
            let mut extra = String::new();
            if let Some(rep) = &self.lint {
                extra.push_str(&format!(",\"lint\":{}", rep.to_json()));
            }
            if let Some(d) = &self.static_deps {
                extra.push_str(&format!(",\"static_deps\":{}", d.to_json()));
            }
            if let Some(rep) = &self.legality {
                extra.push_str(&format!(",\"legality\":{}", rep.to_json()));
            }
            if !extra.is_empty() {
                debug_assert!(j.ends_with('}'));
                j.truncate(j.len() - 1);
                j.push_str(&extra);
                j.push('}');
            }
            j
        })
    }

    /// Render the profiler's own stage tree as a flame graph SVG (the
    /// self-profile counterpart of [`Report::flamegraph_svg`]), or `None`
    /// at [`MetricsLevel::Off`].
    pub fn self_flamegraph_svg(&self, title: &str) -> Option<String> {
        self.metrics
            .as_ref()
            .map(|m| polyfeedback::self_flamegraph_svg(m, title))
    }

    /// Stable JSON rendering of the degradation counters — what the CI
    /// resilience gate snapshots next to its `metrics.json` artifacts.
    pub fn degradation_json(&self) -> String {
        self.degradation.to_json()
    }

    /// The run's timeline as Chrome trace-event JSON (loadable in Perfetto
    /// / `chrome://tracing`), or `None` below [`MetricsLevel::Trace`].
    pub fn timeline_json(&self) -> Option<String> {
        self.metrics
            .as_ref()
            .filter(|m| m.level >= MetricsLevel::Trace)
            .map(|m| m.timeline_json())
    }
}

/// Knobs of one profiling run (see `polyfold::pass2` for the anatomy of
/// pass 2). Construct through [`ProfileConfig::new`] and the `with_*`
/// builders — the struct is `#[non_exhaustive]` so future knobs can land
/// without breaking callers. A pair of knobs that cannot both be honoured
/// is a [`PolyProfError::Config`], before anything runs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ProfileConfig {
    /// Events per frame of a recording ([`ProfileConfig::with_record_to`]).
    pub chunk_events: usize,
    /// Self-profiling level: [`MetricsLevel::Off`] (default, zero cost),
    /// `Counters` (hot-path tallies, harvested per stage), or `Timing`
    /// (counters + per-stage spans and the VM's opcode profile), or `Trace`
    /// (timing + a timeline).
    pub metrics: MetricsLevel,
    /// Run the static affine pre-pass (`polystatic::{dataflow, deps}`) and
    /// check the dynamic profile against it: lint the folded DDG (forest
    /// refinement, must-exist flow deps, partition disjointness, SCEV marks,
    /// static dependence relations) and re-verify the scheduler's parallel
    /// verdicts ([`Report::legality`]). The only knob that runs the pre-pass;
    /// it never changes the folded DDG.
    pub lint: bool,
    /// Byte budget for retained profiling state (shadow pages, coordinate
    /// arena, per-statement folders). Crossing it latches *pressure*:
    /// folders switch to the paper's over-approximation mode (bounding box +
    /// label ranges) instead of allocating further precision state. `None`
    /// (default) tracks nothing.
    pub memory_budget: Option<u64>,
    /// Watchdog deadline for pass 2, measured from its start. When it fires
    /// the event source — the VM, or the replay of a recording — stops
    /// gracefully and the run finalizes a partial but valid folded DDG
    /// (`Report::degradation.deadline_hit`).
    pub deadline: Option<Duration>,
    /// Deterministic fault-injection schedule, for tests and the CI
    /// resilience gate; `None` for production runs. It applies to a live run
    /// and to a replay (which has only the `stall:beat` site to fire). A
    /// fired `panic:pre` makes the run a [`PolyProfError::StagePanic`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Record the resolved event stream of pass 2 into a versioned `.ptrace`
    /// file at this path (see `polyrec`). The live fold is undisturbed; the
    /// recording can later be re-folded offline via
    /// [`ProfileConfig::replay_from`] with byte-identical results.
    /// Contradicts `replay_from` (a replay has no VM run to tap).
    pub record_to: Option<PathBuf>,
    /// Run no VM at all and rebuild the profile from this `.ptrace`
    /// recording instead — a file, streamed, or bytes in memory, read in
    /// place: pass 1's structure from its structure section
    /// (the `structure` span times the rebuild), the fold from its frames.
    /// The recording's program id must match `prog`. Budget, deadline,
    /// cancellation, fault plan and metrics apply to the replayed fold
    /// exactly as to a live one;
    /// `record_to` contradicts it (there is no VM run to tap).
    pub replay_from: Option<Replay>,
    /// Use this externally-owned budget instead of constructing one from
    /// `memory_budget`/`deadline` — the handle through which a run is watched
    /// and stopped from outside. Whoever keeps a clone reads
    /// [`ResourceBudget::progress`] (the heartbeat pass 2's event source
    /// publishes once per 4096 dynamic instructions, or per replayed frame),
    /// `used_bytes`, `under_pressure` and `deadline_remaining` from its own
    /// thread at its own pace, and [`ResourceBudget::cancel`]s a wedged run;
    /// `ResourceBudget::new(None, None)` suffices to watch. Contradicts
    /// `memory_budget` and `deadline`: the limits are the shared budget's own.
    pub shared_budget: Option<Arc<ResourceBudget>>,
    /// Capture [`Report::canonical_ddg`] — the folded DDG's deterministic
    /// canonical text after SCEV removal. Off by default: the rendering
    /// allocates a string proportional to the folded DDG.
    pub canonical: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            chunk_events: 4096,
            metrics: MetricsLevel::Off,
            lint: false,
            memory_budget: None,
            deadline: None,
            fault_plan: None,
            record_to: None,
            replay_from: None,
            shared_budget: None,
            canonical: false,
        }
    }
}

impl ProfileConfig {
    /// The default configuration: 4096-event recording frames, metrics off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignored: pass 2 folds on the calling thread. Removed when ROADMAP
    /// item 1e drops the call.
    pub fn with_fold_threads(self, _n: usize) -> Self {
        self
    }

    /// Set the events per recorded frame.
    pub fn with_chunk_events(mut self, n: usize) -> Self {
        self.chunk_events = n;
        self
    }

    /// Set the self-profiling level.
    pub fn with_metrics(mut self, level: MetricsLevel) -> Self {
        self.metrics = level;
        self
    }

    /// Ignored: pass 2 instruments every instruction. Removed when ROADMAP
    /// item 1e drops the call.
    pub fn with_static_prune(self, _on: bool) -> Self {
        self
    }

    /// Enable the post-fold DDG lint and the legality check, and with them
    /// the static pre-pass.
    pub fn with_lint(mut self, on: bool) -> Self {
        self.lint = on;
        self
    }

    /// Cap retained profiling state at `bytes`; on pressure, per-statement
    /// folding degrades to over-approximation instead of failing.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Set a pass-2 watchdog deadline; when it fires the run finalizes a
    /// partial but valid folded DDG.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arm a deterministic fault-injection schedule (tests / CI gate).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Record the resolved pass-2 event stream to a `.ptrace` file (see
    /// [`ProfileConfig::record_to`]).
    pub fn with_record_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.record_to = Some(path.into());
        self
    }

    /// Fold a `.ptrace` recording instead of re-running the VM (see
    /// [`ProfileConfig::replay_from`]): a path, or the recording's bytes as
    /// an `Arc<[u8]>`.
    pub fn with_replay_from(mut self, recording: impl Into<Replay>) -> Self {
        self.replay_from = Some(recording.into());
        self
    }

    /// Run under an externally-owned budget (see
    /// [`ProfileConfig::shared_budget`]).
    pub fn with_shared_budget(mut self, budget: Arc<ResourceBudget>) -> Self {
        self.shared_budget = Some(budget);
        self
    }

    /// Capture the folded DDG's canonical text into
    /// [`Report::canonical_ddg`].
    pub fn with_canonical(mut self, on: bool) -> Self {
        self.canonical = on;
        self
    }

    /// Reject every pair of knobs that cannot both be honoured.
    fn check(&self) -> Result<(), PolyProfError> {
        let clash = |knob, detail: &str| {
            let detail = detail.to_string();
            Err(PolyProfError::Config { knob, detail })
        };
        let replay = self.replay_from.is_some();
        let limits = self.memory_budget.is_some() || self.deadline.is_some();
        if replay && self.record_to.is_some() {
            return clash("record_to", "taps the VM run `replay_from` replaces");
        }
        if self.shared_budget.is_some() && limits {
            return clash("shared_budget", "overrides `memory_budget`/`deadline`");
        }
        if self.chunk_events > polyrec::MAX_CHUNK_EVENTS {
            let most = polyrec::MAX_CHUNK_EVENTS;
            return clash(
                "chunk_events",
                &format!("a recorded frame holds at most {most}"),
            );
        }
        Ok(())
    }
}

/// Run the full Poly-Prof pipeline (both instrumentation passes, folding,
/// scheduling, feedback) plus the static baseline.
pub fn profile(prog: &Program) -> Report {
    profile_with(prog, &ProfileConfig::default())
}

/// As [`profile`], with explicit configuration.
///
/// Back-compat panicking wrapper around [`try_profile_with`] — it panics
/// with the rendered [`PolyProfError`] on what that function returns as
/// `Err`, such as a deterministic VM error, a contradictory configuration or
/// a pass-2 panic.
pub fn profile_with(prog: &Program, cfg: &ProfileConfig) -> Report {
    match try_profile_with(prog, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible sibling of [`profile_with`], and a function of `(prog, cfg)`
/// alone — it reads no environment. Contradictory knobs, a deterministic VM
/// error, an unreadable or mismatched recording and a panic in pass 2 are a
/// structured [`PolyProfError`] instead of a panic. Recoverable trouble —
/// budget pressure, the watchdog deadline, a refused shadow page — still
/// yields `Ok`, with the losses recorded in [`Report::degradation`].
pub fn try_profile_with(prog: &Program, cfg: &ProfileConfig) -> Result<Report, PolyProfError> {
    cfg.check()?;

    // Telemetry: one fixed-slot collector per run when metrics are on; no
    // allocation and no clock reads at `Off` (the zero-alloc gate runs the
    // default config through this exact path).
    let trace = (cfg.metrics != MetricsLevel::Off)
        .then(|| (Arc::new(Collector::new(cfg.metrics)), Instant::now()));

    // A budget exists only when a byte limit or deadline was configured (or
    // the caller shares its own); with none, every downstream hook is one
    // skipped branch on a cold path.
    let budget = match &cfg.shared_budget {
        Some(b) => Some(Arc::clone(b)),
        None => (cfg.memory_budget.is_some() || cfg.deadline.is_some())
            .then(|| Arc::new(ResourceBudget::new(cfg.memory_budget, cfg.deadline))),
    };
    let pass2 = Pass2 {
        options: polyfold::FoldOptions::default(),
        trace: trace.as_ref().map(|(c, _)| Arc::clone(c)),
        budget,
        faults: cfg.fault_plan.clone(),
    };

    // Passes 1 and 2. A live run executes the program twice: pass 1 records
    // the dynamic control structure, pass 2 streams the events. A recording
    // holds both, so a replay runs no VM and hands pass 1's output back.
    let source = match &cfg.replay_from {
        Some(recording) => Source::Recording(recording),
        None => Source::Live(Live {
            record: cfg.record_to.as_deref(),
            chunk_events: cfg.chunk_events,
        }),
    };
    let out = polyfold::pass2::run(prog, &source, &pass2)?;
    let (mut ddg, interner, structure) = (out.ddg, out.interner, out.structure);
    let degradation = out.degradation;

    // Static affine pre-pass: SCEV proofs and dependence relations, the
    // oracles the lint and the legality check hold the dynamic profile to.
    // Runs only for the lint — the dynamic pipeline pays nothing.
    let static_pass = cfg.lint.then(|| {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::StaticPass));
        let summary = StaticSummary::analyze(prog);
        let deps = Arc::new(StaticDeps::analyze(prog, &summary));
        (summary, deps)
    });

    // Post-fold, pre-removal: lint the DDG against the static claims (the
    // lint must see the SCEV statements and their dependences before
    // removal deletes them).
    let lint = static_pass.as_ref().map(|(summary, deps)| {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::Lint));
        polystatic::lint::lint_ddg_with_deps(
            prog,
            summary,
            Some(&**deps),
            &ddg,
            &interner,
            &structure,
        )
    });
    let static_scevs = static_pass.as_ref().map_or(0, |(s, _)| s.n_scev());

    let scev_removed = {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::ScevRemoval));
        ddg.remove_scevs()
    };
    if let Some((c, _)) = &trace {
        c.add(Counter::OverapproxStmts, ddg.overapprox_stmts() as u64);
    }
    // The canonical text is the run's byte-comparison artifact: a serving
    // layer compares a session's result bit-for-bit against a direct
    // in-process run through it, never through `full_text`.
    let canonical_ddg = cfg.canonical.then(|| ddg.canonical_text());

    // Stage 4: scheduling + feedback.
    let analysis = {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::Schedule));
        polysched::Analysis::analyze(&ddg, &interner)
    };
    // Legality check: every loop the dynamic scheduler claims parallel is
    // re-verified against the static direction vectors (when the static
    // pre-pass ran). An unverified claim is not a refutation — it marks the
    // limit of the affine model, and the dynamic verdict stands.
    let legality = static_pass
        .as_ref()
        .map(|(_, d)| polystatic::legality::check_schedule(prog, d, &analysis, &interner));
    let input = polyfeedback::FeedbackInput {
        prog,
        ddg: &ddg,
        interner: &interner,
        structure: &structure,
        analysis: &analysis,
    };
    let (feedback, full_text) = {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::Feedback));
        let feedback = polyfeedback::metrics::compute(&input);
        let full_text = polyfeedback::full_report(&input, &feedback);
        (feedback, full_text)
    };
    let (flamegraph_svg, annotated_ast) = {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::Render));
        (
            polyfeedback::flamegraph_svg(&input, &prog.name),
            polyfeedback::annotated_ast(&input),
        )
    };
    let static_report = {
        let _span = trace.as_ref().map(|(c, _)| c.span(Stage::StaticBaseline));
        polystatic::analyze_program(prog)
    };

    let static_deps = static_pass.map(|(_, d)| d);
    let full_text = match (&static_deps, &lint, &legality) {
        (Some(d), Some(lint), Some(legality)) => format!(
            "{full_text}\n{}\n{}",
            polyfeedback::static_pass_section(static_scevs, lint),
            polyfeedback::legality_section(d, legality)
        ),
        _ => full_text,
    };
    // Degraded runs carry their loss accounting into the feedback document;
    // clean runs (the overwhelmingly common case) append nothing.
    let full_text = if degradation.is_degraded() {
        let section = polyfeedback::degradation_section(&degradation);
        format!("{full_text}\n{section}")
    } else {
        full_text
    };

    let metrics = trace.map(|(c, t0)| c.snapshot(t0.elapsed().as_nanos() as u64));
    // VM opcode telemetry only exists at `Timing`+, so `Off`/`Counters`
    // reports stay byte-identical to pre-telemetry output.
    let full_text = match &metrics {
        Some(m) if !m.vm_ops.is_empty() => {
            let section = polyfeedback::vm_profile_section(m);
            format!("{full_text}\n{section}")
        }
        _ => full_text,
    };
    Ok(Report {
        feedback,
        static_report,
        flamegraph_svg,
        annotated_ast,
        full_text,
        folded_stats: (ddg.n_stmts(), ddg.deps.len(), ddg.total_ops),
        scev_removed,
        static_scevs,
        pruned_events: 0,
        pruned_mem_events: 0,
        static_deps,
        legality,
        lint,
        metrics,
        degradation,
        canonical_ddg,
    })
}

/// Suite driver: apply `f` to each item in parallel, preserving input order.
///
/// Every profiling run owns its VM, shadow memory, and folding state, so
/// workloads are embarrassingly parallel; results come back in input order,
/// identical to a serial `items.iter().map(f)` loop. This is the driver
/// behind the Table 5 / ablation suite runs.
///
/// A panicking workload re-panics on the caller with a payload that names
/// the originating item (`workload #i panicked: <original message>`), so a
/// red CI run points at the failing workload instead of a bare join error.
pub fn profile_all_with<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use rayon::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    items
        .par_iter()
        .enumerate()
        .map(
            |(i, item)| match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => r,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&'static str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    std::panic::panic_any(format!("workload #{i} panicked: {msg}"))
                }
            },
        )
        .collect()
}

/// Suite driver with per-workload telemetry: profile every program with
/// `cfg` in parallel (same ordering guarantees as [`profile_all_with`]) and log
/// one line per workload — its name and wall time — to stderr.
pub fn profile_suite<P: std::borrow::Borrow<Program> + Sync>(
    progs: &[P],
    cfg: &ProfileConfig,
) -> Vec<Report> {
    profile_all_with(progs, |p| {
        let t0 = Instant::now();
        let r = profile_with(p.borrow(), cfg);
        eprintln!(
            "[poly-prof] {:<16} wall {:>10.3?}",
            p.borrow().name,
            t0.elapsed()
        );
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_backprop_end_to_end() {
        let w = rodinia::backprop::build();
        let r = profile(&w.program);
        assert!(!r.feedback.regions.is_empty());
        assert!(r.flamegraph_svg.contains("<svg"));
        assert!(r.annotated_ast.contains("for"));
        // folding compacts: way fewer statements than dynamic ops
        let (stmts, _deps, ops) = r.folded_stats;
        assert!(stmts > 0 && (stmts as u64) < ops / 10);
        // SCEV removal fired
        assert!(r.scev_removed.0 > 0);
        // static baseline must fail somewhere dynamic analysis succeeded
        assert!(!r.static_report.all_modeled());
    }

    #[test]
    fn doc_example_runs() {
        let workload = rodinia::backprop::build();
        let report = profile(&workload.program);
        assert!(report.feedback.regions[0].pct_parallel > 0.9);
    }

    /// The rayon suite driver must produce the same reports, in the same
    /// order, as a serial loop — down to the rendered text and the canonical
    /// DDG.
    #[test]
    fn profile_all_matches_serial() {
        let workloads = [
            rodinia::backprop::build(),
            rodinia::nw::build(),
            rodinia::pathfinder::build(),
        ];
        let progs: Vec<&Program> = workloads.iter().map(|w| &w.program).collect();
        let cfg = ProfileConfig::new().with_canonical(true);
        let par = profile_all_with(&progs, |p| profile_with(p, &cfg));
        let ser: Vec<Report> = progs.iter().map(|p| profile_with(p, &cfg)).collect();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.full_text, s.full_text);
            assert!(p.canonical_ddg.is_some());
            assert_eq!(p.canonical_ddg, s.canonical_ddg);
            assert_eq!(p.folded_stats, s.folded_stats);
            assert_eq!(p.scev_removed, s.scev_removed);
            assert_eq!(p.feedback.pct_aff, s.feedback.pct_aff);
            assert_eq!(p.feedback.regions.len(), s.feedback.regions.len());
            for (pr, sr) in p.feedback.regions.iter().zip(&s.feedback.regions) {
                assert_eq!(pr.pct_parallel, sr.pct_parallel);
                assert_eq!(pr.pct_simd, sr.pct_simd);
            }
            assert_eq!(p.annotated_ast, s.annotated_ast);
        }
    }

    /// Every pair of knobs `try_profile_with` used to reconcile silently is a
    /// structured error naming the knob that cannot be honoured, raised before
    /// pass 1 (the recording named here does not even exist); the ignored
    /// `with_fold_threads(0)` and an armed plan that never fires run clean.
    #[test]
    fn contradictory_knobs_are_config_errors() {
        let prog = rodinia::backprop::build().program;
        let nowhere = std::env::temp_dir().join(format!("polyprof_{}_nowhere", std::process::id()));
        let shared = || Arc::new(ResourceBudget::new(None, None));
        let tick = Duration::from_millis(1);
        let new = ProfileConfig::new;
        let rows = [
            (
                "record_to",
                new().with_replay_from(&nowhere).with_record_to(&nowhere),
            ),
            (
                "shared_budget",
                new().with_shared_budget(shared()).with_memory_budget(1),
            ),
            (
                "shared_budget",
                new().with_shared_budget(shared()).with_deadline(tick),
            ),
        ];
        for (want, cfg) in rows {
            match try_profile_with(&prog, &cfg).map(|r| r.folded_stats) {
                Err(PolyProfError::Config { knob, detail }) => {
                    assert_eq!(knob, want, "{detail}");
                    assert!(!detail.is_empty());
                }
                other => panic!("{want}: expected a Config error, got {other:?}"),
            }
        }
        assert!(!nowhere.exists());
        let plan = Arc::new(FaultPlan::parse("panic:pre@999999999").unwrap());
        for cfg in [new().with_fold_threads(0), new().with_fault_plan(plan)] {
            let r = try_profile_with(&prog, &cfg).expect("legal configuration");
            assert!(!r.degradation.is_degraded(), "{:?}", r.degradation);
        }
    }

    /// A panicking workload must surface as a panic naming the workload,
    /// carrying the original message — not a generic join error, and never
    /// a silently absorbed result.
    #[test]
    fn profile_all_with_propagates_worker_panics() {
        let items: Vec<u32> = (0..8).collect();
        let res = std::panic::catch_unwind(|| {
            profile_all_with(&items, |&i| {
                if i == 1 {
                    panic!("bad trip count {i}");
                }
                i * 2
            })
        });
        let payload = res.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("workload #1"), "missing attribution: {msg:?}");
        assert!(msg.contains("bad trip count 1"), "payload lost: {msg:?}");
    }
}
