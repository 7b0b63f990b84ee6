//! The per-layer ledger: every layer is timed from outside, by calling its
//! public functions, through the cumulative configurations ROADMAP item 1
//! draws — bare VM → + structure recorder → + IIV → + shadow/register
//! resolution into a null fold sink → + folding sink — and the fixed stages
//! after them. A streaming layer's cost is the difference between two
//! configurations; a fixed stage's cost is its own span.

use crate::spans::Spans;
use crate::stats::{median, Calibrator, Metric};
use crate::workloads::{Case, Cost};
use polyprof_core::polycfg::{LoopEvent, LoopEventGen, StaticStructure, StructureRecorder};
use polyprof_core::polyddg::{DdgProfiler, DepKind, FoldSink};
use polyprof_core::polyfold::{FoldOptions, FoldedDdg, FoldingSink};
use polyprof_core::polyiiv::context::{ContextInterner, CtxPathId, StmtId};
use polyprof_core::polyiiv::IivTracker;
use polyprof_core::polyir::{BlockRef, FuncId, InstrRef, Program, Value};
use polyprof_core::polyrec::TraceReader;
use polyprof_core::polyvm::{sinks::CountingSink, EventSink, NullSink, Vm};
use polyprof_core::{
    polyfeedback, polysched, polystatic, try_profile_with, MetricsLevel, ProfileConfig, Report,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Callbacks one pass over `prog` delivers to its `EventSink`, by class.
pub fn count_events(prog: &Program) -> Cost {
    let mut c = CountingSink::default();
    Vm::new(prog)
        .run(&[], &mut c)
        .expect("workload programs run to completion");
    Cost::from(&c)
}

/// A fold sink that only looks at what it is given: the resolve layer is
/// measured into it, so that folding cost stays out of that row.
#[derive(Default)]
struct NullFold {
    seen: u64,
}

impl FoldSink for NullFold {
    fn instr_point(&mut self, _: StmtId, coords: &[i64], _: Option<i64>) {
        self.seen += 1;
        black_box(coords);
    }
    fn mem_access(&mut self, _: StmtId, coords: &[i64], _: u64, _: bool) {
        self.seen += 1;
        black_box(coords);
    }
    fn dependence(&mut self, _: DepKind, _: StmtId, src: &[i64], _: StmtId, dst: &[i64]) {
        self.seen += 1;
        black_box((src, dst));
    }
}

const STMT_SLOTS: usize = 64;

/// The IIV layer alone: loop events, the iteration-vector tracker, context
/// interning and statement lookup — what `DdgProfiler` does before it
/// touches shadow memory or register frames, with the same small statement
/// cache in front of the interner.
struct IivSink<'s> {
    gen: LoopEventGen<'s>,
    iiv: IivTracker,
    interner: ContextInterner,
    loop_buf: Vec<LoopEvent>,
    coords: Vec<i64>,
    dirty: bool,
    stmt_cache: [Option<(CtxPathId, InstrRef, StmtId)>; STMT_SLOTS],
}

impl<'s> IivSink<'s> {
    fn new(prog: &Program, structure: &'s StaticStructure) -> Self {
        let entry_fn = prog.entry.expect("workload programs have an entry");
        IivSink {
            gen: LoopEventGen::new(structure),
            iiv: IivTracker::new(BlockRef {
                func: entry_fn,
                block: prog.func(entry_fn).entry(),
            }),
            interner: ContextInterner::new(),
            loop_buf: Vec::with_capacity(8),
            coords: Vec::with_capacity(8),
            dirty: true,
            stmt_cache: [None; STMT_SLOTS],
        }
    }

    fn drain(&mut self) {
        if self.loop_buf.is_empty() {
            return;
        }
        for ev in self.loop_buf.drain(..) {
            self.iiv.apply(&ev);
        }
        self.dirty = true;
    }

    fn locate(&mut self, instr: InstrRef) {
        let path = self.interner.current_path(&self.iiv);
        let slot = (instr.idx as usize
            ^ ((instr.block.block.0 as usize) << 2)
            ^ ((instr.block.func.0 as usize) << 5))
            & (STMT_SLOTS - 1);
        let stmt = match self.stmt_cache[slot] {
            Some((p, i, s)) if p == path && i == instr => s,
            _ => {
                let s = self.interner.stmt(path, instr);
                self.stmt_cache[slot] = Some((path, instr, s));
                s
            }
        };
        if self.dirty {
            self.iiv.coords_into(&mut self.coords);
            self.dirty = false;
        }
        black_box((stmt, &self.coords));
    }
}

impl EventSink for IivSink<'_> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.loop_buf);
        self.drain();
    }
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen
            .on_call(callsite, callee, entry, &mut self.loop_buf);
        self.drain();
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.loop_buf);
        self.drain();
    }
    fn exec(&mut self, instr: InstrRef, _: Option<Value>) {
        self.locate(instr);
    }
    fn mem(&mut self, instr: InstrRef, _: u64, _: bool) {
        self.locate(instr);
    }
}

/// Everything the quality metrics and output checks need from one program,
/// produced by walking the pipeline stage by stage.
pub struct Folded {
    pub ddg: FoldedDdg,
    pub structure: StaticStructure,
    pub analysis: polysched::Analysis,
    pub feedback: polyfeedback::metrics::ProgramFeedback,
}

fn run_vm<S: EventSink>(prog: &Program, sink: &mut S) -> u64 {
    Vm::new(prog)
        .run(&[], sink)
        .expect("workload programs run to completion")
        .dyn_instrs
}

/// One iteration's sums over the program set, by row name.
#[derive(Default)]
struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The default-configuration pipeline of `try_profile_with`, one public call
/// per stage, each under its own span. Returns the folded result and adds
/// the stage times (ns) and counts to `t`.
fn layered_profile(prog: &Program, it: u64, spans: &mut Spans, t: &mut Tally) -> Folded {
    let (folded, _) = spans.time("layered_profile", it, |spans| {
        let (rec, ns) = spans.time("pass1.vm+polycfg.record", it, |_| {
            let mut rec = StructureRecorder::new();
            run_vm(prog, &mut rec);
            rec
        });
        t.add("t_rec", ns as f64);
        let (structure, ns) = spans.time("polycfg.analyze", it, |_| {
            StaticStructure::analyze(prog, rec)
        });
        t.add("t_analyze", ns as f64);
        let loops = structure
            .forests
            .values()
            .map(|f| f.loops.len())
            .sum::<usize>()
            + structure.rcs.components.len();
        t.add("loops", loops as f64);

        let ((sink, interner), ns) = spans.time("pass2.vm+polyddg+polyfold.stream", it, |spans| {
            let mut prof = DdgProfiler::new(prog, &structure, FoldingSink::new());
            run_vm(prog, &mut prof);
            let (hits, misses) = prof.shadow_mru_stats();
            t.add("mru_hits", hits as f64);
            t.add("mru_misses", misses as f64);
            t.add("shadow_pages", prof.resident_shadow_pages() as f64);
            t.add("arena_bytes", prof.arena_bytes() as f64);
            spans.count("shadow_pages", prof.resident_shadow_pages() as f64);
            prof.finish()
        });
        t.add("t_fold", ns as f64);
        let (hits, misses) = interner.cache_stats();
        t.add("ctx_hits", hits as f64);
        t.add("ctx_misses", misses as f64);
        t.add("ctx_paths", interner.n_paths() as f64);
        let fs = sink.fold_stats();
        t.add("events_folded", fs.events_folded as f64);
        t.add("deps_folded", fs.deps_folded as f64);

        let (mut ddg, ns) = spans.time("polyfold.finalize", it, |_| sink.finalize(prog, &interner));
        t.add("t_finalize", ns as f64);
        let (_, ns) = spans.time("polyfold.scev_removal", it, |_| ddg.remove_scevs());
        t.add("t_scev", ns as f64);
        let (analysis, ns) = spans.time("polysched.analyze", it, |_| {
            polysched::Analysis::analyze(&ddg, &interner)
        });
        t.add("t_sched", ns as f64);
        let input = polyfeedback::FeedbackInput {
            prog,
            ddg: &ddg,
            interner: &interner,
            structure: &structure,
            analysis: &analysis,
        };
        let (feedback, ns) = spans.time("polyfeedback.compute", it, |_| {
            polyfeedback::metrics::compute(&input)
        });
        t.add("t_fb_compute", ns as f64);
        let (bytes, ns) = spans.time("polyfeedback.render", it, |spans| {
            let bytes = polyfeedback::full_report(&input, &feedback).len()
                + polyfeedback::flamegraph_svg(&input, &prog.name).len()
                + polyfeedback::annotated_ast(&input).len();
            spans.count("report_bytes", bytes as f64);
            bytes
        });
        t.add("t_fb_render", ns as f64);
        t.add("report_bytes", bytes as f64);
        let (_, ns) = spans.time("polystatic.baseline", it, |_| {
            black_box(polystatic::analyze_program(prog))
        });
        t.add("t_static", ns as f64);
        Folded {
            ddg,
            structure,
            analysis,
            feedback,
        }
    });
    folded
}

/// Fold one program stage by stage, outside any measurement: the source of
/// `ddg_nodes`, `exact_stmt_share` and the verdict checks.
pub fn fold_reference(prog: &Program) -> Folded {
    let mut spans = Spans::new(std::time::Instant::now(), 0);
    layered_profile(prog, 0, &mut spans, &mut Tally::default())
}

fn profile(prog: &Program, cfg: &ProfileConfig) -> Report {
    try_profile_with(prog, cfg).expect("workload programs profile cleanly")
}

/// Samples of every per-layer row, one per iteration.
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    cal: Calibrator,
}

impl Ledger {
    /// `calibration_steps` sizes the kernel whose time at the start of each
    /// iteration is the `ledger.machine_slowdown` row.
    pub fn new(calibration_steps: u64) -> Self {
        Ledger {
            samples: BTreeMap::new(),
            cal: Calibrator::new(calibration_steps),
        }
    }

    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Iterate until `deadline`, at least twice; span iteration ids start
    /// after `first_iteration`.
    pub fn run_until(
        &mut self,
        deadline: Instant,
        cases: &[&Case],
        events: u64,
        first_iteration: u64,
        spans: &mut Spans,
        scratch: &Path,
    ) {
        let mut done = 0;
        while done < 2 || Instant::now() < deadline {
            done += 1;
            self.iteration(cases, events, first_iteration + done, spans, scratch);
        }
    }

    /// Run every configuration once over `cases` and record one sample per
    /// row. `events` is the callback count of one pass over the whole set;
    /// `scratch` holds the iteration's `.ptrace` files.
    fn iteration(
        &mut self,
        cases: &[&Case],
        events: u64,
        it: u64,
        spans: &mut Spans,
        scratch: &Path,
    ) {
        let slowdown = self.cal.run() / self.cal.reference_s();
        self.push("ledger.machine_slowdown", slowdown);
        let ev = events as f64;
        let mut t = Tally::default();
        let default = ProfileConfig::default();
        for case in cases {
            let prog = &case.program;
            let (dyn_instrs, ns) = spans.time("polyvm.bare", it, |_| run_vm(prog, &mut NullSink));
            t.add("t_bare", ns as f64);
            t.add("dyn_instrs", dyn_instrs as f64);

            let folded = layered_profile(prog, it, spans, &mut t);
            t.add(
                "affine_ops",
                folded.ddg.affine_fraction() * folded.ddg.total_ops as f64,
            );
            t.add("total_ops", folded.ddg.total_ops as f64);

            let (_, ns) = spans.time("polyiiv.track", it, |_| {
                let mut sink = IivSink::new(prog, &folded.structure);
                run_vm(prog, &mut sink);
                black_box(sink.interner.n_stmts())
            });
            t.add("t_iiv", ns as f64);
            let (_, ns) = spans.time("polyddg.resolve", it, |_| {
                let mut prof = DdgProfiler::new(prog, &folded.structure, NullFold::default());
                run_vm(prog, &mut prof);
                black_box(prof.finish().0.seen)
            });
            t.add("t_ddg", ns as f64);

            // The same call under each knob the ledger prices, each right
            // after a default run so that the two share the machine's mood;
            // the default runs together are the end-to-end figure.
            let path = scratch.join(format!("{}.ptrace", case.name));
            let knobs: [(&'static str, [&'static str; 2], ProfileConfig); 6] = [
                (
                    "profile.fold_threads_2",
                    ["t_k2", "t_k2_base"],
                    default.clone().with_fold_threads(2),
                ),
                (
                    "profile.static_prune",
                    ["t_prune", "t_prune_base"],
                    default.clone().with_static_prune(true),
                ),
                (
                    "profile.memory_budget",
                    ["t_budget", "t_budget_base"],
                    default.clone().with_memory_budget(1 << 40),
                ),
                (
                    "profile.metrics_timing",
                    ["t_timing", "t_timing_base"],
                    default.clone().with_metrics(MetricsLevel::Timing),
                ),
                (
                    "profile.metrics_trace",
                    ["t_trace", "t_trace_base"],
                    default.clone().with_metrics(MetricsLevel::Trace),
                ),
                // Last: what it records is decoded and replayed below.
                (
                    "profile.record",
                    ["t_record", "t_record_base"],
                    default.clone().with_record_to(&path),
                ),
            ];
            for (name, [key, base_key], cfg) in knobs {
                let (_, base) = spans.time("profile", it, |_| black_box(profile(prog, &default)));
                let (report, ns) = spans.time(name, it, |_| profile(prog, &cfg));
                t.add("t_profile", base as f64);
                t.add("n_profile", 1.0);
                t.add(base_key, base as f64);
                t.add(key, ns as f64);
                t.add(
                    "pruned",
                    (report.pruned_events + report.pruned_mem_events) as f64,
                );
            }
            let (_, ns) = spans.time("polystatic.prepass", it, |_| {
                let summary = polystatic::dataflow::StaticSummary::analyze(prog);
                black_box(polystatic::deps::StaticDeps::analyze(prog, &summary))
            });
            t.add("t_prepass", ns as f64);

            let ((frames, bytes), ns) = spans.time("polyrec.decode", it, |spans| {
                let mut reader = TraceReader::open(&path).expect("recording opens");
                let mut chunk = Default::default();
                while reader.next_chunk(&mut chunk).expect("recording decodes") {}
                let (_, stats) = reader.finish().expect("recording is complete");
                spans.count("frames", stats.frames as f64);
                (stats.frames, stats.bytes)
            });
            t.add("t_decode", ns as f64);
            t.add("rec_frames", frames as f64);
            t.add("rec_bytes", bytes as f64);
            let (_, ns) = spans.time("profile.replay", it, |_| {
                black_box(profile(prog, &default.clone().with_replay_from(&path)))
            });
            t.add("t_replay", ns as f64);
            for (name, k) in [
                ("polyfold.fold_recording_k1", 1),
                ("polyfold.fold_recording_k2", 2),
            ] {
                let (_, ns) = spans.time(name, it, |_| {
                    polyprof_core::polyfold::replay::fold_recording(
                        &path,
                        prog,
                        k,
                        FoldOptions::default(),
                        None,
                    )
                    .expect("recording folds")
                });
                t.add(
                    if k == 1 {
                        "t_fold_rec_k1"
                    } else {
                        "t_fold_rec_k2"
                    },
                    ns as f64,
                );
            }
            let _ = std::fs::remove_file(&path);
        }

        let g = |n: &str| t.get(n);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let over_pct = |knob: &str, base: &str| (ratio(g(knob), g(base)) - 1.0) * 100.0;

        let bare = g("t_bare") / ev;
        let cfg_record = (g("t_rec") - g("t_bare")) / ev;
        let iiv = (g("t_iiv") - g("t_bare")) / ev;
        let ddg = (g("t_ddg") - g("t_iiv")) / ev;
        let fold = (g("t_fold") - g("t_ddg")) / ev;
        let fixed = [
            "t_analyze",
            "t_finalize",
            "t_scev",
            "t_sched",
            "t_fb_compute",
            "t_fb_render",
            "t_static",
        ]
        .iter()
        .map(|n| g(n))
        .sum::<f64>()
            / ev;
        let end_to_end = g("t_profile") / g("n_profile") * cases.len() as f64 / ev;
        // Both passes run the VM, so the bare row counts twice.
        let attributed = 2.0 * bare + cfg_record + iiv + ddg + fold + fixed;

        self.push("polyvm.bare_ns_per_event", bare);
        self.push("polyvm.dyn_instrs", g("dyn_instrs"));
        self.push("polycfg.record_ns_per_event", cfg_record);
        self.push("polycfg.analyze_ms", g("t_analyze") / 1e6);
        self.push("polycfg.loops", g("loops"));
        self.push("polyiiv.track_ns_per_event", iiv);
        self.push(
            "polyiiv.ctx_cache_hit_ratio",
            ratio(g("ctx_hits"), g("ctx_hits") + g("ctx_misses")),
        );
        self.push("polyiiv.ctx_paths", g("ctx_paths"));
        self.push("polyddg.resolve_ns_per_event", ddg);
        self.push(
            "polyddg.shadow_mru_hit_ratio",
            ratio(g("mru_hits"), g("mru_hits") + g("mru_misses")),
        );
        self.push("polyddg.shadow_pages", g("shadow_pages"));
        self.push("polyddg.arena_bytes", g("arena_bytes"));
        self.push("polyfold.stream_ns_per_event", fold);
        self.push("polyfold.finalize_ms", g("t_finalize") / 1e6);
        self.push("polyfold.scev_removal_ms", g("t_scev") / 1e6);
        self.push("polyfold.events_folded", g("events_folded"));
        self.push("polyfold.deps_folded", g("deps_folded"));
        self.push(
            "polyfold.affine_fraction",
            ratio(g("affine_ops"), g("total_ops")),
        );
        self.push(
            "polyfold.pipelined_speedup_k2",
            ratio(g("t_k2_base"), g("t_k2")),
        );
        self.push(
            "polyfold.replay_speedup_k2",
            ratio(g("t_fold_rec_k1"), g("t_fold_rec_k2")),
        );
        self.push("polysched.analyze_ms", g("t_sched") / 1e6);
        self.push("polyfeedback.compute_ms", g("t_fb_compute") / 1e6);
        self.push("polyfeedback.render_ms", g("t_fb_render") / 1e6);
        self.push("polyfeedback.report_bytes", g("report_bytes"));
        self.push("polystatic.baseline_ms", g("t_static") / 1e6);
        self.push("polystatic.prepass_ms", g("t_prepass") / 1e6);
        self.push("polystatic.pruned_event_share", g("pruned") / ev);
        self.push(
            "polystatic.prune_speedup",
            ratio(g("t_prune_base"), g("t_prune")),
        );
        self.push(
            "polyrec.write_ns_per_event",
            (g("t_record") - g("t_record_base")) / ev,
        );
        self.push("polyrec.decode_ns_per_event", g("t_decode") / ev);
        self.push("polyrec.record_ns_per_event", g("t_record") / ev);
        self.push("polyrec.replay_ns_per_event", g("t_replay") / ev);
        self.push("polyrec.bytes_per_event", g("rec_bytes") / ev);
        self.push("polyrec.frames", g("rec_frames"));
        self.push(
            "polyresist.budget_overhead_pct",
            over_pct("t_budget", "t_budget_base"),
        );
        self.push(
            "polytrace.timing_overhead_pct",
            over_pct("t_timing", "t_timing_base"),
        );
        self.push(
            "polytrace.trace_overhead_pct",
            over_pct("t_trace", "t_trace_base"),
        );
        self.push("core.profile_ns_per_event", end_to_end);
        self.push("core.unattributed_ns_per_event", end_to_end - attributed);
        self.push("core.closure_ratio", ratio(attributed, end_to_end));
    }

    /// The median of every row, and how many iterations they rest on.
    pub fn rows(mut self) -> Vec<Metric> {
        let iterations = self.samples.values().map(Vec::len).max().unwrap_or(0);
        let mut rows: Vec<Metric> = self
            .samples
            .iter_mut()
            .map(|(name, v)| Metric::new(name, median(v), v.len()))
            .collect();
        rows.push(Metric::new("ledger.samples", iterations as f64, 1));
        rows
    }
}
