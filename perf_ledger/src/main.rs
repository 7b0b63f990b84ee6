//! `perf_ledger` — the benchmark every performance claim in this repository
//! is measured with. See `README.md` beside this package for the metrics,
//! the workloads and how to run it; `BENCHMARK.json` at the repository root
//! is the contract the metric tables below are tested against.

mod layers;
mod serve;
mod spans;
mod stats;
mod workloads;

use layers::{count_events, fold_reference, Folded, Ledger};
use polyprof_bench::JsonObj;
use polyprof_core::{try_profile_with, ProfileConfig};
use polyserve::wire::fnv1a;
use serve::{Kind, Pool};
use spans::Spans;
use stats::{median, percentile, tail_percentile, Bracket, Metric, Timed};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Case, IrregularSize, Rng};

/// An end-to-end metric: name, unit, which direction is better, and the
/// share of the parent's median by which it may worsen.
const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("ns_per_event_p50", "ns", "lower", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ddg_nodes", "count", "lower", 0.01),
    ("exact_stmt_share", "ratio", "higher", 0.01),
    ("checks_held", "count", "higher", 0.01),
];

/// A per-layer metric: name (prefixed with its layer), unit, direction.
const PER_LAYER: [(&str, &str, &str); 63] = [
    ("polyvm.bare_ns_per_event", "ns", "lower"),
    ("polyvm.dyn_instrs", "count", "lower"),
    ("polycfg.record_ns_per_event", "ns", "lower"),
    ("polycfg.analyze_ms", "ms", "lower"),
    ("polycfg.loops", "count", "lower"),
    ("polyiiv.track_ns_per_event", "ns", "lower"),
    ("polyiiv.ctx_cache_hit_ratio", "ratio", "higher"),
    ("polyiiv.ctx_paths", "count", "lower"),
    ("polyddg.resolve_ns_per_event", "ns", "lower"),
    ("polyddg.shadow_mru_hit_ratio", "ratio", "higher"),
    ("polyddg.shadow_pages", "count", "lower"),
    ("polyddg.arena_bytes", "B", "lower"),
    ("polyfold.stream_ns_per_event", "ns", "lower"),
    ("polyfold.finalize_ms", "ms", "lower"),
    ("polyfold.scev_removal_ms", "ms", "lower"),
    ("polyfold.events_folded", "count", "lower"),
    ("polyfold.deps_folded", "count", "lower"),
    ("polyfold.affine_fraction", "ratio", "higher"),
    ("polyfold.pipelined_speedup_k2", "x", "higher"),
    ("polyfold.replay_speedup_k2", "x", "higher"),
    ("polysched.analyze_ms", "ms", "lower"),
    ("polyfeedback.compute_ms", "ms", "lower"),
    ("polyfeedback.render_ms", "ms", "lower"),
    ("polyfeedback.report_bytes", "B", "lower"),
    ("polystatic.baseline_ms", "ms", "lower"),
    ("polystatic.prepass_ms", "ms", "lower"),
    ("polystatic.pruned_event_share", "ratio", "higher"),
    ("polystatic.prune_speedup", "x", "higher"),
    ("polyrec.write_ns_per_event", "ns", "lower"),
    ("polyrec.decode_ns_per_event", "ns", "lower"),
    ("polyrec.record_ns_per_event", "ns", "lower"),
    ("polyrec.replay_ns_per_event", "ns", "lower"),
    ("polyrec.bytes_per_event", "B", "lower"),
    ("polyrec.frames", "count", "lower"),
    ("polyresist.budget_overhead_pct", "%", "lower"),
    ("polytrace.timing_overhead_pct", "%", "lower"),
    ("polytrace.trace_overhead_pct", "%", "lower"),
    ("polyserve.hit_latency_ms_p50", "ms", "lower"),
    ("polyserve.fresh_latency_ms_p50", "ms", "lower"),
    ("polyserve.trace_latency_ms_p50", "ms", "lower"),
    ("polyserve.fresh_overhead_ms_p50", "ms", "lower"),
    ("polyserve.latency_ms_p99", "ms", "lower"),
    ("polyserve.connect_ms_p50", "ms", "lower"),
    ("polyserve.queue_wait_ms_p50", "ms", "lower"),
    ("polyserve.queue_wait_ms_p99", "ms", "lower"),
    ("polyserve.session_wall_ms_p50", "ms", "lower"),
    ("polyserve.cache_hit_ratio", "ratio", "higher"),
    ("polyserve.shed_share", "ratio", "lower"),
    ("polyserve.report_bytes_p50", "B", "lower"),
    ("core.profile_ns_per_event", "ns", "lower"),
    ("core.unattributed_ns_per_event", "ns", "lower"),
    ("core.closure_ratio", "ratio", "higher"),
    ("core.ddg_nodes", "count", "lower"),
    ("core.overapprox_stmts", "count", "lower"),
    ("core.ddg_digest_changed", "count", "lower"),
    ("core.ddg_digests_compared", "count", "higher"),
    ("rodinia.shape_checks_held", "count", "higher"),
    ("rodinia.shape_checks_total", "count", "higher"),
    ("ledger.trace_overhead_pct", "%", "lower"),
    ("ledger.samples", "count", "higher"),
    ("ledger.machine_slowdown", "x", "lower"),
    ("ledger.failed_share", "ratio", "lower"),
    ("ledger.spans", "count", "lower"),
];

const WORKLOADS: [&str; 5] = [
    "dense_affine",
    "irregular_pointer",
    "suite_backend",
    "record_replay",
    "serve_mix",
];

/// Where `--bless` writes and every run reads the canonical-DDG digests,
/// relative to the repository root the benchmark is run from.
const EXPECTED: &str = "perf_ledger/expected.json";

/// Times the set-up of a workload is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm-up operations before anything is timed.
const WARMUP_OPS: usize = 3;
/// Sessions of the full serve mix: 600 hits, 250 misses, 150 uploads.
const MIX_CLIENTS: usize = 2;
const MIX_BLOCKS_PER_CLIENT: usize = 25;
const HOT_PROGRAMS: usize = 4;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is in neither table"))
}

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    check_repeat: bool,
    bless: bool,
    git_sha: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--smoke] [--check-repeat] [--bless] [--git-sha SHA]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("target/perf_ledger"),
        check_repeat: false,
        bless: false,
        git_sha: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                let w = value();
                if !WORKLOADS.contains(&w.as_str()) {
                    usage();
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = value() == "1",
            "--out" => o.out = PathBuf::from(value()),
            // A twentieth of the full run: enough to exercise every path.
            "--smoke" => o.seconds = 0.75,
            "--check-repeat" => o.check_repeat = true,
            "--bless" => o.bless = true,
            "--git-sha" => o.git_sha = Some(value()),
            _ => usage(),
        }
    }
    o
}

/// Identity of the machine and commit a result was measured on.
struct Host {
    git_sha: String,
    nproc: usize,
    cpu_model: String,
}

fn host(opts: &Opts) -> Host {
    let git_sha = opts.git_sha.clone().unwrap_or_else(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    });
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        git_sha,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checks of one run: how many were made, which failed, and the
/// Table 5 shape checks, which are a quality count rather than a failure.
#[derive(Default)]
struct Checks {
    held: u64,
    failed: Vec<String>,
    shape_held: u64,
    shape_total: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.held += 1;
        } else {
            self.failed.push(what());
        }
    }
}

/// What one run of one workload produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed_ops: u64,
    checks: Checks,
    spans: Vec<Spans>,
}

/// One program of an in-process workload, with its event count.
struct Item {
    case: Case,
    events: u64,
    paper: Option<rodinia::PaperRow>,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    /// `try_profile_with(default)` on every program of the set.
    Profile,
    /// A recorded live run, then a replay of the recording, per program.
    RecordReplay,
}

/// Steps of the calibration kernel run between two operations of an
/// in-process workload: about a fifth of what one operation takes.
fn calibration_steps(workload: &str) -> u64 {
    match workload {
        "suite_backend" => 600_000,
        "record_replay" => 3_200_000,
        _ => 1_600_000,
    }
}

fn build_items(workload: &str, seed: u64) -> (Vec<Item>, Op) {
    let mut rng = Rng::new(seed);
    let (cases, op): (Vec<(Case, Option<rodinia::PaperRow>)>, Op) = match workload {
        "dense_affine" => (
            vec![(workloads::dense_affine(seed, 192, 192), None)],
            Op::Profile,
        ),
        "irregular_pointer" => (
            vec![(
                workloads::irregular_pointer(seed, IrregularSize::full()),
                None,
            )],
            Op::Profile,
        ),
        "suite_backend" => {
            // The programs are the paper's; the seed fixes the order of a sweep.
            let mut suite = workloads::suite_backend();
            rng.shuffle(&mut suite);
            (suite, Op::Profile)
        }
        "record_replay" => (
            // Half the events of the two streaming workloads.
            vec![
                (workloads::dense_affine(seed, 136, 136), None),
                (
                    workloads::irregular_pointer(seed, IrregularSize::divided(2)),
                    None,
                ),
            ],
            Op::RecordReplay,
        ),
        other => unreachable!("`{other}` is not an in-process workload"),
    };
    let items = cases
        .into_iter()
        .map(|(case, paper)| Item {
            events: count_events(&case.program).events(),
            case,
            paper,
        })
        .collect();
    (items, op)
}

/// One operation over the whole set. Returns false when any program's
/// result differs from `expect` (its `folded_stats`) or fails to profile.
fn run_op(items: &[Item], op: Op, expect: &[(usize, usize, u64)], scratch: &Path) -> bool {
    let default = ProfileConfig::default();
    items.iter().zip(expect).all(|(item, want)| {
        let prog = &item.case.program;
        match op {
            Op::Profile => try_profile_with(prog, &default).is_ok_and(|r| r.folded_stats == *want),
            Op::RecordReplay => {
                let path = scratch.join(format!("{}.ptrace", item.case.name));
                let live = try_profile_with(prog, &default.clone().with_record_to(&path));
                let replayed = try_profile_with(prog, &default.clone().with_replay_from(&path));
                let _ = std::fs::remove_file(&path);
                live.is_ok_and(|r| r.folded_stats == *want)
                    && replayed.is_ok_and(|r| r.folded_stats == *want)
            }
        }
    })
}

/// Run `op` until `deadline`, at least twice; returns how often it ran and
/// how often it returned false or panicked.
fn repeat_until(deadline: Instant, mut op: impl FnMut() -> bool) -> (u64, u64) {
    let (mut runs, mut failed) = (0, 0);
    while runs < 2 || Instant::now() < deadline {
        let ok = catch_unwind(AssertUnwindSafe(&mut op)).unwrap_or(false);
        runs += 1;
        failed += u64::from(!ok);
    }
    (runs, failed)
}

fn after(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// The end-to-end timing rows shared by every workload, from one time per
/// operation (seconds), the events each operation passes through the
/// profiler, the seconds the operations took together, and the peak
/// resident set at the end of the measured phase.
fn timing_metrics(
    op_s: &[f64],
    op_events: &[f64],
    busy_s: f64,
    setup_s: &mut [f64],
    rss_mb: f64,
) -> Vec<Metric> {
    let n = op_s.len();
    let mut per_event_ns: Vec<f64> = op_s
        .iter()
        .zip(op_events)
        .map(|(s, ev)| s * 1e9 / ev)
        .collect();
    let mut op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    per_event_ns.sort_by(|a, b| a.total_cmp(b));
    op_ms.sort_by(|a, b| a.total_cmp(b));
    // The tail is printed, not gated: on a shared box the 90th percentile of
    // a 15 s run says more about the neighbours than about the code.
    println!(
        "# tail, not gated: ns_per_event_p90 {:.4} ns, op_ms_p90 {:.4} ms (n={n})",
        percentile(&per_event_ns, 0.9),
        percentile(&op_ms, 0.9)
    );
    vec![
        Metric::new("setup_s", median(setup_s), setup_s.len()),
        Metric::new("ns_per_event_p50", percentile(&per_event_ns, 0.5), n),
        Metric::new("op_ms_p50", percentile(&op_ms, 0.5), n),
        Metric::new("ops_per_s", n as f64 / busy_s, n),
        Metric::new("peak_rss_mb", rss_mb, 1),
    ]
}

fn innermost_parallel(folded: &Folded, nest: usize) -> bool {
    let forest = &folded.analysis.forest;
    let mut at = nest;
    while let Some(&child) = forest
        .node(at)
        .children
        .iter()
        .max_by_key(|&&c| forest.node(c).ops)
    {
        at = child;
    }
    folded.analysis.node[at].parallel
}

/// Quality counts of a folded program set.
#[derive(Default)]
struct Quality {
    nodes: u64,
    stmts: u64,
    overapprox: u64,
    digests: Vec<(String, u64)>,
}

/// Checks that do not trust the profiler, on one program: the event-count
/// model, the hand-written verdicts, and that the staged walk through the
/// public layer functions folds the same DDG as `try_profile_with`.
fn check_case(case: &Case, checks: &mut Checks, q: &mut Quality) -> Folded {
    let prog = &case.program;
    if let Some(model) = case.model {
        let seen = count_events(prog);
        checks.check(seen == model, || {
            format!(
                "{}: modelled {model:?}, the VM delivered {seen:?}",
                case.name
            )
        });
    }
    let folded = fold_reference(prog);
    for v in &case.verdicts {
        let regions: Vec<_> = folded
            .feedback
            .regions
            .iter()
            .filter(|r| r.name == v.region)
            .collect();
        let mut innermost: Vec<bool> = regions
            .iter()
            .map(|r| innermost_parallel(&folded, r.nest))
            .collect();
        innermost.sort_unstable();
        let ok = !regions.is_empty()
            && regions
                .iter()
                .all(|r| r.loop_depth == v.loop_depth && r.outer_parallel == v.outer_parallel)
            && (v.innermost_parallel.is_empty() || v.innermost_parallel == innermost);
        checks.check(ok, || {
            let seen: Vec<_> = regions
                .iter()
                .map(|r| (r.loop_depth, r.outer_parallel))
                .collect();
            format!(
                "{}: expected {v:?}, profiled (depth, outer parallel) {seen:?}, innermost parallel {innermost:?}",
                case.name
            )
        });
    }
    let canonical = folded.ddg.canonical_text();
    let product = try_profile_with(prog, &ProfileConfig::new().with_canonical(true))
        .ok()
        .and_then(|r| r.canonical_ddg);
    checks.check(product.as_deref() == Some(canonical.as_str()), || {
        format!("{}: staged fold and try_profile_with disagree", case.name)
    });
    q.nodes += (folded.ddg.n_stmts() + folded.ddg.deps.len()) as u64;
    q.stmts += folded.ddg.n_stmts() as u64;
    q.overapprox += folded.ddg.overapprox_stmts() as u64;
    q.digests.push((
        format!(
            "{}@{:016x}",
            case.name,
            polyprof_core::polyrec::program_hash(prog)
        ),
        fnv1a(canonical.as_bytes()),
    ));
    folded
}

/// The paper's Table 5 shape checks (as `table5` prints them) for one row.
fn shape_checks(
    name: &str,
    paper: &rodinia::PaperRow,
    folded: &Folded,
    prog: &polyprof_core::polyir::Program,
    checks: &mut Checks,
) {
    let pct_aff = folded.feedback.pct_aff;
    let lattice_limited = ["heartwall", "hotspot", "lud"].contains(&name);
    let aff_ok = if lattice_limited {
        pct_aff >= paper.pct_aff
    } else if paper.pct_aff >= 0.5 {
        pct_aff >= 0.5
    } else {
        pct_aff < 0.9
    };
    let polly_ok = paper.polly_reasons == "-"
        || !polyprof_core::polystatic::analyze_program(prog).all_modeled();
    let mut results = vec![aff_ok, polly_ok];
    if paper.pct_parallel.is_finite() {
        let measured = folded
            .feedback
            .regions
            .first()
            .map_or(0.0, |r| r.pct_parallel);
        results.push(paper.pct_parallel < 0.9 || measured >= 0.6);
    }
    checks.shape_total += results.len() as u64;
    checks.shape_held += results.iter().filter(|ok| **ok).count() as u64;
}

fn quality_metrics(q: &Quality, checks: &Checks) -> Vec<Metric> {
    vec![
        Metric::new("ddg_nodes", q.nodes as f64, 1),
        Metric::new(
            "exact_stmt_share",
            (q.stmts - q.overapprox) as f64 / q.stmts.max(1) as f64,
            1,
        ),
        Metric::new("checks_held", (checks.held + checks.shape_held) as f64, 1),
    ]
}

/// Compare digests with the committed expectations (and rewrite them under
/// `--bless`). Returns `(changed, compared)`; a program the file does not
/// know — another seed — is not compared.
fn digests(q: &Quality, bless: bool) -> (u64, u64) {
    let text = std::fs::read_to_string(EXPECTED).unwrap_or_default();
    let mut known: BTreeMap<String, String> = text
        .lines()
        .filter_map(|l| {
            let mut parts = l.split('"');
            Some((parts.nth(1)?.to_string(), parts.nth(1)?.to_string()))
        })
        .collect();
    let (mut changed, mut compared) = (0, 0);
    for (key, digest) in &q.digests {
        let digest = format!("{digest:016x}");
        if let Some(old) = known.get(key) {
            compared += 1;
            changed += u64::from(*old != digest);
        }
        if bless {
            known.insert(key.clone(), digest);
        }
    }
    if bless {
        let body: Vec<String> = known
            .iter()
            .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
            .collect();
        std::fs::write(EXPECTED, format!("{{\n{}\n}}\n", body.join(",\n")))
            .unwrap_or_else(|e| panic!("--bless must be run from the repository root: {e}"));
    }
    (changed, compared)
}

/// An in-process workload, timed (`--trace 0`) or traced (`--trace 1`).
fn run_in_process(workload: &str, opts: &Opts, scratch: &Path) -> Outcome {
    // Set-up: generate the programs, count their events, warm up. Every
    // timing of this workload is taken at reference speed (see `Bracket`).
    let mut bracket = Bracket::new(calibration_steps(workload));
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (set, t) = bracket.time(|| {
            let (items, op) = build_items(workload, opts.seed);
            let expect: Vec<_> = items
                .iter()
                .map(|i| {
                    try_profile_with(&i.case.program, &ProfileConfig::default())
                        .expect("workload programs profile cleanly")
                        .folded_stats
                })
                .collect();
            for _ in 1..WARMUP_OPS {
                run_op(&items, op, &expect, scratch);
            }
            (items, op, expect)
        });
        setup_s.push(t.at_reference_s);
        built = Some(set);
    }
    let (items, op, expect) = built.expect("set up at least once");
    let events: u64 = items.iter().map(|i| i.events).sum();
    // A record+replay pair passes every event through the profiler twice.
    let op_events = if op == Op::RecordReplay {
        2 * events
    } else {
        events
    };

    let mut checks = Checks::default();
    let mut q = Quality::default();
    let mut metrics;
    let (attempted, failed_ops);
    let mut all_spans = Vec::new();

    if !opts.trace {
        let mut timed: Vec<Timed> = Vec::new();
        (attempted, failed_ops) = repeat_until(after(opts.seconds), || {
            let (ok, t) = bracket.time(|| run_op(&items, op, &expect, scratch));
            timed.push(t);
            ok
        });
        let op_s: Vec<f64> = timed.iter().map(|t| t.at_reference_s).collect();
        metrics = timing_metrics(
            &op_s,
            &vec![op_events as f64; op_s.len()],
            op_s.iter().sum(),
            &mut setup_s,
            // The calibration kernel's table is the benchmark's, not the workload's.
            peak_rss_mb() - stats::CALIBRATOR_MB,
        );
        let mut speed: Vec<f64> = timed.iter().map(|t| t.at_reference_s / t.wall_s).collect();
        let mut raw_ms: Vec<f64> = timed.iter().map(|t| t.wall_s * 1e3).collect();
        println!(
            "# at reference speed: the machine ran at {:.3} of it (median); unscaled op_ms_p50 {:.4}",
            median(&mut speed),
            median(&mut raw_ms)
        );
        verify_in_process(&items, op, scratch, &mut checks, &mut q);
        metrics.extend(quality_metrics(&q, &checks));
    } else {
        // Operations alternately plain and under a span, so that drift of the
        // machine lands on both sides of the overhead figure; then the layers.
        let mut spans = Spans::new(Instant::now(), 0);
        let mut it = 0u64;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        (_, failed_ops) = repeat_until(after(0.3 * opts.seconds), || {
            it += 1;
            let t0 = Instant::now();
            let ok = run_op(&items, op, &expect, scratch);
            plain.push(t0.elapsed().as_secs_f64());
            let (ok_traced, ns) = spans.time("op", it, |_| run_op(&items, op, &expect, scratch));
            traced.push(ns as f64 / 1e9);
            ok && ok_traced
        });
        // One closure call is two operations; a failure of either counts once.
        attempted = (plain.len() + traced.len()) as u64;
        let cases: Vec<&Case> = items.iter().map(|i| &i.case).collect();
        let mut ledger = Ledger::new(calibration_steps(workload));
        let deadline = after(0.5 * opts.seconds);
        ledger.run_until(deadline, &cases, events, it, &mut spans, scratch);
        metrics = ledger.rows();
        verify_in_process(&items, op, scratch, &mut checks, &mut q);
        // The serve layer over the same programs: each once fresh, twice
        // from the cache, once as an upload.
        let mut pool = Pool {
            registry: items.iter().map(|i| i.case.clone()).collect(),
            recordings: vec![None; items.len()],
        };
        for idx in 0..items.len() {
            pool.record(idx, scratch);
        }
        let (rows, serve_spans, served, serve_failed) =
            serve_phase(&pool, &serve::each_program_schedule(items.len()));
        metrics.extend(rows);
        checks.check(serve_failed == 0, || {
            format!("{serve_failed} of {served} served sessions differ from the in-process result")
        });
        metrics.extend(ledger_metrics(&plain, &traced, &q, &checks, opts.bless));
        all_spans.push(spans);
        all_spans.extend(serve_spans);
    }
    Outcome {
        metrics,
        attempted,
        failed_ops,
        checks,
        spans: all_spans,
    }
}

/// Output checks of an in-process workload, run after the timed phase.
fn verify_in_process(items: &[Item], op: Op, scratch: &Path, checks: &mut Checks, q: &mut Quality) {
    for item in items {
        let folded = check_case(&item.case, checks, q);
        if let Some(paper) = &item.paper {
            shape_checks(&item.case.name, paper, &folded, &item.case.program, checks);
        }
        if op == Op::RecordReplay {
            // Replayed canonical DDG must equal the live one of the same run.
            let path = scratch.join(format!("{}.check.ptrace", item.case.name));
            let cfg = ProfileConfig::new().with_canonical(true);
            let live = try_profile_with(&item.case.program, &cfg.clone().with_record_to(&path));
            let replayed = try_profile_with(&item.case.program, &cfg.with_replay_from(&path));
            let _ = std::fs::remove_file(&path);
            let same = match (live, replayed) {
                (Ok(l), Ok(r)) => l.canonical_ddg.is_some() && l.canonical_ddg == r.canonical_ddg,
                _ => false,
            };
            checks.check(same, || {
                format!("{}: replay differs from the live fold", item.case.name)
            });
        }
    }
}

/// The rows of the traced pass that describe the ledger itself and the
/// quality counts that are not end-to-end metrics.
fn ledger_metrics(
    plain: &[f64],
    traced: &[f64],
    q: &Quality,
    checks: &Checks,
    bless: bool,
) -> Vec<Metric> {
    let (changed, compared) = digests(q, bless);
    let (mut plain, mut traced) = (plain.to_vec(), traced.to_vec());
    vec![
        Metric::new(
            "ledger.trace_overhead_pct",
            (median(&mut traced) / median(&mut plain) - 1.0) * 100.0,
            traced.len(),
        ),
        Metric::new("core.ddg_nodes", q.nodes as f64, 1),
        Metric::new("core.overapprox_stmts", q.overapprox as f64, 1),
        Metric::new("core.ddg_digest_changed", changed as f64, 1),
        Metric::new("core.ddg_digests_compared", compared as f64, 1),
        Metric::new("rodinia.shape_checks_held", checks.shape_held as f64, 1),
        Metric::new("rodinia.shape_checks_total", checks.shape_total as f64, 1),
    ]
}

/// Start a server over `pool`, drive `plans` against it under spans and
/// cross-check every session. Returns the `polyserve.*` rows, the clients' spans, the
/// number of sessions and how many of them failed.
fn serve_phase(pool: &Pool, plans: &[Vec<serve::Session>]) -> (Vec<Metric>, Vec<Spans>, u64, u64) {
    let lb = serve::start(pool);
    let connect = serve::connect_ms(&lb, 5);
    let before = serve::counters(lb.server.stats());
    let plans: Vec<&[serve::Session]> = plans.iter().map(Vec::as_slice).collect();
    let (samples, _, spans) = serve::drive(&lb, pool, &plans, after(3600.0), true);
    let samples = samples.concat();
    let (matched, overhead) = serve::cross_check(pool, &samples);
    let rows = serve::rows(&lb, &samples, before, overhead, connect);
    lb.server.shutdown();
    (
        rows,
        spans,
        samples.len() as u64,
        (samples.len() - matched) as u64,
    )
}

/// The serve workload's registry: four hot programs, then one small
/// program per planned miss, the first of which are also recorded for the
/// planned uploads.
fn mix_pool(seed: u64, scratch: &Path) -> Pool {
    let blocks = MIX_CLIENTS * MIX_BLOCKS_PER_CLIENT;
    let per_block = |kind: Kind| serve::BLOCK.iter().find(|b| b.0 == kind).map_or(0, |b| b.1);
    let (misses, uploads) = (
        blocks * per_block(Kind::Miss),
        blocks * per_block(Kind::Trace),
    );
    let mut rng = Rng::new(seed ^ 0x9001);
    // The dense programs are the smaller ones: a hit costs the same whatever
    // the program, so the median ns/event is a hit on the smallest program,
    // and that program's event count does not depend on the seed.
    let mut registry = vec![
        workloads::dense_affine(seed, 24, 24),
        workloads::dense_affine(seed + 1, 32, 32),
        workloads::irregular_pointer(seed, IrregularSize::divided(16)),
        workloads::irregular_pointer(seed + 1, IrregularSize::divided(24)),
    ];
    for i in 0..misses {
        let s = rng.next_u64();
        let mut case = if i % 2 == 0 {
            workloads::dense_affine(s, 12 + rng.below(12) as i64, 12 + rng.below(12) as i64)
        } else {
            workloads::irregular_pointer(s, IrregularSize::divided(64 + rng.below(64) as usize))
        };
        // Registry keys must be unique whatever the generators draw.
        case.name = format!("cold{i}_{}", case.name);
        registry.push(case);
    }
    let mut pool = Pool {
        recordings: vec![None; registry.len()],
        registry,
    };
    for idx in HOT_PROGRAMS..HOT_PROGRAMS + uploads {
        pool.record(idx, scratch);
    }
    pool
}

/// The serve workload.
fn run_serve_mix(opts: &Opts, scratch: &Path) -> Outcome {
    // Set-up: generate the registry, record the uploads, start the server,
    // open the warm-up connection and submit each hot program once (these
    // four are the only misses on hot programs).
    let mut setup_s = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let pool = mix_pool(opts.seed, scratch);
        let lb = serve::start(&pool);
        let warmup: Vec<serve::Session> = (0..HOT_PROGRAMS)
            .map(|program| serve::Session {
                kind: Kind::Miss,
                program,
            })
            .chain((0..WARMUP_OPS).map(|program| serve::Session {
                kind: Kind::Hit,
                program,
            }))
            .collect();
        let (warm, _, _) = serve::drive(&lb, &pool, &[&warmup], after(3600.0), false);
        assert!(warm[0].iter().all(|s| s.ok), "warm-up sessions complete");
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            lb.server.shutdown();
        } else {
            built = Some((pool, lb));
        }
    }
    let (pool, lb) = built.expect("set up at least once");
    let plans = serve::mix_schedule(opts.seed, MIX_CLIENTS, MIX_BLOCKS_PER_CLIENT, HOT_PROGRAMS);
    let connect = serve::connect_ms(&lb, 5);
    let before = serve::counters(lb.server.stats());

    let mut checks = Checks::default();
    let mut q = Quality::default();
    for case in &pool.registry[..HOT_PROGRAMS] {
        check_case(case, &mut checks, &mut q);
    }
    let mut events: Vec<Option<u64>> = vec![None; pool.registry.len()];
    let mut events_of = |s: &serve::Sample| {
        let p = s.session.program;
        *events[p].get_or_insert_with(|| count_events(&pool.registry[p].program).events()) as f64
    };
    let ms = |v: &[serve::Sample]| -> Vec<f64> {
        v.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect()
    };
    let whole: Vec<&[serve::Session]> = plans.iter().map(Vec::as_slice).collect();

    let mut metrics;
    let mut all_spans = Vec::new();
    let samples = if !opts.trace {
        let (samples, wall, _) = serve::drive(&lb, &pool, &whole, after(opts.seconds), false);
        let samples = samples.concat();
        // Client-observed wall clock, as it is: a session waits on sockets
        // and timers as much as on the processor, so it is not rescaled.
        let op_s: Vec<f64> = samples.iter().map(|s| s.latency.as_secs_f64()).collect();
        let op_events: Vec<f64> = samples.iter().map(&mut events_of).collect();
        metrics = timing_metrics(
            &op_s,
            &op_events,
            wall.as_secs_f64(),
            &mut setup_s,
            peak_rss_mb(),
        );
        samples
    } else {
        // The first blocks untraced, the next under spans, then the
        // in-process layers over the hot programs and a few cold ones.
        let (plain, _, _) = serve::drive(&lb, &pool, &whole, after(0.2 * opts.seconds), false);
        let rest: Vec<&[serve::Session]> = whole
            .iter()
            .zip(&plain)
            .map(|(plan, done)| &plan[done.len()..])
            .collect();
        let (traced, _, spans) = serve::drive(&lb, &pool, &rest, after(0.3 * opts.seconds), true);
        all_spans.extend(spans);
        let (plain, traced) = (plain.concat(), traced.concat());
        let cases: Vec<&Case> = pool.registry[..HOT_PROGRAMS + 4].iter().collect();
        let events: u64 = cases
            .iter()
            .map(|c| count_events(&c.program).events())
            .sum();
        let mut spans = Spans::new(lb.origin, 0);
        let mut ledger = Ledger::new(calibration_steps("serve_mix"));
        let deadline = after(0.4 * opts.seconds);
        ledger.run_until(deadline, &cases, events, 0, &mut spans, scratch);
        metrics = ledger.rows();
        metrics.extend(ledger_metrics(
            &ms(&plain),
            &ms(&traced),
            &q,
            &checks,
            opts.bless,
        ));
        all_spans.push(spans);
        [plain, traced].concat()
    };
    let (matched, overhead) = serve::cross_check(&pool, &samples);
    let failed_ops = (samples.len() - matched) as u64;
    if opts.trace {
        metrics.extend(serve::rows(&lb, &samples, before, overhead, connect));
    } else {
        metrics.extend(quality_metrics(&q, &checks));
    }
    lb.server.shutdown();
    Outcome {
        metrics,
        attempted: samples.len() as u64,
        failed_ops,
        checks,
        spans: all_spans,
    }
}

/// Run one workload, print its metrics, write its files and the result line.
fn run_workload(workload: &str, opts: &Opts) -> bool {
    let scratch = opts.out.join("tmp");
    std::fs::create_dir_all(&scratch).expect("create the output directory");
    // The server spools uploads under the system temp directory; keep that
    // inside the output directory too.
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&scratch).expect("scratch exists"),
    );

    let mut outcome = if workload == "serve_mix" {
        run_serve_mix(opts, &scratch)
    } else {
        run_in_process(workload, opts, &scratch)
    };
    let attempted = outcome.attempted + outcome.checks.held + outcome.checks.failed.len() as u64;
    let failed = outcome.failed_ops + outcome.checks.failed.len() as u64;
    if opts.trace {
        let n_spans: usize = outcome.spans.iter().map(|s| s.spans().len()).sum();
        outcome.metrics.push(Metric::new(
            "ledger.failed_share",
            failed as f64 / attempted as f64,
            attempted as usize,
        ));
        outcome
            .metrics
            .push(Metric::new("ledger.spans", n_spans as f64, 1));
    }

    // Report in table order, and insist that the tables are complete.
    let names: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let ordered: Vec<Metric> = names
        .iter()
        .map(|n| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == *n)
                .unwrap_or_else(|| panic!("{workload} did not measure `{n}`"))
                .clone()
        })
        .collect();
    assert_eq!(
        ordered.len(),
        outcome.metrics.len(),
        "a measured row is in no table"
    );

    let h = host(opts);
    println!(
        "# {workload}  seed {}  {} s  trace {}  commit {}  {} × {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        h.git_sha,
        h.nproc,
        h.cpu_model
    );
    for m in &ordered {
        println!(
            "{:<36} {:>16.4} {:<6} n={}",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples
        );
    }
    if let Some(op_ms) = ordered.iter().find(|m| m.name == "op_ms_p50") {
        match tail_percentile(op_ms.samples) {
            Some(p) => println!(
                "# tail rule: {} samples support p{}",
                op_ms.samples,
                p * 100.0
            ),
            None => println!(
                "# tail rule: {} samples support the median only",
                op_ms.samples
            ),
        }
    }
    println!(
        "# failed {failed} of {attempted} (operations and checks); shape checks {}/{}",
        outcome.checks.shape_held, outcome.checks.shape_total
    );
    for f in &outcome.checks.failed {
        println!("# FAILED CHECK: {f}");
    }
    if opts.trace {
        let mut own: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
        for (name, ns, n) in outcome.spans.iter().flat_map(Spans::self_time_by_name) {
            let row = own.entry(name).or_default();
            *row = (row.0 + ns, row.1 + n);
        }
        let mut own: Vec<_> = own.into_iter().collect();
        own.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
        for (name, (ns, n)) in own.into_iter().take(12) {
            println!(
                "# self time {name:<40} {:>10.3} ms over {n} spans",
                ns as f64 / 1e6
            );
        }
        let events: Vec<String> = outcome
            .spans
            .iter()
            .map(|s| {
                s.chrome_events(
                    1 + WORKLOADS.iter().position(|w| *w == workload).unwrap_or(0) as u32,
                )
            })
            .filter(|e| !e.is_empty())
            .collect();
        std::fs::write(
            opts.out.join(format!("{workload}.trace_events.json")),
            events.join(",\n"),
        )
        .expect("write trace events");
    }

    let correct = failed == 0;
    let result = result_json(correct, attempted, failed, &ordered);
    let file = opts
        .out
        .join(format!("{workload}.trace{}.json", u8::from(opts.trace)));
    std::fs::write(
        &file,
        run_json(workload, opts, &h, &result, &ordered) + "\n",
    )
    .expect("write the result file");
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{result}");
    correct
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut o = JsonObj::new();
    o.raw_field("correct", if correct { "true" } else { "false" })
        .int_field("attempted", attempted)
        .int_field("failed", failed)
        .obj_field("metrics", |mo| {
            for m in metrics {
                mo.obj_field(m.name, |f| {
                    f.num_field("value", m.value)
                        .str_field("unit", unit_of(m.name));
                });
            }
        });
    o.render()
}

/// The per-run file: who measured what where, the result line and the
/// sample count behind every metric.
fn run_json(workload: &str, opts: &Opts, h: &Host, result: &str, metrics: &[Metric]) -> String {
    let mut o = JsonObj::new();
    o.str_field("workload", workload)
        .str_field("git_sha", &h.git_sha)
        .int_field("nproc", h.nproc as u64)
        .str_field("cpu_model", &h.cpu_model)
        .int_field("seed", opts.seed)
        .num_field("seconds", opts.seconds)
        .raw_field("traced", if opts.trace { "true" } else { "false" })
        .raw_field("result", result)
        .obj_field("samples", |s| {
            for m in metrics {
                s.int_field(m.name, m.samples as u64);
            }
        });
    o.render()
}

/// `"name": {"value": <number>` out of a result line.
fn metric_value(result: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\": {{\"value\": ");
    let at = result.find(&needle)? + needle.len();
    let end = result[at..].find([',', '}'])?;
    result[at..at + end].parse().ok()
}

/// Re-spawn this binary for one workload and pass; returns its result line.
fn spawn(workload: &str, trace: bool, opts: &Opts) -> (bool, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.bless {
        cmd.arg("--bless");
    }
    if let Some(sha) = &opts.git_sha {
        cmd.args(["--git-sha", sha]);
    }
    let out = cmd.output().expect("re-spawn for one workload");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The whole set: every workload in a process of its own (so that
/// `peak_rss_mb` is that workload's alone), timed pass then traced pass.
/// Returns whether every run was correct, and the timed result lines.
fn run_set(opts: &Opts) -> (bool, Vec<(&'static str, String)>) {
    let mut ok = true;
    let mut timed = Vec::new();
    for w in WORKLOADS {
        let (ok0, line) = spawn(w, false, opts);
        let (ok1, _) = spawn(w, true, opts);
        ok &= ok0 && ok1;
        timed.push((w, line));
    }
    (ok, timed)
}

fn main() {
    let opts = parse_args();
    if let Some(w) = opts.workload.clone() {
        std::process::exit(i32::from(!run_workload(&w, &opts)));
    }

    std::fs::create_dir_all(&opts.out).expect("create the output directory");
    let (mut ok, first) = run_set(&opts);
    if opts.check_repeat {
        let (ok2, second) = run_set(&opts);
        ok &= ok2;
        for ((w, a), (_, b)) in first.iter().zip(&second) {
            for (name, _, _, bound) in END_TO_END {
                let (Some(x), Some(y)) = (metric_value(a, name), metric_value(b, name)) else {
                    println!("# REPEAT {w} {name}: missing");
                    ok = false;
                    continue;
                };
                let apart = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
                let verdict = if apart <= bound { "agree" } else { "DISAGREE" };
                println!("# REPEAT {w:<18} {name:<18} {x:>14.4} {y:>14.4} {:>7.2}% of {:>4.0}% {verdict}", apart * 100.0, bound * 100.0);
                ok &= apart <= bound;
            }
        }
    }

    // One file for the set: the per-run files, and one Chrome trace.
    let mut runs = Vec::new();
    let mut events = Vec::new();
    for w in WORKLOADS {
        for t in [0, 1] {
            if let Ok(s) = std::fs::read_to_string(opts.out.join(format!("{w}.trace{t}.json"))) {
                runs.push(s.trim().to_string());
            }
        }
        if let Ok(s) = std::fs::read_to_string(opts.out.join(format!("{w}.trace_events.json"))) {
            if !s.trim().is_empty() {
                events.push(s);
            }
        }
    }
    std::fs::write(
        opts.out.join("results.json"),
        format!("[\n{}\n]\n", runs.join(",\n")),
    )
    .expect("write results.json");
    std::fs::write(
        opts.out.join("trace.json"),
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n")),
    )
    .expect("write trace.json");
    println!(
        "# wrote {}/results.json and trace.json; {}",
        opts.out.display(),
        if ok {
            "all checks held"
        } else {
            "CHECKS FAILED"
        }
    );
    std::process::exit(i32::from(!ok));
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyprof_bench::sentinel::validate_json;

    #[test]
    fn result_files_are_valid_json_with_exactly_the_contract_keys() {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| Metric::new(m.0, 1.5 + i as f64, 7))
            .collect();
        let line = result_json(true, 12, 0, &metrics);
        validate_json(&line).expect("result line");
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_value(&line, "op_ms_p50"), Some(3.5));
        assert_eq!(metric_value(&line, "nope"), None);
        let opts = Opts {
            workload: None,
            seed: 3,
            seconds: 1.0,
            trace: false,
            out: PathBuf::from("x"),
            check_repeat: false,
            bless: false,
            git_sha: Some("abc".into()),
        };
        let h = host(&opts);
        assert_eq!(h.git_sha, "abc");
        validate_json(&run_json("dense_affine", &opts, &h, &line, &metrics)).expect("run file");
    }

    /// `BENCHMARK.json` is the contract; the tables above are what runs.
    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        validate_json(&text).expect("BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&row), "end_to_end lacks {row}");
        }
        for (name, unit, better) in PER_LAYER {
            let row =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&row), "per_layer lacks {row}");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "workloads lacks {w}"
            );
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
