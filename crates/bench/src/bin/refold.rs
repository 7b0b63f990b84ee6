//! Re-fold `.ptrace` recordings offline — no VM run — and check replay
//! invariants.
//!
//! Modes:
//! - `refold TRACE...` — fold each recording and print one JSON line per
//!   trace (workload, events, the share of them the recording spelled as
//!   predictions, folded statement/dependence counts).
//! - `refold --assert-live TRACE...` — additionally run the
//!   live profiler on the matching workload and require the replayed
//!   folded DDG to be byte-identical (`FoldedDdg::canonical_text`), and the
//!   rendered report of a `with_replay_from` run — built from the structure
//!   the recording carries, with no VM run — to equal a live run's
//!   (`Report::full_text`); exits non-zero on any divergence. This is the
//!   CI replay gate.
//! - `refold --diff A.ptrace B.ptrace` — fold both recordings and compare
//!   their canonical texts; prints the first differing line and exits
//!   non-zero when they disagree.
//!
//! Recordings are matched to programs by header program id against the
//! fixed [`polyprof_bench::replay_workloads`] registry.

use polyprof_bench::replay_workloads;
use polyprof_bench::JsonObj;
use polyprof_core::polyfold::pass2::{self, Pass2, Replay, Source};
use polyprof_core::polyfold::{self, FoldedDdg};
use polyprof_core::polyrec::{program_id, TraceReader};
use polyprof_core::{try_profile_with, ProfileConfig};
use polytrace::{Collector, Counter, MetricsLevel};
use std::path::Path;
use std::process::exit;
use std::sync::Arc;

/// Find the registry program a recording was captured from, by program id.
fn lookup(path: &Path) -> (&'static str, polyir::Program) {
    let reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("refold: {}: {e}", path.display());
            exit(1);
        }
    };
    let want = reader.meta().program_id;
    for (name, prog) in replay_workloads() {
        if program_id(&prog) == want {
            return (name, prog);
        }
    }
    eprintln!(
        "refold: {}: recording of unknown workload `{}` (program id {want:#018x} not in registry)",
        path.display(),
        reader.meta().workload
    );
    exit(1);
}

/// Fold the recording at `path` of `prog`, counting into `trace`.
fn refold(path: &Path, prog: &polyir::Program, trace: Option<Arc<Collector>>) -> FoldedDdg {
    let cfg = Pass2 {
        trace,
        ..Pass2::default()
    };
    match pass2::run(prog, &Source::Recording(&Replay::from(path)), &cfg) {
        Ok(out) => out.ddg,
        Err(e) => {
            eprintln!("refold: {}: {e}", path.display());
            exit(1);
        }
    }
}

/// Fold one recording, returning its canonical text.
fn refold_one(path: &Path) -> (&'static str, String) {
    let (name, prog) = lookup(path);
    (name, refold(path, &prog, None).canonical_text())
}

/// The rendered report (`Report::full_text`) of one profiling run.
fn report(prog: &polyir::Program, cfg: &ProfileConfig) -> String {
    match try_profile_with(prog, cfg) {
        Ok(r) => r.full_text,
        Err(e) => {
            eprintln!("refold: {}: {e}", prog.name);
            exit(1);
        }
    }
}

/// First line where the two texts disagree, if any.
fn first_diff(a: &str, b: &str) -> Option<(usize, String, String)> {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return Some((i + 1, la.to_string(), lb.to_string()));
        }
    }
    let (na, nb) = (a.lines().count(), b.lines().count());
    (na != nb).then(|| {
        (
            na.min(nb) + 1,
            format!("<{na} lines>"),
            format!("<{nb} lines>"),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut assert_live = false;
    let mut diff = false;
    let mut traces: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--assert-live" => assert_live = true,
            "--diff" => diff = true,
            other if other.starts_with("--") => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: refold [--assert-live] TRACE... | refold --diff A B");
                exit(2);
            }
            trace => traces.push(trace.to_string()),
        }
        i += 1;
    }

    if diff {
        if traces.len() != 2 {
            eprintln!("refold --diff takes exactly two traces");
            exit(2);
        }
        let (name_a, text_a) = refold_one(Path::new(&traces[0]));
        let (name_b, text_b) = refold_one(Path::new(&traces[1]));
        match first_diff(&text_a, &text_b) {
            None => {
                println!(
                    "identical: {} ({name_a}) == {} ({name_b})",
                    traces[0], traces[1]
                );
            }
            Some((line, la, lb)) => {
                eprintln!("differ at canonical line {line}:");
                eprintln!("  {}: {la}", traces[0]);
                eprintln!("  {}: {lb}", traces[1]);
                exit(1);
            }
        }
        return;
    }

    if traces.is_empty() {
        eprintln!("usage: refold [--assert-live] TRACE... | refold --diff A B");
        exit(2);
    }
    let mut failed = false;
    for trace in &traces {
        let path = Path::new(trace);
        let (name, prog) = lookup(path);
        let counters = Arc::new(Collector::new(MetricsLevel::Counters));
        let ddg = refold(path, &prog, Some(Arc::clone(&counters)));
        let replayed = ddg.canonical_text();
        let mut live_ok = true;
        if assert_live {
            let live = polyfold::fold_program(&prog).0.canonical_text();
            let live_report = report(&prog, &ProfileConfig::new());
            let replayed_report = report(&prog, &ProfileConfig::new().with_replay_from(path));
            for (what, live, replayed) in [
                ("fold", &live, &replayed),
                ("report", &live_report, &replayed_report),
            ] {
                if let Some((line, ll, rl)) = first_diff(live, replayed) {
                    live_ok = false;
                    eprintln!("refold: {trace}: replay diverged from live {what} at line {line}:");
                    eprintln!("  live:   {ll}");
                    eprintln!("  replay: {rl}");
                }
            }
            failed |= !live_ok;
        }
        let events = counters.get(Counter::EventsFolded);
        let predicted = counters.get(Counter::RecEventsPredicted);
        let mut j = JsonObj::new();
        j.str_field("workload", name)
            .str_field("trace", trace)
            .int_field("events", events)
            .num_field("predicted_share", predicted as f64 / events.max(1) as f64)
            .int_field("stmts", ddg.stmts.len() as u64)
            .int_field("deps", ddg.deps.len() as u64)
            .int_field("dyn_ops", ddg.total_ops);
        if assert_live {
            j.raw_field("live_identical", if live_ok { "true" } else { "false" });
        }
        println!("{}", j.render());
    }
    if failed {
        exit(1);
    }
}
