//! Replay ≡ live on small sizes of the benchmark's two streaming generators,
//! the programs its `record_replay` workload records and replays at larger
//! sizes. The generators are compiled in from `perf_ledger/src/workloads.rs`
//! as they stand (their own unit tests come along and run here too).

#[allow(dead_code)]
#[path = "../../../perf_ledger/src/workloads.rs"]
mod workloads;

use polyprof_core::polytrace::{Counter, MetricsLevel};
use polyprof_core::{polyvm, try_profile_with, ProfileConfig, Report};
use std::fs;
use workloads::{dense_affine, irregular_pointer, IrregularSize};

/// Every part of a report a replay must reproduce byte for byte.
fn assert_same_report(what: &str, live: &Report, replayed: &Report) {
    assert_eq!(live.folded_stats, replayed.folded_stats, "{what}");
    assert_eq!(live.canonical_ddg, replayed.canonical_ddg, "{what}");
    assert_eq!(live.full_text, replayed.full_text, "{what}");
    assert_eq!(live.flamegraph_svg, replayed.flamegraph_svg, "{what}");
    assert_eq!(live.annotated_ast, replayed.annotated_ast, "{what}");
    let lint = |r: &Report| r.lint.as_ref().map(|l| l.to_json());
    assert_eq!(lint(live), lint(replayed), "{what}");
}

/// The fold's event and prediction tallies of a run.
fn fold_counts(r: &Report) -> (u64, u64) {
    let m = r.metrics.as_ref().expect("counters on");
    (
        m.counter(Counter::EventsFolded),
        m.counter(Counter::FoldPredicted),
    )
}

/// A recording of each generator's program replays to the live report —
/// canonical DDG, rendered report, flame graph, annotated AST, and the lint
/// verdict under `with_lint(true)` — and the replay constructs no VM. The
/// run that records, whose fold takes the loop-body runs its encoder
/// proves, renders the report of a plain run too; all three fold and
/// predict the same number of events, in the default frames and in
/// 64-event ones.
#[test]
fn ledger_generators_replay_to_the_live_report() {
    let cases = [
        dense_affine(1, 12, 12),
        dense_affine(2, 40, 24),
        irregular_pointer(1, IrregularSize::divided(64)),
    ];
    for case in &cases {
        let prog = &case.program;
        let path = std::env::temp_dir().join(format!(
            "polyprof_ledger_replay_{}_{}.ptrace",
            std::process::id(),
            case.name
        ));
        for (lint, frame) in [(false, 4096), (true, 4096), (false, 64)] {
            let what = format!("{}, lint {lint}, frames of {frame}", case.name);
            let cfg = ProfileConfig::new()
                .with_canonical(true)
                .with_lint(lint)
                .with_metrics(MetricsLevel::Counters)
                .with_chunk_events(frame);
            let plain = try_profile_with(prog, &cfg).expect("plain run");
            let live =
                try_profile_with(prog, &cfg.clone().with_record_to(&path)).expect("record run");
            assert_same_report(&format!("{what}: recording"), &plain, &live);
            let vms = polyvm::vms_built_on_this_thread();
            let replayed =
                try_profile_with(prog, &cfg.with_replay_from(&path)).expect("replay run");
            assert_eq!(
                polyvm::vms_built_on_this_thread(),
                vms,
                "{what}: a replay ran a VM"
            );
            assert_same_report(&what, &live, &replayed);
            assert_eq!(fold_counts(&plain), fold_counts(&live), "{what}");
            assert_eq!(fold_counts(&plain), fold_counts(&replayed), "{what}");
        }
        fs::remove_file(&path).ok();
    }
}

/// On every program of the benchmark's suite — the 19 Rodinia kernels,
/// GemsFDTD and the paper's three worked examples — the run that records
/// renders the plain run's report, and so does the replay of its
/// recording; all three fold and predict the same number of events.
#[test]
fn suite_recordings_match_the_plain_run() {
    let cfg = ProfileConfig::new()
        .with_canonical(true)
        .with_metrics(MetricsLevel::Counters);
    for (case, _) in workloads::suite_backend() {
        let prog = &case.program;
        let path = std::env::temp_dir().join(format!(
            "polyprof_suite_replay_{}_{}.ptrace",
            std::process::id(),
            case.name
        ));
        let plain = try_profile_with(prog, &cfg).expect("plain run");
        let live = try_profile_with(prog, &cfg.clone().with_record_to(&path)).expect("record run");
        let replayed =
            try_profile_with(prog, &cfg.clone().with_replay_from(&path)).expect("replay run");
        assert_same_report(&format!("{}: recording", case.name), &plain, &live);
        assert_same_report(&format!("{}: replay", case.name), &plain, &replayed);
        assert_eq!(fold_counts(&plain), fold_counts(&live), "{}", case.name);
        assert_eq!(fold_counts(&plain), fold_counts(&replayed), "{}", case.name);
        fs::remove_file(&path).ok();
    }
}
