//! Replay ≡ live on small sizes of the benchmark's two streaming generators,
//! the programs its `record_replay` workload records and replays at larger
//! sizes. The generators are compiled in from `perf_ledger/src/workloads.rs`
//! as they stand (their own unit tests come along and run here too).

#[allow(dead_code)]
#[path = "../../../perf_ledger/src/workloads.rs"]
mod workloads;

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

/// A recording of each generator's program replays to the live report —
/// canonical DDG, rendered report, flame graph, annotated AST, and the lint
/// verdict under `with_lint(true)` — and the replay constructs no VM.
#[test]
fn ledger_generators_replay_to_the_live_report() {
    let cases = [
        dense_affine(1, 12, 12),
        irregular_pointer(1, IrregularSize::divided(64)),
    ];
    for case in &cases {
        let prog = &case.program;
        let path = std::env::temp_dir().join(format!(
            "polyprof_ledger_replay_{}_{}.ptrace",
            std::process::id(),
            case.name
        ));
        for lint in [false, true] {
            let what = format!("{}, lint {lint}", case.name);
            let cfg = ProfileConfig::new().with_canonical(true).with_lint(lint);
            let live =
                try_profile_with(prog, &cfg.clone().with_record_to(&path)).expect("record run");
            let vms = polyvm::vms_built_on_this_thread();
            let replayed =
                try_profile_with(prog, &cfg.with_replay_from(&path)).expect("replay run");
            assert_eq!(
                polyvm::vms_built_on_this_thread(),
                vms,
                "{what}: a replay ran a VM"
            );
            assert_same_report(&what, &live, &replayed);
        }
        fs::remove_file(&path).ok();
    }
}
