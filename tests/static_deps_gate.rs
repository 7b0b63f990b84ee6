//! The static *dependence* gate (`polystatic::deps` + `polystatic::legality`):
//!
//! * **Access-prune byte-identity** — with access-level pruning on, the
//!   pruned sites' memory streams are re-synthesized from the static
//!   relations and the folded DDG is byte-identical (canonical text) to the
//!   unpruned run.
//! * **Dynamic ⊆ static** — suite-wide, every folded memory dependence
//!   between affine-proven sites is admitted by the static dependence
//!   relation (lint v2, `DynamicExceedsStatic` never fires).
//! * **Schedule legality** — the dynamic scheduler's parallel-loop verdicts
//!   are re-verified against the static direction vectors over Rodinia, and
//!   at least one claim is certified end-to-end.
//! * **Counters & artifact** — ≥ 2 affine kernels report nonzero
//!   pruned-memory-event counts, the spliced `metrics_json` carries the
//!   `lint` / `static_deps` / `legality` sections, and the per-workload
//!   reports are dumped to `target/tmp/static_deps.json` for the CI artifact
//!   upload.

mod common;

use polyprof_core::polyddg::prune::PruneMask;
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polystatic::dataflow::StaticSummary;
use polyprof_core::polystatic::deps::StaticDeps;
use polyprof_core::{profile_with, MetricsLevel, ProfileConfig};
use std::sync::Arc;

/// Pass 1 for `p`.
fn structure_of(p: &polyir::Program) -> polycfg::StaticStructure {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(p).run(&[], &mut rec).expect("pass 1");
    polycfg::StaticStructure::analyze(p, rec)
}

/// The affine kernels the gate pins hard numbers on: every access site is
/// provable, so the whole memory instrumentation is prunable.
fn affine_kernels() -> Vec<(&'static str, polyir::Program)> {
    vec![
        ("elementwise", common::elementwise(64, 3)),
        ("stencil", common::stencil(48, 2)),
    ]
}

/// Access-level pruning alone (memory bits only, no statement-level SCEV
/// bits) must leave the folded DDG byte-identical *before* SCEV removal:
/// the synthesized streams replace the skipped shadow tracking exactly.
#[test]
fn access_prune_byte_identity() {
    for (name, p) in &affine_kernels() {
        let summary = StaticSummary::analyze(p);
        let deps = Arc::new(StaticDeps::analyze(p, &summary));
        assert!(
            !deps.pruned_sites.is_empty(),
            "{name}: expected a prunable access partition"
        );
        let mask = Arc::new(PruneMask::from_fns(
            p,
            |_| false,
            |i| deps.pruned_sites.contains(&i),
        ));
        let structure = structure_of(p);
        let cfg = Pass2::default();
        let plain = Source::Live(Live::new(&structure));
        let base = pass2::run(p, &plain, &cfg).expect("unpruned fold").ddg;
        let masked = Source::Live(Live {
            prune: Some(Arc::clone(&mask)),
            synth: Some(Arc::clone(&deps) as _),
            ..Live::new(&structure)
        });
        let out = pass2::run(p, &masked, &cfg).expect("pruned fold");
        let (pruned, ev) = (out.ddg, out.pruned);
        assert!(ev.mem > 0, "{name}: no memory events were pruned");
        assert_eq!(
            base.canonical_text(),
            pruned.canonical_text(),
            "{name}: access pruning changed the folded DDG"
        );
    }
}

/// The full hybrid path (`ProfileConfig::static_prune`: combined
/// statement + access mask, synthesis wired through `profile_with`) is
/// invisible in everything the user sees after SCEV removal.
#[test]
fn profile_level_prune_is_invisible_end_to_end() {
    let mut progs: Vec<(String, polyir::Program)> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    for (n, p) in affine_kernels() {
        progs.push((n.to_string(), p));
    }
    for (name, p) in &progs {
        let base = profile_with(p, &ProfileConfig::new());
        let pruned = profile_with(p, &ProfileConfig::new().with_static_prune(true));
        assert_eq!(
            base.folded_stats, pruned.folded_stats,
            "{name}: folded stats diverged under static_prune"
        );
        assert_eq!(
            base.annotated_ast, pruned.annotated_ast,
            "{name}: annotated AST diverged under static_prune"
        );
    }
}

/// Suite-wide dynamic ⊆ static: lint v2 (which checks every folded memory
/// dependence between affine-proven sites against the static relation) is
/// green over Rodinia plus the synthetic affine kernels, and on a fully
/// affine kernel the relation checks demonstrably ran (more checks than
/// lint v1 alone).
#[test]
fn dynamic_deps_within_static_relations_suite_wide() {
    let mut progs: Vec<(String, polyir::Program)> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    for (n, p) in affine_kernels() {
        progs.push((n.to_string(), p));
    }
    for (name, p) in &progs {
        let r = profile_with(p, &ProfileConfig::new().with_lint(true));
        let lint = r.lint.expect("lint was requested");
        assert!(
            lint.ok(),
            "{name}: {} lint violations: {:?}",
            lint.violations.len(),
            lint.violations
        );
        let deps = r.static_deps.expect("static pass ran");
        // The synthetic kernels are fully affine: the relation checks must
        // have something to say there (Rodinia kernels may legitimately
        // have no decidable pair — e.g. all-read blocks).
        if matches!(name.as_str(), "elementwise" | "stencil") {
            assert!(
                deps.pairs_exact() + deps.pairs_independent() > 0,
                "{name}: fully affine kernel but no statically decided pair"
            );
        }
    }
}

/// Schedule-legality verification end to end: `profile_with` re-checks the
/// dynamic parallel verdicts against the static direction vectors; over
/// Rodinia + the affine kernels at least one parallel claim is certified,
/// and no report ever claims more verified loops than the scheduler
/// claimed parallel.
#[test]
fn schedule_legality_verified_end_to_end() {
    let mut progs: Vec<(String, polyir::Program)> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    for (n, p) in affine_kernels() {
        progs.push((n.to_string(), p));
    }
    let mut total_verified = 0usize;
    for (name, p) in &progs {
        let r = profile_with(p, &ProfileConfig::new().with_lint(true));
        let leg = r.legality.expect("legality runs with the static pass");
        assert!(
            leg.verified <= leg.parallel_claims,
            "{name}: verified {} > claimed {}",
            leg.verified,
            leg.parallel_claims
        );
        assert_eq!(
            leg.parallel_claims - leg.verified,
            leg.unverified(),
            "{name}: verdict bookkeeping inconsistent"
        );
        total_verified += leg.verified;
    }
    assert!(
        total_verified >= 1,
        "no parallel claim was legality-verified anywhere in the suite"
    );
    // The elementwise kernel specifically must certify its parallel loop.
    let r = profile_with(
        &common::elementwise(32, 3),
        &ProfileConfig::new().with_lint(true),
    );
    let leg = r.legality.expect("legality report");
    assert!(
        leg.parallel_claims >= 1 && leg.verified == leg.parallel_claims,
        "elementwise: {} of {} claims verified",
        leg.verified,
        leg.parallel_claims
    );
}

/// Pruned-memory-event counters are live on ≥ 2 affine kernels, the
/// spliced `metrics_json` carries the three static report sections with
/// stable keys, and the per-workload JSON lands in
/// `target/tmp/static_deps.json` for the CI artifact upload.
#[test]
fn pruned_counters_and_static_deps_artifact() {
    let mut rows: Vec<String> = Vec::new();
    let mut kernels_pruning = 0usize;
    let mut progs: Vec<(String, polyir::Program)> = affine_kernels()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    for w in rodinia::all_rodinia() {
        progs.push((w.name.to_string(), w.program));
    }
    for (name, p) in &progs {
        let cfg = ProfileConfig::new()
            .with_static_prune(true)
            .with_lint(true)
            .with_metrics(MetricsLevel::Counters);
        let r = profile_with(p, &cfg);
        if r.pruned_mem_events > 0 {
            kernels_pruning += 1;
        }
        let m = r.metrics.as_ref().expect("metrics on");
        assert_eq!(
            m.counter(polyprof_core::polytrace::Counter::PrunedMemEvents),
            r.pruned_mem_events,
            "{name}: counter vs report mismatch"
        );
        let mj = r.metrics_json().expect("metrics json");
        for key in ["\"lint\":{", "\"static_deps\":{", "\"legality\":{"] {
            assert!(mj.contains(key), "{name}: metrics_json missing {key}");
        }
        let deps = r.static_deps.as_ref().expect("static pass ran");
        let leg = r.legality.as_ref().expect("legality ran");
        rows.push(format!(
            "\"{name}\":{{\"static_deps\":{},\"legality\":{},\"pruned_mem_events\":{}}}",
            deps.to_json(),
            leg.to_json(),
            r.pruned_mem_events
        ));
    }
    assert!(
        kernels_pruning >= 2,
        "expected >= 2 kernels with pruned memory events, got {kernels_pruning}"
    );
    let artifact = format!("{{{}}}\n", rows.join(","));
    polyprof_core::polytrace::validate_json(&artifact).expect("static_deps.json is JSON");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/static_deps.json");
    std::fs::write(path, artifact).expect("write static_deps.json artifact");
}
