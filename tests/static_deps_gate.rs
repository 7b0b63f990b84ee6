//! The static *dependence* gate (`polystatic::deps` + `polystatic::legality`):
//!
//! * **Dynamic ⊆ static** — suite-wide, every folded memory dependence
//!   between affine-proven sites is admitted by the static dependence
//!   relation (lint v2, `DynamicExceedsStatic` never fires).
//! * **Schedule legality** — the dynamic scheduler's parallel-loop verdicts
//!   are re-verified against the static direction vectors over Rodinia, and
//!   at least one claim is certified end-to-end.
//! * **Artifact** — the spliced `metrics_json` carries the `lint` /
//!   `static_deps` / `legality` sections, and the per-workload reports are
//!   dumped to `target/tmp/static_deps.json` for the CI artifact upload.

mod common;

use polyprof_core::{profile_with, MetricsLevel, ProfileConfig};

/// The affine kernels the gate pins hard numbers on: every access site is
/// provable.
fn affine_kernels() -> Vec<(&'static str, polyir::Program)> {
    vec![
        ("elementwise", common::elementwise(64, 3)),
        ("stencil", common::stencil(48, 2)),
    ]
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

/// The spliced `metrics_json` carries the three static report sections with
/// stable keys, and the per-workload JSON lands in
/// `target/tmp/static_deps.json` for the CI artifact upload.
#[test]
fn static_deps_artifact() {
    let mut rows: Vec<String> = Vec::new();
    let mut progs: Vec<(String, polyir::Program)> = affine_kernels()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    for w in rodinia::all_rodinia() {
        progs.push((w.name.to_string(), w.program));
    }
    for (name, p) in &progs {
        let cfg = ProfileConfig::new()
            .with_lint(true)
            .with_metrics(MetricsLevel::Counters);
        let r = profile_with(p, &cfg);
        let mj = r.metrics_json().expect("metrics json");
        for key in ["\"lint\":{", "\"static_deps\":{", "\"legality\":{"] {
            assert!(mj.contains(key), "{name}: metrics_json missing {key}");
        }
        let deps = r.static_deps.as_ref().expect("static pass ran");
        let leg = r.legality.as_ref().expect("legality ran");
        rows.push(format!(
            "\"{name}\":{{\"static_deps\":{},\"legality\":{}}}",
            deps.to_json(),
            leg.to_json()
        ));
    }
    let artifact = format!("{{{}}}\n", rows.join(","));
    polyprof_core::polytrace::validate_json(&artifact).expect("static_deps.json is JSON");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/static_deps.json");
    std::fs::write(path, artifact).expect("write static_deps.json artifact");
}
