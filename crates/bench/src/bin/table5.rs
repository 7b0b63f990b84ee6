//! Regenerates **Table 5**: summary statistics over all 19 Rodinia
//! workloads — measured by this reproduction, with the paper's reference
//! values printed underneath each row for comparison.

use polyfeedback::report::{table5_header, table5_row};
use polyprof_bench::pct;
use polyprof_core::{profile_suite, ProfileConfig};

fn main() {
    println!("=== Table 5: Rodinia 3.1 summary (measured by poly-prof-rs) ===\n");
    println!("{}", table5_header());
    // Profile all 19 workloads across threads; reports come back in suite
    // order, so the rows print exactly as the serial loop did. The suite
    // driver logs per-workload wall time to stderr, keeping the table on
    // stdout clean.
    let workloads = rodinia::all_rodinia();
    let cfg = ProfileConfig::new();
    let progs: Vec<&polyprof_core::polyir::Program> =
        workloads.iter().map(|w| &w.program).collect();
    let reports = profile_suite(&progs, &cfg);
    let mut rows = Vec::new();
    for (w, report) in workloads.into_iter().zip(reports) {
        let region = report
            .feedback
            .regions
            .first()
            .cloned()
            .expect("every workload has a region");
        println!("{}", table5_row(&report.feedback, &region, w.paper.ld_src));
        let polly = report.static_report.summary();
        println!(
            "  measured: polly-fails={:<8} skew={}  | paper: %Aff={} polly={} skew={} %||ops={} %simd={} ld={}D/{}D tileD={}D",
            polly,
            if region.skew { "Y" } else { "N" },
            pct(w.paper.pct_aff),
            w.paper.polly_reasons,
            if w.paper.skew { "Y" } else { "N" },
            pct(w.paper.pct_parallel),
            pct(w.paper.pct_simd),
            w.paper.ld_src,
            w.paper.ld_bin,
            w.paper.tile_d,
        );
        rows.push((w, report, region));
    }

    // Shape summary: which comparisons hold.
    println!("\n=== shape checks (paper vs measured) ===");
    let mut ok = 0;
    let mut total = 0;
    for (w, report, region) in &rows {
        // 1. affine-heavy stays affine-heavy, irregular stays irregular.
        // heartwall/hotspot/lud are exempt: the paper attributes their low
        // %Aff to its own folding "not supporting lattices" (modulo-
        // linearized indexing) — our folder handles those dynamically, so
        // a *higher* measured %Aff is the expected improvement there.
        let lattice_limited = ["heartwall", "hotspot", "lud"].contains(&w.name);
        total += 1;
        let aff_shape = if lattice_limited {
            report.feedback.pct_aff >= w.paper.pct_aff
        } else if w.paper.pct_aff >= 0.5 {
            report.feedback.pct_aff >= 0.5
        } else {
            report.feedback.pct_aff < 0.9
        };
        if aff_shape {
            ok += 1;
        } else {
            println!(
                "  %Aff mismatch {}: paper {} vs measured {}",
                w.name,
                pct(w.paper.pct_aff),
                pct(report.feedback.pct_aff)
            );
        }
        // 2. Polly must fail whenever the paper says it fails
        total += 1;
        if w.paper.polly_reasons == "-" || !report.static_report.all_modeled() {
            ok += 1;
        } else {
            println!("  static baseline unexpectedly modeled {}", w.name);
        }
        // 3. parallelism: paper ≥90% ⇒ measured ≥ 60%
        if w.paper.pct_parallel.is_finite() {
            total += 1;
            if w.paper.pct_parallel < 0.9 || region.pct_parallel >= 0.6 {
                ok += 1;
            } else {
                println!(
                    "  %||ops mismatch {}: paper {} vs measured {}",
                    w.name,
                    pct(w.paper.pct_parallel),
                    pct(region.pct_parallel)
                );
            }
        }
    }
    println!("  {ok}/{total} shape checks hold");
}
