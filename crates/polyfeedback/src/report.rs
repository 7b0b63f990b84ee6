//! Rendering: annotated flame graphs (paper Figs. 5b/7), the simplified
//! annotated AST shown after a suggested transformation, and Table-5-style
//! text rows.

use crate::metrics::{ProgramFeedback, RegionReport};
use crate::FeedbackInput;
use polycfg::LoopRef;
use polyiiv::schedule_tree::SchedTree;
use polyiiv::CtxElem;
use std::fmt::Write as _;

/// Human-readable name for a context element.
pub fn ctx_name(input: &FeedbackInput<'_>, e: &CtxElem) -> String {
    match e {
        CtxElem::Block(b) => {
            let f = input.prog.func(b.func);
            format!("{}.{}", f.name, f.block(b.block).name)
        }
        CtxElem::Loop(LoopRef::Cfg(f, l)) => {
            let func = input.prog.func(*f);
            let header = input.structure.forest(*f).info(*l).header;
            format!("loop {}:{}", func.name, func.block(header).name)
        }
        CtxElem::Loop(LoopRef::Rec(c)) => format!("rec-loop #{}", c.0),
    }
}

/// Build the dynamic schedule tree weighted by dynamic op counts.
pub fn schedule_tree(input: &FeedbackInput<'_>) -> SchedTree {
    let mut tree = SchedTree::new();
    let mut stmt_ids: Vec<_> = input.ddg.stmts.keys().copied().collect();
    stmt_ids.sort();
    for s in stmt_ids {
        let info = input.interner.stmt_info(s);
        let path = input.interner.flat_path(info.path);
        tree.add_path(&path, input.ddg.stmts[&s].domain.count);
    }
    tree
}

/// Render the annotated flame graph: box width ∝ computation weight,
/// loops/calls colored, non-affine statements grayed out — the paper's
/// Fig. 7 presentation.
pub fn flamegraph_svg(input: &FeedbackInput<'_>, title: &str) -> String {
    let tree = schedule_tree(input);
    // Gray out context elements that only lead to non-affine statements.
    let nonaffine: std::collections::HashSet<CtxElem> = {
        let mut gray = std::collections::HashSet::new();
        for (s, st) in &input.ddg.stmts {
            if !st.domain.exact {
                let info = input.interner.stmt_info(*s);
                for e in input.interner.flat_path(info.path) {
                    gray.insert(e);
                }
            }
        }
        // An element reached by any affine statement is not gray.
        for (s, st) in &input.ddg.stmts {
            if st.domain.exact {
                let info = input.interner.stmt_info(*s);
                for e in input.interner.flat_path(info.path) {
                    gray.remove(&e);
                }
            }
        }
        gray
    };
    tree.render_svg(title, &|e| ctx_name(input, e), &|e| {
        if nonaffine.contains(e) {
            "#bbbbbb".into()
        } else {
            match e {
                CtxElem::Loop(_) => "#e8743b".into(),
                CtxElem::Block(_) => "#f2b134".into(),
            }
        }
    })
}

/// Render the profiler's *own* stage tree as a flame graph — the telemetry
/// layer's self-profile, through the same [`SchedTree`] machinery as the
/// subject program's graph ([`flamegraph_svg`]). The boxes are wall time per
/// sequential stage, so the graph is empty below `Timing`.
pub fn self_flamegraph_svg(m: &polytrace::RunMetrics, title: &str) -> String {
    let mut tree: SchedTree<polytrace::Stage> = SchedTree::new();
    for s in polytrace::Stage::ALL {
        if m.stage(s) > 0 {
            tree.add_path(&[s], m.stage(s));
        }
    }
    tree.render_svg(title, &|s| s.name().to_string(), &|_| "#4a90d9".into())
}

/// Render the simplified annotated AST of the whole nest forest: loop
/// structure with parallel/permutable/SIMD annotations — the "decorated
/// simplified AST" of §6.
pub fn annotated_ast(input: &FeedbackInput<'_>) -> String {
    let mut out = String::new();
    let a = input.analysis;
    fn rec(input: &FeedbackInput<'_>, node: usize, indent: usize, out: &mut String) {
        let a = input.analysis;
        let n = a.forest.node(node);
        let pad = "  ".repeat(indent);
        if node != a.forest.root() {
            let mut attrs = Vec::new();
            if a.node[node].parallel {
                attrs.push("parallel");
            }
            if a.node[node].zero_dist {
                attrs.push("movable");
            }
            let label = n
                .label
                .map(|e| ctx_name(input, &e))
                .unwrap_or_else(|| "?".into());
            let _ = writeln!(
                out,
                "{pad}for {label} [{}] ({} ops, {} stmts)",
                attrs.join(", "),
                n.ops,
                n.all_stmts.len()
            );
        }
        for &c in &n.children {
            rec(input, c, indent + 1, out);
        }
        if !n.stmts.is_empty() && node != a.forest.root() {
            let _ = writeln!(out, "{pad}  S: {} statements", n.stmts.len());
        }
    }
    rec(input, a.forest.root(), 0, &mut out);
    let _ = a;
    out
}

/// One Table-5-style row (fixed-width text).
pub fn table5_row(fb: &ProgramFeedback, region: &RegionReport, ld_src: usize) -> String {
    let pct = |x: f64| format!("{:.0}%", x * 100.0);
    format!(
        "{:<14} {:>10} {:>10} {:>5} {:<24} {:>5} {:>6} {:>7} {:^9} {:>5} {:>6} {:>8} {:>7} {:>8} {:>6} {:>6} {:>5} {:>8} {:>3} {:>5}",
        fb.name,
        fb.src_ops,
        fb.total_ops,
        pct(fb.pct_aff),
        region.name,
        pct(region.pct_ops),
        pct(region.pct_mops),
        pct(region.pct_fpops),
        if region.interproc { "Y" } else { "N" },
        if region.skew { "Y" } else { "N" },
        pct(region.pct_parallel),
        pct(region.pct_simd),
        pct(region.pct_reuse),
        pct(region.pct_preuse),
        format!("{}D", ld_src),
        format!("{}D", fb.ld_bin),
        format!("{}D", region.tile_depth),
        pct(region.pct_tilops),
        fb.components,
        fb.components_smartfuse,
    )
}

/// Header line matching [`table5_row`].
pub fn table5_header() -> String {
    format!(
        "{:<14} {:>10} {:>10} {:>5} {:<24} {:>5} {:>6} {:>7} {:^9} {:>5} {:>6} {:>8} {:>7} {:>8} {:>6} {:>6} {:>5} {:>8} {:>3} {:>5}",
        "benchmark",
        "#inst-src",
        "#inst-bin",
        "%Aff",
        "Region",
        "%ops",
        "%Mops",
        "%FPops",
        "interproc",
        "skew",
        "%||ops",
        "%simdops",
        "%reuse",
        "%Preuse",
        "ld-src",
        "ld-bin",
        "TileD",
        "%Tilops",
        "C",
        "Comp."
    )
}

/// The complete textual feedback document for one program — the paper's §6
/// "extensive textual length" output (shown only in its supplementary
/// material): per-region statistics, the dependence summary, the suggested
/// transformation sequence, and the annotated AST.
pub fn full_report(input: &FeedbackInput<'_>, fb: &ProgramFeedback) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "═══ Poly-Prof feedback for `{}` ═══\n", fb.name);
    let _ = writeln!(
        s,
        "dynamic instructions : {} total, {} semantic (non-overhead)",
        fb.total_ops, fb.src_ops
    );
    let _ = writeln!(s, "affine fraction      : {:.1}%", 100.0 * fb.pct_aff);
    let _ = writeln!(s, "interprocedural loop depth (binary): {}D", fb.ld_bin);
    let _ = writeln!(
        s,
        "fusion structure     : {} components ≥5% ops → {} after smartfuse, {} after maxfuse\n",
        fb.components, fb.components_smartfuse, fb.components_maxfuse
    );

    // Dependence summary.
    let a = input.analysis;
    let mut by_kind = std::collections::BTreeMap::new();
    for d in &a.deps {
        *by_kind.entry(format!("{:?}", d.kind)).or_insert(0u64) += d.count;
    }
    let _ = writeln!(s, "dependence instances by kind (post-SCEV):");
    for (k, n) in &by_kind {
        let _ = writeln!(s, "  {k:<8} {n}");
    }
    let carried: usize = a
        .deps
        .iter()
        .filter(|d| matches!(d.carried, polysched::Carried::Level(_)))
        .count();
    let _ = writeln!(
        s,
        "  {} folded relations, {} loop-carried\n",
        a.deps.len(),
        carried
    );

    for (i, r) in fb.regions.iter().enumerate() {
        let _ = writeln!(s, "─── region #{}: {} ───", i + 1, r.name);
        let _ = writeln!(
            s,
            "  ops {:.1}% of program | mem {:.0}% | fp {:.0}% | interprocedural: {}",
            100.0 * r.pct_ops,
            100.0 * r.pct_mops,
            100.0 * r.pct_fpops,
            if r.interproc { "yes" } else { "no" }
        );
        let _ = writeln!(
            s,
            "  parallel {:.0}% | simd {:.0}% | tilable {:.0}% ({}D band{}) | reuse {:.0}% → {:.0}%",
            100.0 * r.pct_parallel,
            100.0 * r.pct_simd,
            100.0 * r.pct_tilops,
            r.tile_depth,
            if r.skew { ", skewed" } else { "" },
            100.0 * r.pct_reuse,
            100.0 * r.pct_preuse
        );
        let _ = writeln!(s, "  suggested transformation sequence:");
        for (j, sug) in r.suggestions.iter().enumerate() {
            let _ = writeln!(s, "    {}. {sug}", j + 1);
        }
        let _ = writeln!(s);
    }

    let _ = writeln!(s, "─── annotated AST (post-analysis loop structure) ───");
    s.push_str(&annotated_ast(input));
    s
}

/// Render the static-oracle section appended to the full report when the
/// lint ran: proof counts and the DDG lint verdict.
pub fn static_pass_section(static_scevs: usize, lint: &polystatic::lint::LintReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "─── static affine pre-pass ───");
    let _ = writeln!(s, "  statically proven SCEV instructions : {static_scevs}");
    if lint.ok() {
        let _ = writeln!(
            s,
            "  DDG lint                            : ok ({} checks)",
            lint.checks
        );
    } else {
        let _ = writeln!(
            s,
            "  DDG lint                            : {} VIOLATIONS ({} checks)",
            lint.violations.len(),
            lint.checks
        );
        for v in &lint.violations {
            let _ = writeln!(s, "    [{}] {}", v.kind, v.detail);
        }
    }
    s
}

/// Render the schedule-legality section: the static affine dependence
/// relations (`polystatic::deps`) and, per loop the dynamic scheduler
/// claimed parallel, whether the static direction vectors certify the claim
/// (`polystatic::legality`). Unverified claims are listed with the reason —
/// they are *not* refutations, just the limit of the static model.
pub fn legality_section(
    deps: &polystatic::deps::StaticDeps,
    legality: &polystatic::legality::LegalityReport,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "─── static dependence relations & schedule legality ───");
    let _ = writeln!(
        s,
        "  affine access sites                 : {} of {}",
        deps.sites.len(),
        deps.total_sites
    );
    let _ = writeln!(
        s,
        "  dependence pairs (exact/independent): {} / {}",
        deps.pairs_exact(),
        deps.pairs_independent()
    );
    let _ = writeln!(
        s,
        "  parallel claims legality-verified   : {} of {}",
        legality.verified, legality.parallel_claims
    );
    for v in legality.nodes.iter().filter(|v| !v.verified) {
        let _ = writeln!(
            s,
            "    node {} (dim {}) unverified: {}",
            v.node, v.dim, v.detail
        );
    }
    s
}

/// Render the resilience section appended to the full report when a run
/// degraded: injected faults, unresolved accesses, budget losses and the
/// deadline. Every loss direction is an over-approximation or a prefix:
/// lost data can only *hide* dependences, never invent them.
pub fn degradation_section(deg: &polyresist::RunDegradation) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "─── resilience & degradation ───");
    let _ = writeln!(
        s,
        "  faults injected                     : {}",
        deg.faults_injected
    );
    let _ = writeln!(
        s,
        "  stalled heartbeats                  : {}",
        deg.stalled_beats
    );
    let _ = writeln!(
        s,
        "  unresolved accesses (shadow alloc)  : {}",
        deg.shadow_alloc_failures
    );
    let _ = writeln!(
        s,
        "  budget over-approximated statements : {}",
        deg.budget_overapprox_stmts
    );
    let _ = writeln!(
        s,
        "  budget pressure / peak tracked bytes: {} / {}",
        if deg.budget_pressure { "yes" } else { "no" },
        deg.peak_tracked_bytes
    );
    let _ = writeln!(
        s,
        "  deadline hit                        : {}",
        if deg.deadline_hit { "yes" } else { "no" }
    );
    s
}

/// Render the "VM profile" section appended to the full report when opcode
/// telemetry ran (`Timing`+): per-opcode dynamic dispatch counts, and the
/// sampled dispatch-latency distribution when the run traced. This is the
/// input signal for future dispatch-reordering / superinstruction work.
pub fn vm_profile_section(m: &polytrace::RunMetrics) -> String {
    let mut s = String::new();
    let total: u64 = m.vm_ops.iter().map(|(_, n)| n).sum();
    let _ = writeln!(s, "─── VM profile ───");
    let _ = writeln!(s, "  dynamic dispatches                  : {total}");
    for (name, n) in m.vm_ops.iter().take(12) {
        let pct = if total > 0 {
            100.0 * *n as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(s, "    {name:<12} {n:>12}  {pct:5.1}%");
    }
    if m.vm_ops.len() > 12 {
        let rest: u64 = m.vm_ops.iter().skip(12).map(|(_, n)| n).sum();
        let _ = writeln!(s, "    {:<12} {rest:>12}", "(other)");
    }
    if let Some(h) = &m.dispatch_ns {
        let _ = writeln!(
            s,
            "  dispatch latency (sampled, ns)      : p50 {} / p90 {} / p99 {} / max {}",
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
            h.max()
        );
    }
    s
}

/// Frame one profiling session's final result as the stable-keyed JSON
/// object a profiling *service* streams back over the wire: identity
/// (workload, session id, cache verdict), the folded-DDG statistics, the
/// canonical DDG text (the byte-comparison artifact — present when the run
/// captured it), the degradation record, and optionally the run-metrics
/// object spliced in verbatim (both are stable-keyed JSON already).
///
/// The object is [`session_report_head`] followed by [`session_report_tail`],
/// byte for byte. Only the head depends on the session, so a service that
/// hands the same result out again renders the tail — where the tens of
/// kilobytes of escaped DDG text are — once, and prepends a fresh head.
///
/// Lives here, next to the other report renderers, so the wire framing and
/// the human report evolve together; the server crate only assembles.
pub fn session_report_json(
    workload: &str,
    session: u64,
    cached: bool,
    folded: (usize, usize, u64),
    canonical_ddg: Option<&str>,
    degradation_json: &str,
    metrics_json: Option<&str>,
) -> String {
    let mut s = session_report_head(workload, session, cached);
    s.push_str(&session_report_tail(
        folded,
        canonical_ddg,
        degradation_json,
        metrics_json,
    ));
    s
}

/// The part of [`session_report_json`] that depends on the session: the
/// opening brace and the `workload`, `session` and `cached` fields, up to and
/// including the separator before `folded_stmts`.
pub fn session_report_head(workload: &str, session: u64, cached: bool) -> String {
    format!(
        "{{\"workload\": \"{}\", \"session\": {session}, \"cached\": {cached}, ",
        polytrace::json_escape(workload),
    )
}

/// The part of [`session_report_json`] that is the same for every session
/// handing out this result: `folded_stmts` … `degradation` … `canonical_ddg`
/// (… `metrics`) and the closing brace. Rendered into one allocation of
/// exactly its length, so whoever keeps it keeps no slack.
pub fn session_report_tail(
    folded: (usize, usize, u64),
    canonical_ddg: Option<&str>,
    degradation_json: &str,
    metrics_json: Option<&str>,
) -> String {
    const CANONICAL: &str = ", \"canonical_ddg\": \"";
    const METRICS: &str = ", \"metrics\": ";
    let stats = format!(
        "\"folded_stmts\": {}, \"folded_deps\": {}, \"dyn_ops\": {}, \"degradation\": ",
        folded.0, folded.1, folded.2,
    );
    let len = stats.len()
        + degradation_json.len()
        + canonical_ddg.map_or(0, |c| CANONICAL.len() + polytrace::json_escaped_len(c) + 1)
        + metrics_json.map_or(0, |m| METRICS.len() + m.len())
        + 1;
    let mut s = String::with_capacity(len);
    s.push_str(&stats);
    s.push_str(degradation_json);
    if let Some(c) = canonical_ddg {
        s.push_str(CANONICAL);
        polytrace::json_escape_into(&mut s, c);
        s.push('"');
    }
    if let Some(m) = metrics_json {
        s.push_str(METRICS);
        s.push_str(m);
    }
    s.push('}');
    debug_assert_eq!(s.len(), len);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_row_align() {
        let h = table5_header();
        assert!(h.contains("%Aff") && h.contains("TileD") && h.contains("Comp."));
    }

    #[test]
    fn session_frame_escapes_and_splices() {
        let j = session_report_json(
            "back\"prop",
            7,
            true,
            (3, 2, 100),
            Some("S0 [0,1]\nS1 [0,2]\n"),
            "{\"deadline_hit\":false}",
            Some("{\"total_ns\": 5}"),
        );
        assert!(j.contains("\"workload\": \"back\\\"prop\""), "{j}");
        assert!(j.contains("\"session\": 7"), "{j}");
        assert!(j.contains("\"cached\": true"), "{j}");
        assert!(
            j.contains("\"canonical_ddg\": \"S0 [0,1]\\nS1 [0,2]\\n\""),
            "{j}"
        );
        assert!(j.contains("\"metrics\": {\"total_ns\": 5}"), "{j}");
        // Without the optional parts the object still closes cleanly.
        let j = session_report_json("w", 1, false, (0, 0, 0), None, "{}", None);
        assert!(j.ends_with("\"degradation\": {}}"), "{j}");
    }

    /// The report is head + tail byte for byte, with and without the
    /// optional parts, and the tail holds no slack.
    #[test]
    fn session_report_is_head_plus_tail() {
        let ddg = "S0 [0,1]\nS1 [0,2]\n";
        let (deg, metrics) = ("{\"deadline_hit\":false}", "{\"total_ns\": 5}");
        for (workload, session, cached, folded, canonical, deg, metrics) in [
            (
                "back\"prop",
                7,
                true,
                (3, 2, 100),
                Some(ddg),
                deg,
                Some(metrics),
            ),
            ("back\"prop", 8, false, (3, 2, 100), Some(ddg), deg, None),
            ("w", u64::MAX, true, (3, 2, 100), None, deg, Some(metrics)),
            ("w", 1, false, (0, 0, 0), None, "{}", None),
        ] {
            let head = session_report_head(workload, session, cached);
            let tail = session_report_tail(folded, canonical, deg, metrics);
            assert_eq!(
                session_report_json(workload, session, cached, folded, canonical, deg, metrics),
                head.clone() + &tail
            );
            assert_eq!(tail.len(), tail.capacity(), "{tail}");
            assert!(
                head.starts_with("{\"workload\": ")
                    && head.ends_with("\"cached\": true, ") == cached
            );
            assert!(
                tail.starts_with("\"folded_stmts\": ") && tail.ends_with('}'),
                "{tail}"
            );
        }
    }
}
