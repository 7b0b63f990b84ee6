//! # polyfeedback — PolyFeat-style metrics and human-readable feedback
//! (paper §6–8)
//!
//! Turns the scheduler analysis into what Poly-Prof actually shows the
//! user:
//!
//! * per-region **metrics** — the columns of Table 5 (`%Aff`, `%ops`,
//!   `%Mops`, `%FPops`, interprocedurality, skew, `%||ops`, `%simdops`,
//!   `%reuse`, `%Preuse`, loop depths, `TileD`, `%Tilops`, fusion
//!   components C/Comp.);
//! * **transformation suggestions** — the "interchange + SIMD",
//!   "tile + parallel" feedback of the case studies (Tables 3–4);
//! * the **annotated flame graph** (Figs. 5b, 7) and a simplified
//!   **annotated AST** of the region after the suggested transformation.

pub mod metrics;
pub mod report;

pub use metrics::{ProgramFeedback, RegionReport};
pub use report::{
    annotated_ast, degradation_section, flamegraph_svg, full_report, legality_section,
    self_flamegraph_svg, session_report_head, session_report_json, session_report_tail,
    static_pass_section, table5_row, vm_profile_section,
};

use polycfg::StaticStructure;
use polyfold::FoldedDdg;
use polyiiv::context::ContextInterner;
use polysched::Analysis;

/// Everything the feedback stage needs from the earlier stages.
pub struct FeedbackInput<'a> {
    /// The program under analysis.
    pub prog: &'a polyir::Program,
    /// Folded DDG *after* SCEV removal.
    pub ddg: &'a FoldedDdg,
    /// The interner mapping statements to contexts.
    pub interner: &'a ContextInterner,
    /// Stage-1 structure (for naming loops and blocks).
    pub structure: &'a StaticStructure,
    /// Scheduler analysis.
    pub analysis: &'a Analysis,
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use polyir::FBinOp;

    /// Both passes, SCEV removal and scheduling, then the metrics.
    fn feedback(prog: &polyir::Program) -> ProgramFeedback {
        let (mut ddg, interner, structure) = polyfold::fold_program(prog);
        ddg.remove_scevs();
        let analysis = Analysis::analyze(&ddg, &interner);
        metrics::compute(&FeedbackInput {
            prog,
            ddg: &ddg,
            interner: &interner,
            structure: &structure,
            analysis: &analysis,
        })
    }

    fn layerforward_program(n2: i64, n1: i64) -> polyir::Program {
        let mut pb = ProgramBuilder::new("backprop");
        let conn = pb.array_f64(&vec![0.5; ((n1 + 1) * (n2 + 1) + 8) as usize]);
        let l1 = pb.array_f64(&vec![0.25; (n1 + 1) as usize]);
        let l2 = pb.alloc((n2 + 2) as u64);
        let mut sq = pb.func("squash", 1);
        let x = sq.param(0);
        let s = sq.un(polyir::UnOp::Sigmoid, x);
        sq.ret(Some(s.into()));
        let sq_id = sq.finish();
        let mut f = pb.func("main", 0);
        f.at_line(253);
        f.for_loop("Lj", 0i64, n2, 1, |f, j| {
            let sum = f.const_f(0.0);
            f.at_line(254);
            f.for_loop("Lk", 0i64, n1, 1, |f, k| {
                let row = f.mul(k, n2);
                let idx = f.add(row, j);
                let w = f.load(conn as i64, idx);
                let x = f.load(l1 as i64, k);
                let prod = f.fmul(w, x);
                f.fop_to(sum, FBinOp::Add, sum, prod);
            });
            let r = f.call(sq_id, &[sum.into()]);
            f.store(l2 as i64, j, r);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        pb.finish()
    }

    #[test]
    fn layerforward_feedback_matches_table3_shape() {
        let fb = feedback(&layerforward_program(16, 16));
        assert!(!fb.regions.is_empty());
        let r = &fb.regions[0];
        // Paper Table 3 L_layer row: parallel (outer yes), permutable nest,
        // high stride-0/1 after permutation.
        assert!(r.pct_parallel > 0.9, "%||ops = {}", r.pct_parallel);
        assert!(r.tile_depth >= 2, "fully permutable 2-D nest");
        assert!(!r.skew);
        assert!(
            r.pct_preuse >= r.pct_reuse,
            "permutation can only improve reuse"
        );
        // The kernel reads conn[k][j] with stride n2 along k (innermost):
        // reuse improves when j moves innermost.
        assert!(r.pct_preuse > 0.6, "%Preuse = {}", r.pct_preuse);
        // It calls squash → interprocedural region.
        assert!(r.interproc);
        // Suggestions mention interchange and parallelization.
        let all = r.suggestions.join("; ");
        assert!(all.contains("interchange"), "{all}");
        assert!(all.to_lowercase().contains("parallel"), "{all}");
        // %FPops and %Mops sane.
        assert!(r.pct_mops > 0.1 && r.pct_mops < 0.9);
        assert!(r.pct_fpops > 0.05);
    }

    #[test]
    fn flamegraph_and_ast_render() {
        let p = layerforward_program(8, 8);
        let (mut ddg, interner, structure) = polyfold::fold_program(&p);
        ddg.remove_scevs();
        let analysis = Analysis::analyze(&ddg, &interner);
        let input = FeedbackInput {
            prog: &p,
            ddg: &ddg,
            interner: &interner,
            structure: &structure,
            analysis: &analysis,
        };
        let svg = flamegraph_svg(&input, "backprop");
        assert!(svg.contains("<svg") && svg.contains("</svg>"));
        assert!(svg.contains("main"), "function names appear in the graph");
        let ast = annotated_ast(&input);
        assert!(ast.contains("for"), "{ast}");
        assert!(ast.contains("parallel"), "{ast}");
    }

    #[test]
    fn nonaffine_program_reports_low_affinity() {
        // pointer chasing: b+tree-ish
        let mut pb = ProgramBuilder::new("chase");
        // linked list: node i at 2 words [next, payload]; the chain visits
        // i → (i+7) mod 32 (gcd(7,32)=1 ⇒ Hamiltonian), terminating at the
        // 32nd hop (node 25, the last in the walk from 0).
        let nodes: Vec<i64> = (0..32)
            .flat_map(|i: i64| {
                let next = if i == 25 {
                    -1
                } else {
                    0x1000 + (((i + 7) % 32) * 2)
                };
                [next, i]
            })
            .collect();
        let base = pb.array_i64(&nodes);
        assert_eq!(base, 0x1000);
        let mut f = pb.func("main", 0);
        let cur = f.mov(base as i64);
        let acc = f.const_i(0);
        f.while_loop(
            "chase",
            |f| f.icmp(polyir::CmpOp::Ge, cur, 0i64),
            |f| {
                let payload = f.load(cur, 1i64);
                f.iop_to(acc, polyir::IBinOp::Add, acc, payload);
                let next = f.load(cur, 0i64);
                f.mov_to(cur, next);
            },
        );
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let fb = feedback(&p);
        let r = &fb.regions[0];
        assert!(
            r.pct_reuse < 0.8,
            "pointer chasing should not be mostly unit-stride: {}",
            r.pct_reuse
        );
    }
}
