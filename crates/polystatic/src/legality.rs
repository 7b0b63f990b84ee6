//! Schedule-legality checking (`polystatic::legality`).
//!
//! `polysched` derives its verdicts from *one observed execution*: a loop is
//! reported parallel when no folded dependence was carried at its dimension.
//! This module re-examines those claims against the **static** dependence
//! relations of [`crate::deps`], which quantify over the whole iteration
//! domain rather than the sampled run:
//!
//! * a parallel claim is **verified** when every pair of affine memory
//!   accesses under the loop is either proven independent or statically
//!   refuted from being carried at the loop's dimension
//!   ([`polylib::carried_at`]);
//! * otherwise it stays **unverified** — the dynamic verdict remains the
//!   ground truth for the observed run, but the static side could not
//!   certify it for all inputs (non-affine access, cross-block pair, or a
//!   rationally possible carried collision).
//!
//! The check covers memory dependences; register dependences are fully
//! visible to the dynamic profiler and need no domain generalization.

use crate::deps::StaticDeps;
use polyfold::polytrace::json_escape;
use polyiiv::context::ContextInterner;
use polyir::{Instr, InstrRef, Program};
use polylib::{carried_at, DepResult};
use polysched::analysis::Analysis;
use std::collections::BTreeSet;

/// Outcome for one dynamically-parallel loop node.
#[derive(Debug, Clone)]
pub struct NodeVerdict {
    /// Nest-forest node index (as in [`Analysis`]).
    pub node: usize,
    /// Coordinate dimension of the loop (1-based; 0 is the root).
    pub dim: usize,
    /// True when the parallel claim is statically certified.
    pub verified: bool,
    /// Human-readable reason when unverified (empty when verified).
    pub detail: String,
}

/// Static certification summary for one scheduler analysis.
#[derive(Debug, Clone, Default)]
pub struct LegalityReport {
    /// Parallel claims examined (non-root nodes with `parallel == true`).
    pub parallel_claims: usize,
    /// Claims certified against the static relations.
    pub verified: usize,
    /// Per-node outcomes, node-index order.
    pub nodes: Vec<NodeVerdict>,
}

impl LegalityReport {
    /// Claims the static side could not certify.
    pub fn unverified(&self) -> usize {
        self.parallel_claims - self.verified
    }

    /// Stable-keyed JSON summary (reports / bench artifacts).
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"node\":{},\"dim\":{},\"verified\":{},\"detail\":\"{}\"}}",
                    n.node,
                    n.dim,
                    n.verified,
                    json_escape(&n.detail)
                )
            })
            .collect();
        format!(
            "{{\"parallel_claims\":{},\"verified\":{},\"unverified\":{},\"nodes\":[{}]}}",
            self.parallel_claims,
            self.verified,
            self.unverified(),
            nodes.join(",")
        )
    }
}

/// Check every parallel verdict of `analysis` against the static relations.
pub fn check_schedule(
    prog: &Program,
    deps: &StaticDeps,
    analysis: &Analysis,
    interner: &ContextInterner,
) -> LegalityReport {
    let mut rep = LegalityReport::default();
    for n in 0..analysis.node.len() {
        if n == analysis.forest.root() || !analysis.node[n].parallel {
            continue;
        }
        rep.parallel_claims += 1;
        let dim = analysis.forest.node(n).dim;
        let verdict = certify_node(prog, deps, analysis, interner, n, dim);
        if verdict.verified {
            rep.verified += 1;
        }
        rep.nodes.push(verdict);
    }
    rep
}

/// Certify one node: every memory-access pair under it must be statically
/// independent or refuted from carrying at `dim`.
fn certify_node(
    prog: &Program,
    deps: &StaticDeps,
    analysis: &Analysis,
    interner: &ContextInterner,
    node: usize,
    dim: usize,
) -> NodeVerdict {
    let fail = |detail: String| NodeVerdict {
        node,
        dim,
        verified: false,
        detail,
    };
    // Collect the distinct access instructions under this loop.
    let mut accesses: BTreeSet<InstrRef> = BTreeSet::new();
    for &s in &analysis.forest.node(node).all_stmts {
        let iref = interner.stmt_info(s).instr;
        if !matches!(prog.instr(iref), Instr::Load { .. } | Instr::Store { .. }) {
            continue;
        }
        let Some(site) = deps.sites.get(&iref) else {
            return fail(format!("access {iref:?} is not affine"));
        };
        if !site.exact_domain {
            return fail(format!("access {iref:?} has an inexact domain"));
        }
        if dim > site.trips.len() {
            // The loop dim must index into the site's trip space; deeper
            // claims than the site's chain cannot involve it anyway.
            continue;
        }
        accesses.insert(iref);
    }
    for &a in &accesses {
        for &b in &accesses {
            let (sa, sb) = (&deps.sites[&a], &deps.sites[&b]);
            if !sa.is_write && !sb.is_write {
                continue; // read-read: no dependence
            }
            let Some(r) = deps.pairs.get(&(a, b)) else {
                // Pairs are only formed within a block; cross-block pairs
                // under a common parallel loop are out of model (v1).
                return fail(format!("pair {a:?} → {b:?} not statically analyzed"));
            };
            if matches!(r, DepResult::Independent) {
                continue;
            }
            // Coordinate dim `dim` is static trip dimension `dim − 1`.
            if carried_at(&sa.access, &sb.access, &sa.trips, dim - 1) {
                return fail(format!("pair {a:?} → {b:?} may be carried at dim {dim}"));
            }
        }
    }
    NodeVerdict {
        node,
        dim,
        verified: true,
        detail: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::StaticSummary;
    use polyir::build::ProgramBuilder;

    fn analyze(p: &Program) -> LegalityReport {
        let (mut ddg, interner, _) = polyfold::fold_program(p);
        ddg.remove_scevs();
        let analysis = Analysis::analyze(&ddg, &interner);
        let summary = StaticSummary::analyze(p);
        let deps = StaticDeps::analyze(p, &summary);
        check_schedule(p, &deps, &analysis, &interner)
    }

    #[test]
    fn elementwise_parallel_loop_is_verified() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let v = f.add(i, 0i64);
            f.store(a as i64, i, v);
            f.load(a as i64, i);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let rep = analyze(&p);
        assert!(rep.parallel_claims >= 1, "{rep:?}");
        assert_eq!(rep.verified, rep.parallel_claims, "{rep:?}");
    }

    #[test]
    fn indirect_access_claim_stays_unverified() {
        // Dynamically parallel (the permutation never collides within an
        // iteration) but statically non-affine: must remain unverified.
        let mut pb = ProgramBuilder::new("t");
        let idx = pb.array_i64(&[3, 0, 7, 1, 6, 2, 5, 4]);
        let a = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let k = f.load(idx as i64, i);
            f.store(a as i64, k, i);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let rep = analyze(&p);
        assert!(rep.parallel_claims >= 1, "{rep:?}");
        assert_eq!(rep.verified, 0, "{rep:?}");
        assert!(rep.nodes.iter().any(|n| n.detail.contains("not affine")));
    }

    #[test]
    fn json_has_stable_keys() {
        let rep = LegalityReport {
            parallel_claims: 2,
            verified: 1,
            nodes: vec![NodeVerdict {
                node: 1,
                dim: 1,
                verified: true,
                detail: String::new(),
            }],
        };
        let j = rep.to_json();
        assert!(j.contains("\"parallel_claims\":2"));
        assert!(j.contains("\"verified\":1"));
        assert!(j.contains("\"unverified\":1"));
        assert!(j.contains("\"node\":1"));
    }
}
