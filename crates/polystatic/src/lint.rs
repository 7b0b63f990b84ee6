//! Post-fold DDG lint: check the dynamic profile against static claims.
//!
//! The static pre-pass ([`crate::dataflow`]) makes falsifiable claims about
//! any execution of the program: the static loop forest over-approximates
//! the dynamic one, certain flow dependences must appear, statically
//! disjoint base-pointer partitions can never exchange memory dependences,
//! and statically proven SCEV statements must be dynamically classified as
//! SCEV. This module checks every claim against one folded run and reports
//! violations — each one is a bug in either the static pass, the profiler,
//! or the folder, which is why CI treats any violation as a hard error.
//!
//! The lint runs on the folded DDG *before* `remove_scevs()`: the
//! SCEV-marking and must-flow checks inspect exactly the statements and
//! dependences that removal would delete.

use crate::dataflow::StaticSummary;
use polycfg::StaticStructure;
use polyfold::polytrace::json_escape;
use polyfold::FoldedDdg;
use polyiiv::context::ContextInterner;
use polyir::{FuncId, Program};
use std::collections::BTreeMap;
use std::fmt;

/// Which static claim a violation falsified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// The dynamic loop forest is not a refinement of the static one.
    ForestRefinement,
    /// A statically-must-exist flow dependence is missing from the fold.
    MissingMustFlow,
    /// A memory dependence crosses statically-disjoint partitions.
    CrossPartitionDep,
    /// A statically-proven SCEV statement was not dynamically classified.
    UnmarkedScev,
    /// A dynamic dependence falls outside its static dependence relation
    /// (distance vector not admitted, or pair proven independent).
    DynamicExceedsStatic,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::ForestRefinement => "forest-refinement",
            LintKind::MissingMustFlow => "missing-must-flow",
            LintKind::CrossPartitionDep => "cross-partition-dep",
            LintKind::UnmarkedScev => "unmarked-scev",
            LintKind::DynamicExceedsStatic => "dynamic-exceeds-static",
        };
        f.write_str(s)
    }
}

/// One falsified claim.
#[derive(Debug, Clone)]
pub struct LintViolation {
    /// The claim category.
    pub kind: LintKind,
    /// Human-readable description of the instance.
    pub detail: String,
}

/// Result of linting one folded run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of individual claims checked.
    pub checks: u64,
    /// Falsified claims (empty = lint passed).
    pub violations: Vec<LintViolation>,
}

impl LintReport {
    /// Did every check pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn fail(&mut self, kind: LintKind, detail: String) {
        self.violations.push(LintViolation { kind, detail });
    }

    /// Stable-keyed JSON summary (reports / bench artifacts).
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"kind\":\"{}\",\"detail\":\"{}\"}}",
                    v.kind,
                    json_escape(&v.detail)
                )
            })
            .collect();
        format!(
            "{{\"checks\":{},\"ok\":{},\"violations\":[{}]}}",
            self.checks,
            self.ok(),
            violations.join(",")
        )
    }
}

/// Lint one folded run (`ddg` must be pre-`remove_scevs`).
pub fn lint_ddg(
    prog: &Program,
    summary: &StaticSummary,
    ddg: &FoldedDdg,
    interner: &ContextInterner,
    structure: &StaticStructure,
) -> LintReport {
    lint_ddg_with_deps(prog, summary, None, ddg, interner, structure)
}

/// As [`lint_ddg`], additionally checking claim 5 when a static dependence
/// analysis is available: for every affine-proven pair, the dynamic folded
/// distance vectors must sit inside the static dependence relation
/// (dynamic ⊆ static).
pub fn lint_ddg_with_deps(
    prog: &Program,
    summary: &StaticSummary,
    deps: Option<&crate::deps::StaticDeps>,
    ddg: &FoldedDdg,
    interner: &ContextInterner,
    structure: &StaticStructure,
) -> LintReport {
    let mut rep = LintReport::default();
    check_forest_refinement(prog, summary, structure, &mut rep);
    check_must_flow(summary, ddg, interner, &mut rep);
    check_partitions(summary, ddg, interner, &mut rep);
    check_scev_marks(summary, ddg, interner, &mut rep);
    if let Some(deps) = deps {
        check_static_relations(deps, ddg, interner, &mut rep);
    }
    rep
}

/// The folded statements in `StmtId` order: `FoldedDdg::stmts` is a
/// `HashMap`, and violations must come out in the same order in every
/// process.
fn stmt_order(ddg: &FoldedDdg) -> impl Iterator<Item = polyiiv::context::StmtId> {
    let mut ids: Vec<_> = ddg.stmts.keys().copied().collect();
    ids.sort_unstable();
    ids.into_iter()
}

/// Claim 1: every dynamically observed edge exists statically, and every
/// dynamic loop nests inside a static loop consistently with its parent.
/// (The dynamic forest is built over the *executed* subgraph, so its loops
/// may shrink, split, or vanish relative to the static forest — but never
/// exceed it.)
fn check_forest_refinement(
    prog: &Program,
    summary: &StaticSummary,
    structure: &StaticStructure,
    rep: &mut LintReport,
) {
    for (&fid, cfg) in &structure.cfgs {
        let f = prog.func(fid);
        let fd = &summary.funcs[fid.0 as usize];
        for &(u, v) in &cfg.edges {
            rep.checks += 1;
            if !f.block(u).term.successors().contains(&v) {
                rep.fail(
                    LintKind::ForestRefinement,
                    format!(
                        "{}: observed edge b{}→b{} is not a static successor",
                        f.name, u.0, v.0
                    ),
                );
            }
        }
        let dyn_forest = match structure.forests.get(&fid) {
            Some(fr) => fr,
            None => continue,
        };
        // Smallest static loop containing all blocks of each dynamic loop.
        let container = |blocks: &std::collections::BTreeSet<polyir::LocalBlockId>| {
            fd.forest
                .loops
                .iter()
                .enumerate()
                .filter(|(_, sl)| blocks.is_subset(&sl.blocks))
                .max_by_key(|(_, sl)| sl.depth)
                .map(|(i, _)| i)
        };
        let mut container_of: Vec<Option<usize>> = Vec::with_capacity(dyn_forest.loops.len());
        for (li, dl) in dyn_forest.loops.iter().enumerate() {
            rep.checks += 1;
            let c = container(&dl.blocks);
            if c.is_none() {
                rep.fail(
                    LintKind::ForestRefinement,
                    format!(
                        "{}: dynamic loop at b{} not contained in any static loop",
                        f.name, dl.header.0
                    ),
                );
            }
            container_of.push(c);
            // Nesting consistency: the containing static loops of child and
            // parent must themselves be nested (or equal).
            if let Some(p) = dl.parent {
                rep.checks += 1;
                if let (Some(cc), Some(pc)) = (container_of[li], container_of[p.0 as usize]) {
                    let (cb, pb) = (&fd.forest.loops[cc].blocks, &fd.forest.loops[pc].blocks);
                    if !cb.is_subset(pb) {
                        rep.fail(
                            LintKind::ForestRefinement,
                            format!(
                                "{}: dynamic nesting b{} in b{} contradicts static forest",
                                f.name, dl.header.0, dyn_forest.loops[p.0 as usize].header.0
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Claim 2: every statically-must-exist flow dependence appears in the fold
/// for every context the consuming load folded under.
fn check_must_flow(
    summary: &StaticSummary,
    ddg: &FoldedDdg,
    interner: &ContextInterner,
    rep: &mut LintReport,
) {
    if summary.must_flow.is_empty() {
        return;
    }
    // instr → folded stmt ids in ascending order, to find each load's
    // dynamic incarnations.
    let mut by_instr: BTreeMap<polyir::InstrRef, Vec<polyiiv::context::StmtId>> = BTreeMap::new();
    for s in stmt_order(ddg) {
        by_instr
            .entry(interner.stmt_info(s).instr)
            .or_default()
            .push(s);
    }
    for mf in &summary.must_flow {
        for &load_stmt in by_instr.get(&mf.load).map(Vec::as_slice).unwrap_or(&[]) {
            rep.checks += 1;
            let found = ddg.deps.iter().any(|d| {
                d.kind == polyddg::DepKind::Flow
                    && d.dst == load_stmt
                    && interner.stmt_info(d.src).instr == mf.store
            });
            if !found {
                rep.fail(
                    LintKind::MissingMustFlow,
                    format!(
                        "flow dep {:?} → {:?} (stmt {:?}) statically required, absent in fold",
                        mf.store, mf.load, load_stmt
                    ),
                );
            }
        }
    }
}

/// Claim 3: no memory dependence connects two access sites placed in
/// different (statically disjoint) base-pointer partitions.
fn check_partitions(
    summary: &StaticSummary,
    ddg: &FoldedDdg,
    interner: &ContextInterner,
    rep: &mut LintReport,
) {
    if summary.partitions.is_empty() {
        return;
    }
    for d in &ddg.deps {
        if d.kind == polyddg::DepKind::Reg {
            continue;
        }
        rep.checks += 1;
        let (si, di) = (
            interner.stmt_info(d.src).instr,
            interner.stmt_info(d.dst).instr,
        );
        if let (Some(&ps), Some(&pd)) = (summary.partitions.get(&si), summary.partitions.get(&di)) {
            if ps != pd {
                rep.fail(
                    LintKind::CrossPartitionDep,
                    format!(
                        "{:?} dep {:?} → {:?} crosses partitions {} → {}",
                        d.kind, si, di, ps, pd
                    ),
                );
            }
        }
    }
}

/// Claim 5: dynamic ⊆ static — every folded memory dependence between two
/// affine-proven sites must be admitted by their static dependence relation
/// (and a pair proven independent must show no dynamic dependence at all).
fn check_static_relations(
    deps: &crate::deps::StaticDeps,
    ddg: &FoldedDdg,
    interner: &ContextInterner,
    rep: &mut LintReport,
) {
    use polylib::DepResult;
    for d in &ddg.deps {
        if d.kind == polyddg::DepKind::Reg {
            continue;
        }
        let (si, di) = (
            interner.stmt_info(d.src).instr,
            interner.stmt_info(d.dst).instr,
        );
        let Some(r) = deps.pairs.get(&(si, di)) else {
            continue; // pair not statically modeled
        };
        rep.checks += 1;
        match r {
            DepResult::Independent => rep.fail(
                LintKind::DynamicExceedsStatic,
                format!(
                    "{:?} dep {si:?} → {di:?} observed but statically independent",
                    d.kind
                ),
            ),
            DepResult::Dependent(rel) | DepResult::MaybeDependent(rel) => {
                // Folded delta dim 0 is the run-once root; static trip
                // dimension `t` is coordinate dimension `t + 1`.
                if !rel.admits(&d.delta[1..]) {
                    rep.fail(
                        LintKind::DynamicExceedsStatic,
                        format!(
                            "{:?} dep {si:?} → {di:?}: dynamic distance {:?} outside \
                             static relation {:?}",
                            d.kind,
                            &d.delta[1..],
                            rel.distance
                        ),
                    );
                }
            }
        }
    }
}

/// Claim 4: every folded statement whose instruction is statically proven
/// SCEV carries the dynamic `is_scev` mark.
fn check_scev_marks(
    summary: &StaticSummary,
    ddg: &FoldedDdg,
    interner: &ContextInterner,
    rep: &mut LintReport,
) {
    for s in stmt_order(ddg).map(|id| &ddg.stmts[&id]) {
        let instr = interner.stmt_info(s.stmt).instr;
        if !summary.is_proven_scev(instr) {
            continue;
        }
        rep.checks += 1;
        if !s.is_scev {
            let fid = FuncId(instr.block.func.0);
            rep.fail(
                LintKind::UnmarkedScev,
                format!(
                    "stmt {:?} at {:?} (fn {}) statically proven SCEV ({:?}) but not marked",
                    s.stmt,
                    instr,
                    fid.0,
                    summary.scev_kind(instr)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycfg::loop_forest::LoopForest;
    use polycfg::DynCfg;
    use polyir::build::ProgramBuilder;
    use polyir::LocalBlockId;
    use std::collections::BTreeSet;

    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let v = f.add(i, 0i64);
            f.store(a as i64, i, v);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        pb.finish()
    }

    /// A dynamic structure observing a subset of the static CFG.
    fn dyn_structure(prog: &Program, edges: &[(u32, u32)]) -> StaticStructure {
        let fid = prog.entry.unwrap();
        let es: BTreeSet<(LocalBlockId, LocalBlockId)> = edges
            .iter()
            .map(|&(u, v)| (LocalBlockId(u), LocalBlockId(v)))
            .collect();
        let blocks: BTreeSet<LocalBlockId> = es.iter().flat_map(|&(u, v)| [u, v]).collect();
        let forest = LoopForest::build(&blocks, &es, prog.func(fid).entry());
        let mut s = StaticStructure::default();
        s.cfgs.insert(fid, DynCfg { blocks, edges: es });
        s.forests.insert(fid, forest);
        s
    }

    #[test]
    fn refinement_accepts_executed_subgraph() {
        let p = loop_program();
        let summary = StaticSummary::analyze(&p);
        // The real execution path: entry→header→body→latch→header, header→exit.
        let s = dyn_structure(&p, &[(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)]);
        let rep = lint_ddg(
            &p,
            &summary,
            &FoldedDdg::default(),
            &ContextInterner::new(),
            &s,
        );
        assert!(rep.ok(), "{:?}", rep.violations);
        assert!(rep.checks > 0);
    }

    #[test]
    fn refinement_rejects_phantom_edge() {
        let p = loop_program();
        let summary = StaticSummary::analyze(&p);
        // body→header is not a static successor (body jumps to the latch).
        let s = dyn_structure(&p, &[(0, 1), (1, 2), (2, 1)]);
        let rep = lint_ddg(
            &p,
            &summary,
            &FoldedDdg::default(),
            &ContextInterner::new(),
            &s,
        );
        assert!(!rep.ok());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.kind == LintKind::ForestRefinement));
    }

    #[test]
    fn static_relations_admit_real_fold() {
        // Real run: store a[i]; load a[i] — dynamic deps must sit inside the
        // static relations (distance 0 on the loop dim).
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
        let (ddg, interner, structure) = polyfold::fold_program(&p);
        let summary = StaticSummary::analyze(&p);
        let deps = crate::deps::StaticDeps::analyze(&p, &summary);
        let base = lint_ddg(&p, &summary, &ddg, &interner, &structure);
        let rep = lint_ddg_with_deps(&p, &summary, Some(&deps), &ddg, &interner, &structure);
        assert!(rep.ok(), "{:?}", rep.violations);
        assert!(rep.checks > base.checks, "claim 5 must add checks");
    }

    #[test]
    fn static_relations_reject_phantom_dep() {
        // Hand-craft a folded dep between the two sites with an impossible
        // distance (−3): the static relation pins it to 0.
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
        let (mut ddg, interner, structure) = polyfold::fold_program(&p);
        let summary = StaticSummary::analyze(&p);
        let deps = crate::deps::StaticDeps::analyze(&p, &summary);
        let flow = ddg
            .deps
            .iter()
            .position(|d| d.kind == polyddg::DepKind::Flow)
            .expect("store→load flow dep");
        ddg.deps[flow].delta = vec![(0, 0), (-3, -3)];
        let rep = lint_ddg_with_deps(&p, &summary, Some(&deps), &ddg, &interner, &structure);
        assert!(rep
            .violations
            .iter()
            .any(|v| v.kind == LintKind::DynamicExceedsStatic));
    }

    #[test]
    fn violations_come_out_in_statement_order() {
        // Three nested loops of affine index arithmetic: every statement the
        // static pass proves SCEV, with its dynamic mark cleared, is one
        // unmarked-SCEV violation, and `stmts` is a HashMap.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(512);
        let mut f = pb.func("main", 0);
        f.for_loop("I", 0i64, 4i64, 1, |f, i| {
            let i2 = f.add(i, 2i64);
            f.for_loop("J", 0i64, 4i64, 1, |f, j| {
                let ij = f.add(i2, j);
                f.for_loop("K", 0i64, 4i64, 1, |f, k| {
                    let x = f.add(ij, k);
                    let y = f.mul(x, 3i64);
                    let z = f.add(y, 1i64);
                    f.store(a as i64, z, x);
                });
            });
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (mut ddg, interner, structure) = polyfold::fold_program(&p);
        for s in ddg.stmts.values_mut() {
            s.is_scev = false;
        }
        let rep = lint_ddg(&p, &StaticSummary::analyze(&p), &ddg, &interner, &structure);
        let ids: Vec<u32> = rep
            .violations
            .iter()
            .filter(|v| v.kind == LintKind::UnmarkedScev)
            .map(|v| {
                let id = v
                    .detail
                    .strip_prefix("stmt StmtId(")
                    .expect("detail names the stmt");
                id[..id.find(')').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(ids.len() >= 8, "{} unmarked-SCEV violations", ids.len());
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn lint_json_has_stable_keys() {
        let mut rep = LintReport {
            checks: 3,
            violations: vec![],
        };
        rep.fail(LintKind::DynamicExceedsStatic, "x".into());
        // Details carry user function names: JSON-escaped, not Debug.
        rep.fail(LintKind::MissingMustFlow, "f\u{1}\"g\"".into());
        let j = rep.to_json();
        assert!(j.contains("\"checks\":3"));
        assert!(j.contains("\"ok\":false"));
        assert!(j.contains("\"kind\":\"dynamic-exceeds-static\""));
        assert!(j.contains(r#""detail":"f\u0001\"g\"""#), "{j}");
        polyfold::polytrace::validate_json(&j).expect("lint JSON");
    }

    #[test]
    fn empty_fold_passes_vacuously() {
        let p = loop_program();
        let summary = StaticSummary::analyze(&p);
        let s = StaticStructure::default();
        let rep = lint_ddg(
            &p,
            &summary,
            &FoldedDdg::default(),
            &ContextInterner::new(),
            &s,
        );
        assert!(rep.ok());
    }
}
