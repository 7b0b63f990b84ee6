//! Static affine dependence analysis (`polystatic::deps`).
//!
//! For the canonical counted nests [`crate::dataflow`] recognizes, this
//! module derives *exact affine access functions* in trip space — for a site
//! whose offset is linear over chain IVs, `addr(k) = base + Σ cᵈ·kᵈ` with
//! `0 ≤ kᵈ < tripsᵈ` — and decides dependence for affine pairs exactly with
//! `polylib`'s layered integer test (GCD → rational emptiness → bounded
//! integer witness). The resulting per-pair [`DepResult`] relations feed
//! three consumers:
//!
//! 1. **Access-level instrumentation pruning** — a base-pointer partition
//!    whose every site is affine with an exact domain (single block of a
//!    `runs_once` function, all-counted chain, block dominating every latch)
//!    needs no shadow tracking at run time: the profiler skips those sites
//!    ([`polyddg::prune::PruneMask::contains_mem`]) and this module
//!    re-synthesizes their exact `mem_access`/dependence streams afterwards
//!    ([`MemSynth`]), replaying the shadow-cell automaton over the static
//!    iteration domain so the folded DDG stays **byte-identical** to the
//!    unpruned run.
//! 2. **Lint v2** (`crate::lint`) — for every affine-proven pair the dynamic
//!    folded distance vectors must sit inside the static relation.
//! 3. **Schedule legality** (`crate::legality`) — `polysched` verdicts are
//!    re-verified against static carried-level refutations.
//!
//! Soundness invariants the pruning contract rests on:
//!
//! * partitions are address-disjoint by construction (interval sweep), so
//!   skipping a *fully-covered* partition can never perturb the shadow
//!   state any unpruned site observes;
//! * pruning is attempted only when **every** access site of the program
//!   has a known address interval (one ⊤ site aliases everything);
//! * a pruned site's statement id is recovered uniquely from the interner
//!   (`runs_once` ⇒ one context path), and a block that never executed
//!   interns no statement — then nothing is synthesized, exactly matching
//!   the dynamic run;
//! * the synthesized per-key event order equals the serial profiler's
//!   (lexicographic iteration order × instruction index), and folding is
//!   per-key, so the folded DDG is byte-identical.

use crate::dataflow::{loop_chain, DomTree, StaticSummary};
use crate::{classify_registers, eval_operand, Base, Sym};
use polycfg::loop_forest::{LoopForest, LoopIdx};
use polyddg::prune::PruneMask;
use polyddg::{DdgConfig, DepKind, FoldSink, MemSynth};
use polyiiv::context::{ContextInterner, StmtId};
use polyir::{BlockRef, FuncId, Instr, InstrRef, LocalBlockId, Program};
use polylib::{dependence_test, AccessFn, DepResult};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Integer-witness enumeration cap for [`dependence_test`] — domains with a
/// trip count above this fall back to `MaybeDependent` (sound).
const WITNESS_CAP: u64 = 512;

/// Upper bound on synthesized events per pruned partition
/// (`domain points × sites`): beyond this, pruning would trade a profiler
/// skip for an equally long synthesis loop, so the partition stays dynamic.
const SYNTH_CAP: u128 = 1 << 16;

/// One access site proven affine over its (all-counted) enclosing chain.
#[derive(Debug, Clone)]
pub struct AffineSite {
    /// The access instruction.
    pub instr: InstrRef,
    /// True for stores.
    pub is_write: bool,
    /// The block the site lives in.
    pub block: BlockRef,
    /// Access function in trip space, outermost dimension first
    /// (IV init/step already folded into base/coefficients).
    pub access: AccessFn,
    /// Exact per-dimension trip counts, outermost first.
    pub trips: Vec<u64>,
    /// True when the trip box is *exactly* the dynamic iteration domain:
    /// `runs_once` function, reachable block, every chain loop counted with
    /// known init/trips, and the block dominates every latch (no holes).
    pub exact_domain: bool,
}

/// One synthesizable partition: every site affine + exact, single block.
#[derive(Debug, Clone)]
struct SynthPart {
    /// Sites in instruction-index order (the within-iteration event order).
    sites: Vec<SynthSite>,
    /// Shared trip box, outermost first.
    trips: Vec<u64>,
}

#[derive(Debug, Clone)]
struct SynthSite {
    instr: InstrRef,
    is_write: bool,
    access: AccessFn,
}

/// Whole-program static dependence analysis: affine access functions,
/// per-pair dependence relations, and the access-level prune plan.
#[derive(Debug, Default)]
pub struct StaticDeps {
    /// Affine-proven access sites.
    pub sites: BTreeMap<InstrRef, AffineSite>,
    /// Exact/over-approximated dependence relations for ordered pairs of
    /// exact-domain affine sites sharing a block (at least one write).
    /// Key order is `(src, dst)` — the direction the folded dep points.
    pub pairs: BTreeMap<(InstrRef, InstrRef), DepResult>,
    /// Sites whose shadow tracking is pruned (fully-covered partitions).
    pub pruned_sites: BTreeSet<InstrRef>,
    /// Number of partitions proven prunable.
    pub prunable_partitions: u32,
    /// Did every access site of the program get an address interval?
    /// Pruning is unsound otherwise and `pruned_sites` stays empty.
    pub all_partitioned: bool,
    /// Total (static) access sites in the program.
    pub total_sites: usize,
    /// Synthesis plans, one per prunable partition.
    parts: Vec<SynthPart>,
}

/// Does block `b` execute exactly once per point of its loop chain's trip
/// box? `chain` is innermost-first. For *counted* chains (constant bounds,
/// hence invariant in every outer loop) two dominance facts suffice: `b`
/// dominates every back edge of its innermost loop (it runs on every
/// innermost iteration), and each loop's header dominates every back edge
/// of its direct parent (each completed outer iteration ran the inner loop
/// — exactly once, since a second entry per iteration would form a cycle,
/// i.e. another forest ancestor that would itself be in the chain).
fn exact_per_point(dom: &DomTree, forest: &LoopForest, chain: &[LoopIdx], b: LocalBlockId) -> bool {
    let dominates_latches = |x: LocalBlockId, l: LoopIdx| {
        forest
            .info(l)
            .back_edges
            .iter()
            .all(|&(src, _)| dom.dominates(x, src))
    };
    chain.iter().enumerate().all(|(i, &l)| match i {
        0 => dominates_latches(b, l),
        _ => dominates_latches(forest.info(chain[i - 1]).header, l),
    })
}

impl StaticDeps {
    /// Run the analysis on top of a completed [`StaticSummary`].
    pub fn analyze(prog: &Program, summary: &StaticSummary) -> StaticDeps {
        let mut out = StaticDeps::default();
        for (fi, f) in prog.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let fd = &summary.funcs[fi];
            let sym = classify_registers(f, &fd.forest);
            for (bi, b) in f.blocks.iter().enumerate() {
                let bid = LocalBlockId(bi as u32);
                let chain_in = loop_chain(&fd.forest, bid);
                // Outermost-first headers — the IIV dimension order.
                let headers: Vec<LocalBlockId> = chain_in
                    .iter()
                    .rev()
                    .map(|&l| fd.forest.info(l).header)
                    .collect();
                let dim_of: BTreeMap<LocalBlockId, usize> =
                    headers.iter().enumerate().map(|(d, &h)| (h, d)).collect();
                let counted_chain = headers.iter().all(|h| {
                    fd.counted
                        .get(h)
                        .is_some_and(|cl| cl.init.is_some() && cl.trips.is_some())
                });
                let exact_domain = fd.runs_once
                    && fd.dom.reachable(bid)
                    && counted_chain
                    && exact_per_point(&fd.dom, &fd.forest, &chain_in, bid);
                for (ii, ins) in b.instrs.iter().enumerate() {
                    let (base, offset, is_write) = match ins {
                        Instr::Load { base, offset, .. } => (base, offset, false),
                        Instr::Store { base, offset, .. } => (base, offset, true),
                        _ => continue,
                    };
                    out.total_sites += 1;
                    if !counted_chain {
                        continue;
                    }
                    let iref = InstrRef {
                        block: BlockRef::new(fid, bid.0),
                        idx: ii as u32,
                    };
                    let Sym::Const(b0) = eval_operand(base, &sym) else {
                        continue;
                    };
                    let (m, c) = match eval_operand(offset, &sym) {
                        Sym::Const(c) => (BTreeMap::new(), c),
                        Sym::Linear(m, c) => (m, c),
                        _ => continue,
                    };
                    let n = headers.len();
                    let mut base_total = b0 as i128 + c as i128;
                    let mut coeffs = vec![0i64; n];
                    let mut ok = true;
                    for (bse, &coeff) in &m {
                        let Base::Iv(h) = bse else {
                            ok = false;
                            break;
                        };
                        let Some(&d) = dim_of.get(h) else {
                            ok = false; // IV of a loop not enclosing this site
                            break;
                        };
                        let cl = &fd.counted[h];
                        // `counted_chain` checked init/trips above.
                        base_total += coeff as i128 * cl.init.unwrap() as i128;
                        match i64::try_from(coeff as i128 * cl.step as i128) {
                            Ok(ck) => coeffs[d] = ck,
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let trips: Vec<u64> = headers
                        .iter()
                        .map(|h| fd.counted[h].trips.unwrap())
                        .collect();
                    // Every address of the trip box must fit `i64`: the VM
                    // computes `base +w offset` with wrapping adds, so a
                    // non-overflowing closed form is what guarantees the
                    // synthesized addresses equal the dynamic ones.
                    let (mut lo, mut hi) = (base_total, base_total);
                    for (d, &ck) in coeffs.iter().enumerate() {
                        let span = ck as i128 * (trips[d].saturating_sub(1)) as i128;
                        lo += span.min(0);
                        hi += span.max(0);
                    }
                    if i64::try_from(lo).is_err() || i64::try_from(hi).is_err() {
                        continue;
                    }
                    let Ok(base_i64) = i64::try_from(base_total) else {
                        continue;
                    };
                    out.sites.insert(
                        iref,
                        AffineSite {
                            instr: iref,
                            is_write,
                            block: BlockRef::new(fid, bid.0),
                            access: AccessFn::new(coeffs, base_i64),
                            trips,
                            exact_domain,
                        },
                    );
                }
            }
        }
        out.all_partitioned = out.total_sites == summary.partitions.len();
        out.compute_pairs();
        out.plan_pruning(summary);
        out
    }

    /// Dependence relations for ordered pairs of exact-domain affine sites
    /// sharing a block — the pairs whose dynamic deps the lint can bound.
    fn compute_pairs(&mut self) {
        let mut by_block: BTreeMap<BlockRef, Vec<InstrRef>> = BTreeMap::new();
        for (&i, s) in &self.sites {
            if s.exact_domain {
                by_block.entry(s.block).or_default().push(i);
            }
        }
        for group in by_block.values() {
            for &a in group {
                for &b in group {
                    let (sa, sb) = (&self.sites[&a], &self.sites[&b]);
                    if !sa.is_write && !sb.is_write {
                        continue; // read-read pairs never produce deps
                    }
                    let r = dependence_test(&sa.access, &sb.access, &sa.trips, WITNESS_CAP);
                    self.pairs.insert((a, b), r);
                }
            }
        }
    }

    /// Decide which partitions are prunable and build their synthesis plans.
    fn plan_pruning(&mut self, summary: &StaticSummary) {
        if !self.all_partitioned {
            return; // a ⊤ site may alias every partition
        }
        let mut by_part: BTreeMap<u32, Vec<InstrRef>> = BTreeMap::new();
        for (&i, &p) in &summary.partitions {
            by_part.entry(p).or_default().push(i);
        }
        'parts: for sites in by_part.values() {
            let mut block = None;
            for &i in sites {
                let Some(s) = self.sites.get(&i) else {
                    continue 'parts; // non-affine member
                };
                if !s.exact_domain {
                    continue 'parts;
                }
                if *block.get_or_insert(s.block) != s.block {
                    continue 'parts; // multi-block partitions stay dynamic
                }
            }
            let first = &self.sites[&sites[0]];
            let points: u128 = first.trips.iter().map(|&t| t as u128).product();
            if points.saturating_mul(sites.len() as u128) > SYNTH_CAP {
                continue; // synthesis would cost more than it saves
            }
            // `sites` is ordered by `InstrRef` = instruction index here
            // (one block), which is the within-iteration event order.
            self.parts.push(SynthPart {
                sites: sites
                    .iter()
                    .map(|i| {
                        let s = &self.sites[i];
                        SynthSite {
                            instr: s.instr,
                            is_write: s.is_write,
                            access: s.access.clone(),
                        }
                    })
                    .collect(),
                trips: first.trips.clone(),
            });
            self.prunable_partitions += 1;
            self.pruned_sites.extend(sites.iter().copied());
        }
    }

    /// The combined prune mask: statement-level SCEV entries from `summary`
    /// plus this analysis' access-level entries.
    pub fn prune_mask(&self, prog: &Program, summary: &StaticSummary) -> Arc<PruneMask> {
        Arc::new(PruneMask::from_fns(
            prog,
            |i| summary.is_proven_scev(i),
            |i| self.pruned_sites.contains(&i),
        ))
    }

    /// Number of pairs decided exactly (independent or witnessed).
    pub fn pairs_exact(&self) -> usize {
        self.pairs.values().filter(|r| r.is_exact()).count()
    }

    /// Number of pairs proven independent.
    pub fn pairs_independent(&self) -> usize {
        self.pairs
            .values()
            .filter(|r| matches!(r, DepResult::Independent))
            .count()
    }

    /// Stable-keyed JSON summary (embedded in reports and bench artifacts).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sites_total\":{},\"sites_affine\":{},\"pairs_checked\":{},\
             \"pairs_exact\":{},\"pairs_independent\":{},\"pruned_sites\":{},\
             \"prunable_partitions\":{},\"all_partitioned\":{}}}",
            self.total_sites,
            self.sites.len(),
            self.pairs.len(),
            self.pairs_exact(),
            self.pairs_independent(),
            self.pruned_sites.len(),
            self.prunable_partitions,
            self.all_partitioned,
        )
    }
}

/// Shadow-cell replay state: last writer / last reader with their coords.
type Cell = (Option<(StmtId, Vec<i64>)>, Option<(StmtId, Vec<i64>)>);

impl MemSynth for StaticDeps {
    /// Re-emit every pruned partition's event streams in exact dynamic
    /// order: lexicographic trip points × instruction index, replaying the
    /// shadow-cell automaton (`DdgProfiler::mem`) over a local map. Honors
    /// `cfg.track_anti`/`track_output` the way the profiler does.
    fn synthesize(&self, interner: &ContextInterner, cfg: &DdgConfig, sink: &mut dyn FoldSink) {
        // Pruned sites intern exactly one statement (`runs_once`), or none
        // when their block never executed.
        let mut stmt_of: BTreeMap<InstrRef, StmtId> = BTreeMap::new();
        for (id, info) in interner.stmts() {
            if self.pruned_sites.contains(&info.instr) {
                let prev = stmt_of.insert(info.instr, id);
                debug_assert!(prev.is_none(), "pruned site interned twice");
            }
        }
        for part in &self.parts {
            let n = part.trips.len();
            if part.trips.contains(&0) {
                continue; // empty domain: the dynamic run emitted nothing
            }
            let ids: Vec<Option<StmtId>> = part
                .sites
                .iter()
                .map(|s| stmt_of.get(&s.instr).copied())
                .collect();
            if ids.iter().all(Option::is_none) {
                continue; // block never executed (caller not reached)
            }
            debug_assert!(
                ids.iter().all(Option::is_some),
                "partition sites share a block, so all or none must intern"
            );
            let ids: Vec<StmtId> = ids.into_iter().flatten().collect();
            if ids.len() != part.sites.len() {
                continue;
            }
            for (&stmt, site) in ids.iter().zip(&part.sites) {
                debug_assert_eq!(
                    interner.stmt_info(stmt).depth,
                    n + 1,
                    "site {:?}: static chain depth disagrees with dynamic IIV",
                    site.instr
                );
            }
            let mut cells: HashMap<i64, Cell> = HashMap::new();
            let mut k = vec![0i64; n];
            let mut coords = vec![0i64; n + 1]; // coords[0]: run-once root
            'points: loop {
                coords[1..].copy_from_slice(&k);
                for (site, &stmt) in part.sites.iter().zip(&ids) {
                    let addr = site.access.eval(&k);
                    let cell = cells.entry(addr).or_default();
                    if site.is_write {
                        let prev_write = cell.0.take();
                        let prev_read = cell.1.take();
                        cell.0 = Some((stmt, coords.clone()));
                        if cfg.track_output {
                            if let Some((ws, wc)) = &prev_write {
                                sink.dependence(DepKind::Output, *ws, wc, stmt, &coords);
                            }
                        }
                        if cfg.track_anti {
                            if let Some((rs, rc)) = &prev_read {
                                sink.dependence(DepKind::Anti, *rs, rc, stmt, &coords);
                            }
                        }
                    } else {
                        let prev = cell.0.clone();
                        if cfg.track_anti {
                            cell.1 = Some((stmt, coords.clone()));
                        }
                        if let Some((ws, wc)) = &prev {
                            sink.dependence(DepKind::Flow, *ws, wc, stmt, &coords);
                        }
                    }
                    sink.mem_access(stmt, &coords, addr as u64, site.is_write);
                }
                // Lexicographic odometer, innermost dimension fastest.
                let mut d = n;
                loop {
                    if d == 0 {
                        break 'points;
                    }
                    d -= 1;
                    k[d] += 1;
                    if (k[d] as u64) < part.trips[d] {
                        break;
                    }
                    k[d] = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycfg::StaticStructure;
    use polyfold::FoldingSink;
    use polyir::build::ProgramBuilder;

    /// store a[i] = i; load a[i] — one partition, fully affine.
    fn elementwise() -> Program {
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
        pb.finish()
    }

    /// Fold with optional access-level pruning + synthesis.
    fn fold(p: &Program, prune: bool) -> (polyfold::FoldedDdg, u64) {
        let mut rec = polycfg::StructureRecorder::new();
        polyvm::Vm::new(p).run(&[], &mut rec).unwrap();
        let structure = StaticStructure::analyze(p, rec);
        let summary = StaticSummary::analyze(p);
        let deps = StaticDeps::analyze(p, &summary);
        let mut prof = polyddg::DdgProfiler::new(p, &structure, FoldingSink::new());
        if prune {
            // Access-level bits only: statement-level SCEV pruning is an
            // orthogonal (non-identity-preserving) feature.
            prof.set_prune_mask(std::sync::Arc::new(PruneMask::from_fns(
                p,
                |_| false,
                |i| deps.pruned_sites.contains(&i),
            )));
        }
        polyvm::Vm::new(p).run(&[], &mut prof).unwrap();
        let pruned = prof.pruned_mem_events;
        let (mut sink, interner) = prof.finish();
        if prune {
            deps.synthesize(&interner, &DdgConfig::default(), &mut sink);
        }
        (sink.finalize(p, &interner), pruned)
    }

    #[test]
    fn elementwise_sites_and_pairs_are_affine() {
        let p = elementwise();
        let summary = StaticSummary::analyze(&p);
        let deps = StaticDeps::analyze(&p, &summary);
        assert_eq!(deps.total_sites, 2);
        assert_eq!(deps.sites.len(), 2, "{deps:?}");
        assert!(deps.all_partitioned);
        assert_eq!(deps.prunable_partitions, 1);
        assert_eq!(deps.pruned_sites.len(), 2);
        // store→load, load→store, store→store: 3 ordered pairs with a write.
        assert_eq!(deps.pairs.len(), 3);
        assert_eq!(deps.pairs_exact(), 3);
        // Same-cell pairs: distance pinned to zero on the loop dim.
        for r in deps.pairs.values() {
            let rel = r.relation().expect("same array: dependent");
            assert_eq!(rel.distance, vec![(Some(0), Some(0))]);
        }
    }

    #[test]
    fn synthesis_reproduces_folded_ddg_byte_identically() {
        let p = elementwise();
        let (plain, pruned0) = fold(&p, false);
        let (synth, pruned1) = fold(&p, true);
        assert_eq!(pruned0, 0);
        assert_eq!(pruned1, 16, "8 stores + 8 loads must be pruned");
        assert_eq!(plain.canonical_text(), synth.canonical_text());
    }

    #[test]
    fn carried_stencil_synthesis_is_byte_identical() {
        // a[i+1] = a[i] + 1: flow deps with distance 1 across iterations.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.alloc(32);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let prev = f.load(a as i64, i);
            let v = f.add(prev, 1i64);
            let i1 = f.add(i, 1i64);
            f.store(a as i64, i1, v);
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let (plain, _) = fold(&p, false);
        let (synth, pruned) = fold(&p, true);
        assert!(pruned > 0, "stencil sites must be pruned");
        assert_eq!(plain.canonical_text(), synth.canonical_text());
        // a[i+1] is written at iteration i and read at iteration i+1:
        // a loop-carried flow dep with distance exactly 1.
        assert!(synth
            .deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.delta.last() == Some(&(1, 1))));
    }

    #[test]
    fn unknown_site_blocks_all_pruning() {
        // An indirect access (unknown interval) must disable pruning even
        // for the well-behaved partition next to it.
        let mut pb = ProgramBuilder::new("t");
        let idx = pb.array_i64(&[3, 0, 7, 1, 6, 2, 5, 4]);
        let a = pb.alloc(16);
        let mut f = pb.func("main", 0);
        f.for_loop("L", 0i64, 8i64, 1, |f, i| {
            let k = f.load(idx as i64, i);
            f.load(a as i64, k); // ⊤ interval
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let summary = StaticSummary::analyze(&p);
        let deps = StaticDeps::analyze(&p, &summary);
        assert!(!deps.all_partitioned);
        assert!(deps.pruned_sites.is_empty());
        assert_eq!(deps.prunable_partitions, 0);
    }

    #[test]
    fn json_report_has_stable_keys() {
        let p = elementwise();
        let summary = StaticSummary::analyze(&p);
        let deps = StaticDeps::analyze(&p, &summary);
        let j = deps.to_json();
        for key in [
            "\"sites_total\":2",
            "\"sites_affine\":2",
            "\"pairs_checked\":3",
            "\"prunable_partitions\":1",
            "\"all_partitioned\":true",
        ] {
            assert!(j.contains(key), "{j}");
        }
    }
}
