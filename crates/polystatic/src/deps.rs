//! Static affine dependence analysis (`polystatic::deps`).
//!
//! For the canonical counted nests [`crate::dataflow`] recognizes, this
//! module derives *exact affine access functions* in trip space — for a site
//! whose offset is linear over chain IVs, `addr(k) = base + Σ cᵈ·kᵈ` with
//! `0 ≤ kᵈ < tripsᵈ` — and decides dependence for affine pairs exactly with
//! `polylib`'s layered integer test (GCD → rational emptiness → bounded
//! integer witness). The resulting per-pair [`DepResult`] relations are
//! oracles for the dynamic profile, sharing no code with pass 2:
//!
//! 1. **Lint v2** (`crate::lint`) — for every affine-proven pair the dynamic
//!    folded distance vectors must sit inside the static relation.
//! 2. **Schedule legality** (`crate::legality`) — `polysched` verdicts are
//!    re-verified against static carried-level refutations.

use crate::dataflow::{loop_chain, DomTree, StaticSummary};
use crate::{classify_registers, eval_operand, Base, Sym};
use polycfg::loop_forest::{LoopForest, LoopIdx};
use polyir::{BlockRef, FuncId, Instr, InstrRef, LocalBlockId, Program};
use polylib::{dependence_test, AccessFn, DepResult};
use std::collections::BTreeMap;

/// Integer-witness enumeration cap for [`dependence_test`] — domains with a
/// trip count above this fall back to `MaybeDependent` (sound).
const WITNESS_CAP: u64 = 512;

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

/// Whole-program static dependence analysis: affine access functions and
/// per-pair dependence relations.
#[derive(Debug, Default)]
pub struct StaticDeps {
    /// Affine-proven access sites.
    pub sites: BTreeMap<InstrRef, AffineSite>,
    /// Exact/over-approximated dependence relations for ordered pairs of
    /// exact-domain affine sites sharing a block (at least one write).
    /// Key order is `(src, dst)` — the direction the folded dep points.
    pub pairs: BTreeMap<(InstrRef, InstrRef), DepResult>,
    /// Total (static) access sites in the program.
    pub total_sites: usize,
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
                    // static addresses equal the dynamic ones.
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
        out.compute_pairs();
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
             \"pairs_exact\":{},\"pairs_independent\":{}}}",
            self.total_sites,
            self.sites.len(),
            self.pairs.len(),
            self.pairs_exact(),
            self.pairs_independent(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyddg::DepKind;
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

    #[test]
    fn elementwise_sites_and_pairs_are_affine() {
        let p = elementwise();
        let summary = StaticSummary::analyze(&p);
        let deps = StaticDeps::analyze(&p, &summary);
        assert_eq!(deps.total_sites, 2);
        assert_eq!(deps.sites.len(), 2, "{deps:?}");
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
    fn carried_stencil_folds_a_distance_one_flow() {
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
        let (ddg, _, _) = polyfold::fold_program(&p);
        // a[i+1] is written at iteration i and read at iteration i+1:
        // a loop-carried flow dep with distance exactly 1.
        assert!(ddg
            .deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.delta.last() == Some(&(1, 1))));
    }

    #[test]
    fn unknown_site_has_no_partition() {
        // An indirect access has no address interval (⊤): it belongs to no
        // partition, while its well-behaved neighbour does.
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
        assert_eq!(deps.total_sites, 2);
        assert_eq!(summary.partitions.len(), 1, "{:?}", summary.partitions);
        let (&known, _) = summary.partitions.iter().next().unwrap();
        assert!(
            matches!(p.instr(known), Instr::Load { base: polyir::Operand::ImmI(b), .. } if *b == idx as i64),
            "the partitioned site must be the `idx[i]` load, not {:?}",
            p.instr(known)
        );
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
            "\"pairs_exact\":3",
        ] {
            assert!(j.contains(key), "{j}");
        }
    }
}
