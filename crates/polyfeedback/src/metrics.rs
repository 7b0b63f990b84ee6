//! Region metrics: the quantities of the paper's Tables 3–5, computed from
//! the folded DDG and the scheduler analysis.

use crate::FeedbackInput;
use polyfold::LabelFold;
use polyiiv::context::StmtId;
use polyiiv::CtxElem;
use polylib::Rat;
use polysched::FusionHeuristic;
use std::collections::HashSet;

/// Feedback for one region (a top-level loop nest).
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Nest-forest node id of the region.
    pub nest: usize,
    /// `file:line` attribution of the region's outermost loop.
    pub name: String,
    /// Dynamic operations in the region (post-SCEV statements).
    pub ops: u64,
    /// Fraction of whole-program dynamic ops spent here.
    pub pct_ops: f64,
    /// Fraction of the region's ops that are memory accesses.
    pub pct_mops: f64,
    /// Fraction of the region's ops that are floating-point.
    pub pct_fpops: f64,
    /// Spans multiple functions (calls inside the nest).
    pub interproc: bool,
    /// Skewing needed for the proposed transformation.
    pub skew: bool,
    /// `%||ops` within the region.
    pub pct_parallel: f64,
    /// `%simdops` within the region.
    pub pct_simd: f64,
    /// `%reuse`: accesses stride-0/1 along current innermost loops.
    pub pct_reuse: f64,
    /// `%Preuse`: best achievable via permutations of permutable bands.
    pub pct_preuse: f64,
    /// Maximal permutable band size (tiling depth).
    pub tile_depth: usize,
    /// `%Tilops` within the region.
    pub pct_tilops: f64,
    /// Maximum loop depth inside the region (binary-level).
    pub loop_depth: usize,
    /// Whether the outermost loop is parallel (in place).
    pub outer_parallel: bool,
    /// Human-readable suggested transformation sequence.
    pub suggestions: Vec<String>,
}

/// Whole-program feedback.
#[derive(Debug, Clone)]
pub struct ProgramFeedback {
    /// Program name.
    pub name: String,
    /// All dynamic operations, including SCEV overhead ("#inst bin").
    pub total_ops: u64,
    /// Dynamic operations excluding SCEV/control overhead ("#inst src").
    pub src_ops: u64,
    /// `%Aff`: fraction of ops in exactly-folded affine statements.
    pub pct_aff: f64,
    /// Maximum interprocedural loop depth observed ("ld-bin").
    pub ld_bin: usize,
    /// Top-level components with ≥5% of ops (`C`).
    pub components: usize,
    /// Components after smartfuse (`Comp.`).
    pub components_smartfuse: usize,
    /// Components after maxfuse.
    pub components_maxfuse: usize,
    /// Regions, heaviest first.
    pub regions: Vec<RegionReport>,
}

/// Is `|stride| ≤ 1` (stride-0 or stride-1, either direction)?
fn unit_stride(s: Rat) -> bool {
    s == Rat::ZERO || s == Rat::ONE || s == -Rat::ONE
}

/// Compute the full feedback.
pub fn compute(input: &FeedbackInput<'_>) -> ProgramFeedback {
    let a = input.analysis;
    let ddg = input.ddg;
    let forest = &a.forest;

    let scev_removed: u64 = ddg.stmts.values().map(|s| s.domain.count).sum();
    let total_ops = ddg.total_ops;
    let src_ops = scev_removed;

    let (c, smart) = a.fusion_components(forest.root(), 0.05, FusionHeuristic::Smart);
    let (_, maxf) = a.fusion_components(forest.root(), 0.05, FusionHeuristic::Max);

    let mut regions: Vec<RegionReport> = forest
        .top_nests()
        .into_iter()
        .map(|n| region_report(input, n))
        .collect();
    regions.sort_by_key(|r| std::cmp::Reverse(r.ops));

    ProgramFeedback {
        name: input.prog.name.clone(),
        total_ops,
        src_ops,
        pct_aff: ddg.affine_fraction(),
        ld_bin: forest.max_loop_depth(),
        components: c,
        components_smartfuse: smart,
        components_maxfuse: maxf,
        regions,
    }
}

fn region_report(input: &FeedbackInput<'_>, nest: usize) -> RegionReport {
    let a = input.analysis;
    let ddg = input.ddg;
    let forest = &a.forest;
    let node = forest.node(nest);
    let stmts: HashSet<StmtId> = node.all_stmts.iter().copied().collect();
    let ops = node.ops.max(1);

    // Region name from the loop's context element (header block src info).
    let name = match node.label {
        Some(CtxElem::Loop(polycfg::LoopRef::Cfg(f, l))) => {
            let func = input.prog.func(f);
            let header = input.structure.forest(f).info(l).header;
            format!("{}:{}", func.src_file, func.block(header).src_line)
        }
        Some(CtxElem::Loop(polycfg::LoopRef::Rec(_))) => "recursive-component".into(),
        _ => input.prog.name.clone(),
    };

    // Interprocedural: statements from more than one function.
    let funcs: HashSet<_> = stmts
        .iter()
        .map(|s| input.interner.stmt_info(*s).instr.block.func)
        .collect();
    let interproc = funcs.len() > 1;

    // %Mops / %FPops weighted by dynamic counts.
    let mut mops = 0u64;
    let mut fpops = 0u64;
    for s in &stmts {
        let w = ddg.stmts[s].domain.count;
        let ins = input.prog.instr(input.interner.stmt_info(*s).instr);
        if ins.is_mem() {
            mops += w;
        }
        if ins.is_fp() {
            fpops += w;
        }
    }

    // %||ops, %simdops, %Tilops restricted to the region.
    let mut par = 0u64;
    let mut simd = 0u64;
    let mut til = 0u64;
    let mut best_band = polysched::Band {
        start: 1,
        len: 0,
        skewed: false,
    };
    // `all_stmts` is in statement order, so the reported band does not
    // depend on hash order. On a tie in length the unskewed band wins: skew
    // only when it buys a longer band (as `stmt_tile_band` does per
    // statement).
    for s in &node.all_stmts {
        let w = ddg.stmts[s].domain.count;
        if a.stmt_parallelizable(*s) {
            par += w;
        }
        if a.stmt_simdizable(*s) {
            simd += w;
        }
        let band = a.stmt_tile_band(*s);
        if band.len >= 2 {
            til += w;
        }
        let unskews_tie = band.len == best_band.len && best_band.skewed && !band.skewed;
        if band.len > best_band.len || unskews_tie {
            best_band = band;
        }
    }

    // Reuse metrics from folded access functions.
    let (reuse, preuse, mem_total) = reuse_metrics(input, &stmts);

    // Suggestions.
    let outer_parallel = a.node[nest].parallel;
    let mut suggestions = Vec::new();
    // Find whether permuting improves reuse → interchange.
    if preuse > reuse + 0.05 {
        suggestions.push("interchange (move the stride-0/1 dimension innermost)".into());
    }
    if best_band.skewed {
        suggestions.push("skew the nest to enable the permutable band".into());
    }
    if best_band.len >= 2 {
        suggestions.push(format!(
            "tile the {}-deep permutable band (e.g. tile size 32)",
            best_band.len
        ));
    }
    if outer_parallel {
        suggestions.push("omp parallel for on the outermost loop".into());
    } else if best_band.len >= 2 {
        suggestions.push("wavefront-parallelize the tiled bands".into());
    }
    if simd as f64 / ops as f64 > 0.3 {
        suggestions.push("SIMDize the (possibly interchanged) innermost loop".into());
    }

    // Max loop depth inside the region.
    let loop_depth = stmts
        .iter()
        .map(|s| forest.chain_of[s].len().saturating_sub(1))
        .max()
        .unwrap_or(0);

    let total_prog_ops = forest.node(forest.root()).ops.max(1);
    RegionReport {
        nest,
        name,
        ops: node.ops,
        pct_ops: node.ops as f64 / total_prog_ops as f64,
        pct_mops: mops as f64 / ops as f64,
        pct_fpops: fpops as f64 / ops as f64,
        interproc,
        skew: best_band.skewed,
        pct_parallel: par as f64 / ops as f64,
        pct_simd: simd as f64 / ops as f64,
        pct_reuse: if mem_total == 0 { 0.0 } else { reuse },
        pct_preuse: if mem_total == 0 { 0.0 } else { preuse },
        tile_depth: best_band.len,
        pct_tilops: til as f64 / ops as f64,
        loop_depth,
        outer_parallel,
        suggestions,
    }
}

/// (%reuse, %Preuse, total access ops) for the statements of one region.
fn reuse_metrics(input: &FeedbackInput<'_>, stmts: &HashSet<StmtId>) -> (f64, f64, u64) {
    let a = input.analysis;
    let ddg = input.ddg;
    let mut total = 0u64;
    let mut reuse = 0u64;
    let mut preuse = 0u64;
    for (s, acc) in &ddg.accesses {
        if !stmts.contains(s) {
            continue;
        }
        let w = acc.domain.count;
        total += w;
        let chain = &a.forest.chain_of[s];
        if chain.len() <= 1 {
            // not in a loop: a single access is trivially "stride 0"
            reuse += w;
            preuse += w;
            continue;
        }
        let innermost_dim = chain.len() - 1;
        // Non-affine accesses carry no (provable) spatial reuse.
        if let LabelFold::Affine(_) = &acc.addr {
            if acc.stride(innermost_dim).map(unit_stride).unwrap_or(false) {
                reuse += w;
            }
            // Permutations may move any dim of the innermost permutable
            // band innermost.
            let loops = &chain[1..];
            let band = a.innermost_band(loops);
            let candidates = band.start..band.start + band.len;
            if candidates
                .clone()
                .any(|d| acc.stride(d).map(unit_stride).unwrap_or(false))
            {
                preuse += w;
            }
        }
    }
    if total == 0 {
        (0.0, 0.0, 0)
    } else {
        (
            reuse as f64 / total as f64,
            preuse as f64 / total as f64,
            total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_classification() {
        assert!(unit_stride(Rat::ZERO));
        assert!(unit_stride(Rat::ONE));
        assert!(unit_stride(-Rat::ONE));
        assert!(!unit_stride(Rat::int(2)));
        assert!(!unit_stride(Rat::new(1, 2)));
    }
}
