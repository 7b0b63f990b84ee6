//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. **SCEV removal** (§5) — without it, induction-variable chains
//!    serialize every loop;
//! 2. **carried-class splitting** (union-of-relations dependence folding) —
//!    without it, piecewise-affine dependences collapse into one
//!    over-approximated relation and wavefront codes lose their structure.
//!
//! Prints `%||ops`, `%simdops` and tile depth for representative workloads
//! under each configuration.

use polyfold::pass2::{self, Live, Pass2, Source};
use polyfold::FoldOptions;
use polyprof_bench::pct;
use polysched::Analysis;

struct Config {
    name: &'static str,
    split_classes: bool,
    remove_scevs: bool,
}

fn run(prog: &polyir::Program, cfg: &Config) -> (f64, f64, usize) {
    let knobs = Pass2 {
        options: FoldOptions {
            split_classes: cfg.split_classes,
            ..Default::default()
        },
        ..Pass2::default()
    };
    let out = pass2::run(prog, &Source::Live(Live::default()), &knobs).unwrap();
    let (mut ddg, interner) = (out.ddg, out.interner);
    if cfg.remove_scevs {
        ddg.remove_scevs();
    }
    let analysis = Analysis::analyze(&ddg, &interner);
    let fr = analysis.op_fractions(&ddg);
    (fr.parallel, fr.simd, analysis.max_tile_depth(&ddg))
}

/// Synthetic memory-scalar reduction `m[0] += a[i][j]` over a 2-D nest:
/// the SAME store→load statement pair carries dependences at BOTH loop
/// levels (distance (0,1) within a row, (1,1−m) across rows). Folding the
/// two classes into one relation masks the inner carried level and wrongly
/// reports the inner loop parallel — the soundness case for the split.
fn memreduce() -> rodinia::Workload {
    use polyir::build::ProgramBuilder;
    let n = 10i64;
    let mut pb = ProgramBuilder::new("memreduce2d");
    let a = pb.array_f64(&(0..n * n).map(|i| (i % 7) as f64).collect::<Vec<_>>());
    let acc = pb.alloc(1);
    let mut f = pb.func("main", 0);
    f.for_loop("Li", 0i64, n, 1, |f, i| {
        f.for_loop("Lj", 0i64, n, 1, |f, j| {
            let row = f.mul(i, n);
            let idx = f.add(row, j);
            let v = f.load(a as i64, idx);
            let t = f.load(acc as i64, 0i64);
            let s = f.fadd(t, v);
            f.store(acc as i64, 0i64, s);
        });
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    rodinia::Workload {
        name: "memreduce2d",
        program: pb.finish(),
        description: "synthetic 2-D memory reduction",
        paper: rodinia::PaperRow {
            pct_aff: 1.0,
            polly_reasons: "-",
            skew: false,
            pct_parallel: 0.0,
            pct_simd: 0.0,
            ld_src: 2,
            ld_bin: 2,
            tile_d: 2,
            interproc: false,
        },
    }
}

fn main() {
    let configs = [
        Config {
            name: "full pipeline",
            split_classes: true,
            remove_scevs: true,
        },
        Config {
            name: "no class split",
            split_classes: false,
            remove_scevs: true,
        },
        Config {
            name: "no SCEV removal",
            split_classes: true,
            remove_scevs: false,
        },
        Config {
            name: "neither",
            split_classes: false,
            remove_scevs: false,
        },
    ];
    let workloads = [
        rodinia::backprop::build(),
        rodinia::hotspot::build(),
        rodinia::nw::build(),
        rodinia::pathfinder::build(),
        rodinia::gemsfdtd::build(),
        memreduce(),
    ];
    println!("=== ablation: SCEV removal × carried-class splitting ===\n");
    println!(
        "{:<14} {:<18} {:>8} {:>10} {:>7}",
        "workload", "config", "%||ops", "%simdops", "TileD"
    );
    // Fan the full (workload × config) grid across threads, then print
    // serially in grid order.
    let jobs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..configs.len()).map(move |ci| (wi, ci)))
        .collect();
    let results = polyprof_core::profile_all_with(&jobs, |&(wi, ci)| {
        run(&workloads[wi].program, &configs[ci])
    });
    for (wi, w) in workloads.iter().enumerate() {
        for (ci, cfg) in configs.iter().enumerate() {
            let (par, simd, tile) = results[wi * configs.len() + ci];
            println!(
                "{:<14} {:<18} {:>8} {:>10} {:>6}D",
                w.name,
                cfg.name,
                pct(par),
                pct(simd),
                tile
            );
        }
        println!();
    }
    println!(
        "Expected shape: the full pipeline dominates; dropping SCEV removal\n\
         drives %||ops toward 0 everywhere (induction chains serialize).\n\
         Dropping the class split is a SOUNDNESS ablation: on memreduce2d the\n\
         same statement pair carries dependences at both levels, and the\n\
         merged relation masks the inner carried level — %||ops goes UP\n\
         (wrongly), which is why the split is on by default."
    );
}
