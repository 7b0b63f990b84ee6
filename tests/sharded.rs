//! Differential tests for the sharded folding pipeline: a pipelined run —
//! event generation and shadow resolution on the calling thread, K folding
//! shards on threads of their own — must produce *byte-identical* folded
//! DDGs and reports to the serial path, for every shard count, on randomized elementwise,
//! stencil, and deep-nest (arena-spilling) traces.
//!
//! Why this must hold: every folding key (statement id; `(kind, src, dst,
//! class)` for dependences, routed by consumer id) lives wholly in one
//! shard, the single-producer FIFO channels preserve the serial event order
//! per shard, and the merge sorts dependences by their full — unique — key.
//! So per-key folder state is identical and merge order is irrelevant.

mod common;

use common::{canon, deep_nest, elementwise, stencil};
use polyir::Program;
use polyprof_core::polycfg::{StaticStructure, StructureRecorder};
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source, Target};
use polyprof_core::polyfold::{self, FoldedDdg};
use polyprof_core::{profile_with, ProfileConfig};
use proptest::prelude::*;

fn fold_inline(prog: &Program) -> FoldedDdg {
    polyfold::fold_program(prog).0
}

/// Pass 1, then a fault-free pass 2 on fold workers under `cfg`.
fn fold_pipelined(prog: &Program, cfg: &Pass2) -> FoldedDdg {
    let mut rec = StructureRecorder::new();
    polyprof_core::polyvm::Vm::new(prog)
        .run(&[], &mut rec)
        .expect("pass 1");
    let structure = StaticStructure::analyze(prog, rec);
    pass2::run(prog, &Source::Live(Live::new(&structure)), cfg)
        .expect("fault-free pipelined fold")
        .ddg
}

fn fold_sharded(prog: &Program, k: usize, chunk_events: usize) -> FoldedDdg {
    let cfg = Pass2 {
        target: Target::workers(k),
        chunk_events,
        ..Default::default()
    };
    fold_pipelined(prog, &cfg)
}

/// Canonical renderings must match byte-for-byte at K ∈ {1, 2, 8}. Chunks
/// are kept tiny so every trace crosses many flush boundaries.
fn assert_parity(prog: &Program) -> Result<(), String> {
    let serial = canon(&fold_inline(prog));
    for k in [1usize, 2, 8] {
        let sharded = canon(&fold_sharded(prog, k, 64));
        prop_assert_eq!(&serial.0, &sharded.0, "folded statements differ at K={}", k);
        prop_assert_eq!(
            &serial.1,
            &sharded.1,
            "folded dependences differ at K={}",
            k
        );
        prop_assert_eq!(&serial.2, &sharded.2, "folded accesses differ at K={}", k);
    }
    Ok(())
}

proptest! {
    #[test]
    fn elementwise_sharded_parity(n in 4i64..12, k in -3i64..4) {
        assert_parity(&elementwise(n, k))?;
    }

    #[test]
    fn stencil_sharded_parity(n in 5i64..12, t in 1i64..4) {
        assert_parity(&stencil(n, t))?;
    }

    #[test]
    fn deep_nest_sharded_parity(s in 2i64..4) {
        assert_parity(&deep_nest(s))?;
    }
}

/// End-to-end report parity on a real workload: `profile_with` at 4 folding
/// threads must reproduce the serial report — folded stats, SCEV removal,
/// every table metric, and the annotated AST. (`full_text` is excluded for
/// the same reason as in `profile_all_matches_serial`: hash-map iteration
/// order varies between map *instances* even for identical contents.)
///
/// The same must hold under a 1-byte memory budget at 2 threads: pressure
/// latches on the very first charge, so every folder is coarse from its
/// first event whatever the thread timing, and workers fold budgeted sinks
/// exactly as the serial driver does — same over-approximated statement
/// count, same canonical DDG.
#[test]
fn report_matches_serial_on_rodinia() {
    let workloads = [rodinia::backprop::build(), rodinia::pathfinder::build()];
    let plain = ProfileConfig::new().with_canonical(true);
    let cases = [(plain.clone(), 4), (plain.with_memory_budget(1), 2)];
    for w in &workloads {
        for (base, k) in &cases {
            let serial = profile_with(&w.program, base);
            let piped = profile_with(
                &w.program,
                &base.clone().with_fold_threads(*k).with_chunk_events(256),
            );
            let coarse = serial.degradation.budget_overapprox_stmts;
            assert_eq!(coarse > 0, base.memory_budget.is_some());
            assert_eq!(piped.degradation.budget_overapprox_stmts, coarse);
            assert_eq!(piped.canonical_ddg, serial.canonical_ddg);
            assert_eq!(piped.folded_stats, serial.folded_stats);
            assert_eq!(piped.scev_removed, serial.scev_removed);
            assert_eq!(piped.feedback.pct_aff, serial.feedback.pct_aff);
            assert_eq!(piped.feedback.regions.len(), serial.feedback.regions.len());
            for (p, s) in piped.feedback.regions.iter().zip(&serial.feedback.regions) {
                assert_eq!(p.pct_parallel, s.pct_parallel);
                assert_eq!(p.pct_simd, s.pct_simd);
            }
            assert_eq!(piped.annotated_ast, serial.annotated_ast);
        }
    }
}

/// The carried-class split (union-of-relations folding) must survive
/// sharding with non-default options too.
#[test]
fn sharded_parity_without_class_split() {
    let prog = stencil(10, 3);
    let options = polyfold::FoldOptions {
        split_classes: false,
        ..Default::default()
    };
    let serial = {
        let mut rec = polyprof_core::polycfg::StructureRecorder::new();
        polyprof_core::polyvm::Vm::new(&prog)
            .run(&[], &mut rec)
            .expect("pass 1");
        let structure = polyprof_core::polycfg::StaticStructure::analyze(&prog, rec);
        let mut prof = polyprof_core::polyddg::DdgProfiler::new(
            &prog,
            &structure,
            polyfold::FoldingSink::with_options(options),
        );
        polyprof_core::polyvm::Vm::new(&prog)
            .run(&[], &mut prof)
            .expect("pass 2");
        let (sink, interner) = prof.finish();
        sink.finalize(&prog, &interner)
    };
    let cfg = Pass2 {
        target: Target::workers(3),
        chunk_events: 32,
        options,
        ..Default::default()
    };
    let sharded = fold_pipelined(&prog, &cfg);
    assert_eq!(canon(&serial), canon(&sharded));
}
