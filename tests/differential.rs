//! Differential tests for the stage-2 hot path: the production
//! [`polyddg::DdgProfiler`] — interned coordinates, one shadow cell per
//! word, and the loop-body run detector in front of its sink — must be
//! observationally identical to the retained pre-optimization
//! implementation in [`polyddg::baseline`], which has no detector: the same
//! event streams (points, accesses, dependences, in order, each run spelled
//! out by `CollectSink`'s default `body_run`) and the same folded DDG. The
//! inputs are randomized elementwise kernels, in-place stencils and deep
//! (arena-spilling) nests, the 23 programs of the benchmark's suite, and
//! small instances of its two generators, compiled in from
//! `perf_ledger/src/workloads.rs` (their own unit tests come along and run
//! here too).

mod common;

#[allow(dead_code)]
#[path = "../perf_ledger/src/workloads.rs"]
mod workloads;

use common::{canon, deep_nest, elementwise, stencil};
use polyir::Program;
use polyprof_core::polyddg::{self, baseline, CollectSink};
use polyprof_core::polyfold::{FoldedDdg, FoldingSink};
use polyprof_core::{polycfg, polyvm};
use proptest::prelude::*;

/// Pass 1 over `prog`.
fn structure(prog: &Program) -> polycfg::StaticStructure {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
    polycfg::StaticStructure::analyze(prog, rec)
}

/// The production profiler's stream, and the runs its detector formed.
fn collect_production(prog: &Program) -> (CollectSink, u64) {
    let structure = structure(prog);
    let mut prof = polyddg::DdgProfiler::new(prog, &structure, CollectSink::default());
    polyvm::Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    let runs = prof.body_runs();
    (prof.finish().0, runs)
}

/// Fold through the production (interned) profiler.
fn fold_production(prog: &Program) -> FoldedDdg {
    let structure = structure(prog);
    let mut prof = polyddg::DdgProfiler::new(prog, &structure, FoldingSink::new());
    polyvm::Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    let (sink, interner) = prof.finish();
    sink.finalize(prog, &interner)
}

/// Fold through the retained naive profiler.
fn fold_naive(prog: &Program) -> FoldedDdg {
    let structure = structure(prog);
    let mut prof = baseline::NaiveDdgProfiler::new(prog, &structure, FoldingSink::new());
    polyvm::Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    let (sink, interner) = prof.finish();
    sink.finalize(prog, &interner)
}

/// Byte-identical raw streams AND identical folded DDGs; returns the
/// `body_run` calls the production stream was made of.
fn assert_identical(prog: &Program) -> Result<u64, String> {
    let (fast, runs) = collect_production(prog);
    let (slow, _, _) = baseline::profile_collected_naive(prog);
    prop_assert_eq!(&fast.points, &slow.points);
    prop_assert_eq!(&fast.accesses, &slow.accesses);
    prop_assert_eq!(&fast.deps, &slow.deps);

    let f = canon(&fold_production(prog));
    let n = canon(&fold_naive(prog));
    prop_assert_eq!(&f.0, &n.0, "folded statements differ");
    prop_assert_eq!(&f.1, &n.1, "folded dependences differ");
    prop_assert_eq!(&f.2, &n.2, "folded accesses differ");
    Ok(runs)
}

proptest! {
    #[test]
    fn elementwise_matches_naive(n in 4i64..12, k in -3i64..4) {
        assert_identical(&elementwise(n, k))?;
    }

    #[test]
    fn stencil_matches_naive(n in 5i64..12, t in 1i64..4) {
        assert_identical(&stencil(n, t))?;
    }

    #[test]
    fn deep_nest_matches_naive(s in 2i64..4) {
        assert_identical(&deep_nest(s))?;
    }
}

/// The suite's 23 programs and both generators, event for event: the
/// detector holds back most of the dense program and some of the others,
/// and everything it held reaches the sink in order.
#[test]
fn suite_and_generators_match_naive_through_runs() {
    let check = |name: &str, prog: &Program| {
        assert_identical(prog).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let suite = workloads::suite_backend();
    assert_eq!(suite.len(), 23, "the suite_backend program set");
    let mut suite_runs = 0;
    for (case, _) in &suite {
        suite_runs += check(&case.name, &case.program);
    }
    assert!(suite_runs > 23, "the suite formed {suite_runs} runs");
    let dense = workloads::dense_affine(1, 24, 24);
    let irregular = workloads::irregular_pointer(1, workloads::IrregularSize::divided(64));
    for case in [dense, irregular] {
        let runs = check(&case.name, &case.program);
        assert!(runs > 0, "{}: no run formed", case.name);
    }
}
