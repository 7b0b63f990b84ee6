//! The feedback of one analysis does not depend on hash order. `lud` and
//! `streamcluster` each have a region where a skewed and an unskewed 2-deep
//! band tie; every `HashSet`/`HashMap` built during `compute` gets fresh
//! `RandomState` keys, so an order-dependent pick shows up as two different
//! reports within 32 calls.

use polyfeedback::{full_report, metrics, FeedbackInput};
use polyfold::fold_program;
use polysched::Analysis;

#[test]
fn region_verdicts_do_not_depend_on_hash_order() {
    for w in [rodinia::lud::build(), rodinia::streamcluster::build()] {
        let prog = &w.program;
        let (mut ddg, interner, structure) = fold_program(prog);
        ddg.remove_scevs();
        let analysis = Analysis::analyze(&ddg, &interner);
        let input = FeedbackInput {
            prog,
            ddg: &ddg,
            interner: &interner,
            structure: &structure,
            analysis: &analysis,
        };
        let render = || {
            let fb = metrics::compute(&input);
            let skews: Vec<bool> = fb.regions.iter().map(|r| r.skew).collect();
            (skews, full_report(&input, &fb))
        };
        let first = render();
        for _ in 1..32 {
            assert_eq!(
                render(),
                first,
                "{}: feedback changed between calls",
                w.name
            );
        }
        assert!(
            !first.0[0],
            "{}: the heaviest region needs no skew (paper Table 5: N)",
            w.name
        );
    }
}
