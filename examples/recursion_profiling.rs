//! Recursion profiling (paper §3.2/§4, Fig. 3 Ex. 2): shows how the
//! recursive-component machinery folds arbitrarily deep recursion into a
//! single IIV dimension, where a calling-context tree grows linearly.
//!
//! ```sh
//! cargo run -p polyprof-core --example recursion_profiling
//! ```

use polyprof_core::polycfg::StaticStructure;
use polyprof_core::polyiiv::cct::Cct;
use polyprof_core::polyvm::Vm;
use polyprof_core::profile;

fn main() {
    for depth in [4i64, 16, 64] {
        let prog = rodinia::paper_examples::fig3_example2(depth);

        // Classic CCT: depth grows with the recursion.
        let structure = StaticStructure::record(&prog).unwrap();
        let mut cct = Cct::new(prog.entry.unwrap());
        Vm::new(&prog).run(&[], &mut cct).unwrap();

        // Poly-Prof: the recursive component folds into one dimension.
        let comp = &structure.rcs.components;
        let report = profile(&prog);
        let max_stmt_depth = report
            .feedback
            .regions
            .iter()
            .map(|r| r.loop_depth)
            .max()
            .unwrap_or(0);

        println!("recursion depth {depth:>3}:");
        println!(
            "  calling-context-tree max depth : {:>4}  (grows with recursion)",
            cct.max_depth()
        );
        println!(
            "  recursive components           : {:>4}  (headers: {:?})",
            comp.len(),
            comp.iter().map(|c| c.headers.len()).collect::<Vec<_>>()
        );
        println!(
            "  IIV loop depth of hot region   : {:>4}  (constant — recursion folded)",
            max_stmt_depth
        );
        let (stmts, deps, ops) = report.folded_stats;
        println!("  folded DDG                     : {ops} ops → {stmts} stmts, {deps} deps\n");
    }
    println!(
        "The dynamic IIV advances its induction variable on recursive calls AND \
         returns (paper Fig. 3i steps 10–21), so the representation depth never \
         grows with the call stack."
    );
}
