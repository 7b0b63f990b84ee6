//! Regenerates **Figure 3**: for Ex. 1 (interprocedural nesting) and Ex. 2
//! (recursion), print the trace of loop events with the dynamic IIV after
//! each step (panels d/i), and the folded statement domains (panel k).

use polycfg::{LoopEvent, LoopEventGen, StaticStructure};
use polyiiv::IivTracker;
use polyir::{BlockRef, FuncId, Program};
use polyprof_bench::ctx_namer;
use polyvm::{EventSink, Vm};

/// Prints a Fig. 3d/3i-style table row per control event.
struct TracePrinter<'p> {
    gen: LoopEventGen<'p>,
    iiv: IivTracker,
    prog: &'p Program,
    structure: &'p StaticStructure,
    step: usize,
    buf: Vec<LoopEvent>,
}

impl<'p> TracePrinter<'p> {
    fn new(prog: &'p Program, structure: &'p StaticStructure) -> Self {
        let entry = prog.entry.unwrap();
        TracePrinter {
            gen: LoopEventGen::new(structure),
            iiv: IivTracker::new(BlockRef {
                func: entry,
                block: prog.func(entry).entry(),
            }),
            prog,
            structure,
            step: 0,
            buf: Vec::new(),
        }
    }

    fn flush(&mut self) {
        let namer = ctx_namer(self.prog, self.structure);
        for ev in self.buf.drain(..).collect::<Vec<_>>() {
            self.iiv.apply(&ev);
            self.step += 1;
            let evs = match ev {
                LoopEvent::Enter { block, .. } => {
                    format!("E(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::EnterRec { block, .. } => {
                    format!("Ec(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::Iter { block, .. } => {
                    format!("I(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::IterCall { block, .. } => {
                    format!("Ic(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::IterRet { block, .. } => {
                    format!("Ir(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::Exit { block, .. } => {
                    format!("X(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::ExitRec { block, .. } => {
                    format!("Xr(L, {})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::Block(b) => format!("N({})", namer(&polyiiv::CtxElem::Block(b))),
                LoopEvent::Call { block, .. } => {
                    format!("C({})", namer(&polyiiv::CtxElem::Block(block)))
                }
                LoopEvent::Ret(b) => format!("R({})", namer(&polyiiv::CtxElem::Block(b))),
            };
            println!(
                "  {:>3}: {:<14} {}",
                self.step,
                evs,
                self.iiv.display_with(&namer)
            );
        }
    }
}

impl EventSink for TracePrinter<'_> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.buf);
        self.flush();
    }
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen.on_call(callsite, callee, entry, &mut self.buf);
        self.flush();
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.buf);
        self.flush();
    }
}

fn trace(p: &Program, title: &str) {
    println!("=== {title} ===\n  step  event          dynamic IIV");
    let (mut ddg, interner, structure) = polyfold::fold_program(p);
    let mut tp = TracePrinter::new(p, &structure);
    Vm::new(p).run(&[], &mut tp).unwrap();

    // Folded domains (Fig. 3k analogue).
    println!("\n  folded statement domains:");
    ddg.remove_scevs();
    let namer = ctx_namer(p, &structure);
    let mut rows: Vec<(String, String)> = ddg
        .stmts
        .values()
        .map(|s| {
            let info = interner.stmt_info(s.stmt);
            let path = interner
                .flat_path(info.path)
                .iter()
                .map(&namer)
                .collect::<Vec<_>>()
                .join("/");
            let names: Vec<String> = (0..s.domain.dim).map(|i| format!("i{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            (path, s.domain.poly.display(&name_refs))
        })
        .collect();
    rows.sort();
    rows.dedup();
    for (path, dom) in rows.iter().take(12) {
        println!("    {{ {path} : {dom} }}");
    }
    if rows.len() > 12 {
        println!("    … and {} more", rows.len() - 12);
    }
    println!();
}

fn main() {
    trace(
        &rodinia::paper_examples::fig3_example1(2, 2),
        "Figure 3 Ex. 1 (loops across calls)",
    );
    trace(
        &rodinia::paper_examples::fig3_example2(3),
        "Figure 3 Ex. 2 (recursion folds to one dimension)",
    );
}
