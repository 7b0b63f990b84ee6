//! Pass 2 keeps its per-event bookkeeping off the hot path: context paths
//! come from a memoised state machine, folded points from a verified
//! prediction. Both claims are checked here without a clock and without
//! sharing code with what they check:
//!
//! * after every loop event, the path the interner hands out equals the
//!   tracker's stacks *and* the id a memo-less first-seen list assigns;
//! * the counts of what still hashes (tracker memo misses, interner content
//!   interns) do not move with the trip count, and neither does the peak of
//!   the shadow records' snapshot table;
//! * the count of predicted fold events is a fact of the event stream: the
//!   same live and on replay of the recording, whatever its frame size.

mod common;

use common::{deep_nest, stencil};
use polyir::build::ProgramBuilder;
use polyir::{BlockRef, CmpOp, FuncId, InstrRef, Operand, Program, Value};
use polyprof_core::polycfg::{LoopEvent, LoopEventGen, StaticStructure};
use polyprof_core::polyddg::DdgProfiler;
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polyfold::{FoldOptions, FoldingSink};
use polyprof_core::polyiiv::context::{ContextInterner, CtxPathId};
use polyprof_core::polyiiv::{CtxElem, IivTracker};
use polyprof_core::polytrace::{Collector, Counter};
use polyprof_core::polyvm::{EventSink, Vm};
use polyprof_core::{profile_with, MetricsLevel, ProfileConfig};
use rodinia::paper_examples::{fig3_example1, fig3_example2};
use std::sync::Arc;

/// Loop events → tracker → interner, looked up after *every* event (the
/// profiler only looks up when an instruction executes), against a list of
/// stacks kept in first-seen order and searched linearly.
struct Checked<'s> {
    gen: LoopEventGen<'s>,
    iiv: IivTracker,
    interner: ContextInterner,
    buf: Vec<LoopEvent>,
    seen: Vec<Vec<Vec<CtxElem>>>,
    lookups: u64,
}

impl<'s> Checked<'s> {
    fn new(prog: &Program, structure: &'s StaticStructure) -> Self {
        let entry = prog.entry.expect("entry");
        Checked {
            gen: LoopEventGen::new(structure),
            iiv: IivTracker::new(BlockRef {
                func: entry,
                block: prog.func(entry).entry(),
            }),
            interner: ContextInterner::new(),
            buf: Vec::new(),
            seen: Vec::new(),
            lookups: 0,
        }
    }

    fn check(&mut self) {
        let stacks: Vec<Vec<CtxElem>> = self.iiv.dims().iter().map(|d| d.ctx.clone()).collect();
        let expected = match self.seen.iter().position(|s| *s == stacks) {
            Some(i) => i,
            None => {
                self.seen.push(stacks.clone());
                self.seen.len() - 1
            }
        };
        let got = self.interner.current_path(&self.iiv);
        self.lookups += 1;
        assert_eq!(
            got,
            CtxPathId(expected as u32),
            "id is not first-seen order"
        );
        assert_eq!(
            self.interner.path(got),
            &stacks[..],
            "path content diverged"
        );
    }

    fn drain(&mut self) {
        for ev in std::mem::take(&mut self.buf) {
            self.iiv.apply(&ev);
            self.check();
        }
    }
}

impl EventSink for Checked<'_> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.buf);
        self.drain();
    }
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen.on_call(callsite, callee, entry, &mut self.buf);
        self.drain();
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.buf);
        self.drain();
    }
    fn exec(&mut self, _: InstrRef, _: Option<Value>) {}
}

/// Run `prog` through [`Checked`]: `(tracker memo misses, interner content
/// interns, version-cache misses, distinct paths)`.
fn run_checked(prog: &Program) -> (u64, u64, u64, usize) {
    let structure = StaticStructure::record(prog).expect("pass 1");
    let mut sink = Checked::new(prog, &structure);
    sink.check();
    Vm::new(prog).run(&[], &mut sink).expect("pass 2");
    assert_eq!(sink.interner.n_paths(), sink.seen.len());
    let (hits, misses) = sink.interner.cache_stats();
    assert_eq!(hits + misses, sink.lookups);
    (
        sink.iiv.memo_misses(),
        sink.interner.content_interns(),
        misses,
        sink.seen.len(),
    )
}

/// Recursive descent of a binary search tree built from a fixed key
/// permutation: two recursive call sites, data-dependent depth.
fn tree_descent(nodes: usize) -> Program {
    let mut pb = ProgramBuilder::new("tree_descent");
    let base = pb.alloc(4 * nodes as u64) as i64;
    let node = |i: usize| base + 4 * i as i64;
    let keys: Vec<i64> = (0..nodes as i64).map(|i| (i * 37 + 11) % 101).collect();
    let (mut left, mut right) = (vec![0i64; nodes], vec![0i64; nodes]);
    for i in 1..nodes {
        let mut at = 0;
        loop {
            let child = if keys[i] < keys[at] {
                &mut left[at]
            } else {
                &mut right[at]
            };
            if *child == 0 {
                *child = node(i);
                break;
            }
            at = ((*child - base) / 4) as usize;
        }
    }
    let visit = pb.declare("visit", 1);
    let mut f = pb.func("visit", 1);
    let n = f.param(0);
    let is_null = f.icmp(CmpOp::Eq, n, 0i64);
    let null_b = f.block("null");
    let work_b = f.block("work");
    f.br(is_null, null_b, work_b);
    f.switch_to(null_b);
    f.ret(Some(Operand::ImmI(0)));
    f.switch_to(work_b);
    let key = f.load(n, 0i64);
    let l = f.load(n, 1i64);
    let r = f.load(n, 2i64);
    let sl = f.call(visit, &[l.into()]);
    let sr = f.call(visit, &[r.into()]);
    let s1 = f.add(key, sl);
    let s2 = f.add(s1, sr);
    f.store(n, 3i64, s2);
    f.ret(Some(s2.into()));
    f.finish();
    let mut m = pb.func("main", 0);
    let total = m.call(visit, &[Operand::ImmI(node(0))]);
    m.ret(Some(total.into()));
    let main = m.finish();
    pb.set_entry(main);
    let mut prog = pb.finish();
    for i in 0..nodes {
        for (off, v) in [keys[i], left[i], right[i]].into_iter().enumerate() {
            prog.data.push((node(i) as u64 + off as u64, Value::I64(v)));
        }
    }
    prog
}

/// The memoised path equals the tracker's stacks and the memo-less
/// first-seen id after every event: over the Rodinia suite, the paper's
/// interprocedural and recursive examples, and a recursive tree descent.
#[test]
fn memoised_paths_match_a_memoless_lookup_after_every_event() {
    let mut progs: Vec<Program> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| w.program)
        .collect();
    progs.push(fig3_example1(8, 8));
    progs.push(fig3_example2(64));
    progs.push(tree_descent(200));
    for prog in &progs {
        let (memo_misses, interns, misses, paths) = run_checked(prog);
        assert!(paths > 0, "{}: nothing interned", prog.name);
        assert_eq!(
            interns as usize, paths,
            "{}: one content intern per distinct path when looked up after every event",
            prog.name
        );
        assert!(interns <= misses && memo_misses >= paths as u64 - 1);
    }
}

/// A counted triangular nest behind a call, `n` outer iterations.
fn counted_nest(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("counted_nest");
    let a = pb.alloc(64);
    let mut g = pb.func("body", 1);
    let i = g.param(0);
    g.for_loop("Lj", 0i64, i, 1, |f, j| {
        let idx = f.rem(j, 64i64);
        let v = f.load(a as i64, idx);
        let w = f.add(v, j);
        f.store(a as i64, idx, w);
    });
    g.ret(None);
    let body = g.finish();
    let mut f = pb.func("main", 0);
    f.for_loop("Li", 0i64, n, 1, |f, i| {
        f.call_void(body, &[i.into()]);
    });
    f.ret(None);
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// What still hashes is bounded by the control structure: ten times the
/// trip count takes ten times the version-cache misses and not one more
/// memo miss or content intern.
#[test]
fn hashing_does_not_grow_with_the_trip_count() {
    let (memo_1, interns_1, misses_1, paths_1) = run_checked(&counted_nest(12));
    let (memo_10, interns_10, misses_10, paths_10) = run_checked(&counted_nest(120));
    assert_eq!(paths_1, paths_10);
    assert_eq!(memo_1, memo_10, "tracker memo misses grew with N");
    assert_eq!(
        interns_1, interns_10,
        "interner content interns grew with N"
    );
    assert!(
        misses_10 > 9 * misses_1,
        "the version cache still misses per transition: {misses_1} vs {misses_10}"
    );
    assert!(interns_10 * 20 < misses_10);
}

/// Peak live slots of the profiler's snapshot table over a full pass 2.
fn peak_live_snapshots(prog: &Program) -> usize {
    let structure = StaticStructure::record(prog).expect("pass 1");
    let mut prof = DdgProfiler::new(prog, &structure, FoldingSink::new());
    Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    prof.peak_live_snapshots()
}

/// Shadow records hold counted snapshots, and an overwritten record gives
/// its own back: the table is bounded by the 64 words the nest touches,
/// not by how many coordinate vectors it runs through.
#[test]
fn snapshot_table_does_not_grow_with_the_trip_count() {
    let (short, long) = (
        peak_live_snapshots(&counted_nest(120)),
        peak_live_snapshots(&counted_nest(360)),
    );
    assert_eq!(short, long, "the snapshot table grew with N");
    assert_eq!(
        short,
        64 + 1,
        "one slot per word's writer, plus the current"
    );
}

fn counters(prog: &Program, cfg: ProfileConfig) -> (u64, u64) {
    let m = profile_with(prog, &cfg.with_metrics(MetricsLevel::Counters))
        .metrics
        .expect("counters on");
    (
        m.counter(Counter::FoldPredicted),
        m.counter(Counter::EventsFolded),
    )
}

/// [`counters`] of a pass-2 fold through the rational reference
/// (`FoldOptions::fast_fit` off).
fn rational_counters(prog: &Program) -> (u64, u64) {
    let trace = Arc::new(Collector::new(MetricsLevel::Counters));
    let cfg = Pass2 {
        options: FoldOptions {
            fast_fit: false,
            ..FoldOptions::default()
        },
        trace: Some(Arc::clone(&trace)),
        ..Pass2::default()
    };
    pass2::run(prog, &Source::Live(Live::default()), &cfg).expect("both passes");
    (
        trace.get(Counter::FoldPredicted),
        trace.get(Counter::EventsFolded),
    )
}

/// A stride-2 sweep over `rows` rows of seeded data, `n` points a row,
/// with the body under a data-dependent guard: the guarded statements'
/// points jump forward along the inner loop, and the loaded value (with
/// everything computed from it, and the producer row of each overwrite) is
/// data-dependent, so its fitter fails within the first row.
fn guarded_stride(rows: i64, n: i64) -> Program {
    let mut pb = ProgramBuilder::new("guarded_stride");
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let data: Vec<i64> = (0..rows * 2 * n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 100) as i64
        })
        .collect();
    let d = pb.array_i64(&data) as i64;
    let out = pb.alloc(2 * n as u64) as i64;
    let mut f = pb.func("main", 0);
    f.for_loop("R", 0i64, rows, 1, |f, r| {
        let row = f.mul(r, 2 * n);
        f.for_loop("I", 0i64, 2 * n, 2, |f, i| {
            let at = f.add(row, i);
            let v = f.load(d, at);
            let keep = f.icmp(CmpOp::Lt, v, 70i64);
            f.if_else(
                keep,
                |f| {
                    let w = f.add(v, i);
                    f.store(out, i, w);
                },
                |_| {},
            );
        });
    });
    f.ret(None);
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// Irregular streams fold for the price of a compare: a point of a guarded
/// statement is a forward jump and a data-dependent value is a free label,
/// and both are predicted: 0.978 of this kernel's folded events, against
/// 0.669 when the prediction takes neither.
#[test]
fn guarded_irregular_stream_is_predicted() {
    let (predicted, folded) = counters(&guarded_stride(40, 64), ProfileConfig::new());
    assert!(
        predicted * 10 >= folded * 9,
        "{predicted} of {folded} folded events predicted"
    );
}

/// Every folder sees the same stream whatever the source: the predicted
/// count is identical live and when the recording of the run is replayed —
/// recorded in the default frames or in 64-event ones; the rational
/// reference predicts nothing.
#[test]
fn predicted_count_is_a_fact_of_the_stream() {
    for (name, prog) in [
        ("stencil", stencil(10, 6)),
        ("deep", deep_nest(2)),
        ("guarded", guarded_stride(12, 32)),
    ] {
        let live = counters(&prog, ProfileConfig::new());
        assert!(live.0 > 0, "{name}: nothing predicted");
        let path = std::env::temp_dir().join(format!(
            "polyprof_hot_path_{}_{name}.ptrace",
            std::process::id()
        ));
        for frame in [4096usize, 64] {
            let record = ProfileConfig::new()
                .with_chunk_events(frame)
                .with_record_to(&path);
            assert_eq!(live, counters(&prog, record), "{name}: the tap moved it");
            let replayed = counters(&prog, ProfileConfig::new().with_replay_from(&path));
            assert_eq!(
                live, replayed,
                "{name}: replay of {frame}-event frames diverged"
            );
        }
        std::fs::remove_file(&path).ok();
        let rational = rational_counters(&prog);
        assert_eq!(
            rational,
            (0, live.1),
            "{name}: fast_fit off must not predict"
        );
    }
}
