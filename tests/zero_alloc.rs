//! Allocation tests for the stage-2 hot path and the fold behind it.
//!
//! A counting global allocator measures heap allocations during two full
//! profiling runs of the same kernel that differ only in trip count. All
//! warm-up allocations (shadow pages, folder tables, fitter refits, interner
//! entries) are identical between the runs; if the per-event path allocated
//! — the old `Box<[i64]>`-per-writer behavior — the longer run would
//! allocate tens of thousands more. The assertion gives a small fixed slack
//! for incidental growth (e.g. a `HashMap` resize crossing a threshold).
//!
//! The same allocator counts what folding costs per folder: a captured
//! pass-2 stream replayed into a fresh `FoldingSink` and finalized.

use polyir::build::ProgramBuilder;
use polyir::Program;
use polyprof_core::polyddg::chunk::EventChunk;
use polyprof_core::polyiiv::context::ContextInterner;
use polyprof_core::{polycfg, polyddg, polyfold, polyvm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `ALLOCS` is process-global and the test harness runs tests on parallel
/// threads, so a counting test holds this lock for its whole body, or another
/// test's allocations land in its window.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in another test poisons the lock, not the counter.
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// In-place update kernel: every iteration emits exec events, a load, a
/// store, flow/output/anti dependences — the full per-event surface.
fn kernel(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("zeroalloc");
    let a = pb.alloc(64);
    let mut f = pb.func("main", 0);
    f.for_loop("L", 0i64, n, 1, |f, i| {
        let idx = f.rem(i, 64i64);
        let v = f.load(a as i64, idx);
        let w = f.add(v, i);
        f.store(a as i64, idx, w);
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}

/// Full pass-1 + pass-2 profile into a folding sink; returns (events,
/// allocations, loop-body runs folded) for the pass-2 portion only.
fn profile_counting(prog: &Program) -> (u64, u64, u64) {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
    let structure = polycfg::StaticStructure::analyze(prog, rec);
    let mut prof = polyddg::DdgProfiler::new(prog, &structure, polyfold::FoldingSink::new());
    let before = ALLOCS.load(Ordering::Relaxed);
    polyvm::Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    let after = ALLOCS.load(Ordering::Relaxed);
    (prof.dyn_ops, after - before, prof.body_runs())
}

#[test]
fn steady_state_profiling_does_not_allocate_per_event() {
    let _alone = exclusive();
    let short_n = 500i64;
    let long_n = 5000i64;
    // Warm caches/allocator so one-time lazy init doesn't skew the counts.
    let _ = profile_counting(&kernel(short_n));
    let (ops_short, allocs_short, _) = profile_counting(&kernel(short_n));
    let (ops_long, allocs_long, runs) = profile_counting(&kernel(long_n));
    let extra_ops = ops_long - ops_short;
    assert!(extra_ops > 20_000, "kernel too small for a meaningful test");
    // `i % 64` breaks the loop body's run every 64 iterations: each run
    // must fold without allocating too.
    assert!(runs >= long_n as u64 / 64, "only {runs} loop-body runs");
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    // Old behavior: ≥ 2 allocations per memory event → extra_allocs would be
    // on the order of extra_ops. Steady state allows only incidental growth.
    assert!(
        extra_allocs < 64,
        "profiling allocates in steady state: {extra_allocs} extra allocations \
         over {extra_ops} extra dynamic ops (short: {allocs_short}, long: {allocs_long})"
    );
}

/// A loop whose body calls `step`, and a loop whose body starts a recursion
/// of fixed depth: the call and return path of both passes on every
/// iteration.
fn calling_kernel(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("calls");
    let a = pb.alloc(64);
    let mut step = pb.func("step", 2);
    let (x, i) = (step.param(0), step.param(1));
    let idx = step.rem(i, 64i64);
    step.store(a as i64, idx, x);
    step.ret(Some(idx.into()));
    let step_id = step.finish();

    let down = pb.declare("down", 1);
    let mut d = pb.func("down", 1);
    let k = d.param(0);
    let more = d.icmp(polyir::CmpOp::Gt, k, 0i64);
    let go = d.block("go");
    let done = d.block("done");
    d.br(more, go, done);
    d.switch_to(go);
    let k1 = d.sub(k, 1i64);
    d.call_void(down, &[k1.into()]);
    d.jump(done);
    d.switch_to(done);
    d.ret(None);
    d.finish();

    let mut f = pb.func("main", 0);
    f.for_loop("L", 0i64, n, 1, |f, i| {
        let v = f.load(a as i64, 0i64);
        f.call(step_id, &[v.into(), i.into()]);
        f.call_void(down, &[3i64.into()]);
    });
    f.ret(None);
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}

/// Both passes over `prog`, pass 1 into the structure recorder and pass 2
/// into a folding profiler; returns (dynamic instructions, allocations of
/// the two VM runs).
fn both_passes_counting(prog: &Program) -> (u64, u64) {
    let mut rec = polycfg::StructureRecorder::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
    let pass1 = ALLOCS.load(Ordering::Relaxed) - before;
    let structure = polycfg::StaticStructure::analyze(prog, rec);
    let mut prof = polyddg::DdgProfiler::new(prog, &structure, polyfold::FoldingSink::new());
    let before = ALLOCS.load(Ordering::Relaxed);
    polyvm::Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    let pass2 = ALLOCS.load(Ordering::Relaxed) - before;
    (out.dyn_instrs, pass1 + pass2)
}

/// A call allocates nothing once the deepest call chain has been reached:
/// the VM recycles register vectors, pass 1 sets bits, pass 2 pools its
/// register frames and the IIV tracker reuses the context vector of the
/// last dimension it closed. An argument vector and a register vector per
/// call in each VM run, and a context vector per loop or recursion entry,
/// read 31 500 extra allocations here.
#[test]
fn calls_do_not_allocate_per_call_in_either_pass() {
    let _alone = exclusive();
    let (short_n, long_n) = (300i64, 1800i64);
    let _ = both_passes_counting(&calling_kernel(short_n));
    let (instrs_short, allocs_short) = both_passes_counting(&calling_kernel(short_n));
    let (instrs_long, allocs_long) = both_passes_counting(&calling_kernel(long_n));
    let extra_calls = 5 * (long_n - short_n) as u64;
    assert!(instrs_long - instrs_short > 20_000, "kernel too small");
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_allocs < 64,
        "{extra_allocs} extra allocations over {extra_calls} extra calls \
         (short: {allocs_short}, long: {allocs_long})"
    );
}

/// `prog`'s pass-2 event stream, captured in memory in arrival order, and
/// the interner that numbered its statements.
fn capture_pass2(prog: &Program) -> (EventChunk, ContextInterner) {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
    let structure = polycfg::StaticStructure::analyze(prog, rec);
    let mut prof = polyddg::DdgProfiler::new(prog, &structure, EventChunk::default());
    polyvm::Vm::new(prog).run(&[], &mut prof).expect("pass 2");
    prof.finish()
}

/// A folder's first fit, its refits and its finalize allocate little beyond
/// what the `FoldedDdg` keeps: the RREF is one flat buffer, a refit
/// overwrites the candidate in place, and finalize builds constraints with
/// no temporaries. Three suite programs read 47.1 allocations per folder
/// (20 114 over 427 folders); with a `Vec` per RREF row, a new candidate
/// per refit and `AffineExpr` temporaries at finalize they read 131.
#[test]
fn folding_allocates_a_bounded_number_of_blocks_per_folder() {
    let _alone = exclusive();
    let progs = [
        rodinia::hotspot3d::build().program,
        rodinia::gemsfdtd::build().program,
        rodinia::bfs::build().program,
    ];
    let (mut allocs, mut folders) = (0u64, 0usize);
    for prog in &progs {
        let (events, interner) = capture_pass2(prog);
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut sink = polyfold::FoldingSink::new();
        events.replay_into(&mut sink);
        let ddg = sink.finalize(prog, &interner);
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
        folders += ddg.stmts.len() + ddg.accesses.len() + ddg.deps.len();
    }
    let per_folder = allocs as f64 / folders as f64;
    assert!(
        per_folder < 55.0,
        "folding allocates {per_folder:.1} blocks per folder ({allocs} over {folders} folders)"
    );
}
