//! Single-trace fold-scaling benchmark: one profiling run, spread over the
//! staged pipeline, at K ∈ {1, 2, 4, 8} folding shards vs the serial
//! in-line path.
//!
//! Both sides run the *whole* pass 2 — VM interpretation, IIV/interning,
//! shadow resolution, folding, finalize — over the same precomputed stage-1
//! structure, so the comparison is end-to-end trace time, the number a user
//! actually waits on. Results go to `BENCH_fold_scaling.json`.
//!
//! The ≥ 1.3x @ 4-thread floor is asserted only when the machine actually
//! has ≥ 4 CPUs (the CI runners do): pipeline parallelism cannot beat
//! serial on a single core, and pretending to measure scaling there would
//! only produce noise. The JSON records the measurement and whether the
//! gate was enforced either way.

use polyddg::DdgProfiler;
use polyfold::pipeline::{fold_pipelined_supervised, PipelineConfig, ResilienceConfig};
use polyfold::FoldingSink;
use polyprof_bench::trace::{big_backprop, Recorder};
use polyprof_bench::{smoke, JsonObj};
use polytrace::{Collector, Counter, MetricsLevel};
use polyvm::Vm;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in seconds (one warm-up run first).
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

const SPEEDUP_FLOOR: f64 = 1.3;
const GATE_THREADS: usize = 4;

fn main() {
    let (layers, reps) = if smoke() { (48, 2) } else { (96, 3) };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let prog = big_backprop(layers, layers);
    let mut rec = polycfg::StructureRecorder::new();
    Vm::new(&prog).run(&[], &mut rec).expect("pass 1");
    let structure = polycfg::StaticStructure::analyze(&prog, rec);
    let mut recorder = Recorder::default();
    Vm::new(&prog)
        .run(&[], &mut recorder)
        .expect("trace recording");
    let n_events = recorder.events.len() as u64;
    drop(recorder);

    println!("=== single-trace fold scaling: serial vs K-shard pipeline ===");
    println!("  workload backprop_big({layers},{layers}), {n_events} events, {cpus} cpu(s)");

    // Serial reference: the in-line DdgProfiler→FoldingSink→finalize path.
    let mut serial_ops = 0u64;
    let serial_s = best_of(reps, || {
        let mut prof = DdgProfiler::new(&prog, &structure, FoldingSink::new());
        Vm::new(&prog).run(&[], &mut prof).expect("pass 2");
        let (sink, interner) = prof.finish();
        let ddg = sink.finalize(&prog, &interner);
        serial_ops = ddg.total_ops;
        black_box(ddg);
    });
    println!(
        "  serial         {serial_s:>9.4}s   {:.1} Mev/s",
        n_events as f64 / serial_s / 1e6
    );

    let res = ResilienceConfig::default();
    let ks = [1usize, 2, 4, 8];
    let mut speedups = Vec::with_capacity(ks.len());
    for &k in &ks {
        let cfg = PipelineConfig {
            fold_threads: k,
            chunk_events: 4096,
            ..Default::default()
        };
        let mut piped_ops = 0u64;
        let t = best_of(reps, || {
            let (ddg, ..) =
                fold_pipelined_supervised(&prog, &structure, &cfg, None, None, None, None, &res)
                    .expect("fault-free pipelined fold");
            piped_ops = ddg.total_ops;
            black_box(ddg);
        });
        assert_eq!(
            piped_ops, serial_ops,
            "pipelined run folded a different trace at K={k}"
        );
        let speedup = serial_s / t;
        speedups.push((k, t, speedup));
        println!(
            "  {k} shard(s)     {t:>9.4}s   {:.1} Mev/s   speedup {speedup:.2}x",
            n_events as f64 / t / 1e6
        );
    }

    let gate_speedup = speedups
        .iter()
        .find(|(k, ..)| *k == GATE_THREADS)
        .map(|&(_, _, s)| s)
        .expect("gate thread count measured");
    let enforced = cpus >= GATE_THREADS;

    let mut j = JsonObj::new();
    j.str_field("workload", &format!("backprop_big({layers},{layers})"))
        .int_field("events", n_events)
        .int_field("cpus", cpus as u64)
        .obj_field("serial", |o| {
            o.num_field("seconds", serial_s)
                .num_field("events_per_sec", n_events as f64 / serial_s);
        });
    for &(k, t, s) in &speedups {
        j.obj_field(&format!("threads_{k}"), |o| {
            o.num_field("seconds", t)
                .num_field("events_per_sec", n_events as f64 / t)
                .num_field("speedup", s);
        });
    }
    j.obj_field("gate", |o| {
        o.num_field("floor", SPEEDUP_FLOOR)
            .int_field("at_threads", GATE_THREADS as u64)
            .str_field("enforced", if enforced { "true" } else { "false" })
            .num_field("measured", gate_speedup);
    });

    // One instrumented run at the gate shard count: channel stall time and
    // shard balance explain *why* a scaling number moved, so they ride
    // along in the JSON (and as the standalone CI metrics artifact).
    let col = Arc::new(Collector::new(MetricsLevel::Timing));
    let cfg = PipelineConfig {
        fold_threads: GATE_THREADS,
        chunk_events: 4096,
        ..Default::default()
    };
    // The instrumented run also installs the static prune mask so the
    // artifact records the PrunedEvents counter alongside the stall clocks.
    let mask = polystatic::dataflow::StaticSummary::analyze(&prog).prune_mask();
    let t0 = Instant::now();
    let (ddg, ..) = fold_pipelined_supervised(
        &prog,
        &structure,
        &cfg,
        Some(&col),
        Some(mask),
        None,
        None,
        &res,
    )
    .expect("fault-free pipelined fold");
    black_box(ddg);
    let m = col.snapshot(t0.elapsed().as_nanos() as u64);
    let metrics_json = m.to_json();
    println!(
        "  instrumented @{GATE_THREADS}: send stall {:.1} ms, recv stall {:.1} ms, shard balance {:.2}",
        m.counter(Counter::SendStallNs) as f64 / 1e6,
        m.counter(Counter::RecvStallNs) as f64 / 1e6,
        m.shard_balance()
    );
    j.raw_field("metrics", &metrics_json);
    let mpath = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../metrics_fold_scaling.json"
    );
    std::fs::write(mpath, metrics_json + "\n").expect("write metrics_fold_scaling.json");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fold_scaling.json");
    std::fs::write(path, j.render() + "\n").expect("write BENCH_fold_scaling.json");
    println!("  wrote {path} and {mpath}");

    if enforced {
        assert!(
            gate_speedup >= SPEEDUP_FLOOR,
            "fold pipeline must be ≥{SPEEDUP_FLOOR}x serial at {GATE_THREADS} threads, \
             measured {gate_speedup:.2}x"
        );
    } else {
        println!(
            "  gate skipped: {cpus} cpu(s) < {GATE_THREADS} — scaling is not measurable here \
             (pipeline threads time-slice one core); CI enforces the {SPEEDUP_FLOOR}x floor"
        );
    }
}
