//! Export Chrome trace-event timelines from full profiling runs — the CI
//! `timeline-gate`.
//!
//! Usage: `trace_export [--threads K[,K...]] [--out DIR] [WORKLOAD...]`
//!
//! For every workload × shard count, runs the profiler at
//! `MetricsLevel::Trace` and writes `<workload>_k<K>.trace.json`
//! (Perfetto / `chrome://tracing` loadable). Each export is then gated:
//!
//! * the file must be syntactically valid JSON;
//! * every span name must have begin count == end count (well-formed
//!   nesting is asserted separately by `tests/timeline.rs`);
//! * `fold-chunk` ends must equal the `chunks_folded` counter and
//!   `chunk-send` instants must equal `chunk_recycled + chunk_fresh` —
//!   the timeline and the counters are two views of one run and may not
//!   disagree;
//! * every event sits in a lane of the two-stage lane set — driver, the
//!   producer (whose lane also carries the `chunk-send` instants of all K
//!   channel edges), or fold shard `k < K`; a serial run uses the driver
//!   lane alone;
//! * a journal overflow (`trace_dropped > 0`) fails the gate outright:
//!   these fixture-sized runs must fit their journals.
//!
//! Defaults: the `backprop` Rodinia fixture at K ∈ {1, 4}.

use polyprof_bench::sentinel::validate_json;
use polyprof_core::polytrace::{tid_shard, Counter, TraceEventKind, TID_DRIVER, TID_PRE};
use polyprof_core::{profile_with, MetricsLevel, ProfileConfig};
use std::collections::BTreeMap;
use std::process::exit;

fn main() {
    let mut threads: Vec<usize> = vec![1, 4];
    let mut out_dir = ".".to_string();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("--threads takes K[,K...]"))
                    .collect();
            }
            "--out" => out_dir = args.next().expect("--out takes a directory"),
            w => names.push(w.to_string()),
        }
    }
    if names.is_empty() {
        names.push("backprop".to_string());
    }

    let registry = polyprof_bench::replay_workloads();
    let mut failures = 0u32;
    for name in &names {
        let Some((_, prog)) = registry.iter().find(|(n, _)| n == name) else {
            eprintln!("trace_export: unknown workload {name:?}");
            exit(2);
        };
        for &k in &threads {
            let cfg = ProfileConfig::new()
                .with_metrics(MetricsLevel::Trace)
                .with_fold_threads(k);
            let report = profile_with(prog, &cfg);
            let m = report.metrics.as_ref().expect("Trace run has metrics");
            let json = report
                .timeline_json()
                .expect("Trace run exports a timeline");

            let path = format!("{out_dir}/{name}_k{k}.trace.json");
            std::fs::write(&path, &json).expect("write trace file");
            let mut ok = true;

            if let Err(e) = validate_json(&json) {
                eprintln!("trace_export: {path}: INVALID JSON: {e}");
                ok = false;
            }
            if m.trace_dropped > 0 {
                eprintln!(
                    "trace_export: {path}: journal overflow dropped {} events",
                    m.trace_dropped
                );
                ok = false;
            }

            // Begin/end parity per span name.
            let mut begins: BTreeMap<&str, i64> = BTreeMap::new();
            for ev in &m.timeline {
                match ev.kind {
                    TraceEventKind::Begin => *begins.entry(ev.name).or_default() += 1,
                    TraceEventKind::End => *begins.entry(ev.name).or_default() -= 1,
                    TraceEventKind::Instant => {}
                }
            }
            for (span, balance) in &begins {
                if *balance != 0 {
                    eprintln!("trace_export: {path}: span {span:?} unbalanced by {balance}");
                    ok = false;
                }
            }

            // Timeline ↔ counter reconciliation.
            let fold_ends = m.timeline_count("fold-chunk", TraceEventKind::End);
            let chunks_folded = m.counter(Counter::ChunksFolded);
            if fold_ends != chunks_folded {
                eprintln!(
                    "trace_export: {path}: fold-chunk ends {fold_ends} != chunks_folded {chunks_folded}"
                );
                ok = false;
            }
            let sends = m.timeline_count("chunk-send", TraceEventKind::Instant);
            let chunks_sent = m.counter(Counter::ChunkRecycled) + m.counter(Counter::ChunkFresh);
            if sends != chunks_sent {
                eprintln!(
                    "trace_export: {path}: chunk-send instants {sends} != chunks shipped {chunks_sent}"
                );
                ok = false;
            }
            if k == 1 && (fold_ends != 0 || sends != 0) {
                eprintln!("trace_export: {path}: serial run must have no chunk events");
                ok = false;
            }
            let lane_ok = |tid: u32| {
                tid == TID_DRIVER
                    || (k > 1 && (tid == TID_PRE || (tid_shard(0)..tid_shard(k)).contains(&tid)))
            };
            if let Some(ev) = m.timeline.iter().find(|ev| !lane_ok(ev.tid)) {
                eprintln!(
                    "trace_export: {path}: event {:?} in lane {} outside the K={k} lane set",
                    ev.name, ev.tid
                );
                ok = false;
            }

            println!(
                "trace_export: {} {path}: {} events, {} fold-chunk spans, {} chunk-sends",
                if ok { "OK  " } else { "FAIL" },
                m.timeline.len(),
                fold_ends,
                sends
            );
            if !ok {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("trace_export: {failures} export(s) failed the timeline gate");
        exit(1);
    }
}
