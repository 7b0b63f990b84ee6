//! CI resilience probe: profile one Rodinia workload under the fault plan
//! in `POLYPROF_FAULT_PLAN` and write the degradation counters as JSON.
//!
//! The `resilience-gate` CI step runs this over a fixed seed matrix and
//! uploads the `degradation_*.json` files as artifacts. The variable is this
//! example's own input — the library reads no environment — parsed with
//! [`FaultPlan::parse`] and armed with `with_fault_plan`. A spec that does
//! not parse, and an armed plan that leaves the run undegraded, are hard
//! errors: a gate that silently runs fault-free proves nothing.
//!
//! Usage: `resilience_probe [out.json]`

use polyprof_core::{try_profile_with, FaultPlan, ProfileConfig};
use std::sync::Arc;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "degradation_probe.json".into());
    let plan = std::env::var("POLYPROF_FAULT_PLAN").unwrap_or_default();

    let w = rodinia::pathfinder::build();
    let mut cfg = ProfileConfig::new()
        .with_fold_threads(3)
        .with_chunk_events(256);
    if !plan.trim().is_empty() {
        match FaultPlan::parse(&plan) {
            Ok(p) => cfg = cfg.with_fault_plan(Arc::new(p)),
            Err(e) => {
                eprintln!("error: POLYPROF_FAULT_PLAN: {e}");
                std::process::exit(2);
            }
        }
    }
    let report = try_profile_with(&w.program, &cfg).expect("resilience probe must complete");

    let json = report.degradation_json();
    std::fs::write(&out, &json).expect("write degradation json");
    println!("plan `{plan}` -> {json}");

    if cfg.fault_plan.is_some() && !report.degradation.is_degraded() {
        eprintln!("error: fault plan armed but the run completed undegraded");
        std::process::exit(1);
    }
}
