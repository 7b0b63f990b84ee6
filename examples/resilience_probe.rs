//! CI resilience probe: profile one Rodinia workload — `cfd`, which runs
//! long enough for four heartbeats (one per 4096 instructions), so every
//! site can fire — under the fault plan in `POLYPROF_FAULT_PLAN` and write
//! the degradation counters as JSON.
//!
//! The `resilience-gate` CI step runs this over a fixed seed matrix and
//! uploads the `degradation_*.json` files as artifacts. The variable is this
//! example's own input — the library reads no environment — parsed with
//! [`FaultPlan::parse`] and armed with `with_fault_plan`. Hard errors, since
//! a gate that silently runs fault-free proves nothing:
//! - a spec that does not parse;
//! - an armed plan that leaves the run undegraded;
//! - any error but a `StagePanic` from a plan that fired `panic:pre` (that
//!   one is the expected outcome, written as `{"stage_panic": …}`);
//! - a panic that escapes `try_profile_with`.
//!
//! Usage: `resilience_probe [out.json]`

use polyprof_core::polytrace::json_escape;
use polyprof_core::{try_profile_with, FaultPlan, FaultSite, PolyProfError, ProfileConfig};
use std::sync::Arc;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "degradation_probe.json".into());
    let spec = std::env::var("POLYPROF_FAULT_PLAN").unwrap_or_default();

    let w = rodinia::cfd::build();
    let mut cfg = ProfileConfig::new().with_chunk_events(256);
    let plan = match spec.trim() {
        "" => None,
        _ => match FaultPlan::parse(&spec) {
            Ok(p) => Some(Arc::new(p)),
            Err(e) => {
                eprintln!("error: POLYPROF_FAULT_PLAN: {e}");
                std::process::exit(2);
            }
        },
    };
    if let Some(p) = &plan {
        cfg = cfg.with_fault_plan(Arc::clone(p));
    }
    let fired_pre = || {
        plan.as_ref()
            .is_some_and(|p| p.fired(FaultSite::PanicPre) > 0)
    };

    let json = match try_profile_with(&w.program, &cfg) {
        Ok(report) if plan.is_some() && !report.degradation.is_degraded() => {
            eprintln!("error: fault plan armed but the run completed undegraded");
            std::process::exit(1);
        }
        Ok(report) => report.degradation_json(),
        Err(e @ PolyProfError::StagePanic { .. }) if fired_pre() => {
            format!("{{\"stage_panic\":\"{}\"}}", json_escape(&e.to_string()))
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    std::fs::write(&out, &json).expect("write degradation json");
    println!("plan `{spec}` -> {json}");
}
