//! Chaos load generator for the profiling server — the CI serve-gate
//! driver.
//!
//! Usage: `loadgen [--sessions N] [--record-only] [--p99-limit-ms N]`
//!
//! Starts an in-process `polyserve` instance over the replay-workload
//! registry, then storms it with concurrent mixed-tenant submissions: four
//! healthy tenants spread across the workloads, plus one `chaos` tenant
//! whose every session runs under an always-fire fault plan and a 1-byte
//! budget. Gates:
//!
//! - every healthy session completes with a report whose canonical DDG is
//!   **byte-identical** to a direct in-process `try_profile_with` run;
//! - no session outlives its deadline + grace (no hangs — wedged sessions
//!   are cancelled by the watchdog and still answer);
//! - overload is answered structurally (`overloaded` + `retry_after_ms`),
//!   and honoring the hint eventually lands the submission;
//! - the server survives the storm and its books balance.
//!
//! Artifacts: `serve_metrics.json` (the server's fleet counters and
//! latency histograms) and one `loadgen` line appended to
//! `BENCH_trajectory.json` carrying `serve_p99_ms` — the client-observed
//! p99 end-to-end session latency the perf sentinel tracks.

use polyprof_bench::JsonObj;
use polyprof_core::{try_profile_with, ProfileConfig};
use polyserve::{serve, Client, Outcome, ServerConfig, Submission, SubmitOpts};
use std::collections::HashMap;
use std::process::exit;
use std::time::{Duration, Instant};

fn main() {
    let smoke = polyprof_bench::smoke();
    let mut sessions: usize = if smoke { 32 } else { 96 };
    let mut record_only = false;
    let mut p99_limit_ms: u64 = 30_000;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sessions" => sessions = args.next().unwrap().parse().expect("--sessions N"),
            "--record-only" => record_only = true,
            "--p99-limit-ms" => {
                p99_limit_ms = args.next().unwrap().parse().expect("--p99-limit-ms N")
            }
            other => {
                eprintln!("loadgen: unknown arg {other:?}");
                exit(2);
            }
        }
    }

    // Ground truth: direct in-process canonical DDG per workload.
    let registry: Vec<(String, polyir::Program)> = polyprof_bench::replay_workloads()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    let truth: HashMap<String, String> = registry
        .iter()
        .map(|(name, prog)| {
            let r = try_profile_with(prog, &ProfileConfig::new().with_canonical(true))
                .expect("direct run");
            (name.clone(), r.canonical_ddg.expect("canonical"))
        })
        .collect();
    let names: Vec<String> = registry.iter().map(|(n, _)| n.clone()).collect();

    let deadline = Duration::from_secs(20);
    let cfg = ServerConfig {
        queue_cap: sessions + 16,
        workers: std::thread::available_parallelism()
            .map(|n| n.get().clamp(2, 8))
            .unwrap_or(4),
        bucket_capacity: 64.0,
        refill_per_sec: 512.0,
        session_deadline: deadline,
        deadline_grace: Duration::from_secs(5),
        progress_interval: Some(Duration::from_millis(10)),
    };
    let server = serve("127.0.0.1:0", cfg, registry).expect("bind server");
    let addr = server.addr();

    // The storm: healthy tenants alpha..delta round-robin the workloads;
    // every 9th session belongs to the chaos tenant.
    let tenants = ["alpha", "beta", "gamma", "delta"];
    let t_start = Instant::now();
    let mut handles = Vec::new();
    for i in 0..sessions {
        let chaos = i % 9 == 8;
        let workload = names[i % names.len()].clone();
        let tenant = if chaos {
            "chaos".to_string()
        } else {
            tenants[i % tenants.len()].to_string()
        };
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let opts = SubmitOpts {
                tenant: Some(tenant.clone()),
                fault_plan: chaos.then(|| "seed=3;panic:fold@*;malformed:chunk@1".to_string()),
                budget_bytes: chaos.then_some(1),
                deadline_ms: Some(20_000),
            };
            let t0 = Instant::now();
            let out = c
                .submit_with_retry(
                    Submission::Program {
                        workload: &workload,
                    },
                    &opts,
                    100,
                )
                .expect("submit");
            (workload, tenant, chaos, out, t0.elapsed())
        }));
    }

    let mut healthy_ms: Vec<f64> = Vec::new();
    let mut per_tenant_done: HashMap<String, usize> = HashMap::new();
    let mut chaos_terminated = 0usize;
    let mut failures = Vec::new();
    for h in handles {
        let (workload, tenant, chaos, out, wall) = h.join().expect("session thread");
        if chaos {
            match out {
                Outcome::Done { .. } | Outcome::Failed { .. } => chaos_terminated += 1,
                other => failures.push(format!("chaos session did not terminate: {other:?}")),
            }
            continue;
        }
        match out {
            Outcome::Done { report_json, .. } => {
                let canonical =
                    polyserve::wire::json_str(&report_json, "canonical_ddg").unwrap_or_default();
                if canonical != truth[&workload] {
                    failures.push(format!("canonical mismatch for {workload} ({tenant})"));
                }
                healthy_ms.push(wall.as_secs_f64() * 1e3);
                *per_tenant_done.entry(tenant).or_default() += 1;
            }
            other => failures.push(format!("healthy {workload} ({tenant}) got {other:?}")),
        }
    }
    let storm_wall = t_start.elapsed();

    // The server must still be alive and balanced.
    let mut c = Client::connect(addr).expect("reconnect");
    assert!(c.ping().expect("ping"), "server died during the storm");
    let metrics = c.metrics_json().expect("metrics");
    let stats_json = server.stats().to_json();
    server.shutdown();

    healthy_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if healthy_ms.is_empty() {
            return 0.0;
        }
        let idx = ((healthy_ms.len() as f64 * p).ceil() as usize).clamp(1, healthy_ms.len());
        healthy_ms[idx - 1]
    };
    let (p50, p99) = (pct(0.50), pct(0.99));
    let n_healthy = healthy_ms.len();

    println!("loadgen: {sessions} sessions in {storm_wall:.2?}");
    println!("  healthy {n_healthy}  p50 {p50:.1}ms  p99 {p99:.1}ms  chaos terminated {chaos_terminated}");
    for t in tenants {
        println!(
            "  tenant {t}: {} done",
            per_tenant_done.get(t).copied().unwrap_or(0)
        );
    }
    println!("  server: {metrics}");

    // serve_metrics.json artifact (the server-side view).
    let mpath = concat!(env!("CARGO_MANIFEST_DIR"), "/../../serve_metrics.json");
    std::fs::write(mpath, format!("{stats_json}\n")).expect("write serve_metrics.json");

    // Trajectory line for the perf sentinel.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let git_sha = polyprof_bench::git_sha();
    let mut traj = JsonObj::new();
    traj.str_field("bench", "loadgen")
        .int_field("cpus", cpus as u64)
        .raw_field("smoke", if smoke { "true" } else { "false" })
        .str_field("git_sha", &git_sha)
        .int_field("sessions", sessions as u64)
        .num_field("serve_p99_ms", p99)
        .num_field("serve_p50_ms", p50);
    let tpath = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(tpath)
            .expect("open BENCH_trajectory.json");
        writeln!(f, "{}", traj.render()).expect("append trajectory line");
    }
    println!("  wrote {mpath}; appended {tpath}");

    // Gates.
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("loadgen FAIL: {f}");
        }
        exit(1);
    }
    let expected_chaos = sessions / 9;
    assert_eq!(
        chaos_terminated, expected_chaos,
        "every chaos session must terminate structurally"
    );
    for t in tenants {
        assert!(
            per_tenant_done.get(t).copied().unwrap_or(0) > 0,
            "tenant {t} starved"
        );
    }
    if record_only {
        println!("loadgen: record-only, skipping p99 gate");
        return;
    }
    // No healthy session may outlive deadline + grace (a hang would show up
    // here as a p100 past the watchdog); the p99 gate bounds tail latency.
    let max_ms = healthy_ms.last().copied().unwrap_or(0.0);
    assert!(
        max_ms < (deadline + Duration::from_secs(10)).as_millis() as f64,
        "session outlived deadline + grace: {max_ms:.0}ms"
    );
    assert!(
        p99 < p99_limit_ms as f64,
        "p99 {p99:.0}ms exceeds limit {p99_limit_ms}ms"
    );
    println!("loadgen: PASS");
}
