//! End-to-end tests of the profiling server, culminating in the chaos
//! loadgen gate: ≥64 concurrent sessions across ≥4 tenants, one tenant
//! under fault plans (a pass-2 panic, or refused shadow pages and stalled
//! heartbeats) and a 1-byte budget — every
//! healthy session must deliver a report whose canonical DDG is
//! byte-identical to a direct in-process run, overload must be structured,
//! and the server must survive the whole storm. Beside it: what a session's
//! owner — its connection thread — does while the fold runs (live progress,
//! the watchdog's cancel), that shutdown wakes every blocked thread, and what
//! the cache hands out: the fresh report's own bytes, at admission, with
//! every worker busy.

use polyprof_core::{try_profile_with, ProfileConfig};
use polyserve::wire::json_str;
use polyserve::{serve, Client, Outcome, ServerConfig, Submission, SubmitOpts};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The served workload registry — small deterministic builds so dozens of
/// concurrent sessions stay test-sized.
fn registry() -> Vec<(String, polyir::Program)> {
    vec![
        ("backprop".to_string(), rodinia::backprop::build().program),
        (
            "pathfinder".to_string(),
            rodinia::pathfinder::build().program,
        ),
        ("nw".to_string(), rodinia::nw::build().program),
        (
            "fig6".to_string(),
            rodinia::paper_examples::fig6_kernel(16, 8),
        ),
    ]
}

/// One workload long enough to watch: ~216 k dynamic instructions, a few
/// hundred thousand events — tens of milliseconds of folding in `--release`.
fn long_registry() -> Vec<(String, polyir::Program)> {
    let prog = rodinia::paper_examples::fig6_kernel(192, 160);
    vec![("fig6_long".to_string(), prog)]
}

/// Spin until `cond` holds; the bound only turns a hang into a failure.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(60), "waiting for {what}");
        std::thread::yield_now();
    }
}

/// Occupy a worker for about a second, whatever the speed of the box: submit
/// `fig6_long` (the server must have [`long_registry`]) as a session that
/// stalls 25 ms at each of its ~50 heartbeats (one per 4096 instructions)
/// and so crawls to its 1 s deadline. Returns the connection its frames
/// arrive on.
fn hold_a_worker(addr: std::net::SocketAddr) -> TcpStream {
    let mut held = TcpStream::connect(addr).unwrap();
    let submit = "{\"op\": \"submit\", \"workload\": \"fig6_long\", \"tenant\": \"held\", \
                  \"fault_plan\": \"stall:beat@*;stall_ms=25\", \"deadline_ms\": 1000}";
    polyserve::wire::write_json(&mut held, submit).unwrap();
    held
}

/// Direct in-process canonical DDG per workload — the ground truth the
/// served reports must match byte for byte.
fn direct_canonicals() -> HashMap<String, String> {
    registry()
        .into_iter()
        .map(|(name, prog)| {
            let r = try_profile_with(&prog, &ProfileConfig::new().with_canonical(true))
                .expect("direct run");
            (name, r.canonical_ddg.expect("canonical captured"))
        })
        .collect()
}

fn tenant_opts(tenant: &str) -> SubmitOpts {
    SubmitOpts {
        tenant: Some(tenant.to_string()),
        ..Default::default()
    }
}

/// Submit on `c` and expect a report: `(session, cached, report_json)`.
fn done(c: &mut Client, sub: Submission<'_>) -> (u64, bool, String) {
    match c.submit(sub, &SubmitOpts::default()).unwrap() {
        Outcome::Done {
            session,
            cached,
            report_json,
            ..
        } => (session, cached, report_json),
        other => panic!("expected Done, got {other:?}"),
    }
}

/// The next frames of a connection driven by hand — for requests `Client`
/// cannot phrase and for watching a session frame by frame — up to the first
/// of type `ty`.
fn frame_of_type(stream: &mut TcpStream, ty: &str) -> String {
    loop {
        let (_, payload) = polyserve::wire::read_frame(stream)
            .unwrap()
            .expect("the server closed the connection");
        let frame = String::from_utf8(payload).unwrap();
        let got = json_str(&frame, "type").unwrap_or_default();
        if got == ty {
            return frame;
        }
        assert!(
            matches!(got.as_str(), "accepted" | "progress"),
            "waiting for `{ty}`, got {frame}"
        );
    }
}

#[test]
fn ping_metrics_and_unknown_ops() {
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.ping().unwrap());
    let m = c.metrics_json().unwrap();
    polytrace::validate_json(&m).expect("metrics frame is JSON");
    assert_eq!(polyserve::wire::json_u64(&m, "submitted"), Some(0));
    // Unknown workload and unknown op are structured rejections, and the
    // connection stays usable afterwards.
    let out = c
        .submit(
            Submission::Program { workload: "nope" },
            &SubmitOpts::default(),
        )
        .unwrap();
    assert!(matches!(out, Outcome::Rejected { ref error } if error.contains("unknown workload")));
    assert!(c.ping().unwrap());
    server.shutdown();
}

/// A number that is not an integer is a bad request — not its leading digits
/// (`1e9` would be a 1-byte budget), and not the default either.
#[test]
fn malformed_numbers_are_rejected_not_truncated() {
    use polytrace::service::ServiceCounter as C;
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    for (field, error) in [
        ("\"budget_bytes\": 1e9", "bad budget_bytes"),
        ("\"deadline_ms\": 2.5", "bad deadline_ms"),
    ] {
        let before = server.stats().get(C::RejectedBadRequest);
        let req = format!("{{\"op\": \"submit\", \"workload\": \"fig6\", {field}}}");
        polyserve::wire::write_json(&mut raw, &req).unwrap();
        // The first frame back is the `error`, with no `accepted` before it:
        // what `Client` reports as `Outcome::Rejected`.
        let frame = frame_of_type(&mut raw, "error");
        assert_eq!(json_str(&frame, "error").as_deref(), Some(error));
        assert_eq!(server.stats().get(C::RejectedBadRequest), before + 1);
    }
    assert_eq!(server.stats().get(C::Admitted), 0);
    // Nothing was half-admitted; the same connection is served next.
    polyserve::wire::write_json(&mut raw, "{\"op\": \"submit\", \"workload\": \"fig6\"}").unwrap();
    frame_of_type(&mut raw, "final");
    server.shutdown();
}

#[test]
fn served_report_is_byte_identical_to_direct_run() {
    let truth = direct_canonicals();
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for workload in ["backprop", "fig6"] {
        let out = c
            .submit(Submission::Program { workload }, &SubmitOpts::default())
            .unwrap();
        match out {
            Outcome::Done { report_json, .. } => {
                polytrace::validate_json(&report_json).expect("served report is JSON");
                let canonical =
                    polyserve::wire::json_str(&report_json, "canonical_ddg").expect("canonical");
                assert_eq!(
                    canonical, truth[workload],
                    "canonical mismatch for {workload}"
                );
                assert_eq!(
                    polyserve::wire::json_bool(&report_json, "cached"),
                    Some(false)
                );
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn cache_serves_identical_submissions_and_single_flights() {
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let addr = server.addr();
    // Fire the same workload from several threads at once; then once more
    // after the dust settles.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(
                    Submission::Program { workload: "fig6" },
                    &tenant_opts(&format!("t{i}")),
                )
                .unwrap()
            })
        })
        .collect();
    let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut canonicals = Vec::new();
    for out in &outcomes {
        match out {
            Outcome::Done { report_json, .. } => {
                canonicals.push(polyserve::wire::json_str(report_json, "canonical_ddg").unwrap())
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    assert!(canonicals.windows(2).all(|w| w[0] == w[1]));
    let mut c = Client::connect(addr).unwrap();
    match c
        .submit(
            Submission::Program { workload: "fig6" },
            &SubmitOpts::default(),
        )
        .unwrap()
    {
        Outcome::Done { cached, .. } => assert!(cached, "warm cache must serve the repeat"),
        other => panic!("expected Done, got {other:?}"),
    }
    let m = c.metrics_json().unwrap();
    let hits = polyserve::wire::json_u64(&m, "cache_hits").unwrap();
    let waits = polyserve::wire::json_u64(&m, "single_flight_waits").unwrap();
    assert!(hits >= 1, "no cache hits: {m}");
    // 6 concurrent + 1 repeat = 7 sessions over one fold: the other 6 were
    // either single-flight waiters or late cache hits.
    assert_eq!(hits + waits, 6, "dedup accounting off: {m}");
    server.shutdown();
}

#[test]
fn rate_limit_rejects_with_backoff_hint_and_retry_succeeds() {
    // One token per second: the four sequential sessions below would have
    // to take over two seconds between them to earn back the two tokens the
    // burst lacks, so shedding does not depend on how fast a session runs on
    // a loaded box (the refill arithmetic itself is unit-tested in
    // `server.rs` with synthetic instants).
    let cfg = ServerConfig {
        bucket_capacity: 2.0,
        refill_per_sec: 1.0,
        ..Default::default()
    };
    let server = serve("127.0.0.1:0", cfg, registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let opts = tenant_opts("burst");
    let mut overloaded = 0;
    for _ in 0..4 {
        match c
            .submit(Submission::Program { workload: "fig6" }, &opts)
            .unwrap()
        {
            Outcome::Overloaded {
                retry_after_ms,
                reason,
            } => {
                assert_eq!(reason, "rate_limited");
                assert!(retry_after_ms >= 1);
                overloaded += 1;
            }
            Outcome::Done { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(overloaded >= 1, "burst past capacity must shed load");
    // Honoring the hint gets the request through.
    match c
        .submit_with_retry(Submission::Program { workload: "fig6" }, &opts, 10)
        .unwrap()
    {
        Outcome::Done { .. } => {}
        other => panic!("retry should have landed: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn trace_submission_replays_and_garbage_is_rejected() {
    // Record fig6 once, then submit the bytes for offline re-folding.
    let dir = std::env::temp_dir().join(format!("polyserve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig6.ptrace");
    let prog = rodinia::paper_examples::fig6_kernel(16, 8);
    let direct = try_profile_with(
        &prog,
        &ProfileConfig::new()
            .with_canonical(true)
            .with_record_to(&path),
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();

    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let upload = Submission::Trace {
        workload: "fig6",
        bytes: &bytes,
    };
    // A replay session is budgeted and stoppable like a live one: a 1-byte
    // budget over-approximates, a spent deadline ends the fold early.
    let tight = SubmitOpts {
        budget_bytes: Some(1),
        ..SubmitOpts::default()
    };
    let expired = SubmitOpts {
        deadline_ms: Some(0),
        ..SubmitOpts::default()
    };
    for (opts, flag) in [
        (&tight, "\"budget_pressure\":true"),
        (&expired, "\"deadline_hit\":true"),
    ] {
        match c.submit(upload, opts).unwrap() {
            Outcome::Done { report_json, .. } => {
                assert!(report_json.contains(flag), "{flag} not in {report_json}")
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    // Neither degraded result was cached: the clean submission folds afresh
    // and reproduces the direct run.
    match c.submit(upload, &SubmitOpts::default()).unwrap() {
        Outcome::Done {
            cached,
            report_json,
            ..
        } => {
            assert!(!cached, "a degraded replay was served from the cache");
            let canonical = polyserve::wire::json_str(&report_json, "canonical_ddg").unwrap();
            assert_eq!(canonical, direct.canonical_ddg.unwrap());
        }
        other => panic!("expected Done, got {other:?}"),
    }
    // Garbage bytes: rejected at admission, structurally.
    match c
        .submit(
            Submission::Trace {
                workload: "fig6",
                bytes: b"this is not a polyrec recording, definitely not one at all",
            },
            &SubmitOpts::default(),
        )
        .unwrap()
    {
        Outcome::Rejected { error } => assert!(error.contains("bad recording"), "{error}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    // A valid recording submitted against the wrong workload: hash mismatch.
    match c
        .submit(
            Submission::Trace {
                workload: "backprop",
                bytes: &bytes,
            },
            &SubmitOpts::default(),
        )
        .unwrap()
    {
        Outcome::Rejected { error } => {
            assert!(error.contains("recording is of program"), "{error}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    server.shutdown();
}

/// An upload that passes admission — valid header, matching program id,
/// every frame checksummed — but names a statement its own footer does not
/// hold fails its session with the recording's structured error, not a
/// panic, and the server goes on serving the same connection.
#[test]
fn forged_statement_upload_fails_structurally_and_the_server_serves_on() {
    use polyprof_core::polyddg::{CollectSink, FoldSink};
    use polyprof_core::polyiiv::context::{ContextInterner, StmtId};
    use polyprof_core::polyrec::{program_id, Recorder, TraceWriter};
    let prog = rodinia::paper_examples::fig6_kernel(16, 8);
    let mut bytes = Vec::new();
    let w = TraceWriter::new(
        std::io::Cursor::new(&mut bytes),
        "<forged>".into(),
        program_id(&prog),
        &prog.name,
        4,
        &polyprof_core::polycfg::StaticStructure::default(),
    )
    .unwrap();
    let mut rec = Recorder::new(w, 4, CollectSink::default());
    rec.instr_point(StmtId(999), &[0], None);
    rec.finish(&ContextInterner::from_parts(Vec::new(), Vec::new()))
        .unwrap();

    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let forged = Submission::Trace {
        workload: "fig6",
        bytes: &bytes,
    };
    match c.submit(forged, &SubmitOpts::default()).unwrap() {
        Outcome::Failed { error } => {
            assert!(error.contains("statement 999"), "{error}");
            assert!(!error.contains("panicked"), "{error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    done(&mut c, Submission::Program { workload: "fig6" });
    server.shutdown();
}

/// A panic in pass 2 (`panic:pre@1`, the first memory event) ends its
/// session in an `error` frame naming the `pass-2` stage and is accounted as
/// a failed session, and the server serves the same connection on.
#[test]
fn a_pass_2_panic_ends_its_session_in_an_error_frame_and_the_server_serves_on() {
    use polytrace::service::ServiceCounter as C;
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let opts = SubmitOpts {
        fault_plan: Some("panic:pre@1".to_string()),
        ..SubmitOpts::default()
    };
    match c
        .submit(Submission::Program { workload: "fig6" }, &opts)
        .unwrap()
    {
        Outcome::Failed { error } => {
            assert!(error.contains("`pass-2` panicked"), "{error}");
            assert!(error.contains("injected fault"), "{error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(server.stats().get(C::SessionsPanicked), 1);
    done(&mut c, Submission::Program { workload: "fig6" });
    assert_eq!(server.stats().get(C::CompletedClean), 1);
    server.shutdown();
}

/// A fault plan naming a site this build does not have — the fold workers'
/// panic site is gone with them — is refused at admission with a structured
/// `bad fault_plan` that lists the sites there are.
#[test]
fn a_removed_fault_site_is_a_structured_rejection_listing_the_sites() {
    use polyprof_core::FaultSite;
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let removed = format!("panic:{}@1", "fold");
    let opts = SubmitOpts {
        fault_plan: Some(removed.clone()),
        ..SubmitOpts::default()
    };
    match c
        .submit(Submission::Program { workload: "fig6" }, &opts)
        .unwrap()
    {
        Outcome::Rejected { error } => {
            assert!(error.starts_with("bad fault_plan"), "{error}");
            assert!(error.contains(&removed[..removed.len() - 2]), "{error}");
            for site in FaultSite::ALL {
                assert!(error.contains(site.name()), "{error} omits {}", site.name());
            }
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(c.ping().unwrap());
    server.shutdown();
}

/// Progress frames carry the run's own heartbeat: valid JSON, monotone, and
/// moving while the session folds — not a row of zeros closed by the total.
#[test]
fn progress_frames_are_live() {
    let cfg = ServerConfig {
        progress_interval: Some(Duration::from_millis(2)),
        ..Default::default()
    };
    let server = serve("127.0.0.1:0", cfg, long_registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let workload = "fig6_long";
    let (progress, report_json) = match c
        .submit(Submission::Program { workload }, &SubmitOpts::default())
        .unwrap()
    {
        Outcome::Done {
            progress,
            report_json,
            ..
        } => (progress, report_json),
        other => panic!("expected Done, got {other:?}"),
    };
    assert!(progress.len() >= 3, "{} frames", progress.len());
    let column = |key: &str| -> Vec<u64> {
        progress
            .iter()
            .map(|f| polyserve::wire::json_u64(f, key).unwrap_or_else(|| panic!("{key} in {f}")))
            .collect()
    };
    for frame in &progress {
        polytrace::validate_json(frame).unwrap_or_else(|e| panic!("{e}: {frame}"));
    }
    for key in ["t_ns", "dyn_ops", "events_folded"] {
        let vals = column(key);
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{key}: {vals:?}");
    }
    let mut ops = column("dyn_ops");
    let total = polyserve::wire::json_u64(&report_json, "dyn_ops").unwrap();
    assert!(ops.last().unwrap() <= &total, "{ops:?} past {total}");
    ops.dedup();
    assert!(ops.len() >= 3, "dyn_ops stood still: {ops:?}");
    // The budget's byte gauge rides along: shadow pages and folders charged.
    assert!(column("budget_used_bytes").last().unwrap() > &0);
    server.shutdown();
}

/// The owner is the watchdog. This session's first heartbeat stalls for
/// 300 ms (`stall:beat@*`), past its 150 ms deadline and past the 100 ms of
/// grace after it, so the owner's cancel lands during the stall; the run
/// then stops at the heartbeat that ends the stall.
#[test]
fn owner_cancels_a_session_that_outlives_deadline_plus_grace() {
    let cfg = ServerConfig {
        deadline_grace: Duration::from_millis(100),
        ..Default::default()
    };
    let server = serve("127.0.0.1:0", cfg, long_registry()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let opts = SubmitOpts {
        fault_plan: Some("stall:beat@*;stall_ms=300".to_string()),
        deadline_ms: Some(150),
        ..SubmitOpts::default()
    };
    let workload = "fig6_long";
    match c.submit(Submission::Program { workload }, &opts).unwrap() {
        Outcome::Done { report_json, .. } => assert!(
            report_json.contains("\"deadline_hit\":true"),
            "{report_json}"
        ),
        other => panic!("expected Done, got {other:?}"),
    }
    let m = c.metrics_json().unwrap();
    assert_eq!(polyserve::wire::json_u64(&m, "watchdog_cancels"), Some(1));
    assert_eq!(polyserve::wire::json_u64(&m, "completed_degraded"), Some(1));
    server.shutdown();
}

/// Nothing in the server polls, so shutdown has to wake what blocks: with an
/// idle client connected, and after a client that vanished right behind its
/// `submit` (whose session still runs and is still accounted), both
/// `ServerHandle::shutdown` and `op: shutdown` return at once and leave
/// nobody listening.
#[test]
fn shutdown_wakes_every_blocked_thread_and_closes_the_listener() {
    use polytrace::service::ServiceCounter as C;
    for via_client in [false, true] {
        let server = serve("127.0.0.1:0", ServerConfig::default(), registry()).unwrap();
        let addr = server.addr();
        let mut idle = Client::connect(addr).unwrap();
        assert!(idle.ping().unwrap());

        let mut gone = std::net::TcpStream::connect(addr).unwrap();
        let submit = "{\"op\": \"submit\", \"workload\": \"fig6\"}";
        polyserve::wire::write_json(&mut gone, submit).unwrap();
        drop(gone);
        let stats = server.stats();
        let finished = || {
            stats.get(C::CompletedClean)
                + stats.get(C::CompletedDegraded)
                + stats.get(C::SessionsPanicked)
        };
        wait_until("the orphaned session", || finished() == 1);
        assert_eq!(stats.get(C::Admitted), 1);

        let t0 = Instant::now();
        if via_client {
            Client::connect(addr).unwrap().shutdown().unwrap();
            let later = Client::connect(addr).and_then(|mut c| c.ping());
            assert!(later.is_err(), "served after `op: shutdown`: {later:?}");
        }
        server.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        let later = Client::connect(addr).and_then(|mut c| c.ping());
        assert!(later.is_err(), "served after shutdown: {later:?}");
    }
}

/// What the cache hands out is the fresh report itself: the same bytes but
/// for the session id and the `cached` flag — for a dense workload, an
/// irregular one and an uploaded recording.
#[test]
fn hit_bytes_equal_fresh_bytes() {
    let dir = std::env::temp_dir().join(format!("polyserve-hit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig6.ptrace");
    let prog = rodinia::paper_examples::fig6_kernel(16, 8);
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut registry = registry();
    registry.push(("bfs".to_string(), rodinia::bfs::build().program));
    let server = serve("127.0.0.1:0", ServerConfig::default(), registry).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for sub in [
        Submission::Program {
            workload: "backprop",
        },
        Submission::Program { workload: "bfs" },
        Submission::Trace {
            workload: "fig6",
            bytes: &bytes,
        },
    ] {
        let (fresh_id, fresh_cached, fresh) = done(&mut c, sub);
        let (hit_id, hit_cached, hit) = done(&mut c, sub);
        assert!(!fresh_cached && hit_cached, "{sub:?}");
        assert_ne!(fresh_id, hit_id);
        polytrace::validate_json(&hit).expect("a hit is JSON");
        let expected = fresh.replacen(
            &format!("\"session\": {fresh_id}, \"cached\": false"),
            &format!("\"session\": {hit_id}, \"cached\": true"),
            1,
        );
        assert_ne!(expected, fresh, "the head was not where it was looked for");
        assert!(hit == expected, "hit and fresh differ for {sub:?}");
    }
    server.shutdown();
}

/// A result the cache holds is answered at admission by the connection
/// thread: with the only worker held and the queue's only slot taken, a
/// repeat comes back cached — not shed, not queued — before the held session
/// ends. The order of events is read off frames, never slept for: the held
/// session ([`hold_a_worker`]) outlasts the two round trips that follow its
/// first `progress` frame by construction.
#[test]
fn hit_is_served_while_every_worker_is_busy() {
    use polytrace::service::ServiceCounter as C;
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 1,
        deadline_grace: Duration::from_millis(100),
        progress_interval: Some(Duration::from_millis(10)),
        ..Default::default()
    };
    let mut registry = registry();
    registry.extend(long_registry());
    let server = serve("127.0.0.1:0", cfg, registry).unwrap();
    let (addr, stats) = (server.addr(), server.stats());
    let fig6 = Submission::Program { workload: "fig6" };

    let mut c = Client::connect(addr).unwrap();
    assert!(!done(&mut c, fig6).1, "the first fig6 folds");

    // `progress` follows `Started`: the worker is in this session's fold.
    let mut held = hold_a_worker(addr);
    frame_of_type(&mut held, "progress");
    // `accepted`: this one is in the queue, where it stays.
    let mut queued = TcpStream::connect(addr).unwrap();
    let submit = "{\"op\": \"submit\", \"workload\": \"backprop\", \"tenant\": \"queued\"}";
    polyserve::wire::write_json(&mut queued, submit).unwrap();
    frame_of_type(&mut queued, "accepted");

    assert!(done(&mut c, fig6).1, "the repeat is served from the cache");
    // Nothing but the two fig6 sessions has finished: the hit came back
    // before the held session's `final`...
    let finished = || {
        stats.get(C::CompletedClean)
            + stats.get(C::CompletedDegraded)
            + stats.get(C::SessionsPanicked)
    };
    assert_eq!(finished(), 2);
    // ...and past a full queue, which sheds what the cache does not hold.
    match c
        .submit(
            Submission::Program { workload: "nw" },
            &SubmitOpts::default(),
        )
        .unwrap()
    {
        Outcome::Overloaded { reason, .. } => assert_eq!(reason, "queue_full"),
        other => panic!("expected queue_full, got {other:?}"),
    }

    let report = frame_of_type(&mut held, "final");
    assert!(report.contains("\"deadline_hit\":true"));
    frame_of_type(&mut queued, "final");
    // The hit was admitted and completed like any session, but never queued.
    assert_eq!(stats.get(C::Admitted), 4);
    assert_eq!(finished(), 4);
    assert_eq!(stats.get(C::CacheHits), 1);
    assert_eq!(stats.get(C::RejectedQueueFull), 1);
    assert_eq!(stats.queue_wait().count(), 3);
    assert_eq!(stats.session_wall().count(), 4);
    server.shutdown();
}

/// The acceptance gate: a mixed-tenant storm with a chaos tenant under a
/// permanent fault plan and a 1-byte budget.
#[test]
fn chaos_loadgen_gate() {
    let truth = direct_canonicals();
    let cfg = ServerConfig {
        queue_cap: 256,
        workers: 4,
        bucket_capacity: 64.0,
        refill_per_sec: 256.0,
        session_deadline: Duration::from_secs(20),
        deadline_grace: Duration::from_secs(5),
        progress_interval: Some(Duration::from_millis(5)),
    };
    let wall_bound = cfg.session_deadline + cfg.deadline_grace;
    let server = serve("127.0.0.1:0", cfg, registry()).unwrap();
    let addr = server.addr();

    // 4 healthy tenants × 16 sessions + 1 chaos tenant × 8 = 72 sessions.
    let workloads = ["backprop", "pathfinder", "nw", "fig6"];
    let mut handles = Vec::new();
    for (t, tenant) in ["alpha", "beta", "gamma", "delta"].iter().enumerate() {
        for i in 0..16 {
            let tenant = tenant.to_string();
            let workload = workloads[(t + i) % workloads.len()];
            handles.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let t0 = Instant::now();
                let out = c
                    .submit_with_retry(Submission::Program { workload }, &tenant_opts(&tenant), 50)
                    .unwrap();
                (workload.to_string(), out, t0.elapsed())
            }));
        }
    }
    // The chaos tenant, under a 1-byte budget (forcing over-approximation
    // degradation): even sessions panic in pass 2 at a seeded memory event,
    // odd ones lose every shadow page and stall every heartbeat.
    let mut chaos_handles = Vec::new();
    for i in 0..8 {
        chaos_handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let plan = match i % 2 {
                0 => "seed=9;panic:pre@?",
                _ => "seed=9;alloc:shadow@*;stall:beat@*;stall_ms=1",
            };
            let opts = SubmitOpts {
                tenant: Some("chaos".to_string()),
                fault_plan: Some(plan.to_string()),
                budget_bytes: Some(1),
                deadline_ms: Some(20_000),
            };
            let workload = ["backprop", "fig6"][i % 2];
            c.submit_with_retry(Submission::Program { workload }, &opts, 50)
                .unwrap()
        }));
    }

    let mut healthy_done = 0;
    for h in handles {
        let (workload, out, wall) = h.join().unwrap();
        // No healthy session outlives its deadline + grace as its client
        // sees it (retries included): a wedged session is cancelled by the
        // watchdog and still answers.
        assert!(
            wall < wall_bound,
            "{workload}: session took {wall:?}, past deadline + grace {wall_bound:?}"
        );
        match out {
            Outcome::Done {
                report_json,
                progress: _,
                ..
            } => {
                // The load-bearing assertion: a served healthy report is
                // byte-identical to the direct in-process run.
                let canonical =
                    polyserve::wire::json_str(&report_json, "canonical_ddg").expect("canonical");
                assert_eq!(canonical, truth[&workload], "mismatch for {workload}");
                healthy_done += 1;
            }
            other => panic!("healthy session must complete, got {other:?}"),
        }
    }
    assert_eq!(healthy_done, 64, "every healthy session delivers a report");

    // Chaos sessions: each either completes degraded or fails with a
    // structured error — never a hang, never a dead server.
    let mut chaos_outcomes = 0;
    let mut chaos_failed = 0;
    for h in chaos_handles {
        match h.join().unwrap() {
            Outcome::Done { report_json, .. } => {
                // Degraded canonical may legitimately differ from truth
                // (over-approximation); what matters is the session
                // reported degradation truthfully.
                assert!(report_json.contains("\"degradation\":"), "{report_json}");
                assert!(
                    report_json.contains("\"shadow_alloc_failures\":"),
                    "{report_json}"
                );
                assert!(
                    !report_json.contains("\"shadow_alloc_failures\":0"),
                    "{report_json}"
                );
                chaos_outcomes += 1;
            }
            Outcome::Failed { error } => {
                assert!(error.contains("`pass-2` panicked"), "{error}");
                chaos_failed += 1;
                chaos_outcomes += 1;
            }
            other => panic!("chaos session must terminate structurally, got {other:?}"),
        }
    }
    assert_eq!(chaos_outcomes, 8);
    assert_eq!(chaos_failed, 4, "every panic:pre session fails, no other");

    // The server survived: still answers, and the books balance.
    let mut c = Client::connect(addr).unwrap();
    assert!(c.ping().unwrap());
    let m = c.metrics_json().unwrap();
    let admitted = polyserve::wire::json_u64(&m, "admitted").unwrap();
    let clean = polyserve::wire::json_u64(&m, "completed_clean").unwrap();
    let degraded = polyserve::wire::json_u64(&m, "completed_degraded").unwrap();
    let panicked = polyserve::wire::json_u64(&m, "sessions_panicked").unwrap();
    assert!(admitted >= 72, "metrics: {m}");
    assert_eq!(
        clean + degraded + panicked,
        admitted,
        "every admitted session must terminate: {m}"
    );
    assert!(clean >= 64, "healthy sessions all clean: {m}");
    assert_eq!(panicked, 4, "only the panic:pre sessions failed: {m}");
    server.shutdown();
}

/// Queue-full load shedding: a tiny queue with slow workers sheds cleanly.
/// The one worker is held first: the twelve submissions are identical, and
/// once one of them had folded, the rest would be answered from the cache at
/// admission and never ask for a queue slot.
#[test]
fn queue_full_sheds_structurally() {
    let cfg = ServerConfig {
        queue_cap: 2,
        workers: 1,
        bucket_capacity: 1000.0,
        refill_per_sec: 1000.0,
        ..Default::default()
    };
    let mut registry = registry();
    registry.extend(long_registry());
    let server = serve("127.0.0.1:0", cfg, registry).unwrap();
    let addr = server.addr();
    let _held = hold_a_worker(addr);
    wait_until("the worker to take the held session", || {
        server.stats().queue_wait().count() == 1
    });
    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(
                    Submission::Program {
                        workload: "backprop",
                    },
                    &tenant_opts(&format!("q{i}")),
                )
                .unwrap()
            })
        })
        .collect();
    let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Overloaded { reason, .. } if reason == "queue_full"))
        .count();
    let done = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Done { .. }))
        .count();
    assert_eq!(shed + done, 12);
    assert!(
        shed >= 1,
        "12 instant submissions into a 2-slot queue must shed"
    );
    for o in &outcomes {
        if let Outcome::Overloaded { retry_after_ms, .. } = o {
            assert!(*retry_after_ms >= 10, "hint too small: {retry_after_ms}");
        }
    }
    server.shutdown();
}
