//! Loopback `polyserve` load: a registry of generated programs, a seed-fixed
//! schedule of sessions, closed-loop clients with one persistent connection
//! each, and the checks that compare what the server returned with what the
//! same commit computes in process.

use crate::spans::Spans;
use crate::stats::{median, percentile, Metric};
use crate::workloads::{Case, Rng};
use polyprof_core::polytrace::json_escape;
use polyprof_core::polytrace::service::{ServiceCounter, ServiceStats};
use polyprof_core::{try_profile_with, ProfileConfig};
use polyserve::wire::fnv1a;
use polyserve::{serve, Client, Outcome, ServerConfig, ServerHandle, Submission, SubmitOpts};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What a session is expected to be on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Resubmission of a program the cache already holds.
    Hit,
    /// First submission of a program: runs the whole pipeline.
    Miss,
    /// Upload of a `.ptrace` recording: folds without the VM.
    Trace,
}

/// One planned submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub kind: Kind,
    /// Index into [`Pool::registry`].
    pub program: usize,
}

/// Sessions of one block of the mix: 60 % hits, 25 % misses, 15 % uploads.
/// Hits are the majority on purpose: with exactly half, the median session
/// would be the slowest hit or the fastest miss, whichever the tie falls to.
pub const BLOCK: [(Kind, usize); 3] = [(Kind::Hit, 12), (Kind::Miss, 5), (Kind::Trace, 3)];
/// Sessions per block.
pub const BLOCK_LEN: usize = 20;

/// The registry the server is started with, and the recordings to upload.
pub struct Pool {
    /// Hot programs first, then programs that are each submitted once.
    pub registry: Vec<Case>,
    /// `recordings[i]` is the `.ptrace` of `registry[i]`, where one was made.
    pub recordings: Vec<Option<Vec<u8>>>,
}

impl Pool {
    /// Record a live run of `registry[idx]` for later upload; the recording
    /// is spooled under `scratch`.
    pub fn record(&mut self, idx: usize, scratch: &Path) {
        let path = scratch.join(format!("pool-{idx}.ptrace"));
        try_profile_with(
            &self.registry[idx].program,
            &ProfileConfig::new().with_record_to(&path),
        )
        .expect("pool programs profile cleanly");
        self.recordings[idx] = Some(std::fs::read(&path).expect("recording was written"));
        let _ = std::fs::remove_file(&path);
    }
}

/// The seed-fixed mix: per client, `blocks` blocks of [`BLOCK_LEN`] sessions
/// in shuffled order. Hits draw from the hot programs; every miss and every
/// upload takes the next program nobody has used for that purpose yet.
pub fn mix_schedule(seed: u64, clients: usize, blocks: usize, hot: usize) -> Vec<Vec<Session>> {
    let mut rng = Rng::new(seed ^ 0x5e55);
    let (mut next_miss, mut next_trace) = (hot, hot);
    (0..clients)
        .map(|_| {
            let mut plan = Vec::with_capacity(blocks * BLOCK_LEN);
            for _ in 0..blocks {
                let mut block = Vec::with_capacity(BLOCK_LEN);
                for (kind, n) in BLOCK {
                    for _ in 0..n {
                        let program = match kind {
                            Kind::Hit => rng.below(hot as u64) as usize,
                            Kind::Miss => {
                                next_miss += 1;
                                next_miss - 1
                            }
                            Kind::Trace => {
                                next_trace += 1;
                                next_trace - 1
                            }
                        };
                        block.push(Session { kind, program });
                    }
                }
                rng.shuffle(&mut block);
                plan.extend(block);
            }
            plan
        })
        .collect()
}

/// For a registry with no hot set: each program is submitted fresh, twice
/// more from the cache, and once as a recording.
pub fn each_program_schedule(programs: usize) -> Vec<Vec<Session>> {
    let plan = (0..programs)
        .flat_map(|program| {
            [Kind::Miss, Kind::Hit, Kind::Hit, Kind::Trace].map(|kind| Session { kind, program })
        })
        .collect();
    vec![plan]
}

/// What one session looked like from the client.
#[derive(Debug, Clone)]
pub struct Sample {
    pub session: Session,
    pub latency: Duration,
    /// `Done` with the expected `cached` flag.
    pub ok: bool,
    pub report_bytes: usize,
    /// FNV-1a of the returned canonical DDG, as escaped on the wire.
    pub canonical: u64,
}

/// A started server plus the clock its spans share.
pub struct Loopback {
    pub server: ServerHandle,
    pub origin: Instant,
}

/// Start a server over `pool` sized so that nothing is shed: two workers, a
/// queue and token bucket far above what two closed-loop clients can fill,
/// progress frames off.
pub fn start(pool: &Pool) -> Loopback {
    let cfg = ServerConfig {
        queue_cap: 4096,
        workers: 2,
        bucket_capacity: 1e9,
        refill_per_sec: 1e9,
        session_deadline: Duration::from_secs(60),
        deadline_grace: Duration::from_secs(5),
        progress_interval: None,
    };
    let registry = pool
        .registry
        .iter()
        .map(|c| (c.name.clone(), c.program.clone()))
        .collect();
    Loopback {
        server: serve("127.0.0.1:0", cfg, registry).expect("loopback server binds"),
        origin: Instant::now(),
    }
}

/// The `canonical_ddg` string of a report, still escaped: the digest is taken
/// over the wire form, so a client spends its time between two sessions on a
/// scan for the closing quote and not on unescaping tens of kilobytes.
fn escaped_canonical(report_json: &str) -> &str {
    const KEY: &str = "\"canonical_ddg\": \"";
    let Some(start) = report_json.find(KEY).map(|at| at + KEY.len()) else {
        return "";
    };
    let bytes = report_json.as_bytes();
    let mut end = start;
    while end < bytes.len() && bytes[end] != b'"' {
        end += if bytes[end] == b'\\' { 2 } else { 1 };
    }
    report_json.get(start..end).unwrap_or("")
}

fn submit(client: &mut Client, pool: &Pool, s: Session) -> Sample {
    let workload = pool.registry[s.program].name.as_str();
    let sub = match s.kind {
        Kind::Trace => Submission::Trace {
            workload,
            bytes: pool.recordings[s.program]
                .as_deref()
                .expect("scheduled uploads were recorded"),
        },
        Kind::Hit | Kind::Miss => Submission::Program { workload },
    };
    let t0 = Instant::now();
    let outcome = client.submit(sub, &SubmitOpts::default());
    let latency = t0.elapsed();
    match outcome {
        Ok(Outcome::Done {
            cached,
            report_json,
            ..
        }) => Sample {
            session: s,
            latency,
            ok: cached == (s.kind == Kind::Hit),
            report_bytes: report_json.len(),
            canonical: fnv1a(escaped_canonical(&report_json).as_bytes()),
        },
        _ => Sample {
            session: s,
            latency,
            ok: false,
            report_bytes: 0,
            canonical: 0,
        },
    }
}

/// Drive `plans` (one per client thread) against the server, each client on
/// its own persistent connection, waiting for every reply before sending
/// the next request. A client stops at the first block boundary past
/// `deadline`, so the mix proportions hold whatever the cut. With `traced`,
/// every session is a span. Returns each client's samples, the wall time of
/// the phase and each client's spans.
pub fn drive(
    lb: &Loopback,
    pool: &Pool,
    plans: &[&[Session]],
    deadline: Instant,
    traced: bool,
) -> (Vec<Vec<Sample>>, Duration, Vec<Spans>) {
    let addr = lb.server.addr();
    let barrier = Barrier::new(plans.len());
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut all_spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(tid, &plan)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("loopback connect");
                    assert!(client.ping().expect("ping"), "server answers ping");
                    let mut spans = Spans::new(lb.origin, tid as u32 + 1);
                    let mut samples = Vec::with_capacity(plan.len());
                    barrier.wait();
                    for (i, &s) in plan.iter().enumerate() {
                        if i % BLOCK_LEN == 0 && Instant::now() >= deadline {
                            break;
                        }
                        let sample = if traced {
                            let name = match s.kind {
                                Kind::Hit => "polyserve.session.hit",
                                Kind::Miss => "polyserve.session.miss",
                                Kind::Trace => "polyserve.session.trace",
                            };
                            let it = (tid * plan.len() + i) as u64;
                            spans
                                .time(name, it, |sp| {
                                    let sample = submit(&mut client, pool, s);
                                    sp.count("report_bytes", sample.report_bytes as f64);
                                    sample
                                })
                                .0
                        } else {
                            submit(&mut client, pool, s)
                        };
                        samples.push(sample);
                    }
                    (samples, spans)
                })
            })
            .collect();
        for h in handles {
            let (samples, spans) = h.join().expect("client thread");
            out.push(samples);
            all_spans.push(spans);
        }
    });
    (out, t0.elapsed(), all_spans)
}

/// Median time to open a new connection and get a pong.
pub fn connect_ms(lb: &Loopback, reps: usize) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let mut c = Client::connect(lb.server.addr()).expect("loopback connect");
            assert!(c.ping().expect("ping"), "server answers ping");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut v)
}

/// Server-side counters at one moment, for differencing around a phase.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    submitted: u64,
    admitted: u64,
    hits: u64,
    shed: u64,
}

pub fn counters(stats: &ServiceStats) -> Counters {
    Counters {
        submitted: stats.get(ServiceCounter::Submitted),
        admitted: stats.get(ServiceCounter::Admitted),
        hits: stats.get(ServiceCounter::CacheHits),
        shed: stats.rejections(),
    }
}

/// In-process truth for one session: the canonical DDG digest of a direct
/// run of the same program with the server's configuration, and how long
/// that run took.
pub fn in_process(case: &Case) -> (u64, Duration) {
    let t0 = Instant::now();
    let report = try_profile_with(&case.program, &ProfileConfig::new().with_canonical(true))
        .expect("pool programs profile cleanly");
    let wall = t0.elapsed();
    let canonical = report.canonical_ddg.unwrap_or_default();
    (fnv1a(json_escape(&canonical).as_bytes()), wall)
}

/// Cross-path check and overhead of every session: a served canonical DDG —
/// cached, fresh or replayed from an upload — must equal the in-process one
/// of the same commit. Returns `(sessions whose DDG matched, fresh overhead
/// samples in ms)`.
pub fn cross_check(pool: &Pool, samples: &[Sample]) -> (usize, Vec<f64>) {
    let mut truth: Vec<Option<(u64, Duration)>> = vec![None; pool.registry.len()];
    let mut matched = 0;
    let mut overhead_ms = Vec::new();
    for s in samples {
        let (digest, wall) = *truth[s.session.program]
            .get_or_insert_with(|| in_process(&pool.registry[s.session.program]));
        if s.ok && s.canonical == digest {
            matched += 1;
        }
        if s.session.kind == Kind::Miss {
            overhead_ms.push((s.latency.as_secs_f64() - wall.as_secs_f64()) * 1e3);
        }
    }
    (matched, overhead_ms)
}

fn latencies_ms(samples: &[Sample], kind: Option<Kind>) -> Vec<f64> {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.session.kind == k))
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `polyserve.*` rows of one driven phase.
pub fn rows(
    lb: &Loopback,
    samples: &[Sample],
    before: Counters,
    mut overhead_ms: Vec<f64>,
    connect_ms: f64,
) -> Vec<Metric> {
    let stats = lb.server.stats();
    let after = counters(stats);
    let p50 = |kind| percentile(&latencies_ms(samples, Some(kind)), 0.5);
    let n = |kind| samples.iter().filter(|s| s.session.kind == kind).count();
    let all = latencies_ms(samples, None);
    let mut report_bytes: Vec<f64> = samples.iter().map(|s| s.report_bytes as f64).collect();
    let admitted = (after.admitted - before.admitted).max(1) as f64;
    let submitted = (after.submitted - before.submitted).max(1) as f64;
    let (queue, wall) = (stats.queue_wait(), stats.session_wall());
    let n_overhead = overhead_ms.len();
    vec![
        Metric::new("polyserve.hit_latency_ms_p50", p50(Kind::Hit), n(Kind::Hit)),
        Metric::new(
            "polyserve.fresh_latency_ms_p50",
            p50(Kind::Miss),
            n(Kind::Miss),
        ),
        Metric::new(
            "polyserve.trace_latency_ms_p50",
            p50(Kind::Trace),
            n(Kind::Trace),
        ),
        Metric::new(
            "polyserve.fresh_overhead_ms_p50",
            median(&mut overhead_ms),
            n_overhead,
        ),
        Metric::new(
            "polyserve.latency_ms_p99",
            percentile(&all, 0.99),
            all.len(),
        ),
        Metric::new("polyserve.connect_ms_p50", connect_ms, 1),
        Metric::new(
            "polyserve.queue_wait_ms_p50",
            queue.percentile(0.5) as f64 / 1e6,
            queue.count() as usize,
        ),
        Metric::new(
            "polyserve.queue_wait_ms_p99",
            queue.percentile(0.99) as f64 / 1e6,
            queue.count() as usize,
        ),
        Metric::new(
            "polyserve.session_wall_ms_p50",
            wall.percentile(0.5) as f64 / 1e6,
            wall.count() as usize,
        ),
        Metric::new(
            "polyserve.cache_hit_ratio",
            (after.hits - before.hits) as f64 / admitted,
            admitted as usize,
        ),
        Metric::new(
            "polyserve.shed_share",
            (after.shed - before.shed) as f64 / submitted,
            submitted as usize,
        ),
        Metric::new(
            "polyserve.report_bytes_p50",
            median(&mut report_bytes),
            samples.len(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_field_is_cut_at_its_own_closing_quote() {
        let text = "stmt \"a\"\nends in a backslash \\";
        let report = format!(
            "{{\"cached\": false, \"canonical_ddg\": \"{}\", \"x\": \"y\"}}",
            json_escape(text)
        );
        assert_eq!(escaped_canonical(&report), json_escape(text));
        assert_eq!(escaped_canonical("{\"cached\": true}"), "");
    }

    #[test]
    fn mix_keeps_its_proportions_and_every_miss_is_distinct() {
        let hot = 4;
        let plans = mix_schedule(9, 2, 25, hot);
        let all: Vec<Session> = plans.concat();
        let count = |k| all.iter().filter(|s| s.kind == k).count();
        assert_eq!(
            (count(Kind::Hit), count(Kind::Miss), count(Kind::Trace)),
            (600, 250, 150)
        );
        assert!(all
            .iter()
            .all(|s| (s.kind == Kind::Hit) == (s.program < hot)));
        for kind in [Kind::Miss, Kind::Trace] {
            let mut used: Vec<usize> = all
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.program)
                .collect();
            used.sort_unstable();
            let n = used.len();
            used.dedup();
            assert_eq!(used.len(), n, "{kind:?} reuses a program");
        }
        // Every block keeps the proportions, so a cut at a block boundary
        // leaves the hit ratio at exactly 0.6.
        for plan in &plans {
            for block in plan.chunks(BLOCK_LEN) {
                assert_eq!(block.iter().filter(|s| s.kind == Kind::Hit).count(), 12);
            }
        }
        assert_eq!(mix_schedule(9, 2, 25, hot), plans);
        assert_ne!(mix_schedule(10, 2, 25, hot), plans);
    }
}
