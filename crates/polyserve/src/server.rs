//! The profiling server: admission control, multi-tenant scheduling, and
//! session supervision over [`polyprof_core::try_profile_with`].
//!
//! One [`serve`] call binds a TCP listener and returns a [`ServerHandle`];
//! everything else is threads — `workers` + 1 owned by the handle, one per
//! open connection, none per session — and every one of them blocks until
//! it has something to do:
//!
//! - an **accept loop**, blocked in `accept`, spawning one connection thread
//!   per client;
//! - **connection threads** that parse requests and run *admission*: a
//!   per-tenant token bucket (rate limiting) in front of a bounded run
//!   queue (load shedding). Both rejections are *structured* — the client
//!   gets an `overloaded` frame with a `retry_after_ms` hint, never an
//!   accepted-then-hung session. After admission the connection thread
//!   **owns its session**: it is the only holder of the socket and so the
//!   only writer of `accepted`, every `progress` frame and the terminal
//!   frame; it reads the progress it reports from the session's
//!   [`ResourceBudget`] heartbeat; and it is the session's watchdog, which
//!   [`ResourceBudget::cancel`]s a run still going past its deadline plus a
//!   grace period, turning a wedged run into a graceful partial result;
//! - a **worker pool** draining the queue in round-robin tenant order (a
//!   tenant flooding the queue cannot starve the others), each session
//!   folded under `catch_unwind` with its own forked fault plan and its own
//!   [`ResourceBudget`] — a panicking or wedged session degrades *that*
//!   session only. A worker never touches a socket: it answers the owner on
//!   a channel (`Started`, then `Done` with the terminal frame);
//! - a **folded-DDG cache** keyed by `(program hash, input hash)` with
//!   single-flight dedup: identical clean submissions fold once, every
//!   other session waits for (or reuses) that result.
//!
//! The byte-comparison contract: a healthy session's `canonical_ddg` in the
//! final report frame is byte-identical to a direct in-process
//! `try_profile_with` run of the same workload — the serve gate asserts it.

use crate::wire::{fnv1a, json_str, json_u64, read_frame, write_json, KIND_BINARY, KIND_JSON};
use polyir::Program;
use polyprof_core::{
    try_profile_with, FaultPlan, PolyProfError, ProfileConfig, Report, ResourceBudget,
};
use polytrace::service::{ServiceCounter, ServiceStats};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded run-queue capacity across all tenants; a full queue sheds
    /// load with a structured `overloaded` rejection.
    pub queue_cap: usize,
    /// Worker threads draining the run queue.
    pub workers: usize,
    /// Token-bucket burst capacity per tenant.
    pub bucket_capacity: f64,
    /// Token refill rate per tenant, tokens per second.
    pub refill_per_sec: f64,
    /// Per-session watchdog deadline, measured from the moment a worker
    /// starts the session (queue wait does not eat into it — the budget is
    /// re-armed at run start).
    pub session_deadline: Duration,
    /// Grace past the deadline before the session's owner — its connection
    /// thread — force-cancels a run that did not stop on its own.
    pub deadline_grace: Duration,
    /// How often the connection thread reads the folding session's heartbeat
    /// ([`ResourceBudget::progress`], refreshed by the run every 4096 dynamic
    /// instructions or replayed frame) and sends it to the client as a
    /// `progress` frame; `None` sends none.
    pub progress_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 128,
            workers: 4,
            bucket_capacity: 32.0,
            refill_per_sec: 64.0,
            session_deadline: Duration::from_secs(10),
            deadline_grace: Duration::from_secs(2),
            progress_interval: None,
        }
    }
}

/// Poison-tolerant lock: a panicking session must never take the server
/// down with a poisoned mutex (sessions run under `catch_unwind`, but
/// defense in depth is cheap).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What one admitted session will fold.
enum JobKind {
    /// A registered workload, run through the VM on an empty input.
    Program,
    /// An uploaded `.ptrace` recording, re-folded offline.
    Trace(Vec<u8>),
}

/// What a worker tells the connection thread that owns the session.
enum Msg {
    /// The fold begins at this instant: queue wait and single-flight are
    /// over and the budget's deadline was just re-armed.
    Started(Instant),
    /// The terminal frame, for the owner to write.
    Done(String),
}

/// One admitted session, queued for a worker.
struct Job {
    session: u64,
    workload: String,
    prog: Arc<Program>,
    prog_hash: u64,
    input_hash: u64,
    kind: JobKind,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Shared with the owner, which watches and cancels the run through it.
    budget: Arc<ResourceBudget>,
    memory_budget: Option<u64>,
    enqueued: Instant,
    /// To the connection thread that owns the session and its socket.
    owner: Sender<Msg>,
}

/// Per-tenant token bucket. Time is an argument, never read here, so the
/// burst and hint arithmetic is testable with synthetic instants.
struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    /// A full bucket as of `now`.
    fn full(capacity: f64, now: Instant) -> Self {
        Bucket {
            tokens: capacity,
            last: now,
        }
    }

    /// Credit the tokens earned since the last call, as of `now`. `Err`
    /// carries the backoff hint — milliseconds until one whole token is
    /// available — when the bucket cannot pay for a request.
    fn refill(&mut self, now: Instant, capacity: f64, per_sec: f64) -> Result<(), u64> {
        let dt = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * per_sec).min(capacity);
        self.last = now;
        if self.tokens >= 1.0 {
            return Ok(());
        }
        Err((((1.0 - self.tokens) / per_sec) * 1000.0).ceil().max(1.0) as u64)
    }
}

/// The run queue: per-tenant FIFOs drained in round-robin tenant order.
#[derive(Default)]
struct Sched {
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order: every tenant ever seen, in first-seen order.
    rr: Vec<String>,
    next: usize,
    queued: usize,
    buckets: HashMap<String, Bucket>,
}

impl Sched {
    /// Pop the next job, fair across tenants: scan `rr` starting one past
    /// the previously served tenant.
    fn pop(&mut self) -> Option<Job> {
        let n = self.rr.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            let tenant = &self.rr[idx];
            if let Some(q) = self.queues.get_mut(tenant) {
                if let Some(job) = q.pop_front() {
                    self.next = (idx + 1) % n;
                    self.queued -= 1;
                    return Some(job);
                }
            }
        }
        None
    }
}

/// A finished clean fold, reusable for identical submissions.
struct CachedRun {
    canonical: String,
    folded: (usize, usize, u64),
    degradation_json: String,
}

/// Single-flight cache slot.
enum CacheEntry {
    /// A leader session is folding this key right now.
    Pending,
    /// Folded and clean; reuse freely.
    Ready(Arc<CachedRun>),
}

struct Inner {
    addr: SocketAddr,
    cfg: ServerConfig,
    registry: HashMap<String, (Arc<Program>, u64)>,
    stats: ServiceStats,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    cache: Mutex<HashMap<(u64, u64), CacheEntry>>,
    cache_cv: Condvar,
    next_session: AtomicU64,
    stop: AtomicBool,
}

impl Inner {
    /// Raise `stop` and wake every thread that blocks until there is work:
    /// the workers on `work_cv`, the accept loop in `accept`.
    fn shut_down(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // A worker that saw `stop` clear holds the scheduler lock until it
        // waits, so passing through the lock first means the notification
        // finds it either waiting or yet to read the flag.
        drop(lock(&self.sched));
        self.work_cv.notify_all();
        // `accept` has no timeout: a connection makes it return and see the
        // flag. Nothing is listening after a second call, which is fine.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle leaves the server running
/// (detached); call [`ServerHandle::shutdown`] for an orderly stop.
pub struct ServerHandle {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with the ephemeral port `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Fleet-level counters and latency distributions.
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.stats
    }

    /// Stop accepting, drain workers, join every owned thread.
    pub fn shutdown(mut self) {
        self.inner.shut_down();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (use `127.0.0.1:0` for an ephemeral port), install the
/// workload registry, spawn the accept loop and the worker pool.
pub fn serve(
    addr: &str,
    cfg: ServerConfig,
    registry: Vec<(String, Program)>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let registry = registry
        .into_iter()
        .map(|(name, prog)| {
            let h = polyrec::program_hash(&prog);
            (name, (Arc::new(prog), h))
        })
        .collect();
    let inner = Arc::new(Inner {
        addr,
        cfg,
        registry,
        stats: ServiceStats::new(),
        sched: Mutex::new(Sched::default()),
        work_cv: Condvar::new(),
        cache: Mutex::new(HashMap::new()),
        cache_cv: Condvar::new(),
        next_session: AtomicU64::new(1),
        stop: AtomicBool::new(false),
    });
    let mut threads = Vec::new();
    for _ in 0..inner.cfg.workers.max(1) {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || worker_loop(&inner)));
    }
    {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || accept_loop(&inner, listener)));
    }
    Ok(ServerHandle { inner, threads })
}

/// Block in `accept` until a client — or [`Inner::shut_down`] — connects.
/// Returning drops the listener, so later connects are refused.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(stream) = stream {
            let inner = Arc::clone(inner);
            // Connection threads are detached: a client holding an idle
            // connection open must not block shutdown. They exit on peer
            // close, IO error, or the stop flag.
            std::thread::spawn(move || {
                let _ = handle_conn(&inner, stream);
            });
        }
    }
}

fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream) -> std::io::Result<()> {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (kind, payload) = match read_frame(&mut stream)? {
            Some(f) => f,
            None => return Ok(()),
        };
        if kind != KIND_JSON {
            inner.stats.add(ServiceCounter::RejectedBadRequest, 1);
            write_json(
                &mut stream,
                "{\"type\": \"error\", \"error\": \"expected a JSON request frame\"}",
            )?;
            continue;
        }
        let req = String::from_utf8_lossy(&payload).into_owned();
        match json_str(&req, "op").as_deref() {
            Some("ping") => write_json(&mut stream, "{\"type\": \"pong\"}")?,
            Some("metrics") => {
                let body = format!(
                    "{{\"type\": \"metrics\", \"stats\": {}}}",
                    inner.stats.to_json()
                );
                write_json(&mut stream, &body)?;
            }
            Some("shutdown") => {
                // Before `bye`: whatever the client connects next is behind
                // the wake-up connection in the accept queue, never served.
                inner.shut_down();
                return write_json(&mut stream, "{\"type\": \"bye\"}");
            }
            Some("submit") => handle_submit(inner, &mut stream, &req, None)?,
            Some("submit_trace") => {
                // The recording rides in the next frame, which must be
                // binary — anything else is a protocol error.
                match read_frame(&mut stream)? {
                    Some((KIND_BINARY, bytes)) => {
                        handle_submit(inner, &mut stream, &req, Some(bytes))?
                    }
                    Some(_) | None => {
                        inner.stats.add(ServiceCounter::RejectedBadRequest, 1);
                        write_json(
                            &mut stream,
                            "{\"type\": \"error\", \"error\": \"submit_trace not followed by a binary frame\"}",
                        )?;
                    }
                }
            }
            _ => {
                inner.stats.add(ServiceCounter::RejectedBadRequest, 1);
                write_json(
                    &mut stream,
                    "{\"type\": \"error\", \"error\": \"unknown or missing op\"}",
                )?;
            }
        }
    }
}

/// Admission: validate, rate-limit, load-shed, enqueue. Writes exactly one
/// of `error` / `overloaded` / `accepted` to the client; after `accepted`
/// this thread stays with the session until its terminal frame
/// ([`own_session`]).
fn handle_submit(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    req: &str,
    trace_bytes: Option<Vec<u8>>,
) -> std::io::Result<()> {
    inner.stats.add(ServiceCounter::Submitted, 1);
    let reject = |stream: &mut TcpStream, inner: &Inner, msg: &str| {
        inner.stats.add(ServiceCounter::RejectedBadRequest, 1);
        let body = format!(
            "{{\"type\": \"error\", \"error\": \"{}\"}}",
            polytrace::json_escape(msg)
        );
        write_json(stream, &body)
    };

    let tenant = json_str(req, "tenant").unwrap_or_else(|| "anon".to_string());
    let workload = match json_str(req, "workload") {
        Some(w) => w,
        None => return reject(stream, inner, "missing workload"),
    };
    let (prog, prog_hash) = match inner.registry.get(&workload) {
        Some((p, h)) => (Arc::clone(p), *h),
        None => return reject(stream, inner, &format!("unknown workload `{workload}`")),
    };
    let fault_plan = match json_str(req, "fault_plan") {
        Some(spec) => match FaultPlan::parse(&spec) {
            Ok(p) => Some(Arc::new(p)),
            Err(e) => return reject(stream, inner, &format!("bad fault_plan: {e}")),
        },
        None => None,
    };
    let memory_budget = json_u64(req, "budget_bytes");
    let deadline = json_u64(req, "deadline_ms")
        .map(Duration::from_millis)
        .unwrap_or(inner.cfg.session_deadline);
    let input_hash = match &trace_bytes {
        Some(bytes) => {
            // Structural validation happens at admission, not on a worker:
            // a garbage upload is a bad request, not a dead session.
            match polyrec::peek_meta(bytes, &workload) {
                Ok(meta) if meta.program_hash == prog_hash => fnv1a(bytes),
                Ok(meta) => {
                    return reject(
                        stream,
                        inner,
                        &format!(
                            "recording is of program {:#x}, workload `{workload}` is {:#x}",
                            meta.program_hash, prog_hash
                        ),
                    )
                }
                Err(e) => return reject(stream, inner, &format!("bad recording: {e}")),
            }
        }
        None => 0,
    };

    // Admission proper, under the scheduler lock: token bucket, then queue
    // bound, then the job joins its tenant's queue. Both rejections carry a
    // retry_after_ms hint.
    let budget = Arc::new(ResourceBudget::new(memory_budget, Some(deadline)));
    let (owner, from_worker) = channel();
    let session = {
        let mut sched = lock(&inner.sched);
        let now = Instant::now();
        let capacity = inner.cfg.bucket_capacity;
        let bucket = sched
            .buckets
            .entry(tenant.clone())
            .or_insert_with(|| Bucket::full(capacity, now));
        if let Err(wait_ms) = bucket.refill(now, capacity, inner.cfg.refill_per_sec) {
            drop(sched);
            inner.stats.add(ServiceCounter::RejectedRateLimited, 1);
            let body = format!(
                "{{\"type\": \"overloaded\", \"reason\": \"rate_limited\", \"retry_after_ms\": {wait_ms}}}"
            );
            return write_json(stream, &body);
        }
        if sched.queued >= inner.cfg.queue_cap {
            let wait_ms =
                ((sched.queued as u64 * 20) / inner.cfg.workers.max(1) as u64).clamp(10, 500);
            drop(sched);
            inner.stats.add(ServiceCounter::RejectedQueueFull, 1);
            let body = format!(
                "{{\"type\": \"overloaded\", \"reason\": \"queue_full\", \"retry_after_ms\": {wait_ms}}}"
            );
            return write_json(stream, &body);
        }
        if let Some(b) = sched.buckets.get_mut(&tenant) {
            b.tokens -= 1.0;
        }
        let session = inner.next_session.fetch_add(1, Ordering::Relaxed);
        inner.stats.add(ServiceCounter::Admitted, 1);
        if !sched.queues.contains_key(&tenant) {
            sched.rr.push(tenant.clone());
        }
        sched.queues.entry(tenant).or_default().push_back(Job {
            session,
            workload,
            prog,
            prog_hash,
            input_hash,
            kind: match trace_bytes {
                Some(b) => JobKind::Trace(b),
                None => JobKind::Program,
            },
            fault_plan,
            // The deadline is armed here at admission but re-armed by the
            // worker at run start — queue wait never eats session time.
            budget: Arc::clone(&budget),
            memory_budget,
            enqueued: now,
            owner,
        });
        sched.queued += 1;
        inner.work_cv.notify_one();
        session
    };
    let kill_after = deadline + inner.cfg.deadline_grace;
    own_session(inner, stream, session, &budget, kill_after, &from_worker)
}

/// The connection thread after admission: the session's only owner. It holds
/// the only handle on the socket, so `accepted`, the progress frames and the
/// terminal frame cannot interleave; it waits on the worker's channel and
/// does something only when that wait times out — report progress read from
/// the budget's heartbeat every `progress_interval`, and, as the session's
/// watchdog, [`ResourceBudget::cancel`] the run once, `kill_after` (deadline
/// plus grace) past [`Msg::Started`]. The cancel survives the supervisor's
/// re-arm between attempts, which the deadline alone does not.
///
/// A client that went away does not orphan its session: the first failed
/// write is kept and returned at the end, and until then this thread stays
/// the watchdog of a run whose frames go nowhere.
fn own_session(
    inner: &Inner,
    stream: &mut TcpStream,
    session: u64,
    budget: &ResourceBudget,
    kill_after: Duration,
    from_worker: &Receiver<Msg>,
) -> std::io::Result<()> {
    let mut io = write_json(
        stream,
        &format!("{{\"type\": \"accepted\", \"session\": {session}}}"),
    );
    let interval = inner.cfg.progress_interval;
    // All three are set by `Started`; until then there is nothing to report
    // or to cancel, and the wait below has no timeout.
    let mut t0 = Instant::now();
    let (mut kill_at, mut report_at) = (None::<Instant>, None::<Instant>);
    let (mut last_t_ns, mut last_events) = (0u64, 0u64);
    loop {
        let msg = match report_at.into_iter().chain(kill_at).min() {
            Some(at) => from_worker.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => from_worker
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(Msg::Started(at)) => {
                t0 = at;
                kill_at = Some(at + kill_after);
                report_at = interval.map(|i| at + i);
                continue;
            }
            Ok(Msg::Done(frame)) => return io.and_then(|()| write_json(stream, &frame)),
            // The worker died outside `catch_unwind`; nothing more will come.
            Err(RecvTimeoutError::Disconnected) => return io,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        if kill_at.is_some_and(|at| now >= at) {
            kill_at = None;
            budget.cancel();
            inner.stats.add(ServiceCounter::WatchdogCancels, 1);
        }
        if report_at.is_some_and(|at| now >= at) {
            let t_ns = now.duration_since(t0).as_nanos() as u64;
            // The attempt's own counts: a supervisor retry restarts them.
            let (ops, events) = budget.progress();
            let rate = events.saturating_sub(last_events) as f64 * 1e9
                / t_ns.saturating_sub(last_t_ns).max(1) as f64;
            (last_t_ns, last_events) = (t_ns, events);
            let frame = format!(
                concat!(
                    "{{\"type\": \"progress\", \"session\": {}, \"t_ns\": {}, ",
                    "\"dyn_ops\": {}, \"events_folded\": {}, ",
                    "\"events_per_sec\": {:.1}, \"budget_used_bytes\": {}}}"
                ),
                session,
                t_ns,
                ops,
                events,
                rate,
                budget.used_bytes()
            );
            io = io.and_then(|()| write_json(stream, &frame));
            // No reader, no reports: from here the owner wakes only to cancel.
            report_at = interval.filter(|_| io.is_ok()).map(|i| now + i);
        }
    }
}

/// Worker: pop jobs fairly, run each as a supervised session.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut sched = lock(&inner.sched);
            loop {
                if let Some(job) = sched.pop() {
                    break job;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                sched = inner.work_cv.wait(sched).unwrap_or_else(|e| e.into_inner());
            }
        };
        inner
            .stats
            .record_queue_wait_ns(job.enqueued.elapsed().as_nanos() as u64);
        run_session(inner, job);
    }
}

/// Cache eligibility: only deterministic clean-config runs may *hit* the
/// cache (a fault plan or byte budget changes the result).
fn cache_eligible(job: &Job) -> bool {
    job.fault_plan.is_none() && job.memory_budget.is_none()
}

fn run_session(inner: &Arc<Inner>, job: Job) {
    let t0 = Instant::now();
    let key = (job.prog_hash, job.input_hash);

    // Single-flight cache: hit, wait-for-leader, or become the leader.
    let mut is_leader = false;
    if cache_eligible(&job) {
        let mut cache = lock(&inner.cache);
        let mut waited = false;
        loop {
            match cache.get(&key) {
                Some(CacheEntry::Ready(r)) => {
                    let r = Arc::clone(r);
                    drop(cache);
                    // One accounting event per session: a waiter that
                    // reuses the leader's result is a single-flight dedup,
                    // an immediate hit is a plain cache hit.
                    inner.stats.add(
                        if waited {
                            ServiceCounter::SingleFlightWaits
                        } else {
                            ServiceCounter::CacheHits
                        },
                        1,
                    );
                    finish_session(inner, &job, SessionResult::Cached(r), t0);
                    return;
                }
                Some(CacheEntry::Pending) => {
                    waited = true;
                    let (c, timeout) = inner
                        .cache_cv
                        .wait_timeout(cache, Duration::from_secs(30))
                        .unwrap_or_else(|e| e.into_inner());
                    cache = c;
                    if timeout.timed_out() {
                        // Leader wedged beyond reason: fold independently.
                        break;
                    }
                }
                None => {
                    cache.insert(key, CacheEntry::Pending);
                    is_leader = true;
                    break;
                }
            }
        }
    }

    // The session's clock — its own deadline and its owner's watchdog —
    // starts now, not at admission.
    job.budget.rearm();
    let _ = job.owner.send(Msg::Started(Instant::now()));

    let result = fold_session(&job);

    // Leader resolution: publish clean results, retract everything else so
    // waiters (and future submissions) fold for themselves.
    if is_leader {
        let mut cache = lock(&inner.cache);
        match &result {
            SessionResult::Fresh(report) if !report.degradation.is_degraded() => {
                cache.insert(
                    key,
                    CacheEntry::Ready(Arc::new(CachedRun {
                        canonical: report.canonical_ddg.clone().unwrap_or_default(),
                        folded: report.folded_stats,
                        degradation_json: report.degradation_json(),
                    })),
                );
            }
            _ => {
                cache.remove(&key);
            }
        }
        inner.cache_cv.notify_all();
    }

    finish_session(inner, &job, result, t0);
}

enum SessionResult {
    Fresh(Box<Report>),
    Cached(Arc<CachedRun>),
    Error(String),
    Panicked(String),
}

/// Build the session's [`ProfileConfig`] and fold. The run publishes its
/// heartbeat on the shared budget; whoever reports it is not this thread.
fn fold_session(job: &Job) -> SessionResult {
    let mut cfg = ProfileConfig::new()
        .with_canonical(true)
        .with_shared_budget(Arc::clone(&job.budget));
    if let Some(plan) = &job.fault_plan {
        // Fork: each session gets fresh site counters over the same spec,
        // so one tenant's injection schedule replays identically per
        // session instead of drifting across the fleet.
        cfg = cfg.with_fault_plan(Arc::new(plan.fork()));
    }

    // Spool an uploaded recording to a scratch file for the replay path.
    let mut scratch: Option<std::path::PathBuf> = None;
    if let JobKind::Trace(bytes) = &job.kind {
        let path = std::env::temp_dir().join(format!(
            "polyserve-{}-{}.ptrace",
            std::process::id(),
            job.session
        ));
        if let Err(e) = std::fs::write(&path, bytes) {
            return SessionResult::Error(format!("spooling recording: {e}"));
        }
        cfg = cfg.with_replay_from(&path);
        scratch = Some(path);
    }

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_profile_with(&job.prog, &cfg)
    }));

    if let Some(path) = scratch {
        let _ = std::fs::remove_file(path);
    }

    match outcome {
        Ok(Ok(report)) => SessionResult::Fresh(Box::new(report)),
        Ok(Err(e)) => SessionResult::Error(render_error(&e)),
        Err(payload) => SessionResult::Panicked(polyresist::panic_msg(payload.as_ref())),
    }
}

fn render_error(e: &PolyProfError) -> String {
    format!("{e}")
}

/// Account the session and hand its terminal frame to the owner. Every
/// admitted session ends here exactly once, whether or not anyone is left to
/// read the frame, so `clean + degraded + panicked == admitted` once the
/// queue drains.
fn finish_session(inner: &Arc<Inner>, job: &Job, result: SessionResult, t0: Instant) {
    let frame = match &result {
        SessionResult::Fresh(report) => {
            if report.degradation.is_degraded() {
                inner.stats.add(ServiceCounter::CompletedDegraded, 1);
            } else {
                inner.stats.add(ServiceCounter::CompletedClean, 1);
            }
            let body = polyfeedback::session_report_json(
                &job.workload,
                job.session,
                false,
                report.folded_stats,
                report.canonical_ddg.as_deref(),
                &report.degradation_json(),
                None,
            );
            format!("{{\"type\": \"final\", \"report\": {body}}}")
        }
        SessionResult::Cached(r) => {
            inner.stats.add(ServiceCounter::CompletedClean, 1);
            let body = polyfeedback::session_report_json(
                &job.workload,
                job.session,
                true,
                r.folded,
                Some(&r.canonical),
                &r.degradation_json,
                None,
            );
            format!("{{\"type\": \"final\", \"report\": {body}}}")
        }
        SessionResult::Error(msg) => {
            inner.stats.add(ServiceCounter::SessionsPanicked, 1);
            format!(
                "{{\"type\": \"error\", \"session\": {}, \"error\": \"{}\"}}",
                job.session,
                polytrace::json_escape(msg)
            )
        }
        SessionResult::Panicked(msg) => {
            inner.stats.add(ServiceCounter::SessionsPanicked, 1);
            format!(
                "{{\"type\": \"error\", \"session\": {}, \"error\": \"session panicked: {}\"}}",
                job.session,
                polytrace::json_escape(msg)
            )
        }
    };
    inner
        .stats
        .record_session_wall_ns(t0.elapsed().as_nanos() as u64);
    // The owner waits for this unless its thread died, in which case the
    // frame has no reader and is dropped.
    let _ = job.owner.send(Msg::Done(frame));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admission's use of the bucket: refill as of `now`, take a token if
    /// one is there, else report the hint.
    fn admit(b: &mut Bucket, now: Instant, capacity: f64, per_sec: f64) -> Result<(), u64> {
        b.refill(now, capacity, per_sec)?;
        b.tokens -= 1.0;
        Ok(())
    }

    #[test]
    fn bucket_sheds_a_burst_past_capacity_and_hints_the_wait() {
        let t0 = Instant::now();
        let (cap, rate) = (2.0, 20.0);
        let mut b = Bucket::full(cap, t0);
        // A burst at one instant: capacity requests pass, the next is shed
        // with the time one token takes to accrue (1/20 s).
        assert_eq!(admit(&mut b, t0, cap, rate), Ok(()));
        assert_eq!(admit(&mut b, t0, cap, rate), Ok(()));
        assert_eq!(admit(&mut b, t0, cap, rate), Err(50));
        // Too early by 10 ms: still shed, hint shrinks to what is left.
        let t1 = t0 + Duration::from_millis(40);
        assert_eq!(admit(&mut b, t1, cap, rate), Err(10));
        // Honoring the hint lands exactly one request.
        let t2 = t1 + Duration::from_millis(10);
        assert_eq!(admit(&mut b, t2, cap, rate), Ok(()));
        assert!(admit(&mut b, t2, cap, rate).is_err());
    }

    #[test]
    fn bucket_refill_saturates_at_capacity_and_hint_is_at_least_1ms() {
        let t0 = Instant::now();
        let (cap, rate) = (2.0, 20.0);
        let mut b = Bucket::full(cap, t0);
        // An hour idle earns no more than the burst capacity.
        let later = t0 + Duration::from_secs(3600);
        assert_eq!(admit(&mut b, later, cap, rate), Ok(()));
        assert_eq!(admit(&mut b, later, cap, rate), Ok(()));
        assert!(admit(&mut b, later, cap, rate).is_err());
        // A sliver short of a token still hints a whole millisecond.
        let mut b = Bucket {
            tokens: 0.999_999,
            last: t0,
        };
        assert_eq!(b.refill(t0, cap, rate), Err(1));
    }

    #[test]
    fn round_robin_is_fair_across_tenants() {
        fn fake_job(session: u64) -> Job {
            Job {
                session,
                workload: "w".into(),
                prog: Arc::new(Program::default()),
                prog_hash: 0,
                input_hash: 0,
                kind: JobKind::Program,
                fault_plan: None,
                budget: Arc::new(ResourceBudget::new(None, None)),
                memory_budget: None,
                enqueued: Instant::now(),
                owner: channel().0,
            }
        }
        let mut sched = Sched::default();
        // Tenant `a` floods 4 jobs; `b` and `c` queue 1 each.
        for (tenant, sessions) in [("a", vec![1, 2, 3, 4]), ("b", vec![5]), ("c", vec![6])] {
            sched.rr.push(tenant.to_string());
            let q = sched.queues.entry(tenant.to_string()).or_default();
            for s in sessions {
                q.push_back(fake_job(s));
                sched.queued += 1;
            }
        }
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop().map(|j| j.session)).collect();
        // Fair: b and c are served before a's backlog drains.
        assert_eq!(order, vec![1, 5, 6, 2, 3, 4]);
        assert_eq!(sched.queued, 0);
    }
}
