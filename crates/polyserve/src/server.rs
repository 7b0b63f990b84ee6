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
//!   per-tenant token bucket (rate limiting), then a peek at the cache, then
//!   a bounded run queue (load shedding). Both rejections are *structured* —
//!   the client gets an `overloaded` frame with a `retry_after_ms` hint,
//!   never an accepted-then-hung session. A submission whose result the
//!   cache holds is **answered at admission**, on this thread: `accepted`
//!   and `final` leave in one write, and no queue slot, worker, channel or
//!   budget is involved. After admitting anything else the connection
//!   thread **owns its session**: it is the only holder of the socket and so
//!   the only writer of `accepted`, every `progress` frame and the terminal
//!   frame — each one write (see [`crate::wire`]); it reads the progress it
//!   reports from the session's [`ResourceBudget`] heartbeat; and it is the
//!   session's watchdog, which [`ResourceBudget::cancel`]s a run still going
//!   past its deadline plus a grace period, turning a wedged run into a
//!   graceful partial result;
//! - a **worker pool** draining the queue in round-robin tenant order (a
//!   tenant flooding the queue cannot starve the others), each session
//!   folded under `catch_unwind` with its own forked fault plan and its own
//!   [`ResourceBudget`] — a panicking or wedged session degrades *that*
//!   session only. A worker never touches a socket and builds no frame: it
//!   answers the owner on a channel (`Started`, then `Done` with the
//!   session's result);
//! - a **folded-DDG cache** keyed by `(program id, input hash)` with
//!   single-flight dedup, decided at admission: the first of identical clean
//!   submissions is queued as the key's leader, and every other one reuses
//!   its result — at once if it is published, else after waiting for it on
//!   its own connection thread, with no queue slot or worker. An entry is the
//!   session-independent tail of the report, rendered once by the leader
//!   that folded it — its own `final` frame and every later hit are a fresh
//!   head in front of those same bytes. The cache holds at most 8 MiB of
//!   them (`CACHE_BYTES`), least recently hit evicted first.
//!
//! The byte-comparison contract: a healthy session's `canonical_ddg` in the
//! final report frame is byte-identical to a direct in-process
//! `try_profile_with` run of the same workload — the serve gate asserts it.

use crate::wire::{
    fnv1a, json_has, json_str, json_u64, push_frame, read_frame, write_json, KIND_BINARY, KIND_JSON,
};
use polyir::Program;
use polyprof_core::{try_profile_with, FaultPlan, ProfileConfig, Replay, ResourceBudget};
use polytrace::service::{ServiceCounter, ServiceStats};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
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
    /// re-armed at run start). With the grace it also bounds how long a
    /// session waits, from admission, for the single-flight leader of its
    /// cache key before it folds independently.
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
    /// An uploaded `.ptrace` recording, re-folded offline from the bytes it
    /// arrived in ([`Replay::Bytes`]).
    Trace(Replay),
}

/// What a worker tells the connection thread that owns the session.
enum Msg {
    /// The fold begins at this instant: queue wait is over and the budget's
    /// deadline was just re-armed.
    Started(Instant),
    /// How the session ended, for the owner to frame and write.
    Done(SessionResult),
}

/// One admitted session, queued for a worker.
struct Job {
    prog: Arc<Program>,
    /// The cache key this session leads the single flight of, claimed
    /// `Pending` at admission: its clean result is published there, anything
    /// else retracts the claim. `None` for a session that may not populate
    /// the cache, or that gave up waiting for a wedged leader.
    lead: Option<CacheKey>,
    kind: JobKind,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Shared with the owner, which watches and cancels the run through it.
    budget: Arc<ResourceBudget>,
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

/// Cap on the bytes of rendered tails the cache holds: ≈ 180 reports of the
/// size `perf_ledger` serves, several times any registry the repository
/// ships. A constant, not a [`ServerConfig`] field — one value is in use, and
/// what it bounds is what a client can make the server keep by uploading
/// distinct valid recordings.
const CACHE_BYTES: usize = 8 << 20;

/// `(program id, input hash)`: input hash 0 for a program submission (the
/// VM runs on an empty input), FNV-1a of the bytes for an uploaded recording.
type CacheKey = (u64, u64);

/// A finished clean fold, reusable for identical submissions: the part of
/// its report that does not depend on the session
/// ([`polyfeedback::session_report_tail`]), rendered once.
struct CachedRun {
    tail: String,
}

/// What admission does with a submission, decided under the scheduler lock.
enum Admission {
    /// The cache holds the result: answer it now, on the connection thread.
    Hit(Arc<CachedRun>),
    /// Another session leads this key's single flight: wait for its result.
    Wait(CacheKey),
    /// Queue the session for a worker — as the leader of this key's single
    /// flight, when there is one.
    Fold(Option<CacheKey>),
}

/// Single-flight cache slot.
enum CacheEntry {
    /// A leader session, claimed at admission, is queued for or folding
    /// this key.
    Pending,
    /// Folded and clean; reuse freely. `stamp` is the cache's clock at the
    /// entry's publication or latest hit.
    Ready { run: Arc<CachedRun>, stamp: u64 },
}

/// The folded-DDG cache: single-flight slots, and at most [`CACHE_BYTES`] of
/// published results.
#[derive(Default)]
struct Cache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Tail bytes of the `Ready` entries.
    bytes: usize,
    /// The latest stamp handed out.
    clock: u64,
}

impl Cache {
    /// The published result under `key`, counted as its latest use.
    fn hit(&mut self, key: &CacheKey) -> Option<Arc<CachedRun>> {
        match self.entries.get_mut(key)? {
            CacheEntry::Pending => None,
            CacheEntry::Ready { run, stamp } => {
                self.clock += 1;
                *stamp = self.clock;
                Some(Arc::clone(run))
            }
        }
    }

    /// Claim `key` for a leader session: true when nothing was under it, and
    /// now `Pending` is.
    fn lead(&mut self, key: CacheKey) -> bool {
        match self.entries.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(CacheEntry::Pending);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Single flight, at admission: a published result under `key` is a hit,
    /// a `Pending` one is waited for, and a vacant key is claimed for the
    /// submission to lead.
    fn admit(&mut self, key: CacheKey) -> Admission {
        match self.hit(&key) {
            Some(run) => Admission::Hit(run),
            None if self.lead(key) => Admission::Fold(Some(key)),
            None => Admission::Wait(key),
        }
    }

    /// Drop whatever is under `key` — a leader retracting its `Pending`, or
    /// an eviction.
    fn remove(&mut self, key: &CacheKey) {
        if let Some(CacheEntry::Ready { run, .. }) = self.entries.remove(key) {
            self.bytes -= run.tail.len();
        }
    }

    /// Replace the leader's `Pending` under `key` with its result, evicting
    /// the least recently hit results until it fits; returns how many went.
    /// `Pending` slots are never victims (a leader and its waiters hang on
    /// them), and a result larger than the whole cap is not kept at all.
    fn publish(&mut self, key: CacheKey, run: Arc<CachedRun>) -> u64 {
        self.remove(&key);
        let size = run.tail.len();
        if size > CACHE_BYTES {
            return 0;
        }
        let mut evicted = 0;
        while self.bytes + size > CACHE_BYTES {
            // A linear scan: publication follows a fold of milliseconds.
            let oldest = self
                .entries
                .iter()
                .filter_map(|(key, entry)| match entry {
                    CacheEntry::Ready { stamp, .. } => Some((*stamp, *key)),
                    CacheEntry::Pending => None,
                })
                .min();
            let Some((_, victim)) = oldest else { break };
            self.remove(&victim);
            evicted += 1;
        }
        self.clock += 1;
        self.bytes += size;
        let stamp = self.clock;
        self.entries.insert(key, CacheEntry::Ready { run, stamp });
        evicted
    }
}

struct Inner {
    addr: SocketAddr,
    cfg: ServerConfig,
    registry: HashMap<String, (Arc<Program>, u64)>,
    stats: ServiceStats,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    /// Taken after `sched` where both are held (the single-flight decision
    /// at admission), never the other way round.
    cache: Mutex<Cache>,
    /// Notified when a leader publishes or retracts; single-flight waiters
    /// — connection threads — wait on it.
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
            let h = polyrec::program_id(&prog);
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
        cache: Mutex::new(Cache::default()),
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
/// Returning drops the listener, so later connects are refused. Each
/// accepted socket gets [`prepare_conn`] before its connection thread starts.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(stream) = stream {
            prepare_conn(&stream);
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

/// Per-connection socket setup: Nagle's algorithm off. A session's frames
/// follow one another by moments — `accepted`, `progress`, `final` — and
/// under Nagle each one after the first waits for the client's ACK of the
/// one before, which the client, blocked in `read` with nothing to send,
/// holds for its delayed-ACK timer (~40 ms on Linux). Every frame is one
/// write ([`crate::wire`]), so nothing is left for Nagle to coalesce. A
/// socket that refuses the option is served anyway, only slower.
fn prepare_conn(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    // One handle on the socket: read through a buffer, so a small frame that
    // has arrived is one `read`, and written directly.
    let mut reader = BufReader::new(&stream);
    let mut stream = &stream;
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (kind, payload) = match read_frame(&mut reader)? {
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
                match read_frame(&mut reader)? {
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

/// Admission: validate, rate-limit, decide single flight, load-shed,
/// enqueue. Writes exactly one of `error` / `overloaded` / `accepted` to the
/// client. A submission whose result the cache holds is answered here,
/// `accepted` and `final` in one write ([`write_hit`]); one whose result a
/// leader is folding waits for it here ([`await_leader`]) and is answered
/// the same way; after any other `accepted` this thread stays with the
/// session until its terminal frame ([`own_session`]).
fn handle_submit<W: Write>(
    inner: &Arc<Inner>,
    stream: &mut W,
    req: &str,
    trace_bytes: Option<Vec<u8>>,
) -> io::Result<()> {
    inner.stats.add(ServiceCounter::Submitted, 1);
    let reject = |stream: &mut W, msg: &str| {
        inner.stats.add(ServiceCounter::RejectedBadRequest, 1);
        let body = format!(
            "{{\"type\": \"error\", \"error\": \"{}\"}}",
            polytrace::json_escape(msg)
        );
        write_json(stream, &body)
    };
    // An integer field: absent is `None`, present but not an integer is a
    // bad request — never the default, never the number's leading digits.
    let integer = |key: &str| match json_u64(req, key) {
        None if json_has(req, key) => Err(format!("bad {key}")),
        value => Ok(value),
    };

    let tenant = json_str(req, "tenant").unwrap_or_else(|| "anon".to_string());
    let workload = match json_str(req, "workload") {
        Some(w) => w,
        None => return reject(stream, "missing workload"),
    };
    let (prog, prog_id) = match inner.registry.get(&workload) {
        Some((p, h)) => (Arc::clone(p), *h),
        None => return reject(stream, &format!("unknown workload `{workload}`")),
    };
    let fault_plan = match json_str(req, "fault_plan") {
        Some(spec) => match FaultPlan::parse(&spec) {
            Ok(p) => Some(Arc::new(p)),
            Err(e) => return reject(stream, &format!("bad fault_plan: {e}")),
        },
        None => None,
    };
    let memory_budget = match integer("budget_bytes") {
        Ok(bytes) => bytes,
        Err(msg) => return reject(stream, &msg),
    };
    let deadline = match integer("deadline_ms") {
        Ok(ms) => ms.map_or(inner.cfg.session_deadline, Duration::from_millis),
        Err(msg) => return reject(stream, &msg),
    };
    let input_hash = match &trace_bytes {
        Some(bytes) => {
            // Structural validation happens at admission, not on a worker:
            // a garbage upload is a bad request, not a dead session.
            match polyrec::peek_meta(bytes, &workload) {
                Ok(meta) if meta.program_id == prog_id => fnv1a(bytes),
                Ok(meta) => {
                    return reject(
                        stream,
                        &format!(
                            "recording is of program {:#x}, workload `{workload}` is {:#x}",
                            meta.program_id, prog_id
                        ),
                    )
                }
                Err(e) => return reject(stream, &format!("bad recording: {e}")),
            }
        }
        None => 0,
    };
    // Only deterministic clean-config runs may hit or populate the cache: a
    // fault plan or a byte budget changes the result.
    let cache_key =
        (fault_plan.is_none() && memory_budget.is_none()).then_some((prog_id, input_hash));

    // Admission proper, under the scheduler lock: token bucket, then single
    // flight, then the queue bound, then the job joins its tenant's queue.
    // Both rejections carry a retry_after_ms hint.
    let mut guard = lock(&inner.sched);
    let sched = &mut *guard;
    let now = Instant::now();
    let capacity = inner.cfg.bucket_capacity;
    let bucket = sched
        .buckets
        .entry(tenant.clone())
        .or_insert_with(|| Bucket::full(capacity, now));
    if let Err(wait_ms) = bucket.refill(now, capacity, inner.cfg.refill_per_sec) {
        drop(guard);
        inner.stats.add(ServiceCounter::RejectedRateLimited, 1);
        let body = format!(
            "{{\"type\": \"overloaded\", \"reason\": \"rate_limited\", \"retry_after_ms\": {wait_ms}}}"
        );
        return write_json(stream, &body);
    }
    let mut admission = match cache_key {
        Some(key) => lock(&inner.cache).admit(key),
        None => Admission::Fold(None),
    };
    // A result the cache holds, or one a leader is folding, needs no worker
    // of its own, so no queue slot either: the queue bound sheds only what
    // would have to wait for one.
    if let Admission::Fold(lead) = &admission {
        if sched.queued >= inner.cfg.queue_cap {
            if let Some(key) = lead {
                // Claimed under this same lock, so nobody waits on it yet.
                lock(&inner.cache).remove(key);
            }
            let wait_ms =
                ((sched.queued as u64 * 20) / inner.cfg.workers.max(1) as u64).clamp(10, 500);
            drop(guard);
            inner.stats.add(ServiceCounter::RejectedQueueFull, 1);
            let body = format!(
                "{{\"type\": \"overloaded\", \"reason\": \"queue_full\", \"retry_after_ms\": {wait_ms}}}"
            );
            return write_json(stream, &body);
        }
    }
    bucket.tokens -= 1.0;
    let session = inner.next_session.fetch_add(1, Ordering::Relaxed);
    inner.stats.add(ServiceCounter::Admitted, 1);

    // A hit — at once, or after waiting for its leader — is answered here,
    // by this thread, with every worker free to be busy. Nothing can wedge,
    // so there is no budget to arm and no watchdog to be; it never queued,
    // so it leaves no queue-wait sample; and no lock is held across the
    // write.
    let answer = |stream: &mut W, run: &CachedRun, reuse: ServiceCounter| {
        inner.stats.add(reuse, 1);
        inner.stats.add(ServiceCounter::CompletedClean, 1);
        let io = write_hit(stream, &workload, session, &run.tail);
        inner
            .stats
            .record_session_wall_ns(now.elapsed().as_nanos() as u64);
        io
    };
    let until = now + deadline + inner.cfg.deadline_grace;
    let lead = loop {
        let key = match admission {
            Admission::Fold(lead) => break lead,
            Admission::Hit(run) => {
                drop(guard);
                return answer(stream, &run, ServiceCounter::CacheHits);
            }
            Admission::Wait(key) => key,
        };
        drop(guard);
        if let Some(run) = await_leader(inner, key, until) {
            return answer(stream, &run, ServiceCounter::SingleFlightWaits);
        }
        // The leader retracted (or its result was evicted before this thread
        // woke), or it outlived this session's deadline plus grace: admission
        // again, where this session may hit or lead the key itself — or, past
        // its time, fold independently.
        guard = lock(&inner.sched);
        admission = match lock(&inner.cache).admit(key) {
            Admission::Wait(_) if Instant::now() >= until => Admission::Fold(None),
            decided => decided,
        };
    };

    let sched = &mut *guard;
    let budget = Arc::new(ResourceBudget::new(memory_budget, Some(deadline)));
    let (owner, from_worker) = channel();
    if !sched.queues.contains_key(&tenant) {
        sched.rr.push(tenant.clone());
    }
    sched.queues.entry(tenant).or_default().push_back(Job {
        prog,
        lead,
        kind: match trace_bytes {
            Some(bytes) => JobKind::Trace(Replay::Bytes {
                label: format!("<upload of {workload}>"),
                bytes: bytes.into(),
            }),
            None => JobKind::Program,
        },
        fault_plan,
        // The deadline is armed here at admission but re-armed by the
        // worker at run start — queue wait never eats session time.
        budget: Arc::clone(&budget),
        // Not `now`: a waiter that ends up folding was in no queue till here.
        enqueued: Instant::now(),
        owner,
    });
    sched.queued += 1;
    inner.work_cv.notify_one();
    drop(guard);
    let kill_after = deadline + inner.cfg.deadline_grace;
    own_session(
        inner,
        stream,
        session,
        &workload,
        &budget,
        kill_after,
        &from_worker,
    )
}

/// Wait on `cache_cv` while `key` is `Pending`, until `until`: the leader's
/// published result, or `None` once it retracted, the result is gone, or
/// the time ran out.
fn await_leader(inner: &Inner, key: CacheKey, until: Instant) -> Option<Arc<CachedRun>> {
    let mut cache = lock(&inner.cache);
    loop {
        if let Some(run) = cache.hit(&key) {
            return Some(run);
        }
        let left = until.saturating_duration_since(Instant::now());
        if !cache.entries.contains_key(&key) || left.is_zero() {
            return None;
        }
        cache = inner
            .cache_cv
            .wait_timeout(cache, left)
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
}

/// A session's terminal `final` frame, appended to `out`: the report is the
/// session's own head in front of a rendered tail. The one builder of that
/// frame — for a fresh result and a hit alike.
fn push_final(
    out: &mut Vec<u8>,
    workload: &str,
    session: u64,
    cached: bool,
    tail: &str,
) -> io::Result<()> {
    let head = polyfeedback::session_report_head(workload, session, cached);
    let parts: [&[u8]; 4] = [
        b"{\"type\": \"final\", \"report\": ",
        head.as_bytes(),
        tail.as_bytes(),
        b"}",
    ];
    push_frame(out, KIND_JSON, &parts)
}

fn accepted_json(session: u64) -> String {
    format!("{{\"type\": \"accepted\", \"session\": {session}}}")
}

/// The whole answer to a submission the cache holds: `accepted` and `final`
/// are ready together, so they are one buffer and one write — a header
/// `format!` and one copy of the tail.
fn write_hit(w: &mut impl Write, workload: &str, session: u64, tail: &str) -> io::Result<()> {
    let mut out = Vec::new();
    push_frame(&mut out, KIND_JSON, &[accepted_json(session).as_bytes()])?;
    push_final(&mut out, workload, session, true, tail)?;
    w.write_all(&out)
}

/// The connection thread after admission: the session's only owner. It holds
/// the only handle on the socket, so `accepted`, the progress frames and the
/// terminal frame cannot interleave; it waits on the worker's channel and
/// does something only when that wait times out — report progress read from
/// the budget's heartbeat every `progress_interval`, and, as the session's
/// watchdog, [`ResourceBudget::cancel`] the run once, `kill_after` (deadline
/// plus grace) past [`Msg::Started`]. The budget's own deadline already
/// stops the event source at its next heartbeat; the cancel is the backstop
/// for a run still going at deadline plus grace — a heartbeat held longer
/// than the grace, or the stages after pass 2, which no deadline covers — and
/// its record in `watchdog_cancels`. Unlike the deadline, it survives a
/// [`ResourceBudget::rearm`].
///
/// A client that went away does not orphan its session: the first failed
/// write is kept and returned at the end, and until then this thread stays
/// the watchdog of a run whose frames go nowhere.
fn own_session(
    inner: &Inner,
    stream: &mut impl Write,
    session: u64,
    workload: &str,
    budget: &ResourceBudget,
    kill_after: Duration,
    from_worker: &Receiver<Msg>,
) -> io::Result<()> {
    let mut io = write_json(stream, &accepted_json(session));
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
            Ok(Msg::Done(result)) => {
                return io.and_then(|()| write_terminal(stream, workload, session, &result))
            }
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

/// Worker: pop jobs fairly, run each session under its own budget.
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

/// Fold one queued session. Single flight was settled at admission: a
/// session queued with a `lead` publishes or retracts that key here.
fn run_session(inner: &Arc<Inner>, job: Job) {
    let t0 = Instant::now();

    // The session's clock — its own deadline and its owner's watchdog —
    // starts now, not at admission.
    job.budget.rearm();
    let _ = job.owner.send(Msg::Started(Instant::now()));

    let result = fold_session(&job);

    // Leader resolution: publish a clean result — the very bytes this
    // session's own frame carries — and retract everything else, so that
    // waiters (and future submissions) go back through admission.
    if let Some(key) = job.lead {
        let mut cache = lock(&inner.cache);
        let evicted = match &result {
            SessionResult::Report {
                run,
                degraded: false,
                ..
            } => cache.publish(key, Arc::clone(run)),
            _ => {
                cache.remove(&key);
                0
            }
        };
        drop(cache);
        inner.cache_cv.notify_all();
        inner.stats.add(ServiceCounter::CacheEvictions, evicted);
    }

    finish_session(inner, &job, result, t0);
}

/// How a session ended: what a worker hands the session's owner.
enum SessionResult {
    /// With a report, as its rendered session-independent tail, just
    /// folded.
    Report { run: Arc<CachedRun>, degraded: bool },
    /// With a terminal pipeline error — a pass-2 panic is one, `StagePanic` —
    /// or a panic elsewhere in the session: the message of the `error`
    /// frame.
    Failed(String),
}

/// Build the session's [`ProfileConfig`], fold, and render what of the report
/// every session handing out this result would share. The run publishes its
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

    if let JobKind::Trace(upload) = &job.kind {
        // Shares the bytes; copies none of them.
        cfg = cfg.with_replay_from(upload.clone());
    }

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_profile_with(&job.prog, &cfg)
    }));

    match outcome {
        Ok(Ok(report)) => SessionResult::Report {
            run: Arc::new(CachedRun {
                tail: polyfeedback::session_report_tail(
                    report.folded_stats,
                    report.canonical_ddg.as_deref(),
                    &report.degradation_json(),
                    None,
                ),
            }),
            degraded: report.degradation.is_degraded(),
        },
        Ok(Err(e)) => SessionResult::Failed(e.to_string()),
        Err(payload) => SessionResult::Failed(format!(
            "session panicked: {}",
            polyresist::panic_msg(payload.as_ref())
        )),
    }
}

/// Account the session and hand its result to the owner. Every queued
/// session ends here exactly once, whether or not anyone is left to read the
/// frame, so `clean + degraded + panicked == admitted` once the queue drains.
fn finish_session(inner: &Arc<Inner>, job: &Job, result: SessionResult, t0: Instant) {
    inner.stats.add(
        match result {
            SessionResult::Report {
                degraded: false, ..
            } => ServiceCounter::CompletedClean,
            SessionResult::Report { degraded: true, .. } => ServiceCounter::CompletedDegraded,
            SessionResult::Failed(_) => ServiceCounter::SessionsPanicked,
        },
        1,
    );
    inner
        .stats
        .record_session_wall_ns(t0.elapsed().as_nanos() as u64);
    // The owner waits for this unless its thread died, in which case the
    // result has no reader and is dropped.
    let _ = job.owner.send(Msg::Done(result));
}

/// The owner's last write: the session's result as its terminal frame.
fn write_terminal(
    w: &mut impl Write,
    workload: &str,
    session: u64,
    result: &SessionResult,
) -> io::Result<()> {
    let error = |w: &mut _, msg: &str| {
        let body = format!(
            "{{\"type\": \"error\", \"session\": {session}, \"error\": \"{}\"}}",
            polytrace::json_escape(msg)
        );
        write_json(w, &body)
    };
    match result {
        SessionResult::Report { run, .. } => {
            let mut out = Vec::new();
            match push_final(&mut out, workload, session, false, &run.tail) {
                Ok(()) => w.write_all(&out),
                // A report past the frame limit is an error the client can
                // read, not a frame it must refuse.
                Err(e) => error(w, &e.to_string()),
            }
        }
        SessionResult::Failed(msg) => error(w, msg),
    }
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

    /// A hit's whole answer is one write, and what it carries is `accepted`,
    /// then a `final` whose report is the session's head on the cached tail.
    #[test]
    fn a_hit_is_one_write_of_two_frames() {
        let tail = polyfeedback::session_report_tail((3, 2, 100), Some("S0\nS1\n"), "{}", None);
        let mut w = crate::wire::tests::CountingWriter::taking(usize::MAX);
        write_hit(&mut w, "w", 7, &tail).unwrap();
        assert_eq!(w.writes, 1);
        let mut r = std::io::Cursor::new(w.bytes);
        let mut json = || String::from_utf8(read_frame(&mut r).unwrap().unwrap().1).unwrap();
        assert_eq!(json(), "{\"type\": \"accepted\", \"session\": 7}");
        let report = polyfeedback::session_report_json(
            "w",
            7,
            true,
            (3, 2, 100),
            Some("S0\nS1\n"),
            "{}",
            None,
        );
        assert_eq!(
            json(),
            format!("{{\"type\": \"final\", \"report\": {report}}}")
        );
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// The keys of the published results, after checking the books: `bytes`
    /// is what they hold, and that is within the cap.
    fn ready_keys(cache: &Cache) -> Vec<u64> {
        let mut ready: Vec<(u64, usize)> = cache
            .entries
            .iter()
            .filter_map(|(key, entry)| match entry {
                CacheEntry::Ready { run, .. } => Some((key.0, run.tail.len())),
                CacheEntry::Pending => None,
            })
            .collect();
        ready.sort_unstable();
        assert_eq!(cache.bytes, ready.iter().map(|r| r.1).sum::<usize>());
        assert!(cache.bytes <= CACHE_BYTES, "{}", cache.bytes);
        ready.into_iter().map(|r| r.0).collect()
    }

    fn synthetic(bytes: usize) -> Arc<CachedRun> {
        Arc::new(CachedRun {
            tail: "x".repeat(bytes),
        })
    }

    #[test]
    fn cache_evicts_the_least_recently_hit_and_never_a_pending() {
        const MB: usize = 1 << 20;
        let mut cache = Cache::default();
        // A leader is folding key 100 the whole time.
        assert!(cache.lead((100, 0)) && !cache.lead((100, 0)));
        for k in 0..8 {
            assert_eq!(cache.publish((k, 0), synthetic(MB)), 0);
        }
        assert_eq!(ready_keys(&cache), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(cache.bytes, CACHE_BYTES);
        // A hit makes key 0 the most recent; `Pending` is no hit and no use.
        assert!(cache.hit(&(0, 0)).is_some());
        assert!(cache.hit(&(100, 0)).is_none() && cache.hit(&(9, 9)).is_none());
        // Past the cap the least recently hit goes: 1, then 2 and 3 — not 0,
        // and not the `Pending`, which has no stamp to lose by.
        assert_eq!(cache.publish((8, 0), synthetic(MB)), 1);
        assert_eq!(ready_keys(&cache), [0, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(cache.publish((9, 0), synthetic(MB + MB / 2)), 2);
        assert_eq!(ready_keys(&cache), [0, 4, 5, 6, 7, 8, 9]);
        // Exactly the cap fits, alone.
        assert_eq!(cache.publish((10, 0), synthetic(CACHE_BYTES)), 7);
        assert_eq!(ready_keys(&cache), [10]);
        assert!(matches!(
            cache.entries.get(&(100, 0)),
            Some(CacheEntry::Pending)
        ));
        // A result larger than the whole cap is not kept and evicts nothing,
        // and its leader's `Pending` is gone: the next submission folds.
        assert_eq!(cache.publish((100, 0), synthetic(CACHE_BYTES + 1)), 0);
        assert_eq!(ready_keys(&cache), [10]);
        assert_eq!(cache.entries.len(), 1);
        // Republishing a key replaces it; retracting returns its bytes.
        assert_eq!(cache.publish((10, 0), synthetic(MB)), 0);
        assert_eq!((ready_keys(&cache), cache.bytes), (vec![10], MB));
        cache.remove(&(10, 0));
        assert_eq!((cache.entries.len(), cache.bytes), (0, 0));
    }

    /// Eviction as a client meets it: a result that was evicted is simply
    /// folded again — `cached == false`, never an error — and the `metrics`
    /// op counts what publication pushed out.
    #[test]
    fn an_evicted_result_is_folded_again() {
        use crate::{Client, Outcome, Submission, SubmitOpts};
        let registry = vec![(
            "fig6".to_string(),
            rodinia::paper_examples::fig6_kernel(16, 8),
        )];
        let server = serve("127.0.0.1:0", ServerConfig::default(), registry).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let mut cached = || {
            let sub = Submission::Program { workload: "fig6" };
            match c.submit(sub, &SubmitOpts::default()).unwrap() {
                Outcome::Done { cached, .. } => cached,
                other => panic!("expected Done, got {other:?}"),
            }
        };
        assert_eq!((cached(), cached()), (false, true));
        // Other tenants' results fill the cache to the brim behind it.
        for k in 0..8 {
            lock(&server.inner.cache).publish((k, 1), synthetic(1 << 20));
        }
        assert_eq!((cached(), cached()), (false, true));
        assert!(lock(&server.inner.cache).bytes <= CACHE_BYTES);
        // fig6's own republication had to push one of them out.
        let evictions = server.stats().get(ServiceCounter::CacheEvictions);
        assert!(evictions >= 1, "{evictions}");
        let metrics = Client::connect(server.addr())
            .unwrap()
            .metrics_json()
            .unwrap();
        assert_eq!(json_u64(&metrics, "cache_evictions"), Some(evictions));
        server.shutdown();
    }

    /// An accepted socket leaves [`prepare_conn`] — what `accept_loop` runs
    /// on each one — with Nagle's algorithm off.
    #[test]
    fn accepted_sockets_have_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "Nagle is on by default");
        prepare_conn(&accepted);
        assert!(accepted.nodelay().unwrap());
    }

    #[test]
    fn round_robin_is_fair_across_tenants() {
        // A job's program name is its identity here.
        fn fake_job(session: u64) -> Job {
            Job {
                prog: Arc::new(Program {
                    name: session.to_string(),
                    ..Program::default()
                }),
                lead: None,
                kind: JobKind::Program,
                fault_plan: None,
                budget: Arc::new(ResourceBudget::new(None, None)),
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
        let order: Vec<u64> =
            std::iter::from_fn(|| sched.pop().map(|j| j.prog.name.parse().unwrap())).collect();
        // Fair: b and c are served before a's backlog drains.
        assert_eq!(order, vec![1, 5, 6, 2, 3, 4]);
        assert_eq!(sched.queued, 0);
    }
}
