//! # polytrace — the profiler profiling itself
//!
//! Poly-Prof's whole premise is feedback from a single execution; this crate
//! gives the *pipeline itself* the same treatment. One [`Collector`] per
//! profiling run accumulates, into **fixed atomic slots** (no allocation on
//! any recording path):
//!
//! * **per-stage span timing** — wall time of each sequential stage of
//!   [`profile`](https://docs.rs/polyprof-core) (structure recording, the
//!   static affine pre-pass, pass 2, finalize, DDG lint, SCEV removal,
//!   scheduling, feedback, rendering, the static baseline);
//! * **pipeline counters** — events folded, shadow-page MRU and context
//!   version-cache hit/miss, folder prediction hits, over-approximated
//!   statement counts, recording frames and bytes. A fact the `Report`
//!   already carries (SCEV removals, lint results, degradation) is not
//!   counted a second time here;
//! * **one latency histogram** — the VM's sampled dispatch time;
//! * **a timeline** — stage spans and point events on the driver thread,
//!   exportable as Chrome trace-event JSON.
//!
//! The design keeps the hot paths honest:
//!
//! * Per-event accounting lives in the components themselves as plain `u64`
//!   fields (a register increment, no atomics, no branches) and is harvested
//!   into the collector **once per stage**, when the stage finishes.
//! * Atomic traffic happens only at stage granularity (span ends, harvests).
//! * `Instant::now()` is taken only at [`MetricsLevel::Timing`]; at
//!   [`MetricsLevel::Counters`] spans are free, and at [`MetricsLevel::Off`]
//!   no collector exists at all, so the zero-allocation steady state of the
//!   profiling hot path is untouched (gated by `tests/zero_alloc.rs`).
//!
//! At the end of a run [`Collector::snapshot`] freezes everything into a
//! [`RunMetrics`] — plain data, rendered as a human-readable table
//! ([`std::fmt::Display`]) or machine-readable JSON ([`RunMetrics::to_json`]),
//! and surfaced on `polyprof_core::Report::metrics`.

mod json;
pub mod service;

pub use json::validate_json;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much the profiler records about itself during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum MetricsLevel {
    /// No collector at all: the hot paths still maintain their (free) local
    /// counters, but nothing is harvested and `Report::metrics` is `None`.
    #[default]
    Off,
    /// Counters and gauges only — spans exist but never read the clock.
    Counters,
    /// Counters plus wall-clock span timing for every stage, plus the VM's
    /// opcode counts and its sampled dispatch-latency [`Histogram`].
    Timing,
    /// Everything above plus a timestamped event timeline: stage spans and
    /// point events, exportable as Chrome trace-event JSON
    /// ([`RunMetrics::timeline_json`]).
    Trace,
}

impl MetricsLevel {
    /// Stable lowercase name (JSON `level` field).
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Counters => "counters",
            MetricsLevel::Timing => "timing",
            MetricsLevel::Trace => "trace",
        }
    }
}

/// Escape a string for embedding inside a JSON string literal: quotes,
/// backslashes and all control characters (the latter as `\u00XX`). Shared
/// by every hand-rolled JSON emitter in the workspace so workload names,
/// degradation details etc. cannot break an artifact.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// [`json_escape`] appended to `out`. Every byte that needs an escape is
/// ASCII, so the text between two escapes is copied as one run.
pub fn json_escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// `json_escape(s).len()` without escaping: what a renderer reserves to
/// write a long text into one allocation of exactly its size.
pub fn json_escaped_len(s: &str) -> usize {
    s.bytes()
        .map(|b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
            0..=0x1f => 6,
            _ => 1,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Sub-bucket resolution of [`Histogram`]: each power-of-two octave is split
/// into `2^HIST_SUB_BITS` linear sub-buckets (≤ 12.5% relative error).
pub const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;

/// Number of buckets in a [`Histogram`]: values `0..8` get exact buckets,
/// then 8 sub-buckets per octave up to `u64::MAX`.
pub const N_HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize) * HIST_SUB + HIST_SUB;

/// HDR-style log-bucketed histogram of `u64` samples (nanoseconds, counts).
///
/// Fixed ~4 KB of plain `u64`s: recording is a handful of ALU ops plus one
/// indexed increment — no allocation, no atomics — so components keep a
/// *local* histogram on their own thread and merge it into the
/// [`Collector`] once at stage end, the same harvest discipline as the
/// scalar counters. [`Histogram::merge`] is associative and commutative
/// (bucket-wise addition), so partial histograms merge into exactly the
/// histogram a single observer of the whole stream would have built.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; N_HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; N_HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts[..] == other.counts[..]
    }
}

/// Bucket index of a sample value.
#[inline]
fn hist_bucket(v: u64) -> usize {
    if v < HIST_SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= HIST_SUB_BITS
        let base = (msb - HIST_SUB_BITS + 1) as usize * HIST_SUB;
        base + ((v >> (msb - HIST_SUB_BITS)) as usize & (HIST_SUB - 1))
    }
}

/// Inclusive upper bound of bucket `idx` (what percentiles report).
fn hist_bucket_upper(idx: usize) -> u64 {
    if idx < HIST_SUB {
        idx as u64
    } else {
        let msb = (idx / HIST_SUB) as u32 + HIST_SUB_BITS - 1;
        let offset = (idx % HIST_SUB) as u64;
        let width = 1u64 << (msb - HIST_SUB_BITS);
        let start = (1u64 << msb) + offset * width;
        start + (width - 1)
    }
}

impl Histogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[hist_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (associative, commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): upper bound of the bucket holding
    /// the target rank, clamped into `[min, max]` so a percentile can never
    /// fall outside the recorded range. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return hist_bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// JSON summary object: count, sum, mean, min, p50/p90/p99, max.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, ",
                "\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}"
            ),
            self.count,
            self.sum,
            self.mean(),
            self.min(),
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            self.max
        )
    }
}

/// Sequential stages of one profiling run. Exactly one of these is active at
/// any moment — for every source of pass 2 — so their span times sum to
/// (approximately) the run's wall time: the property the metrics-consistency
/// suite asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Pass 1: dynamic CFG/CG recording + loop-forest analysis.
    Structure,
    /// The static affine pre-pass (`polystatic::dataflow` + `deps`), run for
    /// the lint: dominators, induction variables, SCEV proofs and the
    /// affine dependence relations.
    StaticPass,
    /// Pass 2: the event source (the VM under the profiler, or a recording)
    /// streaming into the fold sink on the calling thread.
    Profile,
    /// Folding-sink finalization, after the stream ends.
    Finalize,
    /// Post-fold DDG lint against the static summary.
    Lint,
    /// SCEV statement/dependence removal.
    ScevRemoval,
    /// Pluto-style schedule analysis.
    Schedule,
    /// PolyFeat metric computation.
    Feedback,
    /// Report rendering: flame graph, annotated AST, full text.
    Render,
    /// The static "Polly" baseline analysis.
    StaticBaseline,
}

/// Number of [`Stage`] slots.
pub const N_STAGES: usize = 10;

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Structure,
        Stage::StaticPass,
        Stage::Profile,
        Stage::Finalize,
        Stage::Lint,
        Stage::ScevRemoval,
        Stage::Schedule,
        Stage::Feedback,
        Stage::Render,
        Stage::StaticBaseline,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Structure => "structure",
            Stage::StaticPass => "static-pass",
            Stage::Profile => "profile",
            Stage::Finalize => "finalize",
            Stage::Lint => "lint",
            Stage::ScevRemoval => "scev-removal",
            Stage::Schedule => "schedule",
            Stage::Feedback => "feedback",
            Stage::Render => "render",
            Stage::StaticBaseline => "static-baseline",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// Named scalar counters. Every variant owns one fixed `AtomicU64` slot in
/// the [`Collector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Dynamic instructions executed (pass 2).
    DynOps,
    /// Dynamic memory events (loads + stores) seen by pass 2.
    MemEvents,
    /// Events consumed by the folding sink.
    EventsFolded,
    /// Dependence events folded (subset of [`Counter::EventsFolded`]).
    DepsFolded,
    /// Events a stream folder accepted by verified prediction, without
    /// entering a fitter (subset of [`Counter::EventsFolded`]).
    FoldPredicted,
    /// Context-path version-cache hits (`ContextInterner`).
    CtxCacheHit,
    /// Context-path version-cache misses.
    CtxCacheMiss,
    /// Version-cache misses that hashed the context stacks by content: the
    /// first sight of a tracker state (subset of [`Counter::CtxCacheMiss`]).
    CtxContentInterns,
    /// Shadow-memory MRU page-cache hits.
    ShadowMruHit,
    /// Shadow-memory MRU page-cache misses (page-table probe or page alloc).
    ShadowMruMiss,
    /// Resident shadow pages at the end of the run.
    ShadowPages,
    /// Bytes held by spilled coordinate-snapshot arenas.
    ArenaBytes,
    /// Folded statements left over-approximated (inexact domain or
    /// non-affine label/access).
    OverapproxStmts,
    /// Trace-recording frames written to disk (`polyrec` writer).
    RecFramesWritten,
    /// Trace-recording bytes written to disk (`polyrec` writer).
    RecBytesWritten,
    /// Trace-recording frames decoded during replay (`polyrec` reader).
    RecFramesRead,
    /// Trace-recording payload bytes decoded during replay (`polyrec` reader).
    RecBytesRead,
    /// Replayed events the recording spelled as a prediction from their
    /// key's stride (subset of the events read; `polyrec` reader).
    RecEventsPredicted,
}

/// Number of [`Counter`] slots.
pub const N_COUNTERS: usize = 18;

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::DynOps,
        Counter::MemEvents,
        Counter::EventsFolded,
        Counter::DepsFolded,
        Counter::FoldPredicted,
        Counter::CtxCacheHit,
        Counter::CtxCacheMiss,
        Counter::CtxContentInterns,
        Counter::ShadowMruHit,
        Counter::ShadowMruMiss,
        Counter::ShadowPages,
        Counter::ArenaBytes,
        Counter::OverapproxStmts,
        Counter::RecFramesWritten,
        Counter::RecBytesWritten,
        Counter::RecFramesRead,
        Counter::RecBytesRead,
        Counter::RecEventsPredicted,
    ];

    /// Stable snake_case name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            Counter::DynOps => "dyn_ops",
            Counter::MemEvents => "mem_events",
            Counter::EventsFolded => "events_folded",
            Counter::DepsFolded => "deps_folded",
            Counter::FoldPredicted => "fold_predicted",
            Counter::CtxCacheHit => "ctx_cache_hit",
            Counter::CtxCacheMiss => "ctx_cache_miss",
            Counter::CtxContentInterns => "ctx_content_interns",
            Counter::ShadowMruHit => "shadow_mru_hit",
            Counter::ShadowMruMiss => "shadow_mru_miss",
            Counter::ShadowPages => "shadow_pages",
            Counter::ArenaBytes => "arena_bytes",
            Counter::OverapproxStmts => "overapprox_stmts",
            Counter::RecFramesWritten => "rec_frames_written",
            Counter::RecBytesWritten => "rec_bytes_written",
            Counter::RecFramesRead => "rec_frames_read",
            Counter::RecBytesRead => "rec_bytes_read",
            Counter::RecEventsPredicted => "rec_events_predicted",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Timeline events
// ---------------------------------------------------------------------------

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Opens a span (Chrome `ph: "B"`).
    Begin,
    /// Closes the innermost open span (Chrome `ph: "E"`).
    End,
    /// A point event (Chrome `ph: "i"`).
    Instant,
}

/// One timestamped timeline record. Plain copyable data: a static name, the
/// offset from the collector's epoch, and two free-form integer arguments
/// (counts, sequence numbers, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static event name (`"profile"`, `"deadline-hit"`, …).
    pub name: &'static str,
    /// Begin / end / instant.
    pub kind: TraceEventKind,
    /// Nanoseconds since the collector's construction.
    pub ts_ns: u64,
    /// First argument (convention: a count).
    pub arg0: u64,
    /// Second argument (convention: a sequence number, or a count).
    pub arg1: u64,
}

fn atomic_array<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// The per-run accumulator: fixed slots, atomic, allocation-free to record
/// into. Shared behind an `Arc` by whatever records into one profiling run;
/// one atomic add per harvest, `Relaxed` everywhere — a snapshot is taken
/// after the run returns, so cross-slot consistency needs no ordering.
#[derive(Debug)]
pub struct Collector {
    level: MetricsLevel,
    /// Epoch of the run: every timeline timestamp is an offset from here.
    epoch: Instant,
    stage_ns: [AtomicU64; N_STAGES],
    counters: [AtomicU64; N_COUNTERS],
    /// Sampled VM dispatch time (ns), merged in once per VM run (locked
    /// only at harvest time, never per event).
    dispatch_ns: Mutex<Histogram>,
    /// Low-frequency timeline (stage spans, degradation instants). Locked
    /// O(1) per span — tens of times per run — and stamped under the lock,
    /// so it is in time order as appended.
    timeline: Mutex<Vec<TraceEvent>>,
    /// Per-opcode VM dispatch counts, harvested once per VM run. The names
    /// come from the interpreter — polytrace stays ignorant of the ISA.
    vm_ops: Mutex<Vec<(&'static str, u64)>>,
}

impl Collector {
    /// Fresh collector recording at `level`.
    pub fn new(level: MetricsLevel) -> Self {
        Collector {
            level,
            epoch: Instant::now(),
            stage_ns: atomic_array(),
            counters: atomic_array(),
            dispatch_ns: Mutex::new(Histogram::new()),
            timeline: Mutex::new(Vec::new()),
            vm_ops: Mutex::new(Vec::new()),
        }
    }

    /// True when span timing is on (clock reads allowed).
    #[inline]
    pub fn timing(&self) -> bool {
        self.level >= MetricsLevel::Timing
    }

    /// True when the timeline records.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.level >= MetricsLevel::Trace
    }

    /// Nanoseconds since the collector's epoch (the timeline time axis).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a point event on the timeline (degradation, watchdog —
    /// low-frequency paths only). No-op below [`MetricsLevel::Trace`].
    pub fn timeline_instant(&self, name: &'static str, arg0: u64, arg1: u64) {
        self.push_event(name, TraceEventKind::Instant, arg0, arg1);
    }

    /// Append one event to the timeline; no-op below
    /// [`MetricsLevel::Trace`].
    fn push_event(&self, name: &'static str, kind: TraceEventKind, arg0: u64, arg1: u64) {
        if !self.tracing() {
            return;
        }
        let mut timeline = self.timeline.lock().unwrap();
        let ts_ns = self.now_ns();
        timeline.push(TraceEvent {
            name,
            kind,
            ts_ns,
            arg0,
            arg1,
        });
    }

    /// Merge a VM run's sampled dispatch times into the run's histogram
    /// (one lock per VM run).
    pub fn merge_dispatch_ns(&self, h: &Histogram) {
        if h.is_empty() {
            return;
        }
        self.dispatch_ns.lock().unwrap().merge(h);
    }

    /// Harvest a per-opcode dispatch count from a finished VM run. Counts
    /// for the same opcode name accumulate across calls.
    pub fn record_vm_op(&self, name: &'static str, count: u64) {
        if count == 0 {
            return;
        }
        let mut ops = self.vm_ops.lock().unwrap();
        match ops.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += count,
            None => ops.push((name, count)),
        }
    }

    /// Add `n` to a named counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if n != 0 {
            self.counters[c.slot()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a named counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.slot()].load(Ordering::Relaxed)
    }

    /// RAII span over a sequential stage (no clock read below `Timing`).
    pub fn span(&self, s: Stage) -> Span<'_> {
        Span::new(self, s)
    }

    /// Record nanoseconds directly into a sequential-stage slot (for code
    /// paths where a guard is awkward).
    pub fn record_stage_ns(&self, s: Stage, ns: u64) {
        self.stage_ns[s.slot()].fetch_add(ns, Ordering::Relaxed);
    }

    /// Freeze the accumulators into a [`RunMetrics`]. Call after the run
    /// has returned; `total_ns` is the run's measured wall time.
    pub fn snapshot(&self, total_ns: u64) -> RunMetrics {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut vm_ops = self.vm_ops.lock().unwrap().clone();
        vm_ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        RunMetrics {
            level: self.level,
            total_ns,
            stage_ns: std::array::from_fn(|i| ld(&self.stage_ns[i])),
            counters: std::array::from_fn(|i| ld(&self.counters[i])),
            dispatch_ns: self
                .timing()
                .then(|| self.dispatch_ns.lock().unwrap().clone()),
            vm_ops,
            timeline: self.timeline.lock().unwrap().clone(),
        }
    }
}

/// RAII timing guard over a sequential stage: adds its elapsed wall time to
/// the stage's slot on drop. Below [`MetricsLevel::Timing`] it never reads
/// the clock and drop is a no-op. At [`MetricsLevel::Trace`] it additionally
/// opens/closes a span on the shared timeline, so every stage shows up in
/// the Chrome trace for free.
pub struct Span<'a> {
    col: &'a Collector,
    stage: Stage,
    t0: Option<Instant>,
}

impl<'a> Span<'a> {
    fn new(col: &'a Collector, stage: Stage) -> Self {
        let t0 = col.timing().then(Instant::now);
        col.push_event(stage.name(), TraceEventKind::Begin, 0, 0);
        Span { col, stage, t0 }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.col.stage_ns[self.stage.slot()].fetch_add(ns, Ordering::Relaxed);
        }
        self.col
            .push_event(self.stage.name(), TraceEventKind::End, 0, 0);
    }
}

/// Frozen metrics of one profiling run: plain data, cheap to clone, stable
/// to serialize. Produced by [`Collector::snapshot`], surfaced on
/// `polyprof_core::Report::metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The level the run recorded at.
    pub level: MetricsLevel,
    /// Measured wall time of the whole run, nanoseconds.
    pub total_ns: u64,
    /// Sequential stage times (ns), indexed by [`Stage`] slot order.
    pub stage_ns: [u64; N_STAGES],
    /// Named counters, indexed by [`Counter`] slot order.
    pub counters: [u64; N_COUNTERS],
    /// Sampled VM dispatch time (ns); `None` below [`MetricsLevel::Timing`].
    pub dispatch_ns: Option<Histogram>,
    /// Per-opcode VM dispatch counts, sorted by count descending; empty
    /// unless VM telemetry ran (Timing and above).
    pub vm_ops: Vec<(&'static str, u64)>,
    /// The timeline, in time order; empty below [`MetricsLevel::Trace`].
    pub timeline: Vec<TraceEvent>,
}

impl RunMetrics {
    /// A sequential stage's recorded wall time, nanoseconds.
    pub fn stage(&self, s: Stage) -> u64 {
        self.stage_ns[s.slot()]
    }

    /// A named counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.slot()]
    }

    /// Sum of the sequential stage spans — within a small epsilon of
    /// [`RunMetrics::total_ns`] at `Timing` (the stages partition the run).
    pub fn sequential_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Hit rate of a hit/miss counter pair (`None` when no lookups).
    pub fn hit_rate(&self, hit: Counter, miss: Counter) -> Option<f64> {
        let (h, m) = (self.counter(hit), self.counter(miss));
        let total = h + m;
        (total > 0).then(|| h as f64 / total as f64)
    }

    /// Share of folded events the stream folders accepted by verified
    /// prediction (`None` when nothing was folded).
    pub fn fold_predict_hit_ratio(&self) -> Option<f64> {
        let folded = self.counter(Counter::EventsFolded);
        (folded > 0).then(|| self.counter(Counter::FoldPredicted) as f64 / folded as f64)
    }

    /// Count of timeline events with a given name and kind (reconciliation
    /// against the spans and counters: e.g. one `profile` begin per run).
    pub fn timeline_count(&self, name: &str, kind: TraceEventKind) -> u64 {
        self.timeline
            .iter()
            .filter(|e| e.name == name && e.kind == kind)
            .count() as u64
    }

    /// Render the timeline as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object format), loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are microseconds from the run epoch;
    /// every event sits on the one `"driver"` thread. Valid (empty) JSON
    /// below [`MetricsLevel::Trace`].
    pub fn timeline_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.timeline.len() * 96);
        s.push_str(
            "{\"traceEvents\":[\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"driver\"}}",
        );
        for ev in &self.timeline {
            let ph = match ev.kind {
                TraceEventKind::Begin => "B",
                TraceEventKind::End => "E",
                TraceEventKind::Instant => "i",
            };
            let scope = if ev.kind == TraceEventKind::Instant {
                ",\"s\":\"t\""
            } else {
                ""
            };
            s.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":0,\
                 \"ts\":{:.3}{scope},\"args\":{{\"arg0\":{},\"arg1\":{}}}}}",
                json_escape(ev.name),
                ev.ts_ns as f64 / 1000.0,
                ev.arg0,
                ev.arg1
            ));
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}");
        s
    }

    /// Machine-readable JSON rendering (hand-rolled; no external deps —
    /// stable snake_case keys, suitable for CI artifacts).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        push_kv(&mut s, "level", &format!("\"{}\"", self.level.name()));
        push_kv(&mut s, "total_ns", &self.total_ns.to_string());
        s.push_str("\"stages_ns\": {");
        for (i, st) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", st.name(), self.stage(*st)));
        }
        s.push_str("}, ");
        // Distribution / timeline / VM sections exist only at the levels
        // that record them, so `Off`/`Counters` artifacts stay byte-stable.
        if let Some(h) = &self.dispatch_ns {
            push_kv(
                &mut s,
                "histograms",
                &format!("{{\"vm_dispatch_ns\": {}}}", h.to_json()),
            );
        }
        if !self.vm_ops.is_empty() {
            s.push_str("\"vm_ops\": {");
            for (i, (name, count)) in self.vm_ops.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {count}", json_escape(name)));
            }
            s.push_str("}, ");
        }
        if self.level >= MetricsLevel::Trace {
            push_kv(&mut s, "trace_events", &self.timeline.len().to_string());
        }
        s.push_str("\"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", c.name(), self.counter(*c)));
        }
        s.push_str("}}");
        s
    }
}

fn push_kv(s: &mut String, k: &str, raw: &str) {
    s.push_str(&format!("\"{k}\": {raw}, "));
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for RunMetrics {
    /// The human-readable table: stage times with % of wall, then the
    /// counter inventory with hit rates.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "── run metrics ({:?}) ──", self.level)?;
        writeln!(f, "total wall time          {:>10.3} ms", ms(self.total_ns))?;
        if self.level >= MetricsLevel::Timing {
            let total = self.total_ns.max(1) as f64;
            for s in Stage::ALL {
                let ns = self.stage(s);
                if ns == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<22} {:>10.3} ms  {:>5.1}%",
                    s.name(),
                    ms(ns),
                    100.0 * ns as f64 / total
                )?;
            }
            writeln!(
                f,
                "  {:<22} {:>10.3} ms  {:>5.1}%",
                "(stage sum)",
                ms(self.sequential_ns()),
                100.0 * self.sequential_ns() as f64 / total
            )?;
        }
        if let Some(h) = self.dispatch_ns.as_ref().filter(|h| !h.is_empty()) {
            writeln!(f, "latency histograms:")?;
            writeln!(
                f,
                "  {:<18} n {:>10}  p50 {:>10}  p90 {:>10}  p99 {:>10}  max {:>10}",
                "vm_dispatch_ns",
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max()
            )?;
        }
        if !self.vm_ops.is_empty() {
            let total: u64 = self.vm_ops.iter().map(|(_, c)| c).sum();
            writeln!(f, "vm opcode profile ({total} dispatches):")?;
            for (name, count) in self.vm_ops.iter().take(12) {
                writeln!(
                    f,
                    "  {:<18} {:>14}  {:>5.1}%",
                    name,
                    count,
                    100.0 * *count as f64 / total.max(1) as f64
                )?;
            }
            if self.vm_ops.len() > 12 {
                writeln!(f, "  … {} more opcodes", self.vm_ops.len() - 12)?;
            }
        }
        if self.level >= MetricsLevel::Trace {
            writeln!(f, "timeline: {} events", self.timeline.len())?;
        }
        writeln!(f, "counters:")?;
        for c in Counter::ALL {
            let v = self.counter(c);
            if v == 0 {
                continue;
            }
            write!(f, "  {:<22} {:>14}", c.name(), v)?;
            let rate = match c {
                Counter::CtxCacheHit => self.hit_rate(Counter::CtxCacheHit, Counter::CtxCacheMiss),
                Counter::ShadowMruHit => {
                    self.hit_rate(Counter::ShadowMruHit, Counter::ShadowMruMiss)
                }
                Counter::FoldPredicted => self.fold_predict_hit_ratio(),
                _ => None,
            };
            match rate {
                Some(r) => writeln!(f, "  ({:.1}% hit rate)", 100.0 * r)?,
                None => writeln!(f)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot is the enum discriminant, and `ALL` lists the variants in
    /// declaration order: `ALL[i]` sits in slot `i`, so the slots are dense
    /// and unique and the report order is the slot order.
    #[test]
    fn counter_slots_are_dense_and_unique() {
        fn in_declaration_order<T: Copy + std::fmt::Debug>(all: &[T], slot: impl Fn(T) -> usize) {
            for (i, &v) in all.iter().enumerate() {
                assert_eq!(slot(v), i, "{v:?} is out of declaration order in ALL");
            }
        }
        in_declaration_order(&Counter::ALL, |c| c as usize);
        in_declaration_order(&Stage::ALL, |s| s as usize);
        in_declaration_order(&service::ServiceCounter::ALL, |c| c as usize);
    }

    #[test]
    fn spans_record_only_at_timing_level() {
        let c = Collector::new(MetricsLevel::Counters);
        {
            let _s = c.span(Stage::Profile);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(c.snapshot(0).stage(Stage::Profile), 0);

        let c = Collector::new(MetricsLevel::Timing);
        {
            let _s = c.span(Stage::Profile);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(c.snapshot(0).stage(Stage::Profile) > 0);
    }

    #[test]
    fn json_and_table_render() {
        let c = Collector::new(MetricsLevel::Timing);
        c.add(Counter::DynOps, 1000);
        c.add(Counter::CtxCacheHit, 90);
        c.add(Counter::CtxCacheMiss, 10);
        c.record_stage_ns(Stage::Profile, 5_000_000);
        let m = c.snapshot(10_000_000);
        let j = m.to_json();
        assert!(j.contains("\"dyn_ops\": 1000"), "{j}");
        assert!(j.contains("\"profile\": 5000000"), "{j}");
        assert!(j.contains("\"level\": \"timing\""), "{j}");
        let t = format!("{m}");
        assert!(t.contains("ctx_cache_hit"), "{t}");
        assert!(t.contains("90.0% hit rate"), "{t}");
        assert_eq!(m.fold_predict_hit_ratio(), None);
        assert!(t.contains("total wall time"), "{t}");
    }

    #[test]
    fn hit_rate_and_sequential_sum() {
        let c = Collector::new(MetricsLevel::Timing);
        c.record_stage_ns(Stage::Structure, 100);
        c.record_stage_ns(Stage::Profile, 900);
        let m = c.snapshot(1000);
        assert_eq!(m.sequential_ns(), 1000);
        assert_eq!(
            m.hit_rate(Counter::ShadowMruHit, Counter::ShadowMruMiss),
            None
        );
    }

    #[test]
    fn trace_is_ordered_above_timing() {
        assert!(MetricsLevel::Trace > MetricsLevel::Timing);
        let c = Collector::new(MetricsLevel::Trace);
        assert!(c.timing(), "Trace implies Timing");
        assert!(c.tracing());
        assert!(!Collector::new(MetricsLevel::Timing).tracing());
    }

    #[test]
    fn json_escape_covers_quotes_and_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(json_escape("\u{1}x"), "\\u0001x");
        assert_eq!(json_escape("plain"), "plain");
        // Multi-byte text passes through whole, and the length a renderer
        // reserves is the length escaping produces.
        assert_eq!(json_escape("é\"→\n"), "é\\\"→\\n");
        for s in [
            "",
            "plain",
            "a\"b\\c",
            "a\nb\tc\r",
            "\u{1}x\u{1f}",
            "é\"→\n",
        ] {
            assert_eq!(json_escaped_len(s), json_escape(s).len(), "{s:?}");
        }
    }

    #[test]
    fn histogram_buckets_are_monotone_and_dense() {
        // Bucket index must be monotone non-decreasing in the value and
        // every value must land in a bucket whose upper bound covers it.
        let mut vals: Vec<u64> = (0..=256).collect();
        for shift in 3..63 {
            for off in [0u64, 1, 3] {
                vals.push((1u64 << shift) + off);
                vals.push((1u64 << shift) - 1);
            }
        }
        vals.push(u64::MAX);
        vals.sort_unstable();
        let mut prev = 0;
        for v in vals {
            let b = hist_bucket(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            assert!(b < N_HIST_BUCKETS);
            assert!(hist_bucket_upper(b) >= v, "upper({b}) < {v}");
            prev = b;
        }
        // Small values are exact.
        for v in 0..8u64 {
            assert_eq!(hist_bucket_upper(hist_bucket(v)), v);
        }
    }

    #[test]
    fn histogram_percentiles_bound_and_order() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1000, 5000, 100_000] {
            h.record(v);
        }
        let (p50, p90, p99) = (h.percentile(0.5), h.percentile(0.9), h.percentile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 >= h.min() && p99 <= h.max());
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 100_000);
        // Empty histogram renders zeros, no panic.
        let e = Histogram::new();
        assert_eq!(e.percentile(0.99), 0);
        assert_eq!(e.min(), 0);
        assert!(e.to_json().contains("\"count\": 0"));
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 7 + 13) % 100_000).collect();
        let mut whole = Histogram::new();
        let mut parts = vec![Histogram::new(); 4];
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            parts[i % 4].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.percentile(0.99), whole.percentile(0.99));
    }

    #[test]
    fn spans_and_instants_feed_the_timeline() {
        let c = Collector::new(MetricsLevel::Trace);
        {
            let _s = c.span(Stage::Profile);
            c.timeline_instant("budget-pressure", 4096, 0);
        }
        c.timeline_instant("deadline-hit", 7, 0);
        let m = c.snapshot(1);
        assert_eq!(m.timeline_count("profile", TraceEventKind::Begin), 1);
        assert_eq!(m.timeline_count("profile", TraceEventKind::End), 1);
        assert_eq!(
            m.timeline_count("budget-pressure", TraceEventKind::Instant),
            1
        );
        assert_eq!(m.timeline_count("deadline-hit", TraceEventKind::Instant), 1);
        let order: Vec<_> = m.timeline.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            order,
            [
                ("profile", TraceEventKind::Begin),
                ("budget-pressure", TraceEventKind::Instant),
                ("profile", TraceEventKind::End),
                ("deadline-hit", TraceEventKind::Instant),
            ]
        );
        // Appended in time order; nothing sorts it.
        assert!(m.timeline.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let j = m.timeline_json();
        validate_json(&j).unwrap();
        assert!(j.contains("\"traceEvents\""), "{j}");
        assert!(j.contains("\"ph\":\"B\""), "{j}");
        assert!(j.contains("\"ph\":\"E\""), "{j}");
        assert_eq!(j.matches("\"thread_name\"").count(), 1, "{j}");
        assert!(j.contains("\"driver\""), "{j}");
        assert_eq!(j.matches("\"tid\":0").count(), 5, "{j}");
    }

    #[test]
    fn below_trace_no_journal_no_timeline() {
        let c = Collector::new(MetricsLevel::Timing);
        c.timeline_instant("deadline-hit", 0, 0);
        {
            let _s = c.span(Stage::Profile);
        }
        let m = c.snapshot(1);
        assert!(m.timeline.is_empty());
        // Valid (empty) Chrome JSON either way.
        assert!(m.timeline_json().contains("\"traceEvents\":["));
    }

    #[test]
    fn vm_ops_accumulate_and_render() {
        let c = Collector::new(MetricsLevel::Timing);
        c.record_vm_op("iop.add", 100);
        c.record_vm_op("load", 50);
        c.record_vm_op("iop.add", 10);
        c.record_vm_op("nop", 0); // zero counts are skipped
        let m = c.snapshot(1);
        assert_eq!(m.vm_ops, vec![("iop.add", 110), ("load", 50)]);
        let j = m.to_json();
        assert!(
            j.contains("\"vm_ops\": {\"iop.add\": 110, \"load\": 50}"),
            "{j}"
        );
        let t = format!("{m}");
        assert!(t.contains("vm opcode profile"), "{t}");
    }

    #[test]
    fn hists_render_at_timing_not_counters() {
        let c = Collector::new(MetricsLevel::Timing);
        let mut local = Histogram::new();
        local.record(1234);
        c.merge_dispatch_ns(&local);
        local.record(10);
        local.record(99);
        c.merge_dispatch_ns(&local);
        let m = c.snapshot(1);
        assert_eq!(m.dispatch_ns.as_ref().unwrap().count(), 4);
        let j = m.to_json();
        assert!(j.contains("\"histograms\""), "{j}");
        assert!(j.contains("\"vm_dispatch_ns\": {\"count\": 4"), "{j}");

        // Counters-level snapshots carry no histograms and render none —
        // the byte-stability invariant for Off/Counters artifacts.
        let c = Collector::new(MetricsLevel::Counters);
        c.merge_dispatch_ns(&local);
        let m = c.snapshot(1);
        assert!(m.dispatch_ns.is_none());
        assert!(!m.to_json().contains("histograms"));
        assert!(!m.to_json().contains("trace_events"));
    }
}
