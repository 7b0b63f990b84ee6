//! # polyresist — resilience primitives for the poly-prof pipeline
//!
//! The paper's folding stage already embraces principled loss: non-affine
//! parts are *over-approximated* so the back-end stays scalable (§3). This
//! crate extends that philosophy from the geometry to the runtime: a
//! profiling run should terminate with a report annotated with what was lost
//! (memory pressure, an expired deadline), or with a structured error —
//! never a hang or a caller-visible panic.
//!
//! Three building blocks, all dependency-free:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of injectable faults
//!   (a pass-2 panic, shadow-page allocation failures, heartbeat stalls).
//!   Production code threads an `Option<Arc<FaultPlan>>` through pass 2; the
//!   `None` fast path is a single branch, so the hook is zero-cost when
//!   injection is off.
//! * [`ResourceBudget`] — the run's control block, shared with whoever
//!   watches it: limits in (stages charge allocations against the byte limit
//!   and switch to over-approximation on pressure instead of aborting; the
//!   event source polls the deadline), cancellation in, and a heartbeat out
//!   ([`ResourceBudget::progress`]) — watching a run takes no thread.
//! * [`RunDegradation`] — the structured record of everything a run lost,
//!   surfaced in the final `Report` and the feedback text.
//!
//! Plus the workspace-wide error type [`PolyProfError`] that replaces
//! panicking `.expect` paths in the public entry points.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Workspace-wide error type for fallible pipeline entry points.
///
/// Hand-rolled (`thiserror`-style `Display` impl) to keep the workspace
/// dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolyProfError {
    /// The interpreter failed while driving a pass (fuel, unreachable, …).
    Vm {
        /// Which pipeline pass was running.
        stage: &'static str,
        /// The interpreter's own error rendering.
        msg: String,
    },
    /// A pipeline stage panicked; pass 2 reports itself as `"pass-2"`.
    StagePanic {
        /// Which stage panicked.
        stage: &'static str,
        /// Best-effort panic payload rendering.
        msg: String,
    },
    /// A [`FaultPlan::parse`] spec did not parse.
    InvalidFaultPlan(String),
    /// Two knobs of one run configuration contradict each other; rejected
    /// before anything runs rather than silently reconciled.
    Config {
        /// The knob that cannot be honoured as set.
        knob: &'static str,
        /// Which other setting it contradicts, and what to change.
        detail: String,
    },
    /// An on-disk trace recording could not be written or replayed
    /// (IO failure, bad magic, unsupported format version, checksum
    /// mismatch, truncation, or count disagreement).
    Recording {
        /// The recording's path (or a label for in-memory streams).
        path: String,
        /// What the writer/reader rejected.
        detail: String,
    },
}

impl std::fmt::Display for PolyProfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyProfError::Vm { stage, msg } => write!(f, "vm error in {stage}: {msg}"),
            PolyProfError::StagePanic { stage, msg } => {
                write!(f, "pipeline stage `{stage}` panicked: {msg}")
            }
            PolyProfError::InvalidFaultPlan(s) => write!(f, "invalid fault plan: {s}"),
            PolyProfError::Config { knob, detail } => {
                write!(f, "contradictory configuration: `{knob}` {detail}")
            }
            PolyProfError::Recording { path, detail } => {
                write!(f, "trace recording `{path}`: {detail}")
            }
        }
    }
}

impl std::error::Error for PolyProfError {}

/// Render a `catch_unwind` payload the way the default panic hook would.
pub fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// Where in pass 2 a fault can be injected.
///
/// Each site drives a behaviour a test checks and nothing else reaches: the
/// pass-2 panic boundary, the loss accounting of an unresolved access, and a
/// run held mid-way (how the `polyserve` tests occupy a worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// Panic inside the live source's memory-event path.
    PanicPre = 0,
    /// Fail a shadow-memory page allocation.
    AllocShadow = 1,
    /// Sleep at a source heartbeat — the VM's watchdog poll, or one
    /// replayed frame — for the plan's stall length.
    StallBeat = 2,
}

/// Number of distinct [`FaultSite`]s.
pub const N_FAULT_SITES: usize = 3;

impl FaultSite {
    /// All sites, in slot order.
    pub const ALL: [FaultSite; N_FAULT_SITES] = [
        FaultSite::PanicPre,
        FaultSite::AllocShadow,
        FaultSite::StallBeat,
    ];

    /// Stable spec name, as accepted by [`FaultPlan::parse`].
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PanicPre => "panic:pre",
            FaultSite::AllocShadow => "alloc:shadow",
            FaultSite::StallBeat => "stall:beat",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// When an armed fault fires, relative to the per-site occurrence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occurrence {
    /// Fire on exactly the n-th probe (1-based), once.
    Nth(u64),
    /// Fire on every probe.
    Every,
}

/// splitmix64 — tiny, deterministic, dependency-free PRNG used to derive
/// pseudo-random occurrence indices from the plan seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable schedule of injectable faults.
///
/// Built from a spec string (see [`FaultPlan::parse`]) or programmatically
/// via [`FaultPlan::single`]. Pipeline stages *probe* the plan at each
/// injectable site; a probe increments that site's occurrence counter and
/// reports whether an armed fault fires there. Pass 2 probes on one thread,
/// so per-site occurrence order is total and a plan fires deterministically.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<(FaultSite, Occurrence)>,
    /// Stall length applied by `StallBeat` faults.
    stall: Duration,
    /// Per-site probe counters (how many times the site was reached).
    probes: [AtomicU64; N_FAULT_SITES],
    /// Per-site fire counters (how many faults actually triggered).
    fired: [AtomicU64; N_FAULT_SITES],
}

impl FaultPlan {
    /// Parse a plan spec: `;`-separated entries, each either `seed=<u64>`,
    /// `stall_ms=<u64>`, or `<site>@<occ>` where `<site>` is a
    /// [`FaultSite::name`] and `<occ>` is a 1-based occurrence index, `*`
    /// (every occurrence) or `?` (pseudo-random occurrence in `[1, 16]`
    /// derived from the seed — the "seedable" injection mode).
    ///
    /// Example: `seed=42;panic:pre@1;stall:beat@3;alloc:shadow@?`.
    pub fn parse(spec: &str) -> Result<FaultPlan, PolyProfError> {
        let mut seed = 0u64;
        let mut stall_ms = 20u64;
        let mut raw: Vec<(FaultSite, String)> = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(v) = part.strip_prefix("seed=") {
                seed = v
                    .parse()
                    .map_err(|_| PolyProfError::InvalidFaultPlan(format!("bad seed `{v}`")))?;
            } else if let Some(v) = part.strip_prefix("stall_ms=") {
                stall_ms = v
                    .parse()
                    .map_err(|_| PolyProfError::InvalidFaultPlan(format!("bad stall_ms `{v}`")))?;
            } else {
                let (site_s, occ_s) = part.split_once('@').ok_or_else(|| {
                    PolyProfError::InvalidFaultPlan(format!("entry `{part}` missing `@<occ>`"))
                })?;
                let site = FaultSite::ALL
                    .iter()
                    .copied()
                    .find(|s| s.name() == site_s)
                    .ok_or_else(|| {
                        let known = FaultSite::ALL.map(FaultSite::name).join(", ");
                        PolyProfError::InvalidFaultPlan(format!(
                            "unknown site `{site_s}` (sites: {known})"
                        ))
                    })?;
                raw.push((site, occ_s.to_string()));
            }
        }
        let mut rng = seed ^ 0xD1F4_0FF5;
        let mut specs = Vec::with_capacity(raw.len());
        for (site, occ_s) in raw {
            let occ = match occ_s.as_str() {
                "*" => Occurrence::Every,
                "?" => Occurrence::Nth(splitmix64(&mut rng) % 16 + 1),
                n => Occurrence::Nth(n.parse().map_err(|_| {
                    PolyProfError::InvalidFaultPlan(format!("bad occurrence `{n}`"))
                })?),
            };
            if occ == Occurrence::Nth(0) {
                return Err(PolyProfError::InvalidFaultPlan(
                    "occurrence indices are 1-based".into(),
                ));
            }
            specs.push((site, occ));
        }
        Ok(FaultPlan {
            seed,
            specs,
            stall: Duration::from_millis(stall_ms),
            probes: Default::default(),
            fired: Default::default(),
        })
    }

    /// A plan with a single armed fault: fire `site` on its `nth` probe
    /// (1-based).
    pub fn single(site: FaultSite, nth: u64) -> FaultPlan {
        assert!(nth >= 1, "occurrence indices are 1-based");
        FaultPlan {
            seed: 0,
            specs: vec![(site, Occurrence::Nth(nth))],
            stall: Duration::from_millis(20),
            probes: Default::default(),
            fired: Default::default(),
        }
    }

    /// A plan that fires `site` on *every* probe.
    pub fn always(site: FaultSite) -> FaultPlan {
        FaultPlan {
            seed: 0,
            specs: vec![(site, Occurrence::Every)],
            stall: Duration::from_millis(20),
            probes: Default::default(),
            fired: Default::default(),
        }
    }

    /// The plan seed (0 when not set).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How long a `StallBeat` fault holds the source.
    pub fn stall_duration(&self) -> Duration {
        self.stall
    }

    /// Probe [`FaultSite::StallBeat`] and, when it fires, sleep for the
    /// stall length. The event source calls this once per heartbeat.
    pub fn stall_at_beat(&self) {
        if self.should_fire(FaultSite::StallBeat) {
            std::thread::sleep(self.stall);
        }
    }

    /// Probe an injection site. Increments the site's occurrence counter
    /// and returns `true` iff an armed fault fires on this occurrence.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        let slot = site.slot();
        let n = self.probes[slot].fetch_add(1, Ordering::Relaxed) + 1;
        let hit = self.specs.iter().any(|&(s, occ)| {
            s == site
                && match occ {
                    Occurrence::Nth(k) => k == n,
                    Occurrence::Every => true,
                }
        });
        if hit {
            self.fired[slot].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How many faults actually fired at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.slot()].load(Ordering::Relaxed)
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A fresh plan with the same seed, armed specs, and stall length but
    /// zeroed probe/fire counters. This is how one chaos spec fans out over
    /// many concurrent sessions deterministically: each session forks its
    /// own plan, so every session sees the same occurrence arithmetic
    /// (session #1's `stall:beat@2` fires on *its* second probe, not on the
    /// second probe observed globally across all sessions).
    pub fn fork(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            specs: self.specs.clone(),
            stall: self.stall,
            probes: Default::default(),
            fired: Default::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Resource budget
// ---------------------------------------------------------------------------

/// The control block of one profiling run: limits in, cancel in, heartbeat
/// out.
///
/// Stages charge their retained allocations (shadow pages, coordinate
/// arena spills, folder tables) against the byte budget with
/// [`ResourceBudget::charge`]; once tracked bytes cross the limit the
/// budget latches *pressure* and consumers switch to the paper's
/// over-approximation mode instead of allocating further precision state.
/// The optional deadline is polled (cheaply, caller-throttled) by the
/// event producer; once hit it latches and the run finalizes partial but
/// valid results. That poll is also the run's heartbeat
/// ([`ResourceBudget::beat`]), read back with [`ResourceBudget::progress`].
///
/// All counters are relaxed atomics: budget checks are heuristics, not
/// synchronization. The deadline instant sits behind a mutex so a budget
/// created before its run starts (a service session's, made at admission)
/// can be [re-armed](ResourceBudget::rearm) when the run actually starts
/// instead of reporting a deadline already spent waiting in a queue.
#[derive(Debug, Default)]
pub struct ResourceBudget {
    limit_bytes: Option<u64>,
    /// The configured deadline *duration* — kept so `rearm` can re-measure
    /// from a new start instant.
    deadline_dur: Option<Duration>,
    deadline: std::sync::Mutex<Option<Instant>>,
    used: AtomicU64,
    peak: AtomicU64,
    pressure: AtomicBool,
    deadline_hit: AtomicBool,
    cancelled: AtomicBool,
    /// The heartbeat: what the event source last published through `beat`.
    beat_ops: AtomicU64,
    beat_events: AtomicU64,
}

impl ResourceBudget {
    /// A budget with the given byte limit and/or deadline (measured from
    /// now). `None, None` yields an unlimited budget that never signals
    /// pressure.
    pub fn new(limit_bytes: Option<u64>, deadline_in: Option<Duration>) -> ResourceBudget {
        ResourceBudget {
            limit_bytes,
            deadline_dur: deadline_in,
            deadline: std::sync::Mutex::new(deadline_in.map(|d| Instant::now() + d)),
            ..ResourceBudget::default()
        }
    }

    /// Re-arm the watchdog deadline from *now* (the full configured duration
    /// again) and clear the expiry latch. Called when the run a budget was
    /// made for starts later than the budget (a queued service session is
    /// re-armed when a worker dequeues it): without this, the run would
    /// observe a deadline burned while it waited and finalize an empty
    /// partial result. Byte accounting and the pressure latch are
    /// deliberately *not* reset. A cancelled budget stays cancelled.
    pub fn rearm(&self) {
        if let Some(d) = self.deadline_dur {
            *self.deadline.lock().unwrap() = Some(Instant::now() + d);
        }
        self.deadline_hit.store(false, Ordering::Relaxed);
    }

    /// Cancel whatever run is metering against this budget: the next
    /// [`ResourceBudget::poll_deadline`] returns `true` regardless of the
    /// clock, so the VM's watchdog hook stops the run gracefully exactly as
    /// an expired deadline would. Idempotent; survives [`rearm`](Self::rearm).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        self.deadline_hit.store(true, Ordering::Relaxed);
    }

    /// Whether [`ResourceBudget::cancel`] was called.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Charge `bytes` of retained allocation. Returns `false` when the
    /// charge crossed the limit (pressure is then latched).
    pub fn charge(&self, bytes: u64) -> bool {
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        match self.limit_bytes {
            Some(lim) if now > lim => {
                self.pressure.store(true, Ordering::Relaxed);
                false
            }
            _ => true,
        }
    }

    /// Has the byte budget been crossed at any point?
    pub fn under_pressure(&self) -> bool {
        self.pressure.load(Ordering::Relaxed)
    }

    /// Currently tracked bytes.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// The event source's heartbeat and watchdog poll in one call: publish
    /// how far the run has got — `ops` dynamic instructions executed (0 for
    /// a recording, which executes none), `events` handed to the fold sink —
    /// then [`poll_deadline`](Self::poll_deadline). Callers throttle this:
    /// the VM once per 4096 instructions, a replay once per frame.
    pub fn beat(&self, ops: u64, events: u64) -> bool {
        self.beat_ops.store(ops, Ordering::Relaxed);
        self.beat_events.store(events, Ordering::Relaxed);
        self.poll_deadline()
    }

    /// The last heartbeat, `(ops, events)` as given to [`beat`](Self::beat);
    /// `(0, 0)` before the first. Two relaxed loads: any holder of the budget
    /// reads it from its own thread at its own pace, and the run never notices.
    pub fn progress(&self) -> (u64, u64) {
        (
            self.beat_ops.load(Ordering::Relaxed),
            self.beat_events.load(Ordering::Relaxed),
        )
    }

    /// Poll the deadline. Latches and returns `true` once the deadline has
    /// passed (or the budget was [cancelled](Self::cancel)). Callers
    /// throttle this (it reads the clock).
    pub fn poll_deadline(&self) -> bool {
        if self.deadline_hit.load(Ordering::Relaxed) {
            return true;
        }
        if self.cancelled.load(Ordering::Relaxed) {
            self.deadline_hit.store(true, Ordering::Relaxed);
            return true;
        }
        match *self.deadline.lock().unwrap() {
            Some(d) if Instant::now() >= d => {
                self.deadline_hit.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Whether the deadline has latched (without reading the clock).
    pub fn deadline_was_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Relaxed)
    }

    /// Time left until the watchdog deadline: `None` without one,
    /// `Some(ZERO)` once it has passed. Reads the clock.
    pub fn deadline_remaining(&self) -> Option<Duration> {
        self.deadline
            .lock()
            .unwrap()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

// ---------------------------------------------------------------------------
// Degradation record
// ---------------------------------------------------------------------------

/// Structured record of everything a run lost.
///
/// Attached to `Report` by pass 2; an all-default record means the run was
/// clean. The counters mirror the `polytrace` degradation
/// counters so CI can diff them across fault-plan seeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDegradation {
    /// Faults the plan actually fired (0 for production runs).
    pub faults_injected: u64,
    /// Source heartbeats an armed fault plan stalled.
    pub stalled_beats: u64,
    /// Shadow page allocations that failed (injected). Each left one
    /// memory access without its dependences.
    pub shadow_alloc_failures: u64,
    /// Statements folded in budget over-approximation mode.
    pub budget_overapprox_stmts: u64,
    /// The watchdog deadline fired and the run finalized partial results.
    pub deadline_hit: bool,
    /// The byte budget latched pressure at some point.
    pub budget_pressure: bool,
    /// High-water mark of budget-tracked bytes (0 when no budget).
    pub peak_tracked_bytes: u64,
}

impl RunDegradation {
    /// True when anything at all was lost.
    pub fn is_degraded(&self) -> bool {
        self.faults_injected > 0
            || self.stalled_beats > 0
            || self.shadow_alloc_failures > 0
            || self.budget_overapprox_stmts > 0
            || self.deadline_hit
            || self.budget_pressure
    }

    /// Fold the fault-plan fire counts into this record.
    pub fn absorb_plan(&mut self, plan: &FaultPlan) {
        self.faults_injected = plan.total_fired();
        self.stalled_beats = plan.fired(FaultSite::StallBeat);
        self.shadow_alloc_failures = plan.fired(FaultSite::AllocShadow);
    }

    /// Stable JSON rendering (counters only) for CI artifacts.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"faults_injected\":{},\"stalled_beats\":{},",
                "\"shadow_alloc_failures\":{},",
                "\"budget_overapprox_stmts\":{},\"deadline_hit\":{},",
                "\"budget_pressure\":{},\"peak_tracked_bytes\":{}}}"
            ),
            self.faults_injected,
            self.stalled_beats,
            self.shadow_alloc_failures,
            self.budget_overapprox_stmts,
            self.deadline_hit,
            self.budget_pressure,
            self.peak_tracked_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_and_fire_order() {
        let p = FaultPlan::parse("seed=7;alloc:shadow@2;stall:beat@1;stall_ms=1").unwrap();
        assert_eq!(p.seed(), 7);
        assert!(!p.should_fire(FaultSite::AllocShadow)); // occurrence 1
        assert!(p.should_fire(FaultSite::AllocShadow)); // occurrence 2 — armed
        assert!(!p.should_fire(FaultSite::AllocShadow)); // one-shot
        p.stall_at_beat(); // occurrence 1 — armed
        p.stall_at_beat();
        assert_eq!(p.fired(FaultSite::AllocShadow), 1);
        assert_eq!(p.fired(FaultSite::StallBeat), 1);
        assert_eq!(p.total_fired(), 2);
    }

    #[test]
    fn seeded_random_occurrence_is_deterministic() {
        let occ = |seed: u64| {
            let p = FaultPlan::parse(&format!("seed={seed};panic:pre@?")).unwrap();
            let mut n = 0u64;
            while !p.should_fire(FaultSite::PanicPre) {
                n += 1;
                assert!(n < 64, "armed occurrence must be in [1,16]");
            }
            n + 1
        };
        assert_eq!(occ(3), occ(3), "same seed, same occurrence");
        assert!((1..=16).contains(&occ(3)));
        // Different seeds eventually differ (not guaranteed per pair, but
        // across a small range at least two must diverge).
        let all: Vec<u64> = (0..8).map(occ).collect();
        assert!(all.iter().any(|&x| x != all[0]), "{all:?}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("panic:pre").is_err());
        assert!(FaultPlan::parse("panic:nope@1").is_err());
        assert!(FaultPlan::parse("panic:pre@0").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    /// The resolver stage and the fold workers are gone and so are their
    /// panic sites: a plan that still names one is rejected, and the message
    /// lists what is accepted.
    #[test]
    fn parse_rejects_the_removed_resolve_site_and_lists_the_rest() {
        assert_eq!(FaultSite::ALL.len(), 3);
        for gone in ["resolve", "fold"] {
            let err = FaultPlan::parse(&format!("seed=1;panic:{gone}@1")).unwrap_err();
            let PolyProfError::InvalidFaultPlan(msg) = &err else {
                panic!("expected InvalidFaultPlan, got {err}");
            };
            assert!(msg.contains(&format!("panic:{gone}")), "{msg}");
            for site in FaultSite::ALL {
                assert!(msg.contains(site.name()), "{msg} omits {}", site.name());
            }
        }
    }

    #[test]
    fn every_occurrence_fires_repeatedly() {
        let p = FaultPlan::always(FaultSite::PanicPre);
        for _ in 0..4 {
            assert!(p.should_fire(FaultSite::PanicPre));
        }
        assert_eq!(p.fired(FaultSite::PanicPre), 4);
    }

    #[test]
    fn budget_latches_pressure_and_tracks_peak() {
        let b = ResourceBudget::new(Some(100), None);
        assert!(b.charge(60));
        assert!(!b.under_pressure());
        assert!(!b.charge(50)); // 110 > 100
        assert!(b.under_pressure());
        assert_eq!(b.peak_bytes(), 110);
        assert_eq!(b.used_bytes(), 110);
    }

    #[test]
    fn unlimited_budget_never_pressures() {
        let b = ResourceBudget::new(None, None);
        assert!(b.charge(u64::MAX / 2));
        assert!(!b.under_pressure());
        assert!(!b.poll_deadline());
    }

    #[test]
    fn deadline_latches() {
        let b = ResourceBudget::new(None, Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.poll_deadline());
        assert!(b.deadline_was_hit());
    }

    /// Regression: a budget made before its run starts must re-arm the
    /// deadline from the run's start. Before `rearm`, a run started after the
    /// deadline burned reported an immediate expiry.
    #[test]
    fn rearm_restarts_the_deadline_from_now() {
        let b = ResourceBudget::new(Some(64), Some(Duration::from_millis(5)));
        assert!(!b.charge(100), "over the byte cap");
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.poll_deadline(), "the wait burned the deadline");
        assert!(b.deadline_was_hit());

        b.rearm();
        assert!(!b.poll_deadline(), "re-armed deadline must not be expired");
        assert!(!b.deadline_was_hit(), "expiry latch cleared");
        assert!(
            b.deadline_remaining().unwrap() > Duration::ZERO,
            "full duration available again"
        );
        // Byte accounting survives the re-arm: pressure stays latched.
        assert!(b.under_pressure());
        assert_eq!(b.used_bytes(), 100);

        std::thread::sleep(Duration::from_millis(10));
        assert!(b.poll_deadline(), "re-armed deadline still expires");
    }

    /// The heartbeat is what the source last said, and the same call is its
    /// watchdog poll.
    #[test]
    fn beat_publishes_progress_and_polls_the_watchdog() {
        let b = ResourceBudget::new(None, None);
        assert_eq!(b.progress(), (0, 0));
        assert!(!b.beat(4095, 12_000));
        assert_eq!(b.progress(), (4095, 12_000));
        b.cancel();
        assert!(b.beat(8191, 24_000), "a cancelled budget stops the source");
        assert_eq!(b.progress(), (8191, 24_000));
    }

    #[test]
    fn cancel_forces_the_watchdog_and_survives_rearm() {
        let b = ResourceBudget::new(None, None);
        assert!(!b.poll_deadline(), "no deadline configured");
        b.cancel();
        assert!(b.poll_deadline(), "cancel trips the watchdog hook");
        assert!(b.was_cancelled());
        b.rearm();
        assert!(b.poll_deadline(), "cancellation is sticky across rearm");
    }

    /// `fork` restarts the occurrence arithmetic: each forked plan fires on
    /// *its own* n-th probe, independent of its siblings — how one chaos
    /// spec deterministically covers many concurrent sessions.
    #[test]
    fn fork_resets_site_counters_per_session() {
        let template = FaultPlan::parse("seed=9;stall:beat@2;stall_ms=3").unwrap();
        // Burn the template's counters so a buggy shared-counter fork shows.
        assert!(!template.should_fire(FaultSite::StallBeat));
        assert!(template.should_fire(FaultSite::StallBeat));
        for _ in 0..3 {
            let session = template.fork();
            assert_eq!(session.seed(), 9);
            assert_eq!(session.stall_duration(), Duration::from_millis(3));
            assert_eq!(session.total_fired(), 0, "fired counters start fresh");
            assert!(!session.should_fire(FaultSite::StallBeat), "occ 1");
            assert!(session.should_fire(FaultSite::StallBeat), "occ 2 armed");
            assert_eq!(session.fired(FaultSite::StallBeat), 1);
        }
        assert_eq!(
            template.fired(FaultSite::StallBeat),
            1,
            "template untouched"
        );
    }

    #[test]
    fn degradation_json_is_stable() {
        let mut d = RunDegradation::default();
        assert!(!d.is_degraded());
        d.stalled_beats = 2;
        d.deadline_hit = true;
        assert!(d.is_degraded());
        let j = d.to_json();
        assert!(j.contains("\"stalled_beats\":2"), "{j}");
        assert!(j.contains("\"deadline_hit\":true"), "{j}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = PolyProfError::StagePanic {
            stage: "pass-2",
            msg: "boom".into(),
        };
        assert_eq!(e.to_string(), "pipeline stage `pass-2` panicked: boom");
        let e = PolyProfError::InvalidFaultPlan("bad seed `x`".into());
        assert_eq!(e.to_string(), "invalid fault plan: bad seed `x`");
        let e = PolyProfError::Config {
            knob: "record_to",
            detail: "cannot be combined with `replay_from`".into(),
        };
        assert_eq!(
            e.to_string(),
            "contradictory configuration: `record_to` cannot be combined with `replay_from`"
        );
    }
}
