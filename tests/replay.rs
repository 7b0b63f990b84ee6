//! Record→replay gate: a `.ptrace` recording captured during a live fold
//! must re-fold *byte-identically* (via `FoldedDdg::canonical_text`) to the
//! live result at every shard count, and every corruption of the file —
//! truncation, bad magic, a format-version bump, a flipped payload byte, a
//! tampered header count, a statement the footer's table lacks — must
//! surface as a structured `PolyProfError`, never a panic.
//!
//! Why identity holds: a recording carries the folding-interface stream
//! in serial order; replay routes it through the same
//! folding-key-sharded channels as the live pipeline, so per-key folder
//! state is identical and the merge is order-independent.

mod common;

use common::{deep_nest, elementwise, stencil};
use polyprof_core::polyddg::{CollectSink, FoldSink};
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source, Target};
use polyprof_core::polyfold::{self, replay::fold_recording, FoldOptions, FoldedDdg};
use polyprof_core::polyiiv::context::{ContextInterner, StmtId};
use polyprof_core::polyrec::{
    program_hash, Recorder, TraceWriter, FORMAT_VERSION, HDR_EVENTS_OFF, HDR_VERSION_OFF, MAGIC,
};
use polyprof_core::polyresist::{FaultPlan, FaultSite, PolyProfError, ResourceBudget};
use polyprof_core::polytrace::Counter;
use polyprof_core::{polycfg, polyir::Program, polyvm};
use polyprof_core::{try_profile_with, MetricsLevel, ProfileConfig};
use proptest::prelude::*;
use rodinia::paper_examples::fig6_kernel;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Unique scratch path per (process, test) so parallel test threads never
/// collide; callers clean up with `fs::remove_file` at the end.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("polyrec_{}_{}.ptrace", std::process::id(), name))
}

/// Live pipelined fold that also records to `path`, returning the live DDG.
/// Tiny chunks so every trace crosses many frame boundaries.
fn record_live(prog: &Program, path: &Path, fold_threads: usize) -> FoldedDdg {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
    let structure = polycfg::StaticStructure::analyze(prog, rec);
    let cfg = Pass2 {
        target: Target::workers(fold_threads),
        chunk_events: 64,
        ..Default::default()
    };
    let source = Source::Live(Live {
        record: Some(path),
        ..Live::new(&structure)
    });
    let out = pass2::run(prog, &source, &cfg).expect("recording fold must complete");
    let deg = &out.degradation;
    assert!(
        !deg.is_degraded(),
        "recording a healthy run must not degrade: {deg:?}"
    );
    out.ddg
}

/// A finished, correctly checksummed recording of `prog` whose one frame
/// names statement 999 while its footer's statement table is empty.
fn forged_stmt_recording(prog: &Program) -> Vec<u8> {
    let mut bytes = Vec::new();
    let w = TraceWriter::new(
        std::io::Cursor::new(&mut bytes),
        "<forged>".into(),
        program_hash(prog),
        &prog.name,
        4,
    )
    .unwrap();
    let mut rec = Recorder::new(w, 4, CollectSink::default());
    rec.instr_point(StmtId(999), &[0], None);
    rec.finish(&ContextInterner::from_parts(Vec::new(), Vec::new()))
        .unwrap();
    bytes
}

/// The headline invariant: replaying a recording reproduces the live fold
/// byte-for-byte at K ∈ {1, 2, 8}, for elementwise, stencil, deep-nest
/// (arena-spilling), and the paper's Fig. 6 kernel.
#[test]
fn replay_is_byte_identical_at_every_k() {
    let progs = [
        ("elem", elementwise(8, 3)),
        ("stencil", stencil(10, 3)),
        ("deep", deep_nest(2)),
        ("fig6", fig6_kernel(8, 4)),
    ];
    for (name, prog) in &progs {
        let path = scratch(&format!("identity_{name}"));
        let live = record_live(prog, &path, 4).canonical_text();
        for k in [1usize, 2, 8] {
            let (replayed, _) = fold_recording(&path, prog, k, FoldOptions::default(), None)
                .expect("replay must succeed");
            assert_eq!(
                live,
                replayed.canonical_text(),
                "{name}: replayed fold at K={k} diverged from the live fold"
            );
        }
        fs::remove_file(&path).ok();
    }
}

/// The serial (fold_threads = 1) executor records through the same producer
/// and the same tap as the pipelined one: at equal chunk size the two write
/// the same file, byte for byte. Its recording replays byte-identically
/// too, and matches a pipelined recording taken at another chunk size
/// event-for-event after folding.
#[test]
fn serial_recording_matches_pipelined_recording() {
    let prog = stencil(9, 2);
    let serial_path = scratch("serial_rec");
    let piped_path = scratch("piped_rec");

    // Serial executor with a recorder tap, driven through the public API.
    let report = try_profile_with(&prog, &ProfileConfig::new().with_record_to(&serial_path))
        .expect("serial record run");
    let live_serial = polyfold::fold_program(&prog).0.canonical_text();

    let k4_path = scratch("k4_rec");
    let k4 = ProfileConfig::new().with_fold_threads(4);
    try_profile_with(&prog, &k4.with_record_to(&k4_path)).expect("pipelined record run");
    assert!(
        fs::read(&serial_path).unwrap() == fs::read(&k4_path).unwrap(),
        "recordings written at fold_threads 1 and 4 differ"
    );
    fs::remove_file(&k4_path).ok();

    let piped = record_live(&prog, &piped_path, 4).canonical_text();
    assert_eq!(live_serial, piped, "serial and pipelined live folds differ");

    for (label, path) in [("serial", &serial_path), ("pipelined", &piped_path)] {
        for k in [1usize, 2, 8] {
            let (ddg, _) = fold_recording(path, &prog, k, FoldOptions::default(), None)
                .expect("replay must succeed");
            assert_eq!(
                live_serial,
                ddg.canonical_text(),
                "{label} recording diverged at K={k}"
            );
        }
    }
    // The tap must not perturb the run it observed: the recorded run's
    // report matches an untapped run of the same config byte-for-byte.
    let untapped = try_profile_with(&prog, &ProfileConfig::new()).expect("untapped run");
    assert_eq!(report.folded_stats, untapped.folded_stats);
    assert_eq!(report.annotated_ast, untapped.annotated_ast);
    fs::remove_file(&serial_path).ok();
    fs::remove_file(&piped_path).ok();
}

/// `replay_from` through the public driver: the replayed report reproduces
/// the live report's folded statistics, annotated AST and canonical DDG
/// without a pass-2 VM run — whether the recording was taken by the serial
/// executor outright, or by the serial driver as the supervisor's fallback
/// after a persistent stage panic defeated every pipeline attempt.
#[test]
fn profile_replay_from_matches_live_report() {
    let prog = fig6_kernel(8, 4);
    let persistent_panic = Arc::new(FaultPlan::always(FaultSite::PanicPre));
    let recorders = [
        ("serial", ProfileConfig::new()),
        (
            "fallback",
            ProfileConfig::new()
                .with_fold_threads(2)
                .with_chunk_events(64)
                .with_max_retries(1)
                .with_fault_plan(persistent_panic),
        ),
    ];
    for (how, recorder) in recorders {
        let path = scratch(&format!("profile_replay_{how}"));
        let live = try_profile_with(&prog, &recorder.with_canonical(true).with_record_to(&path))
            .expect("record run");
        assert_eq!(
            live.degradation.fell_back_serial,
            how == "fallback",
            "{how}: {:?}",
            live.degradation
        );
        for k in [1usize, 8] {
            let replayed = try_profile_with(
                &prog,
                &ProfileConfig::new()
                    .with_fold_threads(k)
                    .with_canonical(true)
                    .with_replay_from(&path),
            )
            .expect("replay run");
            assert_eq!(live.folded_stats, replayed.folded_stats, "{how} K={k}");
            assert_eq!(live.scev_removed, replayed.scev_removed, "{how} K={k}");
            assert_eq!(live.annotated_ast, replayed.annotated_ast, "{how} K={k}");
            assert_eq!(live.canonical_ddg, replayed.canonical_ddg, "{how} K={k}");
        }
        fs::remove_file(&path).ok();
    }
}

/// Replaying against a different program is a structured error naming the
/// hash mismatch — never a silently wrong DDG.
#[test]
fn program_hash_mismatch_is_a_hard_error() {
    let prog = stencil(9, 2);
    let other = elementwise(8, 3);
    let path = scratch("hash_mismatch");
    record_live(&prog, &path, 2);
    let err = fold_recording(&path, &other, 1, FoldOptions::default(), None)
        .expect_err("wrong program must be rejected");
    match &err {
        PolyProfError::Recording { detail, .. } => {
            assert!(detail.contains("program hash mismatch"), "got: {detail}");
        }
        other => panic!("expected Recording error, got {other}"),
    }
    fs::remove_file(&path).ok();
}

/// A future format version (a bumped u32 at `HDR_VERSION_OFF`) is a hard,
/// structured error at open time — old readers must never misparse new
/// streams.
#[test]
fn format_version_bump_is_a_hard_error() {
    let prog = elementwise(6, 2);
    let path = scratch("version_bump");
    record_live(&prog, &path, 2);
    let mut bytes = fs::read(&path).unwrap();
    let off = HDR_VERSION_OFF as usize;
    bytes[off..off + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let err = fold_recording(&path, &prog, 1, FoldOptions::default(), None)
        .expect_err("future version must be rejected");
    assert!(
        matches!(err, PolyProfError::Recording { .. }),
        "expected structured Recording error, got {err}"
    );
    fs::remove_file(&path).ok();
}

/// A corrupted magic prefix is rejected before anything else is parsed.
#[test]
fn bad_magic_is_a_hard_error() {
    let prog = elementwise(6, 2);
    let path = scratch("bad_magic");
    record_live(&prog, &path, 2);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    assert_ne!(&bytes[..8], &MAGIC[..]);
    fs::write(&path, &bytes).unwrap();
    let err = fold_recording(&path, &prog, 1, FoldOptions::default(), None)
        .expect_err("bad magic must be rejected");
    assert!(matches!(err, PolyProfError::Recording { .. }));
    fs::remove_file(&path).ok();
}

/// Flipping a byte inside the first frame's payload trips the per-frame
/// FNV checksum (or a payload bounds guard) — a structured decode error,
/// not a silently different DDG.
#[test]
fn payload_byte_flip_is_detected() {
    let prog = stencil(9, 2);
    let path = scratch("byte_flip");
    record_live(&prog, &path, 2);
    let mut bytes = fs::read(&path).unwrap();
    // Header is 44 bytes + name; the first frame starts right after it:
    // tag(1) + len(4) + payload. Flip a byte 6 into the frame (inside the
    // payload for any non-empty frame).
    let name_len = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    let frame0 = 44 + name_len;
    bytes[frame0 + 6] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    let err = fold_recording(&path, &prog, 1, FoldOptions::default(), None)
        .expect_err("checksum mismatch must be detected");
    assert!(matches!(err, PolyProfError::Recording { .. }));
    fs::remove_file(&path).ok();
}

/// Tampering with the header's total-event count makes the three-way
/// (stream / footer / header) count check fail at finish.
#[test]
fn header_count_tamper_is_detected() {
    let prog = elementwise(8, 3);
    let path = scratch("count_tamper");
    record_live(&prog, &path, 2);
    let mut bytes = fs::read(&path).unwrap();
    let off = HDR_EVENTS_OFF as usize;
    let n = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    bytes[off..off + 8].copy_from_slice(&(n + 1).to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let err = fold_recording(&path, &prog, 1, FoldOptions::default(), None)
        .expect_err("count disagreement must be detected");
    assert!(matches!(err, PolyProfError::Recording { .. }));
    fs::remove_file(&path).ok();
}

/// A replay counts what it read, the events the recording spelled as
/// two-byte predictions among them — most of a strided stencil's.
#[test]
fn replay_counts_predicted_events() {
    let prog = stencil(10, 3);
    let path = scratch("predicted_count");
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
    let replay = ProfileConfig::new()
        .with_metrics(MetricsLevel::Counters)
        .with_replay_from(&path);
    let m = try_profile_with(&prog, &replay)
        .expect("replay run")
        .metrics
        .expect("metrics were asked for");
    let folded = m.counter(Counter::EventsFolded);
    let predicted = m.counter(Counter::RecEventsPredicted);
    assert!(m.counter(Counter::RecFramesRead) > 0);
    assert!(
        2 * predicted > folded && predicted < folded,
        "{predicted} of {folded} events predicted"
    );
    fs::remove_file(&path).ok();
}

/// A recording whose frames pass every checksum but name a statement its
/// footer's table does not hold is a structured error at every K — not an
/// index panic when finalize looks the statement up.
#[test]
fn statement_outside_the_footer_table_is_a_hard_error() {
    let prog = elementwise(6, 2);
    let path = scratch("forged_stmt");
    fs::write(&path, forged_stmt_recording(&prog)).unwrap();
    for k in [1usize, 2] {
        match fold_recording(&path, &prog, k, FoldOptions::default(), None) {
            Err(PolyProfError::Recording { detail, .. }) => {
                assert!(detail.contains("statement 999"), "K={k}: {detail}")
            }
            other => panic!("K={k}: expected a Recording error, got {:?}", other.err()),
        }
    }
    fs::remove_file(&path).ok();
}

proptest! {
    /// Truncating a recording at *any* point — mid-header, mid-name,
    /// mid-frame, mid-footer, before the end magic — yields a structured
    /// error (no panic, no partial DDG accepted), at serial and sharded
    /// replay alike. The footer's end magic plus the three-way count check
    /// make every strict prefix detectable.
    #[test]
    fn any_truncation_is_a_structured_error(seed in 0i64..1_000_000, k in 0usize..2) {
        let k = [1usize, 4][k];
        let prog = elementwise(7, 2);
        let path = scratch(&format!("trunc_{seed}_{k}"));
        record_live(&prog, &path, 2);
        let bytes = fs::read(&path).unwrap();
        let cut = (seed as usize) % bytes.len();
        fs::write(&path, &bytes[..cut]).unwrap();
        let res = fold_recording(&path, &prog, k, FoldOptions::default(), None);
        fs::remove_file(&path).ok();
        prop_assert!(
            matches!(res, Err(PolyProfError::Recording { .. })),
            "truncation at {} of {} bytes must be a structured error",
            cut,
            bytes.len()
        );
    }
}

/// `record_to` on a replay run contradicts it (there is no VM stream to
/// tap): a structured configuration error, and no file appears.
#[test]
fn record_to_with_replay_is_a_config_error() {
    let prog = elementwise(6, 2);
    let src = scratch("replay_src");
    let ghost = scratch("replay_ghost");
    record_live(&prog, &src, 2);
    let res = try_profile_with(
        &prog,
        &ProfileConfig::new()
            .with_replay_from(&src)
            .with_record_to(&ghost),
    );
    match res.map(|r| r.folded_stats) {
        Err(PolyProfError::Config { knob, .. }) => assert_eq!(knob, "record_to"),
        other => panic!("expected a Config error, got {other:?}"),
    }
    assert!(!ghost.exists(), "replay must not write a new recording");
    fs::remove_file(&src).ok();
}

/// A replay is budgeted like a live run, on the calling thread and on fold
/// workers: a 1-byte budget latches pressure and over-approximates exactly
/// the statements the live run under that budget does.
#[test]
fn replay_honours_the_memory_budget() {
    let prog = stencil(10, 3);
    let path = scratch("replay_budget");
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
    for k in [1usize, 3] {
        let tight = ProfileConfig::new()
            .with_fold_threads(k)
            .with_memory_budget(1);
        let live = try_profile_with(&prog, &tight)
            .expect("live run")
            .degradation;
        assert!(live.budget_overapprox_stmts > 0, "K={k}: {live:?}");
        let replayed = try_profile_with(&prog, &tight.with_replay_from(&path))
            .expect("replay run")
            .degradation;
        assert!(replayed.budget_pressure, "K={k}: {replayed:?}");
        assert!(replayed.peak_tracked_bytes > 0, "K={k}: {replayed:?}");
        assert_eq!(
            replayed.budget_overapprox_stmts, live.budget_overapprox_stmts,
            "K={k}"
        );
    }
    fs::remove_file(&path).ok();
}

/// A replay can be stopped like a live run: an expired deadline, or a
/// shared budget cancelled from outside, ends the fold at the next frame
/// with a partial but valid result.
#[test]
fn replay_honours_deadline_and_cancellation() {
    let prog = stencil(10, 3);
    let path = scratch("replay_deadline");
    let full = try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path))
        .expect("record run")
        .folded_stats;
    for k in [1usize, 3] {
        let base = ProfileConfig::new()
            .with_fold_threads(k)
            .with_replay_from(&path);
        let cancelled = Arc::new(ResourceBudget::new(None, None));
        cancelled.cancel();
        for (what, cfg) in [
            ("deadline", base.clone().with_deadline(Duration::ZERO)),
            ("cancel", base.with_shared_budget(cancelled)),
        ] {
            let r = try_profile_with(&prog, &cfg).expect("a stopped replay is not an error");
            assert!(
                r.degradation.deadline_hit,
                "{what} K={k}: {:?}",
                r.degradation
            );
            assert!(r.folded_stats.2 <= full.2, "{what} K={k}");
        }
    }
    fs::remove_file(&path).ok();
}
