//! Record→replay gate: a `.ptrace` recording captured during a live fold
//! must re-fold *byte-identically* (via `FoldedDdg::canonical_text`) to the
//! live result, and every corruption of the file — truncation, bad magic, a
//! format-version bump, a flipped payload byte, a tampered header count, a
//! statement the footer's table lacks — must surface as a structured
//! `PolyProfError`, never a panic.
//!
//! Why identity holds: a recording carries the folding-interface stream in
//! the order the live run produced it, and replay feeds it to the same
//! folding sink, so every folder sees the same events in the same order.

mod common;

use common::{deep_nest, elementwise, stencil};
use polyprof_core::polyddg::{CollectSink, FoldSink};
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polyfold::{self, replay::fold_recording, FoldOptions, FoldedDdg};
use polyprof_core::polyiiv::context::{ContextInterner, StmtId};
use polyprof_core::polyrec::{
    program_hash, Recorder, TraceWriter, FORMAT_VERSION, HDR_EVENTS_OFF, HDR_VERSION_OFF, MAGIC,
};
use polyprof_core::polyresist::{PolyProfError, ResourceBudget};
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

/// Live fold under `options` that also records to `path`, returning the live
/// DDG. Tiny frames so every trace crosses many frame boundaries.
fn record_live_with(prog: &Program, path: &Path, options: FoldOptions) -> FoldedDdg {
    let mut rec = polycfg::StructureRecorder::new();
    polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
    let structure = polycfg::StaticStructure::analyze(prog, rec);
    let cfg = Pass2 {
        options,
        ..Default::default()
    };
    let source = Source::Live(Live {
        record: Some(path),
        chunk_events: 64,
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

fn record_live(prog: &Program, path: &Path) -> FoldedDdg {
    record_live_with(prog, path, FoldOptions::default())
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
/// byte-for-byte, for elementwise, stencil, deep-nest (arena-spilling), and
/// the paper's Fig. 6 kernel — and so does a recording taken through the
/// public driver in its default 4096-event frames, which must also equal an
/// untapped fold. The stencil's fold changes with `split_classes` off, and
/// a recording replayed under those options still reproduces the live fold
/// under them.
#[test]
fn replay_is_byte_identical_to_live() {
    let progs = [
        ("elem", elementwise(8, 3)),
        ("stencil", stencil(10, 3)),
        ("deep", deep_nest(2)),
        ("fig6", fig6_kernel(8, 4)),
    ];
    let replay = |path: &Path, prog: &Program, options: FoldOptions| {
        fold_recording(path, prog, 1, options, None)
            .expect("replay must succeed")
            .0
            .canonical_text()
    };
    for (name, prog) in &progs {
        let path = scratch(&format!("identity_{name}"));
        let live = record_live(prog, &path).canonical_text();
        assert_eq!(live, replay(&path, prog, FoldOptions::default()), "{name}");
        let untapped = polyfold::fold_program(prog).0.canonical_text();
        assert_eq!(
            live, untapped,
            "{name}: the recording tap perturbed the fold"
        );
        try_profile_with(prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
        let driven = replay(&path, prog, FoldOptions::default());
        assert_eq!(live, driven, "{name}: a default-frame recording diverged");
        fs::remove_file(&path).ok();
    }

    let prog = stencil(10, 3);
    let path = scratch("identity_no_split");
    let options = FoldOptions {
        split_classes: false,
        ..Default::default()
    };
    let live = record_live_with(&prog, &path, options).canonical_text();
    let default = polyfold::fold_program(&prog).0.canonical_text();
    assert_ne!(live, default, "split_classes never reached the sink");
    assert_eq!(live, replay(&path, &prog, options));
    fs::remove_file(&path).ok();
}

/// `replay_from` through the public driver: the replayed report reproduces
/// the live report's folded statistics, annotated AST and canonical DDG
/// without a pass-2 VM run — whatever the recording's frame size. The tap
/// does not perturb the run it observed either: the recording run's report
/// matches an untapped run of the same config.
#[test]
fn profile_replay_from_matches_live_report() {
    let prog = fig6_kernel(8, 4);
    let untapped =
        try_profile_with(&prog, &ProfileConfig::new().with_canonical(true)).expect("untapped run");
    for frame in [4096usize, 64] {
        let path = scratch(&format!("profile_replay_{frame}"));
        let recorder = ProfileConfig::new()
            .with_chunk_events(frame)
            .with_canonical(true);
        let live = try_profile_with(&prog, &recorder.with_record_to(&path)).expect("record run");
        assert!(!live.degradation.is_degraded(), "{:?}", live.degradation);
        assert_eq!(live.folded_stats, untapped.folded_stats, "{frame}");
        assert_eq!(live.annotated_ast, untapped.annotated_ast, "{frame}");
        assert_eq!(live.canonical_ddg, untapped.canonical_ddg, "{frame}");
        let replayed = try_profile_with(
            &prog,
            &ProfileConfig::new()
                .with_canonical(true)
                .with_replay_from(&path),
        )
        .expect("replay run");
        assert_eq!(live.folded_stats, replayed.folded_stats, "{frame}");
        assert_eq!(live.scev_removed, replayed.scev_removed, "{frame}");
        assert_eq!(live.annotated_ast, replayed.annotated_ast, "{frame}");
        assert_eq!(live.canonical_ddg, replayed.canonical_ddg, "{frame}");
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
    record_live(&prog, &path);
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
    record_live(&prog, &path);
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
    record_live(&prog, &path);
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
    record_live(&prog, &path);
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
    record_live(&prog, &path);
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
/// footer's table does not hold is a structured error — not an index panic
/// when finalize looks the statement up.
#[test]
fn statement_outside_the_footer_table_is_a_hard_error() {
    let prog = elementwise(6, 2);
    let path = scratch("forged_stmt");
    fs::write(&path, forged_stmt_recording(&prog)).unwrap();
    match fold_recording(&path, &prog, 1, FoldOptions::default(), None) {
        Err(PolyProfError::Recording { detail, .. }) => {
            assert!(detail.contains("statement 999"), "{detail}")
        }
        other => panic!("expected a Recording error, got {:?}", other.err()),
    }
    fs::remove_file(&path).ok();
}

proptest! {
    /// Truncating a recording at *any* point — mid-header, mid-name,
    /// mid-frame, mid-footer, before the end magic — yields a structured
    /// error (no panic, no partial DDG accepted). The footer's end magic plus
    /// the three-way count check
    /// make every strict prefix detectable.
    #[test]
    fn any_truncation_is_a_structured_error(seed in 0i64..1_000_000) {
        let prog = elementwise(7, 2);
        let path = scratch(&format!("trunc_{seed}"));
        record_live(&prog, &path);
        let bytes = fs::read(&path).unwrap();
        let cut = (seed as usize) % bytes.len();
        fs::write(&path, &bytes[..cut]).unwrap();
        let res = fold_recording(&path, &prog, 1, FoldOptions::default(), None);
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
    record_live(&prog, &src);
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

/// A replay is budgeted like a live run: a 1-byte budget latches pressure
/// and over-approximates exactly the statements the live run under that
/// budget does.
#[test]
fn replay_honours_the_memory_budget() {
    let prog = stencil(10, 3);
    let path = scratch("replay_budget");
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
    let tight = ProfileConfig::new().with_memory_budget(1);
    let live = try_profile_with(&prog, &tight)
        .expect("live run")
        .degradation;
    assert!(live.budget_overapprox_stmts > 0, "{live:?}");
    let replayed = try_profile_with(&prog, &tight.with_replay_from(&path))
        .expect("replay run")
        .degradation;
    assert!(replayed.budget_pressure, "{replayed:?}");
    assert!(replayed.peak_tracked_bytes > 0, "{replayed:?}");
    assert_eq!(
        replayed.budget_overapprox_stmts,
        live.budget_overapprox_stmts
    );
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
    let base = ProfileConfig::new().with_replay_from(&path);
    let cancelled = Arc::new(ResourceBudget::new(None, None));
    cancelled.cancel();
    for (what, cfg) in [
        ("deadline", base.clone().with_deadline(Duration::ZERO)),
        ("cancel", base.with_shared_budget(cancelled)),
    ] {
        let r = try_profile_with(&prog, &cfg).expect("a stopped replay is not an error");
        assert!(r.degradation.deadline_hit, "{what}: {:?}", r.degradation);
        assert!(r.folded_stats.2 <= full.2, "{what}");
    }
    fs::remove_file(&path).ok();
}
