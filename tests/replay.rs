//! Record→replay gate: a `.ptrace` recording captured during a live fold
//! must re-fold *byte-identically* (via `FoldedDdg::canonical_text`) to the
//! live result and, through the public driver, reproduce the live report
//! without constructing a VM — from its file or from its bytes in memory
//! alike; every corruption of the recording — truncation,
//! bad magic, a format-version bump, a flipped byte, a tampered header
//! count, a statement the footer's table lacks, a forged structure or
//! footer that names what the program or the structure lacks — must
//! surface as a structured `PolyProfError`, never a panic.
//!
//! Why identity holds: a recording carries pass 1's graphs, from which the
//! replay rebuilds the structure with the calls a live run makes, and the
//! folding-interface stream in the order the live run produced it, which
//! replay feeds to the same folding sink.

mod common;

use common::{deep_nest, elementwise, stencil};
use polyprof_core::polyddg::{CollectSink, FoldSink};
use polyprof_core::polyfold::pass2::{self, Live, Pass2, Source};
use polyprof_core::polyfold::{self, replay::fold_recording, FoldOptions, FoldedDdg};
use polyprof_core::polyiiv::context::{ContextInterner, StmtId};
use polyprof_core::polyrec::{
    codec, program_id, Recorder, TraceWriter, FORMAT_VERSION, HDR_EVENTS_OFF, HDR_VERSION_OFF,
    MAGIC, MAX_CHUNK_EVENTS,
};
use polyprof_core::polyresist::{PolyProfError, ResourceBudget};
use polyprof_core::polytrace::Counter;
use polyprof_core::{polycfg, polyiiv::CtxElem, polyir::Program, polyvm};
use polyprof_core::{try_profile_with, MetricsLevel, ProfileConfig, Report};
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
        program_id(prog),
        &prog.name,
        4,
        &polycfg::StaticStructure::default(),
    )
    .unwrap();
    let mut rec = Recorder::new(w, 4, CollectSink::default());
    rec.instr_point(StmtId(999), &[0], None);
    rec.finish(&ContextInterner::from_parts(Vec::new(), Vec::new()))
        .unwrap();
    bytes
}

/// Tags of a recording's tagged sections.
const TAG_FOOTER: u8 = 2;
const TAG_STRUCTURE: u8 = 3;

/// `(tag, start, end)` of every tagged section of a recording — structure,
/// frames, footer — in file order; `start` is the tag byte, `end` is past
/// the checksum.
fn sections(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    let name_len = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    let mut at = 44 + name_len;
    let mut out = Vec::new();
    while at < bytes.len() - MAGIC.len() {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        out.push((bytes[at], at, at + 5 + len + 8));
        at += 5 + len + 8;
    }
    out
}

/// `bytes` with the payload of its (only) section tagged `tag` rewritten by
/// `forge`, framed with a correct length and checksum — damage no checksum
/// can see.
fn reforged(bytes: &[u8], tag: u8, forge: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let (_, start, end) = sections(bytes)
        .into_iter()
        .find(|s| s.0 == tag)
        .expect("the section exists");
    let payload = forge(&bytes[start + 5..end - 8]);
    let mut out = bytes[..start].to_vec();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&codec::frame_checksum(&payload).to_le_bytes());
    out.extend_from_slice(&bytes[end..]);
    out
}

/// `bytes` with its footer's statement table decoded, edited by `edit` and
/// re-encoded behind the same totals.
fn reforged_footer(bytes: &[u8], edit: impl FnOnce(&mut codec::InternerParts)) -> Vec<u8> {
    reforged(bytes, TAG_FOOTER, |payload| {
        let mut cur = codec::Cursor::new(payload);
        let mut parts = codec::decode_interner(&mut cur).expect("footer decodes");
        let (events, frames) = (cur.read_uv().unwrap(), cur.read_uv().unwrap());
        edit(&mut parts);
        let mut out = Vec::new();
        codec::encode_interner(&mut out, &ContextInterner::from_parts(parts.0, parts.1));
        codec::write_uv(&mut out, events);
        codec::write_uv(&mut out, frames);
        out
    })
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

/// Every part of a report a replay must reproduce byte for byte: the fold's
/// statistics and canonical text, the rendered report, the flame graph, the
/// annotated AST and, when the lint ran, its verdict.
fn assert_same_report(what: &str, live: &Report, replayed: &Report) {
    assert_eq!(live.folded_stats, replayed.folded_stats, "{what}");
    assert_eq!(live.scev_removed, replayed.scev_removed, "{what}");
    assert_eq!(live.canonical_ddg, replayed.canonical_ddg, "{what}");
    assert_eq!(live.full_text, replayed.full_text, "{what}");
    assert_eq!(live.flamegraph_svg, replayed.flamegraph_svg, "{what}");
    assert_eq!(live.annotated_ast, replayed.annotated_ast, "{what}");
    let lint = |r: &Report| r.lint.as_ref().map(|l| l.to_json());
    assert_eq!(lint(live), lint(replayed), "{what}");
}

/// `replay_from` through the public driver reproduces the live report byte
/// for byte — with and without the lint — on fig6 and six Rodinia kernels,
/// whatever the recording's frame size, and constructs no VM. The tap does
/// not perturb the run it observed either: the recording run's report
/// matches an untapped run of the same config.
#[test]
fn profile_replay_from_matches_live_report() {
    let mut progs = vec![("fig6".to_string(), fig6_kernel(8, 4))];
    for w in [
        rodinia::backprop::build(),
        rodinia::bfs::build(),
        rodinia::hotspot::build(),
        rodinia::lud::build(),
        rodinia::nw::build(),
        rodinia::pathfinder::build(),
    ] {
        progs.push((w.name.to_string(), w.program));
    }
    let canonical = ProfileConfig::new().with_canonical(true);
    for (name, prog) in &progs {
        let untapped = try_profile_with(prog, &canonical).expect("untapped run");
        let frames: &[usize] = if name == "fig6" { &[4096, 64] } else { &[4096] };
        for &frame in frames {
            let what = format!("{name}, frames of {frame}");
            let path = scratch(&format!("profile_replay_{name}_{frame}"));
            let recorder = canonical.clone().with_chunk_events(frame);
            let live = try_profile_with(prog, &recorder.with_record_to(&path)).expect("record run");
            assert!(!live.degradation.is_degraded(), "{:?}", live.degradation);
            assert_same_report(&what, &untapped, &live);
            let vms = polyvm::vms_built_on_this_thread();
            let replayed = try_profile_with(prog, &canonical.clone().with_replay_from(&path))
                .expect("replay run");
            assert_eq!(
                polyvm::vms_built_on_this_thread(),
                vms,
                "{what}: a replay ran a VM"
            );
            assert_same_report(&what, &live, &replayed);
            let linted = canonical.clone().with_lint(true);
            let live = try_profile_with(prog, &linted).expect("linted run");
            let replayed =
                try_profile_with(prog, &linted.with_replay_from(&path)).expect("linted replay");
            assert!(replayed.lint.is_some(), "{what}");
            assert_same_report(&format!("{what}, linted"), &live, &replayed);
            fs::remove_file(&path).ok();
        }
    }
}

/// Replay from a recording's bytes in memory — what a server does with an
/// upload — is replay from its file: the same canonical DDG, `full_text`
/// and the rest of the report, on fig6 and every Rodinia kernel.
#[test]
fn replay_from_bytes_matches_replay_from_file() {
    let mut progs = vec![("fig6".to_string(), fig6_kernel(8, 4))];
    progs.extend(
        rodinia::all_rodinia()
            .into_iter()
            .map(|w| (w.name.to_string(), w.program)),
    );
    let canonical = ProfileConfig::new().with_canonical(true);
    for (name, prog) in &progs {
        let path = scratch(&format!("bytes_{name}"));
        try_profile_with(prog, &canonical.clone().with_record_to(&path)).expect("record run");
        let bytes: Arc<[u8]> = fs::read(&path).unwrap().into();
        let from_file =
            try_profile_with(prog, &canonical.clone().with_replay_from(&path)).expect("file");
        let from_bytes =
            try_profile_with(prog, &canonical.clone().with_replay_from(bytes)).expect("bytes");
        assert!(from_bytes.canonical_ddg.is_some(), "{name}");
        assert_same_report(name, &from_file, &from_bytes);
        fs::remove_file(&path).ok();
    }
}

/// Replay `bytes` in memory as a recording of `prog`.
fn replay_bytes(prog: &Program, bytes: &[u8]) -> Result<(usize, usize, u64), PolyProfError> {
    let replay = ProfileConfig::new().with_replay_from(Arc::<[u8]>::from(bytes));
    try_profile_with(prog, &replay).map(|r| r.folded_stats)
}

/// What a file is refused for, its bytes in memory are refused for: bad
/// magic, a format-version bump, a flipped byte in the structure section and
/// in the first frame, a tampered header count, and a cut inside the header,
/// inside every section and before the end magic are each a structured
/// `Recording` error, which names the bytes by their label.
#[test]
fn corrupted_bytes_are_recording_errors() {
    let prog = stencil(9, 2);
    let path = scratch("bytes_corrupt");
    record_live(&prog, &path);
    let bytes = fs::read(&path).unwrap();
    fs::remove_file(&path).ok();
    replay_bytes(&prog, &bytes).expect("the intact bytes replay");

    let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.clone();
        edit(&mut b);
        b
    };
    let mut cases = vec![
        ("bad magic", "bad magic", edited(&|b| b[0] ^= 0xFF)),
        (
            "version bump",
            "unsupported format version",
            edited(&|b| {
                let off = HDR_VERSION_OFF as usize;
                b[off..off + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
            }),
        ),
        (
            "count tamper",
            "",
            edited(&|b| {
                let off = HDR_EVENTS_OFF as usize;
                let n = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
                b[off..off + 8].copy_from_slice(&(n + 1).to_le_bytes());
            }),
        ),
        ("cut in the header", "", bytes[..20].to_vec()),
        (
            "cut before the end magic",
            "",
            bytes[..bytes.len() - 1].to_vec(),
        ),
    ];
    let sections = sections(&bytes);
    for &(_, start, _) in &sections[..2] {
        cases.push(("byte flip", "checksum", edited(&|b| b[start + 6] ^= 0xFF)));
    }
    for &(_, start, end) in &sections {
        cases.push((
            "cut inside a section",
            "",
            bytes[..(start + end) / 2].to_vec(),
        ));
    }
    for (what, detail_has, corrupt) in cases {
        match replay_bytes(&prog, &corrupt) {
            Err(PolyProfError::Recording { path, detail }) => {
                assert_eq!(path, "<in-memory recording>", "{what}: {detail}");
                assert!(detail.contains(detail_has), "{what}: {detail}");
            }
            other => panic!("{what}: expected a Recording error, got {other:?}"),
        }
    }
}

/// A replay constructs no VM — neither through the public driver nor
/// through `fold_recording` — while the live run that recorded it
/// constructs two (pass 1 and pass 2). The tally is per thread, so tests
/// running in parallel do not disturb it.
#[test]
fn a_replay_constructs_no_vm() {
    let prog = stencil(10, 3);
    let path = scratch("no_vm");
    let vms = polyvm::vms_built_on_this_thread();
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
    assert_eq!(polyvm::vms_built_on_this_thread(), vms + 2);
    let vms = polyvm::vms_built_on_this_thread();
    let replayed = ProfileConfig::new()
        .with_metrics(MetricsLevel::Timing)
        .with_replay_from(&path);
    let r = try_profile_with(&prog, &replayed).expect("replay run");
    fold_recording(&path, &prog, 1, FoldOptions::default(), None).expect("fold");
    assert_eq!(polyvm::vms_built_on_this_thread(), vms);
    let m = r.metrics.expect("metrics were asked for");
    assert!(m.vm_ops.is_empty(), "a replay dispatched opcodes");
    fs::remove_file(&path).ok();
}

/// Replaying against a different program is a structured error naming the
/// program-id mismatch — never a silently wrong DDG.
#[test]
fn program_id_mismatch_is_a_hard_error() {
    let prog = stencil(9, 2);
    let other = elementwise(8, 3);
    let path = scratch("id_mismatch");
    record_live(&prog, &path);
    let err = fold_recording(&path, &other, 1, FoldOptions::default(), None)
        .expect_err("wrong program must be rejected");
    match &err {
        PolyProfError::Recording { detail, .. } => {
            assert!(detail.contains("program id mismatch"), "got: {detail}");
        }
        other => panic!("expected Recording error, got {other}"),
    }
    fs::remove_file(&path).ok();
}

/// A recording whose checksums all hold but whose footer names loops the
/// recorded structure does not have — every CFG loop index moved up by 50 —
/// or an instruction the program does not have is refused with a
/// structured error before the feedback stage indexes a forest with it.
/// (The loop forgery used to panic in `region_report`.)
#[test]
fn forged_footer_loops_and_instructions_are_recording_errors() {
    let prog = fig6_kernel(8, 4);
    let path = scratch("forged_footer");
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
    let bytes = fs::read(&path).unwrap();
    let loops_moved = reforged_footer(&bytes, |(paths, _)| {
        let mut moved = 0;
        for elem in paths.iter_mut().flatten().flatten() {
            if let CtxElem::Loop(polycfg::LoopRef::Cfg(_, l)) = elem {
                l.0 += 50;
                moved += 1;
            }
        }
        assert!(moved > 0, "fig6 names no loop");
    });
    let instr_moved = reforged_footer(&bytes, |(_, stmts)| stmts[0].instr.idx += 50);
    for (what, forged) in [("loop", loops_moved), ("instruction", instr_moved)] {
        fs::write(&path, &forged).unwrap();
        let replay = ProfileConfig::new().with_replay_from(&path);
        match try_profile_with(&prog, &replay).map(|r| r.folded_stats) {
            Err(PolyProfError::Recording { detail, .. }) => {
                assert!(detail.contains("footer's"), "{what}: {detail}")
            }
            other => panic!("{what}: expected a Recording error, got {other:?}"),
        }
    }
    fs::remove_file(&path).ok();
}

/// A structure section whose checksum holds but that names a function the
/// program lacks, or leaves out the entry function, is refused before
/// anything indexes with it.
#[test]
fn forged_structure_is_a_recording_error() {
    let prog = fig6_kernel(8, 4);
    let path = scratch("forged_structure");
    try_profile_with(&prog, &ProfileConfig::new().with_record_to(&path)).expect("record run");
    let bytes = fs::read(&path).unwrap();
    let forge = |edit: fn(&mut codec::Graphs)| {
        reforged(&bytes, TAG_STRUCTURE, |payload| {
            let mut graphs = codec::decode_structure(&mut codec::Cursor::new(payload)).unwrap();
            edit(&mut graphs);
            let mut out = Vec::new();
            codec::encode_structure(&mut out, &graphs.0, &graphs.1);
            out
        })
    };
    let cases = [
        (
            "function",
            forge(|(cfgs, _)| {
                let cfg = cfgs.values().next().unwrap().clone();
                cfgs.insert(polyprof_core::polyir::FuncId(99), cfg);
            }),
        ),
        (
            "entry",
            forge(|(cfgs, cg)| {
                cfgs.pop_first();
                cg.clear();
            }),
        ),
    ];
    for (what, forged) in cases {
        fs::write(&path, &forged).unwrap();
        let replay = ProfileConfig::new().with_replay_from(&path);
        match try_profile_with(&prog, &replay).map(|r| r.folded_stats) {
            Err(PolyProfError::Recording { detail, .. }) => {
                assert!(detail.contains("structure"), "{what}: {detail}")
            }
            other => panic!("{what}: expected a Recording error, got {other:?}"),
        }
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

/// Flipping a byte inside the structure section's payload, or inside the
/// first frame's, trips that section's checksum — a structured decode
/// error, not a silently different structure or DDG.
#[test]
fn payload_byte_flip_is_detected() {
    let prog = stencil(9, 2);
    let path = scratch("byte_flip");
    record_live(&prog, &path);
    let bytes = fs::read(&path).unwrap();
    // The structure section, then the first frame: tag(1) + len(4) +
    // payload. Flip a byte 6 into each (inside any non-empty payload).
    for (tag, start, _) in sections(&bytes).into_iter().take(2) {
        let mut flipped = bytes.clone();
        flipped[start + 6] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        let err = fold_recording(&path, &prog, 1, FoldOptions::default(), None)
            .expect_err("checksum mismatch must be detected");
        match err {
            PolyProfError::Recording { detail, .. } => {
                assert!(detail.contains("checksum"), "section {tag}: {detail}")
            }
            other => panic!("section {tag}: expected a Recording error, got {other}"),
        }
    }
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
        prop_assert!(
            matches!(replay_bytes(&prog, &bytes[..cut]), Err(PolyProfError::Recording { .. })),
            "truncation at {} of {} bytes in memory must be a structured error",
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

/// A recorded frame holds at most `MAX_CHUNK_EVENTS` events: asking for
/// more — 2³², which the header's `u32` would have recorded as 0 — is a
/// structured configuration error before anything runs, and no file
/// appears.
#[test]
fn chunk_events_past_the_cap_is_a_config_error() {
    let prog = elementwise(6, 2);
    let ghost = scratch("chunk_cap_ghost");
    for frame in [MAX_CHUNK_EVENTS + 1, 1 << 32] {
        let cfg = ProfileConfig::new()
            .with_chunk_events(frame)
            .with_record_to(&ghost);
        match try_profile_with(&prog, &cfg).map(|r| r.folded_stats) {
            Err(PolyProfError::Config { knob, .. }) => assert_eq!(knob, "chunk_events"),
            other => panic!("{frame}: expected a Config error, got {other:?}"),
        }
        assert!(!ghost.exists(), "{frame}: a refused run wrote a recording");
    }
    let cfg = ProfileConfig::new()
        .with_chunk_events(MAX_CHUNK_EVENTS)
        .with_record_to(&ghost);
    try_profile_with(&prog, &cfg).expect("the cap itself is allowed");
    fs::remove_file(&ghost).ok();
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
