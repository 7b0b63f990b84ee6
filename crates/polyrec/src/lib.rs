//! `polyrec`: versioned on-disk event-stream recordings.
//!
//! Splits profiling from analysis: a recording is one profiled execution
//! that can be re-analysed without running anything. The [`TraceWriter`]
//! stores pass 1's output — the dynamic CFGs and call graph — up front, and
//! a [`Recorder`] taps the resolved folding-interface stream of pass 2 and
//! encodes each event into a compact `.ptrace` frame as it passes; a
//! [`TraceReader`] hands the structure back and decodes the frames straight
//! into a [`FoldSink`], so the whole profile is rebuilt without the VM, the
//! shadow memory, or even the original binary.
//!
//! # File layout (format version 3)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"POLYREC\0"
//! 8       4     format version (u32 LE)         — mismatch is a hard error
//! 12      8     program id (u64 LE)             — see program_id
//! 20      4     chunk_events (u32 LE)           — events per frame
//! 24      8     total events (u64 LE)           — patched at finish()
//! 32      8     total frames (u64 LE)           — patched at finish()
//! 40      4     workload-name length (u32 LE)
//! 44      n     workload name (UTF-8)
//! 44+n    --    structure: [0x03][payload len u32][payload][checksum u64]
//! --      --    frames: [0x01][payload len u32][payload][checksum u64] ...
//! --      --    footer: [0x02][payload len u32][payload][checksum u64]
//! --      8     end magic b"POLYREND"
//! ```
//!
//! The structure section is pass 1's raw output ([`codec::encode_structure`]),
//! not the loop forests: a replay rebuilds those with the calls a live run
//! makes, so the two cannot disagree. A reader checks the section against
//! the program ([`check_structure`]) before anything indexes with it.
//!
//! Frame payloads spell an event either in full — delta-coded zigzag
//! varints — or, when it continues its key's stride, as a two-byte
//! prediction (see [`codec`]); checksums are [`codec::frame_checksum`], one
//! multiply per 8-byte word. The footer carries the interner's statement
//! table plus the authoritative event/frame totals. Three independent
//! truncation tripwires — per-frame checksums, the header counts (patched in
//! place at `finish`, so a crash mid-write leaves zeros), and the footer
//! totals + end magic — and a footer statement table that must cover every
//! statement the frames named, and whose every instruction and loop must
//! exist in the program and the rebuilt structure ([`check_statements`]),
//! mean a torn, bit-flipped or forged file surfaces as a structured
//! [`PolyProfError::Recording`], never a panic or a silently short replay.

pub mod codec;

use codec::{FrameDecoder, FrameEncoder, Graphs};
use polycfg::{LoopRef, StaticStructure};
use polyddg::chunk::EventChunk;
use polyddg::{DepKind, FoldSink};
use polyiiv::context::{ContextInterner, StmtId};
use polyiiv::CtxElem;
use polyir::{BlockRef, Program};
use polyresist::PolyProfError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Leading file magic.
pub const MAGIC: [u8; 8] = *b"POLYREC\0";
/// Trailing file magic (after the footer frame).
pub const END_MAGIC: [u8; 8] = *b"POLYREND";
/// Current format version. Readers accept exactly this version; a bump is a
/// hard, tested error — old fixtures must be re-recorded, never reinterpreted.
pub const FORMAT_VERSION: u32 = 3;

/// Byte offset of the format version in the header.
pub const HDR_VERSION_OFF: u64 = 8;
/// Byte offset of the total-event count patched at `finish()`.
pub const HDR_EVENTS_OFF: u64 = 24;
/// Byte offset of the total-frame count patched at `finish()`.
pub const HDR_FRAMES_OFF: u64 = 32;

/// Frame tag: one [`FrameEncoder`] payload of events.
const TAG_FRAME: u8 = 1;
/// Frame tag: the footer (statement table + totals).
const TAG_FOOTER: u8 = 2;
/// Frame tag: the structure section (pass 1's graphs), right after the header.
const TAG_STRUCTURE: u8 = 3;

/// Upper bound on a single frame/footer payload (64 MiB) — a length field
/// above this is corruption, not a real chunk.
const MAX_PAYLOAD: u32 = 64 << 20;

fn rec_err(path: &str, detail: impl Into<String>) -> PolyProfError {
    PolyProfError::Recording {
        path: path.to_string(),
        detail: detail.into(),
    }
}

fn io_err(path: &str, op: &str, e: std::io::Error) -> PolyProfError {
    rec_err(path, format!("{op}: {e}"))
}

/// The identity of a [`Program`], stored in the header so a recording can
/// only be replayed against the IR that produced it, and the key a server
/// matches uploads and caches results by.
///
/// It is the IR's derived [`Hash`] — every field of every function, block,
/// instruction and terminator, the names and source lines, the entry and the
/// data image, with floats hashed by their bits — fed to the word hash of
/// [`codec::frame_checksum`], seeded with FNV-1a's offset basis, as one
/// little-endian 64-bit word per integer. The word hash fixes every width
/// and byte order, so two processes on two platforms agree (a unit test
/// pins one value), and a field added to the IR joins the identity on its
/// own. It costs one multiply per field: 0.36 ms for `dense_affine` 136²'s
/// 56 581 data words, where the version-2 `Debug` hash took 8.7–13 ms.
pub fn program_id(prog: &Program) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = codec::WordHash::new(codec::FNV_OFFSET);
    prog.hash(&mut h);
    h.finish()
}

/// FNV-1a over the IR's `Debug` rendering: the program identity of format
/// version 2, kept byte for byte only because the frozen `perf_ledger` keys
/// its canonical-DDG digests with it — a changed value would make the ledger
/// compare 0 digests without failing. Nothing else calls it; it goes once the
/// ledger keys its digests by case name. Use [`program_id`].
pub fn program_hash(prog: &Program) -> u64 {
    use std::fmt::Write as _;
    let mut h = codec::Fnv1a::new();
    let _ = write!(h, "{prog:?}");
    h.finish()
}

/// Validate the header and the structure section's encoding of an in-memory
/// `.ptrace` byte stream and return its [`TraceMeta`] without decoding any
/// frames. This is the admission-time check a profiling service runs on an
/// uploaded recording: bad magic, a foreign format version, a truncated
/// header or a damaged structure section surface as a structured
/// [`PolyProfError::Recording`] *before* the submission is queued, and the
/// embedded program id/workload name let the server match the recording
/// against its registry up front.
pub fn peek_meta(bytes: &[u8], label: &str) -> Result<TraceMeta, PolyProfError> {
    let reader = TraceReader::new(std::io::Cursor::new(bytes), label.to_string())?;
    Ok(reader.meta().clone())
}

/// Check pass 1's graphs, as a structure section carries them, against
/// `prog` before anything indexes with them: every function and block
/// exists, every listed function's entry block and every edge endpoint is in
/// its block set, the entry function ran if anything did, and both ends of
/// every call edge ran. `Err` names the first violation.
pub fn check_structure(prog: &Program, (cfgs, cg): &Graphs) -> Result<(), String> {
    for (&f, cfg) in cfgs {
        let func = prog.funcs.get(f.0 as usize).ok_or_else(|| {
            format!(
                "structure names function {f} but the program has {}",
                prog.funcs.len()
            )
        })?;
        if let Some(b) = cfg
            .blocks
            .last()
            .filter(|b| b.0 as usize >= func.blocks.len())
        {
            return Err(format!(
                "structure names block {f}:{b} but {} has {} blocks",
                func.name,
                func.blocks.len()
            ));
        }
        if !cfg.blocks.contains(&func.entry()) {
            return Err(format!(
                "structure lacks {}'s entry block {f}:{}",
                func.name,
                func.entry()
            ));
        }
        if let Some((from, to)) = cfg
            .edges
            .iter()
            .find(|(from, to)| !cfg.blocks.contains(from) || !cfg.blocks.contains(to))
        {
            return Err(format!(
                "structure's edge {f}:{from} → {f}:{to} leaves its block set"
            ));
        }
    }
    let root = StaticStructure::root(prog);
    if !cfgs.is_empty() && !cfgs.contains_key(&root) {
        return Err(format!("structure lacks the entry function {root}"));
    }
    if let Some((caller, callee)) = cg
        .iter()
        .find(|(caller, callee)| !cfgs.contains_key(caller) || !cfgs.contains_key(callee))
    {
        return Err(format!(
            "structure's call edge {caller} → {callee} names a function that never ran"
        ));
    }
    Ok(())
}

/// Check a footer's statement table against `prog` and the structure
/// rebuilt from the same recording: every block a context path or a
/// statement names ran, every loop it names exists in the structure, every
/// statement's instruction exists and its depth is its path's. `Err` names
/// the first violation. Run it after [`check_structure`] passed.
pub fn check_statements(
    prog: &Program,
    structure: &StaticStructure,
    interner: &ContextInterner,
) -> Result<(), String> {
    let ran = |b: BlockRef| {
        structure
            .cfgs
            .get(&b.func)
            .is_some_and(|cfg| cfg.blocks.contains(&b.block))
    };
    for p in 0..interner.n_paths() {
        let elems = interner
            .path(polyiiv::context::CtxPathId(p as u32))
            .iter()
            .flatten();
        for elem in elems {
            let known = match *elem {
                CtxElem::Block(b) => ran(b),
                CtxElem::Loop(LoopRef::Cfg(f, l)) => structure
                    .forests
                    .get(&f)
                    .is_some_and(|forest| (l.0 as usize) < forest.loops.len()),
                CtxElem::Loop(LoopRef::Rec(r)) => (r.0 as usize) < structure.rcs.components.len(),
            };
            if !known {
                return Err(format!(
                    "footer's context path {p} names {elem:?}, which the recorded structure lacks"
                ));
            }
        }
    }
    for (s, info) in interner.stmts() {
        let i = info.instr;
        if !ran(i.block) || i.idx as usize >= prog.block(i.block).instrs.len() {
            return Err(format!(
                "footer's statement {} names instruction {i}, which never ran",
                s.0
            ));
        }
        let dims = interner.path(info.path).len();
        if info.depth != dims {
            return Err(format!(
                "footer's statement {} has depth {} on a path of {dims} dimensions",
                s.0, info.depth
            ));
        }
    }
    Ok(())
}

/// What a finished recording contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Event frames written (excluding the footer).
    pub frames: u64,
    /// Total events across all frames.
    pub events: u64,
    /// Total bytes written, header and footer included.
    pub bytes: u64,
}

/// Streaming `.ptrace` writer: header up front, the frames a [`Recorder`]
/// encodes, footer plus header count-patch at [`finish`](Self::finish).
pub struct TraceWriter<W: Write + Seek> {
    w: W,
    label: String,
    frames: u64,
    events: u64,
    bytes: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Create a recording at `path` for `prog` (id + workload name are
    /// derived from the program) whose pass 1 produced `structure`.
    pub fn create(
        path: &Path,
        prog: &Program,
        structure: &StaticStructure,
        chunk_events: usize,
    ) -> Result<Self, PolyProfError> {
        let label = path.display().to_string();
        let f = File::create(path).map_err(|e| io_err(&label, "create", e))?;
        Self::new(
            BufWriter::new(f),
            label,
            program_id(prog),
            &prog.name,
            chunk_events,
            structure,
        )
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Write the header and the structure section (`structure`'s graphs)
    /// onto `w`. `label` names the stream in errors.
    pub fn new(
        mut w: W,
        label: String,
        program_id: u64,
        workload: &str,
        chunk_events: usize,
        structure: &StaticStructure,
    ) -> Result<Self, PolyProfError> {
        let mut hdr = Vec::with_capacity(44 + workload.len());
        hdr.extend_from_slice(&MAGIC);
        hdr.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        hdr.extend_from_slice(&program_id.to_le_bytes());
        hdr.extend_from_slice(&(chunk_events as u32).to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes()); // total events, patched
        hdr.extend_from_slice(&0u64.to_le_bytes()); // total frames, patched
        hdr.extend_from_slice(&(workload.len() as u32).to_le_bytes());
        hdr.extend_from_slice(workload.as_bytes());
        w.write_all(&hdr)
            .map_err(|e| io_err(&label, "write header", e))?;
        let mut writer = TraceWriter {
            w,
            label,
            frames: 0,
            events: 0,
            bytes: hdr.len() as u64,
        };
        let mut section = Vec::new();
        codec::encode_structure(&mut section, &structure.cfgs, &structure.cg_edges);
        writer.emit(TAG_STRUCTURE, &section)?;
        Ok(writer)
    }

    /// Append the encoder's current frame (nothing when it holds no event).
    fn write_frame(&mut self, enc: &FrameEncoder) -> Result<(), PolyProfError> {
        if enc.events() == 0 {
            return Ok(());
        }
        self.emit(TAG_FRAME, enc.payload())?;
        self.frames += 1;
        self.events += enc.events();
        Ok(())
    }

    fn emit(&mut self, tag: u8, payload: &[u8]) -> Result<(), PolyProfError> {
        if payload.len() as u64 > MAX_PAYLOAD as u64 {
            return Err(rec_err(
                &self.label,
                format!("frame payload of {} bytes exceeds cap", payload.len()),
            ));
        }
        let sum = codec::frame_checksum(payload);
        let r: Result<(), std::io::Error> = (|| {
            self.w.write_all(&[tag])?;
            self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
            self.w.write_all(payload)?;
            self.w.write_all(&sum.to_le_bytes())
        })();
        r.map_err(|e| io_err(&self.label, "write frame", e))?;
        self.bytes += 1 + 4 + payload.len() as u64 + 8;
        Ok(())
    }

    /// Write the footer (statement table + authoritative totals), patch the
    /// header counts, and flush. Consumes the writer; a recording without a
    /// successful `finish` is detectably truncated.
    pub fn finish(mut self, interner: &ContextInterner) -> Result<WriteStats, PolyProfError> {
        let mut footer = Vec::new();
        codec::encode_interner(&mut footer, interner);
        codec::write_uv(&mut footer, self.events);
        codec::write_uv(&mut footer, self.frames);
        self.emit(TAG_FOOTER, &footer)?;
        let r: Result<(), std::io::Error> = (|| {
            self.w.write_all(&END_MAGIC)?;
            self.w.seek(SeekFrom::Start(HDR_EVENTS_OFF))?;
            self.w.write_all(&self.events.to_le_bytes())?;
            self.w.write_all(&self.frames.to_le_bytes())?;
            self.w.flush()
        })();
        r.map_err(|e| io_err(&self.label, "finalize", e))?;
        self.bytes += END_MAGIC.len() as u64;
        Ok(WriteStats {
            frames: self.frames,
            events: self.events,
            bytes: self.bytes,
        })
    }

    /// Frames/events/bytes written so far (footer not included).
    pub fn stats(&self) -> WriteStats {
        WriteStats {
            frames: self.frames,
            events: self.events,
            bytes: self.bytes,
        }
    }
}

/// A recording tap: forwards every resolved event to an inner [`FoldSink`]
/// unchanged after encoding it into the current frame, and writes each
/// frame once it holds `chunk_events` events.
///
/// Sink methods are infallible by contract, so IO failures are stashed and
/// surfaced at [`finish`](Self::finish) — the live fold is never disturbed
/// by a broken disk, it just loses the recording.
pub struct Recorder<S: FoldSink, W: Write + Seek> {
    inner: S,
    writer: TraceWriter<W>,
    enc: FrameEncoder,
    cap: u64,
    err: Option<PolyProfError>,
}

impl<S: FoldSink> Recorder<S, BufWriter<File>> {
    /// Record to a fresh file at `path` while folding into `inner`;
    /// `structure` is pass 1's output for `prog`.
    pub fn to_file(
        path: &Path,
        prog: &Program,
        structure: &StaticStructure,
        chunk_events: usize,
        inner: S,
    ) -> Result<Self, PolyProfError> {
        let writer = TraceWriter::create(path, prog, structure, chunk_events)?;
        Ok(Self::new(writer, chunk_events, inner))
    }
}

impl<S: FoldSink, W: Write + Seek> Recorder<S, W> {
    /// Tap `inner` and write frames of `chunk_events` events into `writer`.
    pub fn new(writer: TraceWriter<W>, chunk_events: usize, inner: S) -> Self {
        Recorder {
            inner,
            writer,
            enc: FrameEncoder::new(),
            cap: chunk_events.max(1) as u64,
            err: None,
        }
    }

    fn spill(&mut self) {
        if self.err.is_none() {
            if let Err(e) = self.writer.write_frame(&self.enc) {
                self.err = Some(e);
            }
        }
        self.enc.reset();
    }

    #[inline]
    fn after_push(&mut self) {
        if self.enc.events() >= self.cap {
            self.spill();
        }
    }

    /// Flush the partial chunk, write the footer, and return the inner sink
    /// plus write stats. Any IO error stashed mid-run resurfaces here.
    pub fn finish(mut self, interner: &ContextInterner) -> Result<(S, WriteStats), PolyProfError> {
        self.spill();
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        let stats = self.writer.finish(interner)?;
        Ok((self.inner, stats))
    }
}

impl<S: FoldSink, W: Write + Seek> FoldSink for Recorder<S, W> {
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.enc.instr_point(stmt, coords, value);
        self.after_push();
        self.inner.instr_point(stmt, coords, value);
    }

    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.enc.mem_access(stmt, coords, addr, is_write);
        self.after_push();
        self.inner.mem_access(stmt, coords, addr, is_write);
    }

    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        self.enc.dependence(kind, src, src_coords, dst, dst_coords);
        self.after_push();
        self.inner
            .dependence(kind, src, src_coords, dst, dst_coords);
    }

    fn events_seen(&self) -> u64 {
        self.inner.events_seen()
    }
}

/// Header fields of an opened recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Format version (always [`FORMAT_VERSION`] once opened).
    pub version: u32,
    /// [`program_id`] of the recorded program.
    pub program_id: u64,
    /// Chunk capacity the recorder used.
    pub chunk_events: u32,
    /// Workload name from the header.
    pub workload: String,
    /// Header's total-event count (0 if the writer crashed before finish).
    pub header_events: u64,
    /// Header's total-frame count (0 if the writer crashed before finish).
    pub header_frames: u64,
}

/// What a fully-read recording contained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Event frames read (excluding the footer).
    pub frames: u64,
    /// Total events decoded.
    pub events: u64,
    /// Total payload bytes decoded (structure section, frames and footer).
    pub bytes: u64,
    /// Events spelled as a prediction from their key's stride (a subset of
    /// `events`).
    pub predicted: u64,
}

/// Streaming `.ptrace` reader: [`next_into`](Self::next_into) a fold sink
/// (or [`next_chunk`](Self::next_chunk)) until it returns `false`, then
/// [`finish`](Self::finish) to recover the interner and cross-check all
/// three event counts.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    label: String,
    meta: TraceMeta,
    frames: u64,
    events: u64,
    bytes: u64,
    payload: Vec<u8>,
    dec: FrameDecoder,
    structure: Graphs,
    footer: Option<(ContextInterner, u64, u64)>,
}

impl TraceReader<BufReader<File>> {
    /// Open a recording file and validate its header.
    pub fn open(path: &Path) -> Result<Self, PolyProfError> {
        let label = path.display().to_string();
        let f = File::open(path).map_err(|e| io_err(&label, "open", e))?;
        Self::new(BufReader::new(f), label)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap a raw stream, validate its header and read the structure section
    /// that follows it. `label` names the stream in errors.
    pub fn new(mut r: R, label: String) -> Result<Self, PolyProfError> {
        let mut fixed = [0u8; 44];
        read_exact(&mut r, &mut fixed, &label, "header")?;
        if fixed[0..8] != MAGIC {
            return Err(rec_err(&label, "bad magic: not a polyrec recording"));
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(rec_err(
                &label,
                format!(
                    "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
                ),
            ));
        }
        let program_id = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
        let chunk_events = u32::from_le_bytes(fixed[20..24].try_into().unwrap());
        let header_events = u64::from_le_bytes(fixed[24..32].try_into().unwrap());
        let header_frames = u64::from_le_bytes(fixed[32..40].try_into().unwrap());
        let name_len = u32::from_le_bytes(fixed[40..44].try_into().unwrap());
        if name_len > 4096 {
            return Err(rec_err(
                &label,
                format!("workload name of {name_len} bytes is corrupt"),
            ));
        }
        let mut name = vec![0u8; name_len as usize];
        read_exact(&mut r, &mut name, &label, "workload name")?;
        let workload =
            String::from_utf8(name).map_err(|_| rec_err(&label, "workload name is not UTF-8"))?;
        let mut reader = TraceReader {
            r,
            label,
            meta: TraceMeta {
                version,
                program_id,
                chunk_events,
                workload,
                header_events,
                header_frames,
            },
            frames: 0,
            events: 0,
            bytes: 0,
            payload: Vec::new(),
            dec: FrameDecoder::new(),
            structure: Graphs::default(),
            footer: None,
        };
        if reader.read_frame()? != TAG_STRUCTURE {
            return Err(rec_err(
                &reader.label,
                "no structure section after the header",
            ));
        }
        reader.structure = codec::decode_structure(&mut codec::Cursor::new(&reader.payload))
            .map_err(|d| rec_err(&reader.label, format!("structure section: {d}")))?;
        Ok(reader)
    }

    /// Pass 1's graphs from the structure section, moved out of the reader:
    /// a second call returns empty graphs. Check them against the program
    /// with [`check_structure`] before building anything from them.
    pub fn take_structure(&mut self) -> Graphs {
        std::mem::take(&mut self.structure)
    }

    /// Header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Frames/events/bytes decoded so far.
    pub fn stats(&self) -> ReadStats {
        ReadStats {
            frames: self.frames,
            events: self.events,
            bytes: self.bytes,
            predicted: self.dec.predicted(),
        }
    }

    /// Verify the next frame and decode its events straight into `sink`, in
    /// recorded order. Returns `Ok(false)` once the footer is reached — after
    /// that, call [`finish`](Self::finish). On `Err` the sink may have seen
    /// part of the frame; the recording is unusable either way.
    pub fn next_into<S: FoldSink>(&mut self, sink: &mut S) -> Result<bool, PolyProfError> {
        if self.footer.is_some() {
            return Ok(false);
        }
        match self.read_frame()? {
            TAG_FRAME => {
                let n = self
                    .dec
                    .decode(&self.payload, sink)
                    .map_err(|d| rec_err(&self.label, format!("frame {}: {d}", self.frames)))?;
                self.frames += 1;
                self.events += n;
                Ok(true)
            }
            TAG_FOOTER => {
                self.read_footer()?;
                Ok(false)
            }
            other => Err(rec_err(&self.label, format!("unknown frame tag {other}"))),
        }
    }

    /// [`next_into`](Self::next_into) a chunk, cleared first (pass a
    /// recycled chunk to amortize its buffers).
    pub fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, PolyProfError> {
        chunk.clear();
        self.next_into(chunk)
    }

    /// Read one tagged frame into `self.payload`, verifying its checksum.
    fn read_frame(&mut self) -> Result<u8, PolyProfError> {
        let mut tag = [0u8; 1];
        read_exact(
            &mut self.r,
            &mut tag,
            &self.label,
            "frame tag (file truncated)",
        )?;
        let mut len = [0u8; 4];
        read_exact(
            &mut self.r,
            &mut len,
            &self.label,
            "frame length (file truncated)",
        )?;
        let len = u32::from_le_bytes(len);
        if len > MAX_PAYLOAD {
            return Err(rec_err(
                &self.label,
                format!("frame payload of {len} bytes exceeds cap — corrupt length"),
            ));
        }
        codec::read_claimed(&mut self.r, len as usize, &mut self.payload)
            .map_err(|e| read_err(&self.label, "frame payload (file truncated)", e))?;
        let mut sum = [0u8; 8];
        read_exact(
            &mut self.r,
            &mut sum,
            &self.label,
            "frame checksum (file truncated)",
        )?;
        let want = u64::from_le_bytes(sum);
        let got = codec::frame_checksum(&self.payload);
        if want != got {
            return Err(rec_err(
                &self.label,
                format!(
                    "{} checksum mismatch (stored {want:#018x}, computed {got:#018x})",
                    match tag[0] {
                        TAG_STRUCTURE => "structure section".to_string(),
                        _ => format!("frame {}", self.frames),
                    }
                ),
            ));
        }
        self.bytes += len as u64;
        Ok(tag[0])
    }

    /// Decode the footer payload and run the count cross-checks.
    fn read_footer(&mut self) -> Result<(), PolyProfError> {
        let mut cur = codec::Cursor::new(&self.payload);
        let (paths, stmts) = codec::decode_interner(&mut cur)
            .map_err(|d| rec_err(&self.label, format!("footer: {d}")))?;
        let total_events = cur
            .read_uv()
            .map_err(|d| rec_err(&self.label, format!("footer totals: {d}")))?;
        let total_frames = cur
            .read_uv()
            .map_err(|d| rec_err(&self.label, format!("footer totals: {d}")))?;
        if !cur.is_done() {
            return Err(rec_err(&self.label, "footer has trailing bytes"));
        }
        // Checked here, before anything can look a statement up in the table:
        // every id the frames handed the fold must have a row.
        if self.dec.stmt_end() > stmts.len() as u64 {
            return Err(rec_err(
                &self.label,
                format!(
                    "frames name statement {} but the footer's table holds {}",
                    self.dec.stmt_end() - 1,
                    stmts.len()
                ),
            ));
        }
        let mut end = [0u8; 8];
        read_exact(
            &mut self.r,
            &mut end,
            &self.label,
            "end magic (file truncated)",
        )?;
        if end != END_MAGIC {
            return Err(rec_err(&self.label, "bad end magic after footer"));
        }
        let mut extra = [0u8; 1];
        match self.r.read(&mut extra) {
            Ok(0) => {}
            Ok(_) => return Err(rec_err(&self.label, "trailing garbage after end magic")),
            Err(e) => return Err(io_err(&self.label, "probe end of stream", e)),
        }
        // Three-way count agreement: decoded stream vs footer vs header.
        if total_events != self.events || total_frames != self.frames {
            return Err(rec_err(
                &self.label,
                format!(
                    "footer claims {total_frames} frames / {total_events} events but stream \
                     decoded {} / {}",
                    self.frames, self.events
                ),
            ));
        }
        if self.meta.header_events != self.events || self.meta.header_frames != self.frames {
            return Err(rec_err(
                &self.label,
                format!(
                    "header claims {} frames / {} events but stream decoded {} / {} — \
                     recording was not finished or the header was tampered with",
                    self.meta.header_frames, self.meta.header_events, self.frames, self.events
                ),
            ));
        }
        self.footer = Some((
            ContextInterner::from_parts(paths, stmts),
            total_events,
            total_frames,
        ));
        Ok(())
    }

    /// Consume the reader after the footer was reached, returning the
    /// reconstructed interner and final stats. Calling this before
    /// [`next_chunk`](Self::next_chunk) returned `false` is an error — the
    /// stream was not fully verified.
    pub fn finish(self) -> Result<(ContextInterner, ReadStats), PolyProfError> {
        let stats = self.stats();
        match self.footer {
            Some((interner, _, _)) => Ok((interner, stats)),
            None => Err(rec_err(
                &self.label,
                "finish() before the footer was reached — stream not fully read",
            )),
        }
    }
}

fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    label: &str,
    what: &str,
) -> Result<(), PolyProfError> {
    r.read_exact(buf).map_err(|e| read_err(label, what, e))
}

fn read_err(label: &str, what: &str, e: std::io::Error) -> PolyProfError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        rec_err(label, format!("unexpected end of file reading {what}"))
    } else {
        io_err(label, what, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor as IoCursor;

    fn interner_with_stmts() -> ContextInterner {
        use polyir::{BlockRef, FuncId, InstrRef, LocalBlockId};
        let b = BlockRef {
            func: FuncId(0),
            block: LocalBlockId(0),
        };
        ContextInterner::from_parts(
            vec![vec![vec![polyiiv::CtxElem::Block(b)]]],
            vec![polyiiv::context::StmtInfo {
                path: polyiiv::context::CtxPathId(0),
                instr: InstrRef { block: b, idx: 0 },
                depth: 1,
            }],
        )
    }

    /// A small structure: one function of two blocks, the second a loop,
    /// calling itself.
    fn structure() -> StaticStructure {
        use polycfg::DynCfg;
        use polyir::{FuncId, LocalBlockId as B};
        let cfg = DynCfg {
            blocks: [B(0), B(1)].into(),
            edges: [(B(0), B(1)), (B(1), B(1))].into(),
        };
        StaticStructure {
            cfgs: [(FuncId(0), cfg)].into(),
            cg_edges: [(FuncId(0), FuncId(0))].into(),
            ..StaticStructure::default()
        }
    }

    /// A writer of an in-memory recording: header program id `id`, workload
    /// `name`, frames of `cap` events, [`structure`]'s graphs.
    fn writer<'a>(
        bytes: &'a mut Vec<u8>,
        id: u64,
        name: &str,
        cap: usize,
    ) -> TraceWriter<IoCursor<&'a mut Vec<u8>>> {
        TraceWriter::new(
            IoCursor::new(bytes),
            "<mem>".into(),
            id,
            name,
            cap,
            &structure(),
        )
        .expect("in-memory header")
    }

    #[derive(Default)]
    struct CountSink(usize);

    impl FoldSink for CountSink {
        fn instr_point(&mut self, _: StmtId, _: &[i64], _: Option<i64>) {
            self.0 += 1;
        }
        fn mem_access(&mut self, _: StmtId, _: &[i64], _: u64, _: bool) {
            self.0 += 1;
        }
        fn dependence(&mut self, _: DepKind, _: StmtId, _: &[i64], _: StmtId, _: &[i64]) {
            self.0 += 1;
        }
    }

    /// A recording of whatever `events` feeds a tap writing frames of `cap`
    /// events, finished against `interner`.
    fn record(
        cap: usize,
        interner: &ContextInterner,
        events: impl FnOnce(&mut Recorder<CountSink, IoCursor<&mut Vec<u8>>>),
    ) -> Vec<u8> {
        let mut bytes = Vec::new();
        let w = writer(&mut bytes, 42, "unit", cap);
        let mut rec = Recorder::new(w, cap, CountSink::default());
        events(&mut rec);
        rec.finish(interner).expect("in-memory recording");
        bytes
    }

    /// Read a recording through to `finish`.
    fn read_all(bytes: &[u8]) -> Result<(ContextInterner, ReadStats), PolyProfError> {
        let mut r = TraceReader::new(IoCursor::new(bytes), "<mem>".into())?;
        let mut chunk = EventChunk::default();
        while r.next_chunk(&mut chunk)? {}
        r.finish()
    }

    #[test]
    fn roundtrip_in_memory() {
        let bytes = record(2, &interner_with_stmts(), |rec| {
            rec.instr_point(StmtId(0), &[0, 7], Some(-3));
            rec.mem_access(StmtId(0), &[0, 7], 128, false);
            rec.dependence(DepKind::Anti, StmtId(0), &[1], StmtId(0), &[2]);
        });
        let mut r = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap();
        assert_eq!(r.meta().program_id, 42);
        let want = structure();
        assert_eq!(r.take_structure(), (want.cfgs, want.cg_edges));
        assert_eq!(r.meta().workload, "unit");
        assert_eq!(r.meta().header_events, 3);
        let mut chunk = EventChunk::default();
        let mut seen = Vec::new();
        while r.next_chunk(&mut chunk).unwrap() {
            for ev in chunk.events() {
                seen.push(format!("{ev:?}"));
            }
        }
        assert_eq!(seen.len(), 3);
        let (interner, stats) = r.finish().unwrap();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.events, 3);
        assert_eq!(interner.n_stmts(), 1);
        assert_eq!(interner.n_paths(), 1);
    }

    #[test]
    fn empty_recording_roundtrips() {
        let mut bytes = Vec::new();
        {
            let w = writer(&mut bytes, 7, "empty", 4);
            w.finish(&interner_with_stmts()).unwrap();
        }
        let mut r = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap();
        let mut chunk = EventChunk::default();
        assert!(!r.next_chunk(&mut chunk).unwrap());
        let (_, stats) = r.finish().unwrap();
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn version_bump_is_a_hard_error() {
        let mut bytes = Vec::new();
        {
            let w = writer(&mut bytes, 7, "v", 4);
            w.finish(&interner_with_stmts()).unwrap();
        }
        // Version 2 (no structure section) and a future version alike.
        for version in [2, FORMAT_VERSION + 1] {
            bytes[HDR_VERSION_OFF as usize] = version as u8;
            let err = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap_err();
            let msg = err.to_string();
            let want = format!("unsupported format version {version}");
            assert!(msg.contains(&want), "{msg}");
        }
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let mut bytes = Vec::new();
        {
            let w = writer(&mut bytes, 7, "v", 4);
            w.finish(&interner_with_stmts()).unwrap();
        }
        bytes[0] ^= 0xff;
        let err = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn recorder_taps_without_perturbing_inner() {
        let mut bytes = Vec::new();
        {
            let w = writer(&mut bytes, 7, "tap", 2);
            let mut rec = Recorder::new(w, 2, CountSink::default());
            for i in 0..5i64 {
                rec.instr_point(StmtId(0), &[i], Some(i));
            }
            let (inner, stats) = rec.finish(&interner_with_stmts()).unwrap();
            assert_eq!(inner.0, 5);
            assert_eq!(stats.events, 5);
            assert_eq!(stats.frames, 3); // 2 + 2 + 1
        }
        let mut r = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap();
        let mut chunk = EventChunk::default();
        let mut n = 0;
        while r.next_chunk(&mut chunk).unwrap() {
            n += chunk.len();
        }
        assert_eq!(n, 5);
        r.finish().unwrap();

        // `peek_meta` reads the same header straight off the bytes.
        let meta = peek_meta(&bytes, "<mem>").unwrap();
        assert_eq!(meta.program_id, 7);
        assert_eq!(meta.workload, "tap");
        assert_eq!(meta.header_events, 5);
    }

    /// A frame header is a claim, not an allocation size: one that promises
    /// the cap and delivers three bytes is a truncation error, and the
    /// reader's payload buffer holds what arrived, not what was promised.
    #[test]
    fn lying_frame_length_allocates_only_what_arrives() {
        let mut bytes = Vec::new();
        writer(&mut bytes, 7, "liar", 4);
        bytes.push(TAG_FRAME);
        bytes.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap();
        let err = r.next_chunk(&mut EventChunk::default()).unwrap_err();
        assert!(err.to_string().contains("frame payload"), "{err}");
        assert!(r.payload.capacity() < 4096, "{}", r.payload.capacity());
    }

    /// Well-checksummed frames naming a statement the footer's table does
    /// not hold are refused at the footer — before a fold could look the
    /// statement up — not a panic in finalize.
    #[test]
    fn frames_naming_a_statement_past_the_table_are_refused() {
        let empty = ContextInterner::from_parts(Vec::new(), Vec::new());
        for (table, stmt) in [(&empty, 999), (&empty, 0), (&interner_with_stmts(), 1)] {
            let bytes = record(4, table, |rec| rec.instr_point(StmtId(stmt), &[0], None));
            match read_all(&bytes) {
                Err(PolyProfError::Recording { detail, .. }) => assert!(
                    detail.contains(&format!("statement {stmt} but the footer's table holds")),
                    "{detail}"
                ),
                other => panic!("statement {stmt}: expected a recording error, got {other:?}"),
            }
        }
        let fine = record(4, &interner_with_stmts(), |rec| {
            rec.instr_point(StmtId(0), &[0], None)
        });
        assert_eq!(read_all(&fine).unwrap().1.events, 1);
    }

    /// Every single-bit flip anywhere in the structure section or a small
    /// frame — tag, length, payload, checksum — and every truncation of the
    /// file is an error.
    #[test]
    fn every_bit_flip_of_a_frame_and_every_truncation_is_an_error() {
        let bytes = record(16, &interner_with_stmts(), |rec| {
            for i in 0..4i64 {
                rec.instr_point(StmtId(0), &[0, i], Some(2 * i));
                rec.mem_access(StmtId(0), &[0, i], 64 + i as u64, true);
            }
            rec.dependence(DepKind::Flow, StmtId(0), &[0, 1], StmtId(0), &[0, 2]);
        });
        assert!(read_all(&bytes).is_ok());
        let section_end = |at: usize| {
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
            at + 1 + 4 + len as usize + 8
        };
        let structure = 44 + "unit".len();
        let frame_end = section_end(section_end(structure));
        let mut flipped = bytes.clone();
        for bit in structure * 8..frame_end * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(read_all(&flipped).is_err(), "flip of bit {bit} went unseen");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..bytes.len() {
            assert!(read_all(&bytes[..cut]).is_err(), "cut at {cut} went unseen");
        }
    }

    #[test]
    fn peek_meta_rejects_garbage_structurally() {
        match peek_meta(
            b"definitely not a polyrec recording header, long enough to cover it",
            "<mem>",
        ) {
            Err(PolyProfError::Recording { detail, .. }) => {
                assert!(detail.contains("magic"), "{detail}")
            }
            other => panic!("expected structured recording error, got {other:?}"),
        }
        match peek_meta(b"short", "<mem>") {
            Err(PolyProfError::Recording { .. }) => {}
            other => panic!("expected structured recording error, got {other:?}"),
        }
    }

    /// A named edit of a `T`.
    type Edit<T> = (&'static str, fn(&mut T));

    /// A fixed tiny program, spelled field by field so that no builder
    /// change can move its id: a counted loop storing a float, and a data
    /// image of one float and one integer.
    fn tiny() -> Program {
        use polyir::{
            Block, CmpOp, FuncId, Function, IBinOp, Instr, LocalBlockId as B, Operand, Reg,
            Terminator, Value,
        };
        let block = |name: &str, instrs, term, src_line| Block {
            name: name.into(),
            instrs,
            term,
            src_line,
        };
        let body = vec![
            Instr::Const {
                dst: Reg(0),
                value: Value::F64(0.0),
            },
            Instr::IOp {
                dst: Reg(1),
                op: IBinOp::Add,
                a: Operand::Reg(Reg(1)),
                b: Operand::ImmI(1),
            },
            Instr::Store {
                base: Operand::ImmI(64),
                offset: Operand::Reg(Reg(1)),
                src: Operand::Reg(Reg(0)),
            },
            Instr::ICmp {
                dst: Reg(2),
                op: CmpOp::Lt,
                a: Operand::Reg(Reg(1)),
                b: Operand::ImmI(4),
            },
        ];
        let branch = Terminator::Br {
            cond: Operand::Reg(Reg(2)),
            then_: B(1),
            else_: B(2),
        };
        let main = Function {
            name: "main".into(),
            n_params: 0,
            n_regs: 3,
            blocks: vec![
                block("entry", vec![], Terminator::Jump(B(1)), 6),
                block("loop", body, branch, 7),
                block("exit", vec![], Terminator::Ret(None), 9),
            ],
            src_file: "tiny.c".into(),
        };
        Program {
            funcs: vec![main],
            entry: Some(FuncId(0)),
            data: vec![(64, polyir::Value::F64(0.0)), (65, polyir::Value::I64(3))],
            name: "tiny".into(),
        }
    }

    /// Two builds of one program agree, and the id of the fixed tiny
    /// program is pinned: every process on every platform must compute this
    /// value, or recordings stop matching their programs.
    #[test]
    fn program_id_is_stable() {
        assert_eq!(program_id(&tiny()), program_id(&tiny()));
        assert_eq!(
            program_id(&tiny()),
            PINNED_TINY_ID,
            "{:#018x}",
            program_id(&tiny())
        );
    }

    const PINNED_TINY_ID: u64 = 0xf23f_d2a0_eecb_80bb;

    /// Each kind of field is part of the identity: changing any one of them
    /// changes the id — floats by their bits, so `0.0` is not `-0.0`, and an
    /// `I64` is not the `F64` of the same bits.
    #[test]
    fn program_id_sees_every_field_kind() {
        use polyir::{FuncId, Instr, LocalBlockId, Operand, Reg, Terminator, Value};
        fn op_b(p: &mut Program) -> &mut Operand {
            match &mut p.funcs[0].blocks[1].instrs[1] {
                Instr::IOp { b, .. } => b,
                other => panic!("{other:?}"),
            }
        }
        let mutations: [Edit<Program>; 14] = [
            ("immediate", |p| *op_b(p) = Operand::ImmI(2)),
            ("immediate kind", |p| {
                *op_b(p) = Operand::ImmF(f64::from_bits(1))
            }),
            ("register", |p| {
                if let Instr::IOp { a, .. } = &mut p.funcs[0].blocks[1].instrs[1] {
                    *a = Operand::Reg(Reg(2));
                }
            }),
            ("destination", |p| {
                if let Instr::IOp { dst, .. } = &mut p.funcs[0].blocks[1].instrs[1] {
                    *dst = Reg(0);
                }
            }),
            ("terminator target", |p| {
                p.funcs[0].blocks[0].term = Terminator::Jump(LocalBlockId(2))
            }),
            ("src_line", |p| p.funcs[0].blocks[1].src_line += 1),
            ("function name", |p| p.funcs[0].name = "mian".into()),
            ("n_regs", |p| p.funcs[0].n_regs += 1),
            ("entry", |p| p.entry = None),
            ("data address", |p| p.data[1].0 += 1),
            ("data value", |p| p.data[1].1 = Value::I64(4)),
            ("0.0 against -0.0", |p| p.data[0].1 = Value::F64(-0.0)),
            ("I64 against F64 of the same bits", |p| {
                p.data[1].1 = Value::F64(f64::from_bits(3))
            }),
            ("a second function", |p| {
                let f = p.funcs[0].clone();
                p.funcs.push(f);
                p.entry = Some(FuncId(0));
            }),
        ];
        let base = program_id(&tiny());
        for (what, mutate) in mutations {
            let mut p = tiny();
            mutate(&mut p);
            assert_ne!(program_id(&p), base, "{what} left the id unchanged");
        }
    }

    /// The structure checks refuse what a live run cannot record — a
    /// function, block or loop the program or the structure lacks — and
    /// accept what it does.
    #[test]
    fn structure_and_statement_checks_refuse_what_a_run_cannot_record() {
        use polycfg::{LoopIdx, RecCompIdx};
        use polyiiv::context::{CtxPathId, StmtInfo};
        use polyir::{BlockRef, FuncId, InstrRef, LocalBlockId as B};
        let prog = tiny();
        let graphs = || {
            let s = structure();
            (s.cfgs, s.cg_edges)
        };
        assert_eq!(check_structure(&prog, &graphs()), Ok(()));
        assert_eq!(check_structure(&prog, &Graphs::default()), Ok(()));
        let bad: [Edit<Graphs>; 5] = [
            ("function", |g| {
                g.0.insert(FuncId(1), polycfg::DynCfg::default());
            }),
            ("block", |g| {
                g.0.get_mut(&FuncId(0)).unwrap().blocks.insert(B(3));
            }),
            ("entry block", |g| {
                g.0.get_mut(&FuncId(0)).unwrap().blocks.remove(&B(0));
            }),
            ("edge", |g| {
                g.0.get_mut(&FuncId(0)).unwrap().edges.insert((B(1), B(2)));
            }),
            ("call edge", |g| {
                g.1.insert((FuncId(0), FuncId(1)));
            }),
        ];
        for (what, forge) in bad {
            let mut g = graphs();
            forge(&mut g);
            assert!(check_structure(&prog, &g).is_err(), "a bad {what} passed");
        }

        let (cfgs, cg) = graphs();
        let built = StaticStructure::from_graphs(&prog, cfgs, cg);
        let at = |block, idx| InstrRef {
            block: BlockRef {
                func: FuncId(0),
                block: B(block),
            },
            idx,
        };
        let table = |elem: CtxElem, instr: InstrRef, depth| {
            ContextInterner::from_parts(
                vec![vec![vec![CtxElem::Block(at(1, 0).block), elem]]],
                vec![StmtInfo {
                    path: CtxPathId(0),
                    instr,
                    depth,
                }],
            )
        };
        let cfg_loop = |l| CtxElem::Loop(LoopRef::Cfg(FuncId(0), LoopIdx(l)));
        assert_eq!(
            check_statements(&prog, &built, &table(cfg_loop(0), at(1, 3), 1)),
            Ok(())
        );
        let forged = [
            ("loop index", table(cfg_loop(50), at(1, 3), 1)),
            (
                "recursive component",
                table(CtxElem::Loop(LoopRef::Rec(RecCompIdx(1))), at(1, 3), 1),
            ),
            ("block", table(CtxElem::Block(at(2, 0).block), at(1, 3), 1)),
            ("instruction index", table(cfg_loop(0), at(1, 4), 1)),
            ("instruction block", table(cfg_loop(0), at(2, 0), 1)),
            ("depth", table(cfg_loop(0), at(1, 3), 2)),
        ];
        for (what, interner) in forged {
            assert!(
                check_statements(&prog, &built, &interner).is_err(),
                "a forged {what} passed"
            );
        }
    }
}
