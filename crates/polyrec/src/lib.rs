//! `polyrec`: versioned on-disk event-stream recordings.
//!
//! Splits profiling from analysis (ROADMAP item 2): a [`Recorder`] taps the
//! resolved folding-interface stream during a live run and encodes each
//! event into a compact `.ptrace` frame as it passes; a [`TraceReader`]
//! decodes the frames straight into a [`FoldSink`] so the folder can re-run
//! without the VM, the shadow memory, or even the original binary.
//!
//! # File layout (format version 2)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"POLYREC\0"
//! 8       4     format version (u32 LE)         — mismatch is a hard error
//! 12      8     program hash (u64 LE)           — FNV-1a of the IR rendering
//! 20      4     chunk_events (u32 LE)           — events per frame
//! 24      8     total events (u64 LE)           — patched at finish()
//! 32      8     total frames (u64 LE)           — patched at finish()
//! 40      4     workload-name length (u32 LE)
//! 44      n     workload name (UTF-8)
//! --      --    frames: [0x01][payload len u32][payload][checksum u64] ...
//! --      --    footer: [0x02][payload len u32][payload][checksum u64]
//! --      8     end magic b"POLYREND"
//! ```
//!
//! Frame payloads spell an event either in full — delta-coded zigzag
//! varints — or, when it continues its key's stride, as a two-byte
//! prediction (see [`codec`]); checksums are [`codec::frame_checksum`], one
//! multiply per 8-byte word. The footer carries the interner's statement
//! table plus the authoritative event/frame totals. Three independent
//! truncation tripwires — per-frame checksums, the header counts (patched in
//! place at `finish`, so a crash mid-write leaves zeros), and the footer
//! totals + end magic — and a footer statement table that must cover every
//! statement the frames named mean a torn, bit-flipped or forged file
//! surfaces as a structured [`PolyProfError::Recording`], never a panic or a
//! silently short replay.

pub mod codec;

use codec::{FrameDecoder, FrameEncoder};
use polyddg::chunk::EventChunk;
use polyddg::{DepKind, FoldSink};
use polyiiv::context::{ContextInterner, StmtId};
use polyir::Program;
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
pub const FORMAT_VERSION: u32 = 2;

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

/// Content hash of a [`Program`], stored in the header so a recording can
/// only be replayed against the IR that produced it. Hashes the IR's
/// deterministic `Debug` rendering (the `Program` tree is plain `Vec`s, so
/// the rendering is stable) with FNV-1a, streamed — no intermediate string.
pub fn program_hash(prog: &Program) -> u64 {
    use std::fmt::Write as _;
    let mut h = codec::Fnv1a::new();
    let _ = write!(h, "{prog:?}");
    h.finish()
}

/// Validate the header of an in-memory `.ptrace` byte stream and return its
/// [`TraceMeta`] without decoding any frames. This is the admission-time
/// check a profiling service runs on an uploaded recording: bad magic, a
/// foreign format version, or a truncated header surface as a structured
/// [`PolyProfError::Recording`] *before* the submission is queued, and the
/// embedded program hash/workload name let the server match the recording
/// against its registry up front.
pub fn peek_meta(bytes: &[u8], label: &str) -> Result<TraceMeta, PolyProfError> {
    let reader = TraceReader::new(std::io::Cursor::new(bytes), label.to_string())?;
    Ok(reader.meta().clone())
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
    /// Create a recording at `path` for `prog` (hash + workload name are
    /// derived from the program).
    pub fn create(path: &Path, prog: &Program, chunk_events: usize) -> Result<Self, PolyProfError> {
        let label = path.display().to_string();
        let f = File::create(path).map_err(|e| io_err(&label, "create", e))?;
        Self::new(
            BufWriter::new(f),
            label,
            program_hash(prog),
            &prog.name,
            chunk_events,
        )
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Write the header onto `w`. `label` names the stream in errors.
    pub fn new(
        mut w: W,
        label: String,
        program_hash: u64,
        workload: &str,
        chunk_events: usize,
    ) -> Result<Self, PolyProfError> {
        let mut hdr = Vec::with_capacity(44 + workload.len());
        hdr.extend_from_slice(&MAGIC);
        hdr.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        hdr.extend_from_slice(&program_hash.to_le_bytes());
        hdr.extend_from_slice(&(chunk_events as u32).to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes()); // total events, patched
        hdr.extend_from_slice(&0u64.to_le_bytes()); // total frames, patched
        hdr.extend_from_slice(&(workload.len() as u32).to_le_bytes());
        hdr.extend_from_slice(workload.as_bytes());
        w.write_all(&hdr)
            .map_err(|e| io_err(&label, "write header", e))?;
        Ok(TraceWriter {
            w,
            label,
            frames: 0,
            events: 0,
            bytes: hdr.len() as u64,
        })
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
    /// Record to a fresh file at `path` while folding into `inner`.
    pub fn to_file(
        path: &Path,
        prog: &Program,
        chunk_events: usize,
        inner: S,
    ) -> Result<Self, PolyProfError> {
        let writer = TraceWriter::create(path, prog, chunk_events)?;
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
    /// [`program_hash`] of the recorded program.
    pub program_hash: u64,
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
    /// Total payload bytes decoded (frames + footer).
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
    /// Wrap a raw stream and validate its header. `label` names the stream
    /// in errors.
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
        let program_hash = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
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
        Ok(TraceReader {
            r,
            label,
            meta: TraceMeta {
                version,
                program_hash,
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
            footer: None,
        })
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
                    "frame {} checksum mismatch (stored {want:#018x}, computed {got:#018x})",
                    self.frames
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
        let w = TraceWriter::new(IoCursor::new(&mut bytes), "<mem>".into(), 42, "unit", cap)
            .expect("in-memory header");
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
        assert_eq!(r.meta().program_hash, 42);
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
            let w =
                TraceWriter::new(IoCursor::new(&mut bytes), "<mem>".into(), 7, "empty", 4).unwrap();
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
            let w = TraceWriter::new(IoCursor::new(&mut bytes), "<mem>".into(), 7, "v", 4).unwrap();
            w.finish(&interner_with_stmts()).unwrap();
        }
        bytes[HDR_VERSION_OFF as usize] = (FORMAT_VERSION + 1) as u8;
        let err = TraceReader::new(IoCursor::new(&bytes[..]), "<mem>".into()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported format version"), "{msg}");
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let mut bytes = Vec::new();
        {
            let w = TraceWriter::new(IoCursor::new(&mut bytes), "<mem>".into(), 7, "v", 4).unwrap();
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
            let w =
                TraceWriter::new(IoCursor::new(&mut bytes), "<mem>".into(), 7, "tap", 2).unwrap();
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
        assert_eq!(meta.program_hash, 7);
        assert_eq!(meta.workload, "tap");
        assert_eq!(meta.header_events, 5);
    }

    /// A frame header is a claim, not an allocation size: one that promises
    /// the cap and delivers three bytes is a truncation error, and the
    /// reader's payload buffer holds what arrived, not what was promised.
    #[test]
    fn lying_frame_length_allocates_only_what_arrives() {
        let mut bytes = Vec::new();
        TraceWriter::new(IoCursor::new(&mut bytes), "<mem>".into(), 7, "liar", 4).unwrap();
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

    /// Every single-bit flip anywhere in a small frame — tag, length,
    /// payload, checksum — and every truncation of the file is an error.
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
        let frame = 44 + "unit".len();
        let payload_len = u32::from_le_bytes(bytes[frame + 1..frame + 5].try_into().unwrap());
        let frame_end = frame + 1 + 4 + payload_len as usize + 8;
        let mut flipped = bytes.clone();
        for bit in frame * 8..frame_end * 8 {
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
}
