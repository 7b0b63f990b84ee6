//! Wire primitives of the `.ptrace` format (version 3): LEB128 varints,
//! zigzag signed encoding, the word hash behind the frame checksum and the
//! program identity (`WordHash`), FNV-1a for content hashes, the one frame
//! encoder ([`FrameEncoder`]) and the one frame decoder ([`FrameDecoder`]),
//! the structure section ([`encode_structure`]) and the footer's statement
//! table.
//!
//! # Frame payload
//!
//! A payload is a sequence of events, each opening with a two-byte header
//! `[slot & 0xff][op << 4 | slot >> 8]`: a 4-bit opcode and a 12-bit slot
//! index into a per-frame predictor table of [`SLOTS`] entries.
//!
//! | op | event | fields after the header | words |
//! |---|---|---|---|
//! | 0 | point | stmt, d | coords |
//! | 1 | point with value | stmt, d | coords, value |
//! | 2 / 3 | load / store | stmt, d | coords, addr |
//! | 4–7 | flow / anti / output / register dependence | src, d, dst, d′ | src coords, dst coords |
//! | 8 | predicted | — | — |
//!
//! An event's *key* is (op, stmt) for points and accesses and (op, src, dst)
//! for dependences; its *words* are the last column. A full event (ops 0–7)
//! spells out its key and words and names the slot the encoder hashed the
//! key to; the slot then holds the key, its latest words and its stride —
//! the difference between its last two events when the key and the word
//! layout did not change, zero when the slot was (re)filled. A predicted
//! event (op 8) is the slot's latest words plus its stride, and is spelled
//! by the header alone. Because full events carry their slot, the decoder
//! never hashes: the encoder alone decides where a key lives, and a
//! collision merely costs the evicted key its prediction.
//!
//! Full-event fields are varints: the statement id as a zigzag delta
//! against the previous full event's (a dependence's consumer against its
//! producer), the coordinate counts `d` / `d′`, then each word as a zigzag
//! delta against the same position of the previous full event's words.
//!
//! Every frame decodes independently: the predictor table is reset at each
//! frame boundary by a generation stamp (a predicted event naming a slot not
//! filled in its own frame is corrupt), and the delta state starts from
//! zero, so a single damaged frame never poisons its neighbours.

use polycfg::{DynCfg, LoopIdx, LoopRef, RecCompIdx};
use polyddg::{DepKind, FoldSink};
use polyiiv::context::{ContextInterner, CtxPathId, StmtId, StmtInfo};
use polyiiv::CtxElem;
use polyir::{BlockRef, FuncId, InstrRef, LocalBlockId};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;

/// FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64: feed bytes with [`Fnv1a::write`] (or text through
/// [`std::fmt::Write`]), read the hash with [`Fnv1a::finish`]. The one
/// implementation behind the format-2 program hash the frozen ledger still
/// keys its digests with, the server's upload digests and the replay-gate
/// fixture key. Frames are checksummed
/// with [`frame_checksum`] and programs identified by
/// [`program_id`](crate::program_id) instead, both over `WordHash`.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of the empty input.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Odd multiplier of [`frame_checksum`] (2⁶⁴ / φ) and of the encoder's slot
/// hash.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word hash behind [`frame_checksum`] and
/// [`program_id`](crate::program_id): a running state that absorbs one
/// 64-bit word per step, `h = rotl31((h ^ word) · 2⁶⁴/φ)`, and ends in a
/// murmur3-style avalanche. For a fixed word each step is a bijection of the
/// state, and for a fixed state it is injective in the word, so damage
/// confined to one word always changes the result. Fixed constants, fixed
/// widths, no platform dependence: its values may be stored and compared
/// across processes and machines.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHash(u64);

impl WordHash {
    /// A state seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        WordHash(seed)
    }

    /// Absorb one word.
    #[inline(always)]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(GOLDEN).rotate_left(31);
    }

    /// Absorb `bytes` as little-endian 8-byte words, the last one
    /// zero-padded.
    pub fn words(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(tail));
        }
    }

    /// The avalanched hash of everything absorbed so far.
    pub fn sum(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A [`std::hash::Hasher`] over [`WordHash`]: every integer write is one
/// word (sign- or zero-extended to 64 bits, `usize`/`isize` too), and a byte
/// slice is its length word followed by its little-endian 8-byte words, the
/// last one zero-padded. Nothing depends on the platform's endianness or
/// pointer width — unlike std's default `write_*`, which feed native-endian
/// bytes of native width.
impl std::hash::Hasher for WordHash {
    fn finish(&self) -> u64 {
        self.sum()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        self.words(bytes);
    }

    fn write_u8(&mut self, i: u8) {
        self.word(i as u64);
    }
    fn write_u16(&mut self, i: u16) {
        self.word(i as u64);
    }
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
    }
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
    fn write_i8(&mut self, i: i8) {
        self.word(i as i64 as u64);
    }
    fn write_i16(&mut self, i: i16) {
        self.word(i as i64 as u64);
    }
    fn write_i32(&mut self, i: i32) {
        self.word(i as i64 as u64);
    }
    fn write_i64(&mut self, i: i64) {
        self.word(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.word(i as i64 as u64);
    }
}

/// The checksum of a frame or footer payload: a `WordHash` seeded with the
/// length over the payload's 8-byte little-endian words, the last one
/// zero-padded. Any damage confined to one word — every single-bit flip —
/// changes the sum; the length tells a zero-padded tail from real zero bytes.
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut h = WordHash::new(FNV_OFFSET ^ (bytes.len() as u64).wrapping_mul(GOLDEN));
    h.words(bytes);
    h.sum()
}

/// Replace `buf` with the next `len` bytes of `r`; a stream that ends first is
/// an [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof). `len` is what a
/// length prefix *claims*, not an allocation size: the bytes are read through
/// [`Read::take`], so `buf` grows with what actually arrives and a header
/// that lies about a 64 MiB payload costs its reader nothing. Callers check
/// `len` against their cap first.
pub fn read_claimed(r: &mut impl Read, len: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    if r.take(len as u64).read_to_end(buf)? < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Append an unsigned LEB128 varint.
#[inline]
pub fn write_uv(buf: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        buf.push(v as u8);
    } else {
        write_uv_long(buf, v);
    }
}

#[cold]
fn write_uv_long(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
#[inline]
pub fn write_iv(buf: &mut Vec<u8>, v: i64) {
    write_uv(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Bounds-checked reader over one decoded payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// True once every byte has been consumed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed: an upper bound on how many varints — and so
    /// on how many elements of any claimed table — can still arrive.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// One raw byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    /// One unsigned LEB128 varint.
    #[inline]
    pub fn read_uv(&mut self) -> Result<u64, String> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.read_uv_long(),
        }
    }

    #[cold]
    fn read_uv_long(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            if shift >= 63 && b > 1 {
                return Err(format!("varint overflows u64 at byte {}", self.pos));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(format!("varint longer than 10 bytes at byte {}", self.pos));
            }
        }
    }

    /// One zigzag-encoded signed varint.
    #[inline]
    pub fn read_iv(&mut self) -> Result<i64, String> {
        let z = self.read_uv()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// An element count claimed by the payload, at most `cap`.
    fn read_count(&mut self, cap: u64, what: &str) -> Result<usize, String> {
        let n = self.read_uv()?;
        if n > cap {
            return Err(format!("{what} claims {n} (cap {cap})"));
        }
        Ok(n as usize)
    }
}

/// Coordinate-vector cap: a decoded event claiming more dimensions than
/// this is corrupt (the deepest shipped workload nests a dozen levels).
const MAX_COORDS: u64 = 1 << 12;

/// Table-size cap: a footer claiming more than this many paths, statements or
/// context elements, or a frame naming a statement id at or above it, is
/// corrupt (real workloads intern a few thousand). It also bounds the dense
/// per-statement tables a fold grows before the footer's own statement count
/// is known.
const MAX_TABLE: u64 = 1 << 20;

/// Predictor slots per frame: a direct-mapped table this size predicts as
/// many events of the ledger's recordings as an unbounded map does.
pub const SLOTS: usize = 1024;

// Opcodes — the high nibble of an event header. Any other value on decode is
// structured corruption, not a panic.
const OP_POINT: u8 = 0;
const OP_POINT_VAL: u8 = 1;
const OP_LOAD: u8 = 2;
const OP_STORE: u8 = 3;
const OP_DEP_FLOW: u8 = 4;
const OP_DEP_ANTI: u8 = 5;
const OP_DEP_OUTPUT: u8 = 6;
const OP_DEP_REG: u8 = 7;
const OP_PREDICTED: u8 = 8;

fn dep_op(kind: DepKind) -> u8 {
    match kind {
        DepKind::Flow => OP_DEP_FLOW,
        DepKind::Anti => OP_DEP_ANTI,
        DepKind::Output => OP_DEP_OUTPUT,
        DepKind::Reg => OP_DEP_REG,
    }
}

#[inline]
fn header(op: u8, slot: usize) -> [u8; 2] {
    [slot as u8, (op << 4) | (slot >> 8) as u8]
}

/// One predictor slot: a key, its latest words and its stride. `buf` holds
/// the `n` latest words followed by the `n` stride words; the first `split`
/// words are the (producer's) coordinates.
#[derive(Debug, Default, Clone)]
struct Slot {
    /// Frame generation that last filled the slot; any other is empty.
    gen: u64,
    op: u8,
    a: u32,
    b: u32,
    split: u32,
    n: u32,
    buf: Vec<i64>,
}

impl Slot {
    /// True when the slot holds this key, with this word layout, in frame
    /// `gen`.
    #[inline(always)]
    fn holds(&self, gen: u64, op: u8, a: u32, b: u32, split: usize, n: usize) -> bool {
        self.gen == gen
            && self.op == op
            && self.a == a
            && self.b == b
            && self.split as usize == split
            && self.n as usize == n
    }

    /// Step to `x ++ y` if it is the slot's latest words plus its stride
    /// (the slot holds `x ++ y`'s layout); otherwise leave the slot as it
    /// was. One pass that advances as it compares: a miss is rare, and then
    /// the step is undone.
    #[inline(always)]
    fn step_to(&mut self, x: &[i64], y: &[i64]) -> bool {
        #[inline(always)]
        fn step(w: &[i64], last: &mut [i64], stride: &[i64]) -> i64 {
            let mut miss = 0;
            for (&w, (l, &s)) in w.iter().zip(last.iter_mut().zip(stride)) {
                *l = l.wrapping_add(s);
                miss |= w ^ *l;
            }
            miss
        }
        let (last, stride) = self.buf.split_at_mut(self.n as usize);
        let k = x.len();
        let (lx, ly) = last.split_at_mut(k);
        let (sx, sy) = stride.split_at(k);
        if step(x, lx, sx) | step(y, ly, sy) == 0 {
            return true;
        }
        for (l, &s) in last.iter_mut().zip(stride.iter()) {
            *l = l.wrapping_sub(s);
        }
        false
    }

    /// Step to the predicted event: latest words += stride.
    #[inline(always)]
    fn advance(&mut self) {
        let (last, stride) = self.buf.split_at_mut(self.n as usize);
        for (l, &s) in last.iter_mut().zip(stride.iter()) {
            *l = l.wrapping_add(s);
        }
    }

    /// Make `x ++ y` the key's latest event: the stride becomes the step
    /// from the previous one when the slot already holds this key and
    /// layout in frame `gen`; otherwise the key starts afresh, stride zero.
    #[inline]
    fn record(&mut self, gen: u64, op: u8, a: u32, b: u32, x: &[i64], y: &[i64]) {
        #[inline(always)]
        fn retrain(w: &[i64], last: &mut [i64], stride: &mut [i64]) {
            for (&w, (l, s)) in w.iter().zip(last.iter_mut().zip(stride)) {
                *s = w.wrapping_sub(*l);
                *l = w;
            }
        }
        let n = x.len() + y.len();
        if self.holds(gen, op, a, b, x.len(), n) {
            let (last, stride) = self.buf.split_at_mut(n);
            let k = x.len();
            retrain(x, &mut last[..k], &mut stride[..k]);
            retrain(y, &mut last[k..], &mut stride[k..]);
        } else {
            *self = Slot {
                gen,
                op,
                a,
                b,
                split: x.len() as u32,
                n: n as u32,
                buf: std::mem::take(&mut self.buf),
            };
            self.buf.clear();
            self.buf.reserve(2 * n);
            self.buf.extend_from_slice(x);
            self.buf.extend_from_slice(y);
            self.buf.resize(2 * n, 0);
        }
    }

    /// Hand the slot's latest event to `sink`.
    #[inline]
    fn emit<S: FoldSink>(&self, sink: &mut S) {
        let (x, y) = self.buf[..self.n as usize].split_at(self.split as usize);
        let a = StmtId(self.a);
        match self.op {
            OP_POINT => sink.instr_point(a, x, None),
            OP_POINT_VAL => sink.instr_point(a, x, Some(y[0])),
            OP_LOAD | OP_STORE => sink.mem_access(a, x, y[0] as u64, self.op == OP_STORE),
            op => {
                let kind = match op {
                    OP_DEP_FLOW => DepKind::Flow,
                    OP_DEP_ANTI => DepKind::Anti,
                    OP_DEP_OUTPUT => DepKind::Output,
                    _ => DepKind::Reg,
                };
                sink.dependence(kind, a, x, StmtId(self.b), y)
            }
        }
    }
}

/// A predictor table of empty slots.
fn new_table() -> Box<[Slot; SLOTS]> {
    let slots = vec![Slot::default(); SLOTS].into_boxed_slice();
    slots.try_into().expect("SLOTS slots")
}

/// Encodes events into one frame payload as they arrive (see the module
/// docs for the layout). A [`FoldSink`], so anything that emits the folding
/// interface can be recorded; [`reset`](Self::reset) starts the next frame.
#[derive(Debug)]
pub struct FrameEncoder {
    payload: Vec<u8>,
    slots: Box<[Slot; SLOTS]>,
    /// Current frame's generation (slots stamped with another are empty).
    gen: u64,
    /// Statement id of the previous full event.
    prev_stmt: u32,
    /// Words of the previous full event.
    prev: Vec<i64>,
    events: u64,
}

impl Default for FrameEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameEncoder {
    /// An encoder at the start of an empty frame.
    pub fn new() -> Self {
        FrameEncoder {
            payload: Vec::new(),
            slots: new_table(),
            gen: 1,
            prev_stmt: 0,
            prev: Vec::new(),
            events: 0,
        }
    }

    /// The current frame's payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Events in the current frame.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Start a new, empty frame; buffers keep their capacity.
    pub fn reset(&mut self) {
        self.payload.clear();
        self.gen += 1;
        self.prev_stmt = 0;
        self.prev.clear();
        self.events = 0;
    }

    /// The encoder's slot for a key: a multiplicative hash, top bits.
    #[inline]
    fn slot_of(op: u8, a: u32, b: u32) -> usize {
        let key = (a as u64) | ((b as u64) << 32) | ((op as u64) << 60);
        (key.wrapping_mul(GOLDEN) >> (64 - SLOTS.trailing_zeros())) as usize
    }

    /// Encode one event: two bytes when its slot predicts it.
    #[inline(always)]
    fn push(&mut self, op: u8, a: u32, b: u32, x: &[i64], y: &[i64]) {
        self.events += 1;
        let slot = Self::slot_of(op, a, b);
        let s = &mut self.slots[slot];
        if s.holds(self.gen, op, a, b, x.len(), x.len() + y.len()) && s.step_to(x, y) {
            self.payload.extend_from_slice(&header(OP_PREDICTED, slot));
        } else {
            self.push_full(op, a, b, slot, x, y);
        }
    }

    /// Spell the event out and make it its slot's latest.
    #[inline(never)]
    fn push_full(&mut self, op: u8, a: u32, b: u32, slot: usize, x: &[i64], y: &[i64]) {
        let n = x.len() + y.len();
        self.slots[slot].record(self.gen, op, a, b, x, y);
        let buf = &mut self.payload;
        buf.extend_from_slice(&header(op, slot));
        write_iv(buf, a as i64 - self.prev_stmt as i64);
        self.prev_stmt = a;
        write_uv(buf, x.len() as u64);
        if op >= OP_DEP_FLOW {
            write_iv(buf, b as i64 - a as i64);
            write_uv(buf, y.len() as u64);
        }
        self.prev.resize(n, 0);
        let (px, py) = self.prev.split_at_mut(x.len());
        for (p, &w) in px.iter_mut().zip(x).chain(py.iter_mut().zip(y)) {
            write_iv(buf, w.wrapping_sub(*p));
            *p = w;
        }
    }
}

impl FoldSink for FrameEncoder {
    #[inline]
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        match value {
            Some(v) => self.push(OP_POINT_VAL, stmt.0, 0, coords, &[v]),
            None => self.push(OP_POINT, stmt.0, 0, coords, &[]),
        }
    }

    #[inline]
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        let op = if is_write { OP_STORE } else { OP_LOAD };
        self.push(op, stmt.0, 0, coords, &[addr as i64]);
    }

    #[inline]
    fn dependence(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        self.push(dep_op(kind), src.0, dst.0, src_coords, dst_coords);
    }
}

/// Decodes frame payloads straight into a [`FoldSink`]. One per reader: the
/// predictor table and the delta buffer are scratch kept across frames, so
/// decoding allocates nothing once they have grown to the stream's widest
/// event — and never more than the payload could spell.
#[derive(Debug)]
pub struct FrameDecoder {
    slots: Box<[Slot; SLOTS]>,
    gen: u64,
    prev: Vec<i64>,
    /// One past the largest statement id emitted so far.
    stmt_end: u64,
    predicted: u64,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder that has seen no frame.
    pub fn new() -> Self {
        FrameDecoder {
            slots: new_table(),
            gen: 0,
            prev: Vec::new(),
            stmt_end: 0,
            predicted: 0,
        }
    }

    /// One past the largest statement id any decoded event named: the
    /// statement table a recording's fold needs has at least this many rows.
    pub fn stmt_end(&self) -> u64 {
        self.stmt_end
    }

    /// Predicted events decoded so far, over all frames.
    pub fn predicted(&self) -> u64 {
        self.predicted
    }

    /// Decode one frame payload into `sink`, in recorded order. Returns the
    /// number of events. On `Err` the sink has seen a prefix of the frame.
    pub fn decode<S: FoldSink>(&mut self, payload: &[u8], sink: &mut S) -> Result<u64, String> {
        self.gen += 1;
        self.prev.clear();
        let mut prev_stmt = 0u32;
        let mut cur = Cursor::new(payload);
        let mut n = 0u64;
        while let Some(h) = payload.get(cur.pos..cur.pos + 2) {
            cur.pos += 2;
            let (op, slot) = (h[1] >> 4, ((h[1] as usize & 0x0f) << 8) | h[0] as usize);
            let Some(s) = self.slots.get_mut(slot) else {
                return Err(format!("event {n} names slot {slot} of {SLOTS}"));
            };
            if op == OP_PREDICTED {
                if s.gen != self.gen {
                    return Err(format!(
                        "event {n} predicts from slot {slot}, not filled in this frame"
                    ));
                }
                s.advance();
                self.predicted += 1;
            } else {
                let is_dep = match op {
                    OP_POINT | OP_POINT_VAL | OP_LOAD | OP_STORE => false,
                    OP_DEP_FLOW..=OP_DEP_REG => true,
                    other => return Err(format!("unknown event opcode {other}")),
                };
                let a = read_stmt(&mut cur, prev_stmt)?;
                prev_stmt = a;
                let split = cur.read_count(MAX_COORDS, "coordinate vector")?;
                let (b, rest) = if is_dep {
                    let b = read_stmt(&mut cur, a)?;
                    (b, cur.read_count(MAX_COORDS, "coordinate vector")?)
                } else {
                    (0, usize::from(op != OP_POINT))
                };
                let words = split + rest;
                // Every word takes at least a byte: a count the payload
                // cannot back is corrupt before anything is sized by it.
                if words > cur.remaining() {
                    return Err(format!(
                        "event {n} claims {words} words with {} bytes left",
                        cur.remaining()
                    ));
                }
                self.prev.resize(words, 0);
                for p in self.prev.iter_mut() {
                    *p = p.wrapping_add(cur.read_iv()?);
                }
                let (x, y) = self.prev.split_at(split);
                s.record(self.gen, op, a, b, x, y);
                self.stmt_end = self.stmt_end.max(a.max(b) as u64 + 1);
            }
            s.emit(sink);
            n += 1;
        }
        if !cur.is_done() {
            return Err(format!("payload truncated at byte {}", cur.pos));
        }
        Ok(n)
    }

    /// Words of scratch held (delta buffer plus every slot), for the
    /// hostile-input bound.
    #[cfg(test)]
    fn held_words(&self) -> usize {
        self.prev.capacity() + self.slots.iter().map(|s| s.buf.capacity()).sum::<usize>()
    }
}

/// A statement id, zigzag-delta-coded against `base`, below [`MAX_TABLE`].
#[inline]
fn read_stmt(cur: &mut Cursor, base: u32) -> Result<u32, String> {
    let v = (base as i64).wrapping_add(cur.read_iv()?);
    if !(0..MAX_TABLE as i64).contains(&v) {
        return Err(format!("statement id {v} out of range"));
    }
    Ok(v as u32)
}

// Context-element tags of the footer's statement table.
const CTX_BLOCK: u8 = 0;
const CTX_LOOP_CFG: u8 = 1;
const CTX_LOOP_REC: u8 = 2;

fn write_block_ref(buf: &mut Vec<u8>, b: BlockRef) {
    write_uv(buf, b.func.0 as u64);
    write_uv(buf, b.block.0 as u64);
}

fn read_u32(cur: &mut Cursor) -> Result<u32, String> {
    let v = cur.read_uv()?;
    u32::try_from(v).map_err(|_| format!("id {v} exceeds u32"))
}

fn read_block_ref(cur: &mut Cursor) -> Result<BlockRef, String> {
    Ok(BlockRef {
        func: FuncId(read_u32(cur)?),
        block: LocalBlockId(read_u32(cur)?),
    })
}

/// Serialize the interner's statement table (context paths + statements)
/// into the footer payload. Replay reconstructs the interner from this, so
/// offline finalization can classify SCEVs without re-running the VM.
pub fn encode_interner(buf: &mut Vec<u8>, interner: &ContextInterner) {
    write_uv(buf, interner.n_paths() as u64);
    for p in 0..interner.n_paths() {
        let stacks = interner.path(CtxPathId(p as u32));
        write_uv(buf, stacks.len() as u64);
        for stack in stacks {
            write_uv(buf, stack.len() as u64);
            for elem in stack {
                match *elem {
                    CtxElem::Block(b) => {
                        buf.push(CTX_BLOCK);
                        write_block_ref(buf, b);
                    }
                    CtxElem::Loop(LoopRef::Cfg(f, l)) => {
                        buf.push(CTX_LOOP_CFG);
                        write_uv(buf, f.0 as u64);
                        write_uv(buf, l.0 as u64);
                    }
                    CtxElem::Loop(LoopRef::Rec(r)) => {
                        buf.push(CTX_LOOP_REC);
                        write_uv(buf, r.0 as u64);
                    }
                }
            }
        }
    }
    write_uv(buf, interner.n_stmts() as u64);
    for (_, info) in interner.stmts() {
        write_uv(buf, info.path.0 as u64);
        write_block_ref(buf, info.instr.block);
        write_uv(buf, info.instr.idx as u64);
        write_uv(buf, info.depth as u64);
    }
}

/// Interner parts as stored in the footer: per-path per-dimension context
/// stacks, plus the statement table.
pub type InternerParts = (Vec<Vec<Vec<CtxElem>>>, Vec<StmtInfo>);

/// Room for a table the payload claims holds `n` elements: every element
/// takes at least a byte, so no more than the bytes left can arrive.
fn claimed<T>(n: usize, cur: &Cursor) -> Vec<T> {
    Vec::with_capacity(n.min(cur.remaining()))
}

/// Decode the footer's statement table back into interner parts.
pub fn decode_interner(cur: &mut Cursor) -> Result<InternerParts, String> {
    let n_paths = cur.read_count(MAX_TABLE, "statement table's path count")?;
    let mut paths = claimed(n_paths, cur);
    for _ in 0..n_paths {
        let n_dims = cur.read_count(MAX_COORDS, "context path's dimension count")?;
        let mut stacks = claimed(n_dims, cur);
        for _ in 0..n_dims {
            let n_elems = cur.read_count(MAX_TABLE, "context stack's element count")?;
            let mut stack = claimed(n_elems, cur);
            for _ in 0..n_elems {
                let elem = match cur.read_u8()? {
                    CTX_BLOCK => CtxElem::Block(read_block_ref(cur)?),
                    CTX_LOOP_CFG => CtxElem::Loop(LoopRef::Cfg(
                        FuncId(read_u32(cur)?),
                        LoopIdx(read_u32(cur)?),
                    )),
                    CTX_LOOP_REC => CtxElem::Loop(LoopRef::Rec(RecCompIdx(read_u32(cur)?))),
                    other => return Err(format!("unknown context-element tag {other}")),
                };
                stack.push(elem);
            }
            stacks.push(stack);
        }
        paths.push(stacks);
    }
    let n_stmts = cur.read_count(MAX_TABLE, "statement table's statement count")?;
    let mut stmts = claimed(n_stmts, cur);
    for _ in 0..n_stmts {
        let path = CtxPathId(read_u32(cur)?);
        if path.0 as usize >= n_paths {
            return Err(format!("statement references path {} of {n_paths}", path.0));
        }
        let block = read_block_ref(cur)?;
        let idx = read_u32(cur)?;
        let depth = cur.read_count(MAX_COORDS, "statement depth")?;
        stmts.push(StmtInfo {
            path,
            instr: InstrRef { block, idx },
            depth,
        });
    }
    Ok((paths, stmts))
}

/// Pass 1's output as the structure section stores it: per executed
/// function its dynamic CFG, and the dynamic call-graph edges — what
/// `StructureRecorder::into_graphs` returns.
pub type Graphs = (BTreeMap<FuncId, DynCfg>, BTreeSet<(FuncId, FuncId)>);

/// Serialize pass 1's graphs into the structure-section payload: the
/// function count, then per function (ascending) its id, its block count and
/// blocks, its edge count and edges; then the call-graph edge count and
/// edges. Every id is an unsigned varint.
pub fn encode_structure(
    buf: &mut Vec<u8>,
    cfgs: &BTreeMap<FuncId, DynCfg>,
    cg: &BTreeSet<(FuncId, FuncId)>,
) {
    write_uv(buf, cfgs.len() as u64);
    for (f, cfg) in cfgs {
        write_uv(buf, f.0 as u64);
        write_uv(buf, cfg.blocks.len() as u64);
        for b in &cfg.blocks {
            write_uv(buf, b.0 as u64);
        }
        write_uv(buf, cfg.edges.len() as u64);
        for (from, to) in &cfg.edges {
            write_uv(buf, from.0 as u64);
            write_uv(buf, to.0 as u64);
        }
    }
    write_uv(buf, cg.len() as u64);
    for (caller, callee) in cg {
        write_uv(buf, caller.0 as u64);
        write_uv(buf, callee.0 as u64);
    }
}

/// Decode a structure-section payload back into pass 1's graphs. Checks the
/// encoding only (counts, varints, no function listed twice, no trailing
/// bytes); whether the ids exist in a program is
/// [`check_structure`](crate::check_structure)'s question.
pub fn decode_structure(cur: &mut Cursor) -> Result<Graphs, String> {
    let n_funcs = cur.read_count(MAX_TABLE, "structure's function count")?;
    let mut cfgs = BTreeMap::new();
    for _ in 0..n_funcs {
        let f = FuncId(read_u32(cur)?);
        let n_blocks = cur.read_count(MAX_TABLE, "function's block count")?;
        let mut cfg = DynCfg::default();
        for _ in 0..n_blocks {
            cfg.blocks.insert(LocalBlockId(read_u32(cur)?));
        }
        let n_edges = cur.read_count(MAX_TABLE, "function's edge count")?;
        for _ in 0..n_edges {
            let from = LocalBlockId(read_u32(cur)?);
            cfg.edges.insert((from, LocalBlockId(read_u32(cur)?)));
        }
        if cfgs.insert(f, cfg).is_some() {
            return Err(format!("structure lists function {} twice", f.0));
        }
    }
    let n_cg = cur.read_count(MAX_TABLE, "structure's call-edge count")?;
    let mut cg = BTreeSet::new();
    for _ in 0..n_cg {
        let caller = FuncId(read_u32(cur)?);
        cg.insert((caller, FuncId(read_u32(cur)?)));
    }
    if !cur.is_done() {
        return Err("structure section has trailing bytes".into());
    }
    Ok((cfgs, cg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyddg::chunk::EventChunk;
    use std::cell::Cell;

    /// Encode one chunk as a frame payload.
    fn encode_chunk(chunk: &EventChunk, buf: &mut Vec<u8>) {
        let mut enc = FrameEncoder::new();
        chunk.replay_into(&mut enc);
        buf.extend_from_slice(enc.payload());
    }

    /// Decode one frame payload into `chunk` (cleared first).
    fn decode_chunk(payload: &[u8], chunk: &mut EventChunk) -> Result<u64, String> {
        chunk.clear();
        FrameDecoder::new().decode(payload, chunk)
    }

    fn rendered(chunk: &EventChunk) -> Vec<String> {
        chunk.events().map(|e| format!("{e:?}")).collect()
    }

    /// SplitMix64: seeded, dependency-free randomness for the properties.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(GOLDEN);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Mostly small values, sometimes large, sometimes the extremes.
        fn word(&mut self) -> i64 {
            match self.below(8) {
                0 => [i64::MIN, i64::MAX, -1, 0][self.below(4) as usize],
                1 => self.next() as i64,
                _ => self.below(64) as i64 - 16,
            }
        }

        fn words(&mut self, max_len: u64) -> Vec<i64> {
            let len = self.below(max_len + 1);
            (0..len).map(|_| self.word()).collect()
        }
    }

    /// One call of the folding interface, replayable into any sink.
    #[derive(Clone, Debug)]
    enum Ev {
        Point(u32, Vec<i64>, Option<i64>),
        Access(u32, Vec<i64>, u64, bool),
        Dep(DepKind, u32, Vec<i64>, u32, Vec<i64>),
    }

    impl Ev {
        fn feed<S: FoldSink>(&self, sink: &mut S) {
            match self {
                Ev::Point(s, c, v) => sink.instr_point(StmtId(*s), c, *v),
                Ev::Access(s, c, a, w) => sink.mem_access(StmtId(*s), c, *a, *w),
                Ev::Dep(k, s, sc, d, dc) => sink.dependence(*k, StmtId(*s), sc, StmtId(*d), dc),
            }
        }

        fn random(rng: &mut Rng) -> Ev {
            let stmt = rng.below(12) as u32;
            let kinds = [DepKind::Flow, DepKind::Anti, DepKind::Output, DepKind::Reg];
            match rng.below(8) {
                0 => Ev::Point(stmt, rng.words(6), None),
                1 => Ev::Point(stmt, rng.words(6), Some(rng.word())),
                2 | 3 => Ev::Access(stmt, rng.words(6), rng.word() as u64, rng.below(2) == 1),
                k => Ev::Dep(
                    kinds[k as usize - 4],
                    stmt,
                    rng.words(5),
                    rng.below(12) as u32,
                    rng.words(7),
                ),
            }
        }

        /// This event moved `k` steps along a per-word stride.
        fn step(&self, k: i64, stride: &[i64]) -> Ev {
            let mut i = 0;
            let mut mv = |w: i64| {
                let s = stride[i % stride.len()];
                i += 1;
                w.wrapping_add(s.wrapping_mul(k))
            };
            match self {
                Ev::Point(s, c, v) => {
                    Ev::Point(*s, c.iter().map(|&w| mv(w)).collect(), v.map(&mut mv))
                }
                Ev::Access(s, c, a, w) => Ev::Access(
                    *s,
                    c.iter().map(|&w| mv(w)).collect(),
                    mv(*a as i64) as u64,
                    *w,
                ),
                Ev::Dep(kind, s, sc, d, dc) => Ev::Dep(
                    *kind,
                    *s,
                    sc.iter().map(|&w| mv(w)).collect(),
                    *d,
                    dc.iter().map(|&w| mv(w)).collect(),
                ),
            }
        }
    }

    /// A stream that exercises every path of the predictor: random events of
    /// all eight kinds, strided runs broken at every position (by a changed
    /// word or a changed arity), and two keys forced onto one slot.
    fn stream(rng: &mut Rng) -> Vec<Ev> {
        let mut out: Vec<Ev> = (0..40).map(|_| Ev::random(rng)).collect();
        for _ in 0..4 {
            let base = Ev::random(rng);
            let stride: Vec<i64> = (0..3).map(|_| rng.word()).collect();
            let len = 2 + rng.below(6) as i64;
            for brk in 0..len {
                for k in 0..len {
                    let mut ev = base.step(k, &stride);
                    if k == brk {
                        match &mut ev {
                            Ev::Point(_, c, _)
                            | Ev::Access(_, c, _, _)
                            | Ev::Dep(_, _, c, _, _) => {
                                if rng.below(2) == 0 {
                                    c.push(rng.word());
                                } else if let Some(w) = c.first_mut() {
                                    *w = w.wrapping_add(1);
                                }
                            }
                        }
                    }
                    out.push(ev);
                }
            }
        }
        // Two point keys that hash to one slot, alternating: each evicts the
        // other, so neither may ever be predicted from the other's state.
        let slot = FrameEncoder::slot_of(OP_POINT, 0, 0);
        let other = (1..)
            .find(|&s| FrameEncoder::slot_of(OP_POINT, s, 0) == slot)
            .expect("a colliding statement exists");
        for i in 0..6 {
            out.push(Ev::Point(0, vec![i], None));
            out.push(Ev::Point(other, vec![i], None));
        }
        out
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        let us = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX];
        let is = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &us {
            write_uv(&mut buf, v);
        }
        for &v in &is {
            write_iv(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &us {
            assert_eq!(cur.read_uv().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(cur.read_iv().unwrap(), v);
        }
        assert!(cur.is_done());
    }

    #[test]
    fn chunk_codec_roundtrips_all_event_kinds() {
        let mut c = EventChunk::with_capacity(8);
        c.push_point(StmtId(3), &[0, 1], Some(-7));
        c.push_point(StmtId(3), &[0, 2], None);
        c.push_access(StmtId(4), &[0, 2], 1000, false);
        c.push_access(StmtId(4), &[0, 3], 1001, true);
        c.push_dep(DepKind::Flow, StmtId(3), &[0, 1], StmtId(4), &[0, 2]);
        c.push_dep(DepKind::Reg, StmtId(1), &[i64::MIN], StmtId(2), &[i64::MAX]);
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        let mut back = EventChunk::default();
        assert_eq!(decode_chunk(&buf, &mut back).unwrap(), 6);
        let orig: Vec<String> = c.events().map(|e| format!("{e:?}")).collect();
        let got: Vec<String> = back.events().map(|e| format!("{e:?}")).collect();
        assert_eq!(orig, got);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut c = EventChunk::with_capacity(2);
        c.push_point(StmtId(1), &[5, 6, 7], Some(9));
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        let mut back = EventChunk::default();
        for cut in 1..buf.len() {
            assert!(
                decode_chunk(&buf[..cut], &mut back).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// Seeded random streams, cut into frames at random points, decode to
    /// exactly the calls that built them — compared with an `EventChunk` fed
    /// the same calls — through one decoder reused across frames.
    #[test]
    fn random_streams_roundtrip_event_for_event() {
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let events = stream(&mut rng);
            let mut enc = FrameEncoder::new();
            let mut dec = FrameDecoder::new();
            let (mut want, mut got) = (EventChunk::default(), EventChunk::default());
            let mut flush = |enc: &mut FrameEncoder, got: &mut EventChunk| {
                let n = dec.decode(enc.payload(), got).expect("own frame decodes");
                assert_eq!(n, enc.events(), "seed {seed}");
                enc.reset();
            };
            for ev in &events {
                ev.feed(&mut enc);
                ev.feed(&mut want);
                if rng.below(50) == 0 {
                    flush(&mut enc, &mut got);
                }
            }
            flush(&mut enc, &mut got);
            assert_eq!(rendered(&want), rendered(&got), "seed {seed}");
            assert!(dec.predicted() > 0, "seed {seed}: no run was predicted");
        }
    }

    /// A strided stream is spelled almost entirely in two-byte predictions.
    #[test]
    fn strided_events_cost_two_bytes() {
        let mut enc = FrameEncoder::new();
        for i in 0..1000i64 {
            enc.instr_point(StmtId(7), &[0, i], Some(3 * i));
            enc.mem_access(StmtId(8), &[0, i], 4096 + 2 * i as u64, false);
            enc.dependence(DepKind::Flow, StmtId(7), &[0, i], StmtId(8), &[0, i]);
        }
        assert!(
            enc.payload().len() < 2 * 3000 + 64,
            "{}",
            enc.payload().len()
        );
        let mut dec = FrameDecoder::new();
        assert_eq!(
            dec.decode(enc.payload(), &mut EventChunk::default()),
            Ok(3000)
        );
        assert_eq!(dec.predicted(), 3000 - 6);
    }

    /// Slot indices past the table, predictions from slots empty in this
    /// frame (even when an earlier frame filled them) and unknown opcodes
    /// are errors, never a panic or a made-up event.
    #[test]
    fn bad_slots_and_opcodes_are_errors() {
        let mut enc = FrameEncoder::new();
        enc.instr_point(StmtId(2), &[1], None);
        let full = enc.payload().to_vec();
        let slot = FrameEncoder::slot_of(OP_POINT, 2, 0);
        let mut dec = FrameDecoder::new();
        let mut sink = EventChunk::default();
        assert_eq!(dec.decode(&full, &mut sink), Ok(1));
        let cases: [(Vec<u8>, &str); 4] = [
            (header(OP_PREDICTED, slot).to_vec(), "not filled"),
            (header(OP_PREDICTED, SLOTS).to_vec(), "names slot"),
            (
                [full.clone(), header(OP_PREDICTED, 0xfff).to_vec()].concat(),
                "names slot",
            ),
            ([full.clone(), header(9, slot).to_vec()].concat(), "opcode"),
        ];
        for (payload, want) in cases {
            sink.clear();
            let err = dec.decode(&payload, &mut sink).unwrap_err();
            assert!(err.contains(want), "{payload:?}: {err}");
        }
    }

    /// The sum sees every single-bit flip, and differs from FNV-1a.
    #[test]
    fn frame_checksum_sees_every_bit_flip() {
        for len in [0usize, 1, 7, 8, 9, 23] {
            let mut bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let sum = frame_checksum(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_checksum(&bytes), sum, "len {len} bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            bytes.push(0);
            assert_ne!(frame_checksum(&bytes), sum, "len {len} + a zero byte");
        }
        assert_ne!(frame_checksum(b"abc"), fnv1a(b"abc"));
    }

    thread_local! {
        static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
    }

    /// Records the largest single allocation of the calling thread, so a
    /// test can show a decoder reserved only what arrived.
    struct PeakAlloc;

    // SAFETY: forwards every call unchanged to the system allocator; the
    // thread-local bookkeeping neither allocates nor unwinds.
    unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, l: std::alloc::Layout) -> *mut u8 {
            let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(l.size())));
            std::alloc::System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: std::alloc::Layout) {
            std::alloc::System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: std::alloc::Layout, size: usize) -> *mut u8 {
            let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
            std::alloc::System.realloc(p, l, size)
        }
    }

    #[global_allocator]
    static PEAK: PeakAlloc = PeakAlloc;

    /// Each of the footer's four claimed counts — paths, a path's
    /// dimensions, a stack's elements, statements — at its cap with a few
    /// bytes behind it is an error that reserved only what arrived.
    #[test]
    fn lying_footer_counts_allocate_only_what_arrives() {
        // What precedes each claim: nothing (the path count); one path (its
        // dimension count); one path of one dimension (its element count);
        // one path holding one block element (the statement count).
        let claims: [(&[u8], u64); 4] = [
            (&[], MAX_TABLE),
            (&[1], MAX_COORDS),
            (&[1, 1], MAX_TABLE),
            (&[1, 1, 1, CTX_BLOCK, 0, 0], MAX_TABLE),
        ];
        for (prefix, claim) in claims {
            let mut payload = prefix.to_vec();
            write_uv(&mut payload, claim);
            payload.extend_from_slice(&[0, 0, 0]);
            LARGEST_ALLOC.with(|m| m.set(0));
            let err = decode_interner(&mut Cursor::new(&payload)).unwrap_err();
            let largest = LARGEST_ALLOC.with(Cell::get);
            assert!(
                largest < 4096,
                "{prefix:?}: reserved {largest} bytes ({err})"
            );
        }
        // One path of no dimensions, one statement on it whose depth lies.
        let mut deep = vec![1, 0, 1, 0, 0, 0, 0];
        write_uv(&mut deep, MAX_COORDS + 1);
        let err = decode_interner(&mut Cursor::new(&deep)).unwrap_err();
        assert!(err.contains("depth"), "{err}");
    }

    /// 10 000 seeded random payloads shaped like frames — valid and invalid
    /// opcodes, slots in and past the table and empty, huge word counts,
    /// raw noise — each framed with a valid checksum and read back, never
    /// panic, and the decoder's scratch stays within a small multiple of the
    /// payload it was given. So do 10 000 shaped like structure sections —
    /// counts small and at the cap, ids in and far past a small program,
    /// noise — read back and checked against that program.
    #[test]
    fn random_payloads_never_panic_and_stay_bounded() {
        use crate::{check_structure, TraceReader, TraceWriter, TAG_FRAME, TAG_STRUCTURE};
        use polycfg::StaticStructure;
        use std::io::Cursor as IoCursor;
        let mut head = Vec::new();
        TraceWriter::new(
            IoCursor::new(&mut head),
            "<mem>".into(),
            0,
            "fuzz",
            4,
            &StaticStructure::default(),
        )
        .unwrap();
        let framed = |head: &[u8], tag: u8, payload: &[u8]| {
            let mut file = head.to_vec();
            file.push(tag);
            file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            file.extend_from_slice(payload);
            file.extend_from_slice(&frame_checksum(payload).to_le_bytes());
            file
        };
        let mut rng = Rng(0x5eed);
        // Two functions of three empty blocks each.
        let prog = {
            let block = polyir::Block {
                name: String::new(),
                instrs: Vec::new(),
                term: polyir::Terminator::Ret(None),
                src_line: 0,
            };
            let func = polyir::Function {
                name: "f".into(),
                n_params: 0,
                n_regs: 0,
                blocks: vec![block; 3],
                src_file: String::new(),
            };
            polyir::Program {
                funcs: vec![func; 2],
                entry: Some(FuncId(0)),
                ..polyir::Program::default()
            }
        };
        let bare_header = &head[..44 + "fuzz".len()];
        for _ in 0..10_000 {
            let mut payload = Vec::new();
            for _ in 0..rng.below(12) {
                match rng.below(6) {
                    0 => payload.extend((0..rng.below(6)).map(|_| rng.next() as u8)),
                    1 => write_uv(&mut payload, MAX_TABLE + rng.below(2)),
                    2 => write_uv(&mut payload, rng.next() >> rng.below(64)),
                    _ => write_uv(&mut payload, rng.below(4)),
                }
            }
            let file = framed(bare_header, TAG_STRUCTURE, &payload);
            if let Ok(mut r) = TraceReader::new(IoCursor::new(&file[..]), "<mem>".into()) {
                let graphs = r.take_structure();
                if check_structure(&prog, &graphs).is_ok() {
                    let (cfgs, cg) = graphs;
                    StaticStructure::from_graphs(&prog, cfgs, cg);
                }
            }
        }
        let mut chunk = EventChunk::default();
        for _ in 0..10_000 {
            let mut payload = Vec::new();
            for _ in 0..rng.below(6) {
                match rng.below(4) {
                    0 => payload.extend((0..rng.below(12)).map(|_| rng.next() as u8)),
                    _ => {
                        let op = [0, 1, 2, 4, 7, 8, 8, 9, 15][rng.below(9) as usize];
                        let slot = [0, 1, 1023, 1024, 4095][rng.below(5) as usize];
                        payload.extend_from_slice(&header(op, slot));
                        for _ in 0..rng.below(5) {
                            match rng.below(3) {
                                0 => write_uv(&mut payload, rng.next() >> rng.below(64)),
                                1 => write_uv(&mut payload, MAX_COORDS),
                                _ => write_iv(&mut payload, rng.word()),
                            }
                        }
                    }
                }
            }
            let file = framed(&head, TAG_FRAME, &payload);
            let mut r = TraceReader::new(IoCursor::new(&file[..]), "<mem>".into()).unwrap();
            let _ = r.next_chunk(&mut chunk);
            assert!(
                r.dec.held_words() <= 8 * payload.len(),
                "{} words held for {} bytes",
                r.dec.held_words(),
                payload.len()
            );
        }
    }
}
