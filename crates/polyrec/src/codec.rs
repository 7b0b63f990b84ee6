//! Wire primitives of the `.ptrace` format: LEB128 varints, zigzag signed
//! encoding, FNV-1a checksums, and the frame/footer payload codecs.
//!
//! Every frame decodes independently: the per-frame delta state (previous
//! statement id, previous coordinate vector, previous address) resets at
//! each frame boundary, so a reader can recover from any frame start and a
//! single corrupted frame never poisons its neighbours' decode state.

use polycfg::{LoopIdx, LoopRef, RecCompIdx};
use polyddg::chunk::{EventChunk, EventRef};
use polyddg::DepKind;
use polyiiv::context::{ContextInterner, CtxPathId, StmtId, StmtInfo};
use polyiiv::CtxElem;
use polyir::{BlockRef, FuncId, InstrRef, LocalBlockId};
use std::io::Read;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64: feed bytes with [`Fnv1a::write`] (or text through
/// [`std::fmt::Write`]), read the hash with [`Fnv1a::finish`]. The one
/// implementation behind frame checksums, [`program_hash`](crate::program_hash),
/// the server's cache keys and the replay-gate fixture key.
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

/// FNV-1a 64 over a byte slice (frame and footer checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
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
pub fn write_uv(buf: &mut Vec<u8>, mut v: u64) {
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
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// One raw byte.
    pub fn read_u8(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    /// One unsigned LEB128 varint.
    pub fn read_uv(&mut self) -> Result<u64, String> {
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
    pub fn read_iv(&mut self) -> Result<i64, String> {
        let z = self.read_uv()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

/// Coordinate-vector cap: a decoded event claiming more dimensions than
/// this is corrupt (the deepest shipped workload nests a dozen levels).
const MAX_COORDS: u64 = 1 << 12;

// Event opcodes — one per fold-interface event shape. Any unknown opcode on
// decode is structured corruption, not a panic.
const OP_POINT: u8 = 0;
const OP_POINT_VAL: u8 = 1;
const OP_LOAD: u8 = 2;
const OP_STORE: u8 = 3;
const OP_DEP_FLOW: u8 = 4;
const OP_DEP_ANTI: u8 = 5;
const OP_DEP_OUTPUT: u8 = 6;
const OP_DEP_REG: u8 = 7;

fn dep_op(kind: DepKind) -> u8 {
    match kind {
        DepKind::Flow => OP_DEP_FLOW,
        DepKind::Anti => OP_DEP_ANTI,
        DepKind::Output => OP_DEP_OUTPUT,
        DepKind::Reg => OP_DEP_REG,
    }
}

/// Per-frame delta-coding state; resets at every frame boundary.
#[derive(Default)]
struct DeltaState {
    stmt: u32,
    coords: Vec<i64>,
    addr: u64,
}

impl DeltaState {
    fn write_stmt(&mut self, buf: &mut Vec<u8>, stmt: StmtId) {
        write_iv(buf, stmt.0 as i64 - self.stmt as i64);
        self.stmt = stmt.0;
    }

    fn read_stmt(&mut self, cur: &mut Cursor) -> Result<StmtId, String> {
        let v = self.stmt as i64 + cur.read_iv()?;
        let id = u32::try_from(v).map_err(|_| format!("statement id {v} out of range"))?;
        self.stmt = id;
        Ok(StmtId(id))
    }

    /// Coordinates delta-coded against the previous vector (missing previous
    /// dimensions delta against 0); wrapping arithmetic keeps the roundtrip
    /// lossless at the i64 extremes.
    fn write_coords(&mut self, buf: &mut Vec<u8>, coords: &[i64]) {
        write_uv(buf, coords.len() as u64);
        for (i, &c) in coords.iter().enumerate() {
            let prev = self.coords.get(i).copied().unwrap_or(0);
            write_iv(buf, c.wrapping_sub(prev));
        }
        self.coords.clear();
        self.coords.extend_from_slice(coords);
    }

    fn read_coords(&mut self, cur: &mut Cursor, out: &mut Vec<i64>) -> Result<(), String> {
        let n = cur.read_uv()?;
        if n > MAX_COORDS {
            return Err(format!("coordinate vector of {n} dimensions is corrupt"));
        }
        out.clear();
        for i in 0..n as usize {
            let prev = self.coords.get(i).copied().unwrap_or(0);
            out.push(prev.wrapping_add(cur.read_iv()?));
        }
        self.coords.clear();
        self.coords.extend_from_slice(out);
        Ok(())
    }

    fn write_addr(&mut self, buf: &mut Vec<u8>, addr: u64) {
        write_iv(buf, addr.wrapping_sub(self.addr) as i64);
        self.addr = addr;
    }

    fn read_addr(&mut self, cur: &mut Cursor) -> Result<u64, String> {
        let addr = self.addr.wrapping_add(cur.read_iv()? as u64);
        self.addr = addr;
        Ok(addr)
    }
}

/// Encode one chunk as a frame payload.
pub fn encode_chunk(chunk: &EventChunk, buf: &mut Vec<u8>) {
    let mut st = DeltaState::default();
    for ev in chunk.events() {
        match ev {
            EventRef::Point {
                stmt,
                coords,
                value,
            } => {
                buf.push(if value.is_some() {
                    OP_POINT_VAL
                } else {
                    OP_POINT
                });
                st.write_stmt(buf, stmt);
                st.write_coords(buf, coords);
                if let Some(v) = value {
                    write_iv(buf, v);
                }
            }
            EventRef::Access {
                stmt,
                coords,
                addr,
                is_write,
            } => {
                buf.push(if is_write { OP_STORE } else { OP_LOAD });
                st.write_stmt(buf, stmt);
                st.write_coords(buf, coords);
                st.write_addr(buf, addr);
            }
            EventRef::Dep {
                kind,
                src,
                src_coords,
                dst,
                dst_coords,
            } => {
                buf.push(dep_op(kind));
                // src deltas against the running state, dst against src —
                // producer and consumer coordinates share long prefixes.
                st.write_stmt(buf, src);
                st.write_coords(buf, src_coords);
                st.write_stmt(buf, dst);
                st.write_coords(buf, dst_coords);
            }
        }
    }
}

/// Decode one frame payload into `chunk` (cleared first). Returns the
/// number of decoded events.
pub fn decode_chunk(payload: &[u8], chunk: &mut EventChunk) -> Result<u64, String> {
    chunk.clear();
    let mut cur = Cursor::new(payload);
    let mut st = DeltaState::default();
    let mut scratch: Vec<i64> = Vec::new();
    let mut scratch2: Vec<i64> = Vec::new();
    let mut n = 0u64;
    while !cur.is_done() {
        let op = cur.read_u8()?;
        match op {
            OP_POINT | OP_POINT_VAL => {
                let stmt = st.read_stmt(&mut cur)?;
                st.read_coords(&mut cur, &mut scratch)?;
                let value = if op == OP_POINT_VAL {
                    Some(cur.read_iv()?)
                } else {
                    None
                };
                chunk.push_point(stmt, &scratch, value);
            }
            OP_LOAD | OP_STORE => {
                let stmt = st.read_stmt(&mut cur)?;
                st.read_coords(&mut cur, &mut scratch)?;
                let addr = st.read_addr(&mut cur)?;
                chunk.push_access(stmt, &scratch, addr, op == OP_STORE);
            }
            OP_DEP_FLOW | OP_DEP_ANTI | OP_DEP_OUTPUT | OP_DEP_REG => {
                let kind = match op {
                    OP_DEP_FLOW => DepKind::Flow,
                    OP_DEP_ANTI => DepKind::Anti,
                    OP_DEP_OUTPUT => DepKind::Output,
                    _ => DepKind::Reg,
                };
                let src = st.read_stmt(&mut cur)?;
                st.read_coords(&mut cur, &mut scratch)?;
                let dst = st.read_stmt(&mut cur)?;
                st.read_coords(&mut cur, &mut scratch2)?;
                chunk.push_dep(kind, src, &scratch, dst, &scratch2);
            }
            other => return Err(format!("unknown event opcode {other}")),
        }
        n += 1;
    }
    Ok(n)
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

/// Table-size cap: a footer claiming more than this many paths/statements
/// is corrupt (real workloads intern a few thousand).
const MAX_TABLE: u64 = 1 << 24;

/// Interner parts as stored in the footer: per-path per-dimension context
/// stacks, plus the statement table.
pub type InternerParts = (Vec<Vec<Vec<CtxElem>>>, Vec<StmtInfo>);

/// Decode the footer's statement table back into interner parts.
pub fn decode_interner(cur: &mut Cursor) -> Result<InternerParts, String> {
    let n_paths = cur.read_uv()?;
    if n_paths > MAX_TABLE {
        return Err(format!("statement table claims {n_paths} paths"));
    }
    let mut paths = Vec::with_capacity(n_paths as usize);
    for _ in 0..n_paths {
        let n_dims = cur.read_uv()?;
        if n_dims > MAX_COORDS {
            return Err(format!("context path claims {n_dims} dimensions"));
        }
        let mut stacks = Vec::with_capacity(n_dims as usize);
        for _ in 0..n_dims {
            let n_elems = cur.read_uv()?;
            if n_elems > MAX_TABLE {
                return Err(format!("context stack claims {n_elems} elements"));
            }
            let mut stack = Vec::with_capacity(n_elems as usize);
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
    let n_stmts = cur.read_uv()?;
    if n_stmts > MAX_TABLE {
        return Err(format!("statement table claims {n_stmts} statements"));
    }
    let mut stmts = Vec::with_capacity(n_stmts as usize);
    for _ in 0..n_stmts {
        let path = CtxPathId(read_u32(cur)?);
        if path.0 as u64 >= n_paths {
            return Err(format!("statement references path {} of {n_paths}", path.0));
        }
        let block = read_block_ref(cur)?;
        let idx = read_u32(cur)?;
        let depth = cur.read_uv()? as usize;
        stmts.push(StmtInfo {
            path,
            instr: InstrRef { block, idx },
            depth,
        });
    }
    Ok((paths, stmts))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
