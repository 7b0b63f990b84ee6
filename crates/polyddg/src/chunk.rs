//! A flat, reusable buffer of folding-interface events: what
//! `polyrec::TraceReader::next_chunk` decodes one recorded frame into.
//!
//! Per-event records live in one `Vec`, all coordinate vectors in a shared
//! `i64` buffer addressed by spans, so a reused chunk holds a frame without
//! allocating per event. A chunk holds exactly the [`FoldSink`] alphabet:
//! points, accesses, dependences.

use crate::{DepKind, FoldSink};
use polyiiv::context::StmtId;

/// Span into an [`EventChunk`]'s shared coordinate buffer.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u32,
    len: u32,
}

/// One event record; coordinates live in the chunk's flat buffer.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// A dynamic instruction point.
    Point {
        stmt: StmtId,
        coords: Span,
        value: Option<i64>,
    },
    /// A resolved memory access.
    Access {
        stmt: StmtId,
        coords: Span,
        addr: u64,
        is_write: bool,
    },
    /// A resolved data dependence.
    Dep {
        kind: DepKind,
        src: StmtId,
        src_coords: Span,
        dst: StmtId,
        dst_coords: Span,
    },
}

/// Borrowed view of one chunk event.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// A dynamic instruction point.
    Point {
        /// Statement.
        stmt: StmtId,
        /// IIV coordinates.
        coords: &'a [i64],
        /// Produced integer value, if any.
        value: Option<i64>,
    },
    /// A resolved memory access.
    Access {
        /// Statement.
        stmt: StmtId,
        /// IIV coordinates.
        coords: &'a [i64],
        /// Word address.
        addr: u64,
        /// True for stores.
        is_write: bool,
    },
    /// A resolved data dependence.
    Dep {
        /// Dependence kind.
        kind: DepKind,
        /// Producer statement.
        src: StmtId,
        /// Producer coordinates.
        src_coords: &'a [i64],
        /// Consumer statement.
        dst: StmtId,
        /// Consumer coordinates.
        dst_coords: &'a [i64],
    },
}

/// A reusable flat buffer of events (see module docs).
#[derive(Debug, Default)]
pub struct EventChunk {
    recs: Vec<Rec>,
    coords: Vec<i64>,
}

impl EventChunk {
    /// Chunk with room for `events` records (the coordinate buffer sizes
    /// itself on first use and is retained across [`clear`](Self::clear)).
    pub fn with_capacity(events: usize) -> Self {
        EventChunk {
            recs: Vec::with_capacity(events),
            coords: Vec::new(),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Drop all events, retaining both buffers' capacity.
    pub fn clear(&mut self) {
        self.recs.clear();
        self.coords.clear();
    }

    #[inline]
    fn span(&mut self, c: &[i64]) -> Span {
        let off = self.coords.len() as u32;
        self.coords.extend_from_slice(c);
        Span {
            off,
            len: c.len() as u32,
        }
    }

    #[inline]
    fn slice(&self, s: Span) -> &[i64] {
        &self.coords[s.off as usize..(s.off + s.len) as usize]
    }

    /// Append an instruction point.
    #[inline]
    pub fn push_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        let coords = self.span(coords);
        self.recs.push(Rec::Point {
            stmt,
            coords,
            value,
        });
    }

    /// Append a resolved memory access.
    #[inline]
    pub fn push_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        let coords = self.span(coords);
        self.recs.push(Rec::Access {
            stmt,
            coords,
            addr,
            is_write,
        });
    }

    /// Append a resolved dependence.
    #[inline]
    pub fn push_dep(
        &mut self,
        kind: DepKind,
        src: StmtId,
        src_coords: &[i64],
        dst: StmtId,
        dst_coords: &[i64],
    ) {
        let src_coords = self.span(src_coords);
        let dst_coords = self.span(dst_coords);
        self.recs.push(Rec::Dep {
            kind,
            src,
            src_coords,
            dst,
            dst_coords,
        });
    }

    /// Iterate the buffered events in push order.
    pub fn events(&self) -> impl Iterator<Item = EventRef<'_>> {
        self.recs.iter().map(move |rec| match *rec {
            Rec::Point {
                stmt,
                coords,
                value,
            } => EventRef::Point {
                stmt,
                coords: self.slice(coords),
                value,
            },
            Rec::Access {
                stmt,
                coords,
                addr,
                is_write,
            } => EventRef::Access {
                stmt,
                coords: self.slice(coords),
                addr,
                is_write,
            },
            Rec::Dep {
                kind,
                src,
                src_coords,
                dst,
                dst_coords,
            } => EventRef::Dep {
                kind,
                src,
                src_coords: self.slice(src_coords),
                dst,
                dst_coords: self.slice(dst_coords),
            },
        })
    }

    /// Replay the chunk into a [`FoldSink`], in push order.
    pub fn replay_into<F: FoldSink>(&self, sink: &mut F) {
        for ev in self.events() {
            match ev {
                EventRef::Point {
                    stmt,
                    coords,
                    value,
                } => sink.instr_point(stmt, coords, value),
                EventRef::Access {
                    stmt,
                    coords,
                    addr,
                    is_write,
                } => sink.mem_access(stmt, coords, addr, is_write),
                EventRef::Dep {
                    kind,
                    src,
                    src_coords,
                    dst,
                    dst_coords,
                } => sink.dependence(kind, src, src_coords, dst, dst_coords),
            }
        }
    }
}

/// A chunk is itself a sink: events land in it in arrival order (what a
/// `.ptrace` reader decodes a frame into when asked for a chunk).
impl FoldSink for EventChunk {
    #[inline]
    fn instr_point(&mut self, stmt: StmtId, coords: &[i64], value: Option<i64>) {
        self.push_point(stmt, coords, value);
    }

    #[inline]
    fn mem_access(&mut self, stmt: StmtId, coords: &[i64], addr: u64, is_write: bool) {
        self.push_access(stmt, coords, addr, is_write);
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
        self.push_dep(kind, src, src_coords, dst, dst_coords);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;

    #[test]
    fn chunk_roundtrip_preserves_events_in_order() {
        let mut c = EventChunk::with_capacity(8);
        c.push_point(StmtId(1), &[0, 1], Some(7));
        c.push_dep(DepKind::Flow, StmtId(1), &[0, 0], StmtId(2), &[0, 1]);
        c.push_access(StmtId(2), &[0, 1], 100, true);
        let mut sink = CollectSink::default();
        c.replay_into(&mut sink);
        assert_eq!(sink.points, vec![(StmtId(1), vec![0, 1], Some(7))]);
        assert_eq!(
            sink.deps,
            vec![(DepKind::Flow, StmtId(1), vec![0, 0], StmtId(2), vec![0, 1])]
        );
        assert_eq!(sink.accesses, vec![(StmtId(2), vec![0, 1], 100, true)]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut c = EventChunk::with_capacity(4);
        c.push_point(StmtId(0), &[1, 2, 3], None);
        let rec_cap = c.recs.capacity();
        let coord_cap = c.coords.capacity();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.recs.capacity(), rec_cap);
        assert_eq!(c.coords.capacity(), coord_cap);
    }
}
