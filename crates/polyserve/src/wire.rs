//! The wire protocol: length-prefixed frames plus the minimal JSON layer
//! the protocol needs.
//!
//! One frame = `[u32 LE payload_len][u8 kind][payload]`. Kind 0 carries a
//! UTF-8 JSON object; kind 1 carries opaque binary (a `.ptrace` recording
//! following a `submit_trace` request). Frames are small and self-framing,
//! so a reader can never desynchronize mid-stream — a malformed *payload*
//! is answered with a structured error, never a dropped connection.
//!
//! **A frame is one write.** [`push_frame`] assembles header and payload in
//! a buffer and [`write_frame`] hands the buffer to the socket in one
//! `write_all`; frames that are ready together are pushed into one buffer
//! and leave together. Header and payload written separately are tiny
//! segments, and a tiny segment sent behind an unacknowledged one waits
//! under Nagle's algorithm for an ACK that the peer — blocked in `read`,
//! with nothing to send back — holds for the kernel's delayed-ACK timer
//! (~40 ms on Linux): every frame written in three parts cost its exchange
//! 40 ms of nothing. One write per answer ends that for every exchange that
//! is one answer: `pong`, `metrics`, a rejection, a cache hit (`accepted` +
//! `final` together). The client's socket has `TCP_NODELAY`; the server's
//! accepted sockets do not, so a frame that follows another by a moment
//! (`accepted` → `progress` → `final`, a session that had to be queued)
//! still waits for the first one's delayed ACK. Both ends read through one
//! buffered reader per connection, so a small frame that has arrived is one
//! `read`.
//!
//! The JSON layer is deliberately tiny: the protocol's objects are flat
//! (string / integer fields only at the layer the server inspects), so a
//! pair of scanning extractors replaces a serde dependency this workspace
//! does not have.

use std::io::{self, Read, Write};

/// JSON payload.
pub const KIND_JSON: u8 = 0;
/// Opaque binary payload (`.ptrace` bytes).
pub const KIND_BINARY: u8 = 1;

/// Hard ceiling on one frame's payload. Submissions are workload names and
/// small recordings; anything past this is a protocol error, not a reason
/// to let a client balloon server memory.
pub const MAX_FRAME: usize = 64 << 20;

/// Append one frame to `out`, its payload the concatenation of `parts`.
/// What [`read_frame`] would refuse is refused here, before `out` is
/// touched: a payload over [`MAX_FRAME`] is
/// [`InvalidInput`](io::ErrorKind::InvalidInput), not a length that wraps or
/// a frame the peer rejects mid-session.
pub fn push_frame(out: &mut Vec<u8>, kind: u8, parts: &[&[u8]]) -> io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    out.reserve(5 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(kind);
    for part in parts {
        out.extend_from_slice(part);
    }
    Ok(())
}

/// Write one frame, in one write.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    push_frame(&mut frame, kind, &[payload])?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` means the peer closed cleanly at a frame
/// boundary; mid-frame EOF and oversized frames are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.map(|kind| (kind, payload)))
}

/// [`read_frame`] into the caller's buffer, returning the frame's kind. The
/// buffer grows with the payload bytes that arrive, never to the length the
/// header claims (see [`polyrec::codec::read_claimed`]): five bytes from a
/// hostile peer cost the server five bytes, not a zeroed [`MAX_FRAME`].
fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<Option<u8>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    polyrec::codec::read_claimed(r, len, payload)?;
    Ok(Some(kind[0]))
}

/// Convenience: frame a JSON string.
pub fn write_json(w: &mut impl Write, json: &str) -> io::Result<()> {
    write_frame(w, KIND_JSON, json.as_bytes())
}

/// Extract `"key": "value"` from a flat JSON object, unescaping the common
/// escapes [`polytrace::json_escape`] produces. `None` when absent or not a
/// string.
pub fn json_str(json: &str, key: &str) -> Option<String> {
    let start = find_value(json, key)?;
    let rest = &json[start..];
    if !rest.starts_with('"') {
        return None;
    }
    let mut out = String::new();
    let mut chars = rest[1..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extract `"key": <integer>` from a flat JSON object. `None` unless the
/// digits run up to `,`, `}` or whitespace: `1e9` and `2.5` are not the
/// integers 1 and 2.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let rest = &json[find_value(json, key)?..];
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let end = rest[digits..].chars().next()?;
    if !(end == ',' || end == '}' || end.is_whitespace()) {
        return None;
    }
    rest[..digits].parse().ok()
}

/// True when the object has a `"key":` at all: what tells a malformed value
/// ([`json_u64`] is `None`, the key is there) from an absent one.
pub fn json_has(json: &str, key: &str) -> bool {
    find_value(json, key).is_some()
}

/// Extract `"key": true|false` from a flat JSON object.
pub fn json_bool(json: &str, key: &str) -> Option<bool> {
    let start = find_value(json, key)?;
    let rest = &json[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Byte offset of the first non-space character after `"key":` at the top
/// level of a flat object. Matching is textual — fine for the protocol's
/// flat, server-generated keys, which never appear inside string values
/// with a `":` suffix.
fn find_value(json: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let skipped = json[at..].find(|c: char| c != ' ')?;
    Some(at + skipped)
}

/// FNV-1a over raw bytes — the input-hash half of the folded-DDG cache key
/// for recording submissions (program submissions run the VM on an empty
/// input vector, so their input hash is 0).
pub use polyrec::codec::fnv1a;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A writer that counts the `write` calls it receives and takes at most
    /// `take` bytes in each — what a socket sees, for the tests (here and in
    /// `server`) that pin "one frame, one write".
    pub(crate) struct CountingWriter {
        pub(crate) bytes: Vec<u8>,
        pub(crate) writes: usize,
        take: usize,
    }

    impl CountingWriter {
        pub(crate) fn taking(take: usize) -> Self {
            CountingWriter {
                bytes: Vec::new(),
                writes: 0,
                take,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.take);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_JSON, b"{\"op\": \"ping\"}").unwrap();
        write_frame(&mut buf, KIND_BINARY, &[1, 2, 3]).unwrap();
        let mut r = io::Cursor::new(buf);
        let (k, p) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((k, p.as_slice()), (KIND_JSON, &b"{\"op\": \"ping\"}"[..]));
        let (k, p) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((k, p.as_slice()), (KIND_BINARY, &[1u8, 2, 3][..]));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_JSON, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut r).is_err());
    }

    /// The writer refuses what the reader refuses, before a byte is written.
    /// (The slice is zero pages never touched: only its length is read.)
    #[test]
    fn oversized_payload_is_refused_before_any_write() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut sink = CountingWriter::taking(usize::MAX);
        let err = write_frame(&mut sink, KIND_BINARY, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!((sink.writes, sink.bytes.len()), (0, 0));
    }

    /// A frame is one `write` when the writer takes everything — header and
    /// payload never travel as separate tiny segments — and still the same
    /// bytes when the writer takes them seven at a time.
    #[test]
    fn a_frame_is_one_write() {
        let small = b"{\"op\": \"ping\"}".to_vec();
        let large: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for payload in [&small, &large] {
            let mut whole = CountingWriter::taking(usize::MAX);
            write_frame(&mut whole, KIND_JSON, payload).unwrap();
            assert_eq!(whole.writes, 1, "{} bytes", payload.len());
            let mut dribble = CountingWriter::taking(7);
            write_frame(&mut dribble, KIND_JSON, payload).unwrap();
            assert_eq!(dribble.writes, (5 + payload.len()).div_ceil(7));
            assert_eq!(dribble.bytes, whole.bytes);
            let (kind, read) = read_frame(&mut io::Cursor::new(dribble.bytes))
                .unwrap()
                .unwrap();
            assert_eq!((kind, &read), (KIND_JSON, payload));
        }
    }

    /// A length prefix is a claim, not an allocation size: a header that
    /// promises `MAX_FRAME` and delivers three bytes is a mid-frame EOF, and
    /// the buffer holds what arrived, not what was promised.
    #[test]
    fn lying_length_prefix_allocates_only_what_arrives() {
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[KIND_BINARY, 1, 2, 3]);
        let mut payload = Vec::new();
        let err = read_frame_into(&mut io::Cursor::new(bytes), &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() < 4096, "{}", payload.capacity());
    }

    #[test]
    fn json_field_extraction() {
        let j = "{\"op\": \"submit\", \"tenant\": \"a\\\"b\", \"deadline_ms\": 250, \"ok\": true}";
        assert_eq!(json_str(j, "op").as_deref(), Some("submit"));
        assert_eq!(json_str(j, "tenant").as_deref(), Some("a\"b"));
        assert_eq!(json_u64(j, "deadline_ms"), Some(250));
        assert_eq!(json_bool(j, "ok"), Some(true));
        assert_eq!(json_str(j, "missing"), None);
        assert_eq!(json_u64(j, "op"), None);
        // A number that is not an integer is no number, not its leading
        // digits — and is told apart from a key that is not there.
        let j = "{\"a\": 1e9, \"b\": 2.5, \"c\": 12x, \"d\": -3, \"e\": 7 , \"f\": 8}";
        for key in ["a", "b", "c", "d"] {
            assert_eq!(json_u64(j, key), None, "{key}");
            assert!(json_has(j, key), "{key}");
        }
        assert_eq!(json_u64(j, "e"), Some(7));
        assert_eq!(json_u64(j, "f"), Some(8));
        assert_eq!(json_u64("{\"g\": 99999999999999999999}", "g"), None);
        assert_eq!(json_u64("{\"g\": 9", "g"), None);
        assert!(!json_has(j, "g"));
    }

    /// splitmix64: the seeded input stream of the fuzz tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// 10k seeded random frames — intact, truncated, bit-flipped, or with a
    /// random length prefix — into the frame reader: none panics, and the
    /// buffer never holds more than the payload bytes that arrived, nor
    /// reserves past a small multiple of them; a frame read whole holds what
    /// its prefix claimed.
    #[test]
    fn random_frames_never_panic_and_stay_bounded() {
        let mut rng = Rng(0x5eed);
        for _ in 0..10_000 {
            let body: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
            let mut bytes = Vec::new();
            push_frame(&mut bytes, rng.below(3) as u8, &[&body]).unwrap();
            match rng.below(4) {
                0 => bytes.truncate(rng.below(bytes.len() + 1)),
                1 => {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
                2 => bytes[..4].copy_from_slice(&(rng.next() as u32).to_le_bytes()),
                _ => {}
            }
            let mut payload = Vec::new();
            let read = read_frame_into(&mut io::Cursor::new(&bytes), &mut payload);
            let arrived = bytes.len().saturating_sub(5);
            assert!(payload.len() <= arrived, "{} of {arrived}", payload.len());
            assert!(
                payload.capacity() <= (2 * arrived).max(4096),
                "{} reserved for {arrived} bytes",
                payload.capacity()
            );
            if let Ok(Some(_)) = read {
                let claimed = u32::from_le_bytes(bytes[..4].try_into().unwrap());
                assert_eq!(payload.len(), claimed as usize);
            }
        }
    }

    /// 10k seeded random strings over the protocol's alphabet — quotes,
    /// escapes (`\u` cut short among them), colons, digits, exponents and
    /// multi-byte text — into the flat-JSON scanners: none panics, and a
    /// value any of them finds is under a key `json_has` sees.
    #[test]
    fn random_json_never_panics_the_scanners() {
        const TOKENS: [&str; 20] = [
            "\"k\":", "\"k\": ", "\"k\"", "\"", "\\", "\\u", "\\u00e9", ":", ",", "{", "}", " ",
            "7", "12", "1e9", "-", ".", "true", "fals", "é→",
        ];
        let mut rng = Rng(0x1ee7);
        for _ in 0..10_000 {
            let json: String = (0..rng.below(16))
                .map(|_| TOKENS[rng.below(TOKENS.len())])
                .collect();
            let has = json_has(&json, "k");
            for found in [
                json_str(&json, "k").is_some(),
                json_u64(&json, "k").is_some(),
                json_bool(&json, "k").is_some(),
            ] {
                assert!(!found || has, "{json:?}");
            }
            for key in ["", "\"", "é"] {
                let _ = (json_str(&json, key), json_u64(&json, key));
                let _ = (json_bool(&json, key), json_has(&json, key));
            }
        }
    }

    /// The three entry points of the one FNV-1a-64 — this re-export, the
    /// slice form in `polyrec::codec` and its streaming form fed bytes or
    /// text — agree on the published test vectors.
    #[test]
    fn fnv_is_stable() {
        use polyrec::codec::Fnv1a;
        use std::fmt::Write as _;
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(fnv1a(input.as_bytes()), want, "{input:?}");
            assert_eq!(polyrec::codec::fnv1a(input.as_bytes()), want, "{input:?}");
            let (head, tail) = input.split_at(input.len() / 2);
            let mut h = Fnv1a::new();
            h.write(head.as_bytes());
            h.write_str(tail).unwrap();
            assert_eq!(h.finish(), want, "{input:?} streamed");
        }
    }
}
