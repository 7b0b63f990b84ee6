//! The wire protocol: length-prefixed frames plus the minimal JSON layer
//! the protocol needs.
//!
//! One frame = `[u32 LE payload_len][u8 kind][payload]`. Kind 0 carries a
//! UTF-8 JSON object; kind 1 carries opaque binary (a `.ptrace` recording
//! following a `submit_trace` request). Frames are small and self-framing,
//! so a reader can never desynchronize mid-stream — a malformed *payload*
//! is answered with a structured error, never a dropped connection.
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

/// Write one frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
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

/// Extract `"key": <integer>` from a flat JSON object.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let start = find_value(json, key)?;
    let digits: String = json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
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
mod tests {
    use super::*;

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
