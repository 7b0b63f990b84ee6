//! A minimal recursive-descent JSON validator: the check of what
//! [`json_escape`](crate::json_escape) and the hand-rolled emitters of this
//! workspace (`RunMetrics::to_json`, `RunMetrics::timeline_json`, the
//! degradation/lint/static-deps reports, the server's frames) write, without
//! pulling a JSON dependency into the tree. Structure only — no schema.

/// Validate that `s` is one syntactically well-formed JSON value.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    if *i >= b.len() {
        return Err("unexpected end of input".into());
    }
    match b[*i] {
        b'{' => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                string(b, i)?;
                skip_ws(b, i);
                expect(b, i, b':')?;
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        b'[' => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        b'"' => string(b, i),
        b't' => literal(b, i, b"true"),
        b'f' => literal(b, i, b"false"),
        b'n' => literal(b, i, b"null"),
        b'-' | b'0'..=b'9' => number(b, i),
        c => Err(format!("unexpected byte {c:#x} at {i}")),
    }
}

fn expect(b: &[u8], i: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*i) == Some(&want) {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {i}", want as char))
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, b'"')?;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {i}"));
                        }
                        *i += 5;
                    }
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control char in string at byte {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len()
        && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    let text = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5, -3e2, true, null, \"x\\n\"]}").unwrap();
        validate_json("  {}  ").unwrap();
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{\"a\": 1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("{\"a\": \"\u{1}\"}").is_err(), "raw control");
        assert!(validate_json("{} trailing").is_err());
    }
}
