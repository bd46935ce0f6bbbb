//! A hand-rolled JSON writer and a minimal parser.
//!
//! The vendored `serde` is a no-op stub (the container is offline), so
//! the timeline's JSONL frames and the benchmark's reports are produced by
//! a small writer here, and read back — in tests and by `mvccstat replay` —
//! by an equally small recursive-descent parser.  Both cover exactly the
//! JSON subset the writers emit: objects, arrays, strings with the
//! standard escapes, finite numbers, booleans, and null.

use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Objects preserve key order (a `Vec` of pairs, not a map) — the
/// writers emit deterministic documents and round-trip tests compare
/// them structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Appends `text` to `out` as a JSON string literal (quotes included).
pub fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` as a JSON number.  Non-finite values (which
/// JSON cannot represent) are emitted as `null`.
pub fn write_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let mut chars = text[*pos..].char_indices();
    while let Some((offset, c)) = chars.next() {
        match c {
            '"' => {
                *pos += offset + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{0008}'),
                Some((_, 'f')) => out.push('\u{000c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars
                            .next()
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        code = code * 16
                            + h.to_digit(16)
                                .ok_or_else(|| format!("bad hex digit {h:?}"))?;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("invalid \\u{code:04x} escape"))?,
                    );
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c if (c as u32) < 0x20 => {
                return Err("raw control character in string".into());
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let slice = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    slice
        .parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number {slice:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_exporter_subset() {
        let doc = r#"{"experiment":"E17","rows":[{"certifier":"sgt","txn_s":1234.5,"ok":true,"none":null,"stages":{"certify":{"count":0}}}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("E17"));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("txn_s").unwrap().as_number(), Some(1234.5));
        assert_eq!(rows[0].get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(rows[0].get("none"), Some(&JsonValue::Null));
        let stages = rows[0].get("stages").unwrap().as_object().unwrap();
        assert_eq!(stages[0].0, "certify");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t control\u{0001} unicode✓";
        let mut encoded = String::new();
        write_string(&mut encoded, original);
        let parsed = parse(&encoded).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn numbers_round_trip() {
        for n in [0.0, 1.0, -3.25, 1234.5, 1e9, 0.001] {
            let mut encoded = String::new();
            write_number(&mut encoded, n);
            assert_eq!(parse(&encoded).unwrap().as_number(), Some(n));
        }
        let mut encoded = String::new();
        write_number(&mut encoded, f64::NAN);
        assert_eq!(encoded, "null");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a":1} extra"#,
            r#""unterminated"#,
            "nul",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn key_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        let pairs = v.as_object().unwrap();
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[1].0, "a");
    }
}
