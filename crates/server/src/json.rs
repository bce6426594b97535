//! A minimal hand-written JSON parser/encoder for the serving protocol.
//!
//! The workspace is dependency-free, so the line protocol cannot lean on
//! serde. This module implements exactly the JSON subset the protocol
//! needs: objects, arrays, strings (with standard escapes), finite
//! numbers, booleans, and `null`. Objects parse into a `BTreeMap`, so
//! every traversal and re-encoding is deterministic by construction.
//!
//! Parse errors are plain strings; the protocol layer wraps them into
//! `SoiError::Protocol { kind: MalformedJson, .. }` with the offending
//! byte offset, keeping this module free of policy.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by [`parse`]; a flat request protocol
/// never comes close, and the cap keeps adversarial input from
/// overflowing the parser's recursion.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Numbers are stored as `f64` — protocol fields
/// are ids, node ids, and counts, read back only below 2^53
/// ([`Value::as_u64`]), where every integer is exactly representable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key-sorted, so re-encoding is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a non-negative integer below 2^53, if it is one
    /// exactly. Integers below 2^53 parse to exactly themselves; 2^53 is
    /// also what 2^53 + 1 rounds to, so it is refused with everything
    /// above it rather than answered as a different number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a finite float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_str(bytes, pos).map(Value::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number {text:?} at byte {start}"));
    }
    Ok(Value::Num(n))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogates are rejected rather than paired; the
                        // protocol never emits them.
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy the full UTF-8 sequence starting at this byte.
                let ch_start = *pos - 1;
                let tail = std::str::from_utf8(&bytes[ch_start..])
                    .map_err(|_| "non-utf8 string contents")?;
                let Some(ch) = tail.chars().next() else {
                    return Err("empty string tail".to_string());
                };
                out.push(ch);
                *pos = ch_start + ch.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        // Duplicate keys are ambiguous (last-wins vs first-wins differs
        // across parsers) — reject rather than silently pick one.
        if map.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate object key {key:?}"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub use soi_obs::report::json_escape as escape;

/// Formats a finite `f64` as a JSON number, integers without a decimal
/// point (`null` for non-finite input).
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = parse(r#"{"v":1,"id":7,"type":"spread-estimate","seeds":[0,2],"samples":16}"#)
            .expect("parse");
        assert_eq!(v.get("v").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("type").and_then(Value::as_str),
            Some("spread-estimate")
        );
        let seeds: Vec<u64> = v
            .get("seeds")
            .and_then(Value::as_arr)
            .expect("array")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(seeds, vec![0, 2]);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"b\\c\nd\u0041é"}"#).expect("parse");
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\":\"\\q\"}",
            "nan",
            "1e999",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn number_roundtrip_and_bounds() {
        assert_eq!(parse("42").expect("int"), Value::Num(42.0));
        assert_eq!(parse("-1.5").expect("float"), Value::Num(-1.5));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(
            Value::Num(2f64.powi(53) - 1.0).as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(Value::Num(2f64.powi(53)).as_u64(), None);
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.25), "0.25");
        assert_eq!(fmt_num(f64::NAN), "null");
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("s").and_then(Value::as_str), Some(original));
    }
}
