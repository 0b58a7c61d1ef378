//! Minimal JSON reader and validator, and the one string escaper.
//!
//! One recursive-descent walk of RFC 8259 JSON, so the exporters can
//! assert they emit well-formed output, and the readers that consume
//! exported traces back (the cross-party trace merge, `bench_check`) can
//! parse them, without pulling a serde stack into the workspace.
//! [`parse`] builds a [`Value`] DOM; [`validate`] is `parse` with the
//! DOM dropped — it runs once per export, not on any hot path.
//! [`escape_into`] is the writing side every exporter shares.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion order (a `Vec` of
/// pairs): trace files are small-keyed and read once, so a map would
/// buy nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` escaped for a JSON string literal (quotes not included):
/// the workspace's one escaper, for every exporter that writes JSON.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
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
}

/// Validates that `input` is a single well-formed JSON value.
///
/// Returns `Err` with a byte offset and a short description of the
/// first problem found.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(drop)
}

/// Parses `input` as a single JSON value.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return fail(pos, "trailing data");
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn fail<T>(pos: usize, what: &str) -> Result<T, String> {
    Err(format!("{what} at byte {pos}"))
}

fn value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return fail(*pos, "nesting too deep");
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            let members = |pos: &mut usize| member(bytes, pos, depth);
            sequence(bytes, pos, b'}', "expected ',' or '}' in object", members).map(Value::Object)
        }
        Some(b'[') => {
            let items = |pos: &mut usize| value(bytes, pos, depth + 1);
            sequence(bytes, pos, b']', "expected ',' or ']' in array", items).map(Value::Array)
        }
        Some(b'"') => string(bytes, pos).map(Value::String),
        Some(b't') => literal(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => literal(bytes, pos, b"false", Value::Bool(false)),
        Some(b'n') => literal(bytes, pos, b"null", Value::Null),
        Some(b'-') | Some(b'0'..=b'9') => number(bytes, pos),
        Some(_) => fail(*pos, "unexpected character"),
        None => fail(*pos, "unexpected end of input"),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, expect: &[u8], v: Value) -> Result<Value, String> {
    if !bytes[*pos..].starts_with(expect) {
        return fail(*pos, "invalid literal");
    }
    *pos += expect.len();
    Ok(v)
}

/// The `,`-separated items between the opening bracket at `*pos` and
/// `close`; `expected` is the complaint when neither follows an item.
fn sequence<T>(
    bytes: &[u8],
    pos: &mut usize,
    close: u8,
    expected: &str,
    mut item: impl FnMut(&mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    *pos += 1; // consume the opening bracket
    skip_ws(bytes, pos);
    let mut items = Vec::new();
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(items);
    }
    loop {
        skip_ws(bytes, pos);
        items.push(item(pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&b) if b == close => {
                *pos += 1;
                return Ok(items);
            }
            _ => return fail(*pos, expected),
        }
    }
}

/// One `"key": value` of an object.
fn member(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(String, Value), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return fail(*pos, "expected object key string");
    }
    let key = string(bytes, pos)?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b':') {
        return fail(*pos, "expected ':' after object key");
    }
    *pos += 1;
    skip_ws(bytes, pos);
    Ok((key, value(bytes, pos, depth + 1)?))
}

/// The four hex digits of a `\u` escape whose `u` is at `*pos`; leaves
/// `*pos` on the last digit.
fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut cp = 0u32;
    for _ in 0..4 {
        *pos += 1;
        match bytes.get(*pos).and_then(|&c| char::from(c).to_digit(16)) {
            Some(digit) => cp = cp * 16 + digit,
            None => return fail(*pos, "invalid \\u escape"),
        }
    }
    Ok(cp)
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        // Copy a maximal run of plain characters as UTF-8: the input is
        // a `&str` and every delimiter is ASCII, so the run ends on a
        // character boundary.
        let plain = |b: &&u8| !matches!(**b, b'"' | b'\\' | 0x00..=0x1f);
        let run = *pos + bytes[*pos..].iter().take_while(plain).count();
        out.push_str(std::str::from_utf8(&bytes[*pos..run]).map_err(|e| e.to_string())?);
        *pos = run;
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => *pos += 1,
            Some(_) => return fail(*pos, "unescaped control character in string"),
            None => return fail(*pos, "unterminated string"),
        }
        out.push(match bytes.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut cp = hex4(bytes, pos)?;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: require the paired \uXXXX low half.
                    if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                        return fail(start, "unpaired surrogate");
                    }
                    *pos += 2;
                    let lo = hex4(bytes, pos)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return fail(start, "unpaired surrogate");
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                }
                match char::from_u32(cp) {
                    Some(ch) => ch,
                    None => return fail(start, "invalid codepoint"),
                }
            }
            _ => return fail(*pos, "invalid escape"),
        });
        *pos += 1;
    }
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // No leading zeros: a `0` is the whole integer part.
    if bytes.get(*pos) == Some(&b'0') {
        *pos += 1;
    } else if !digits(pos) {
        return fail(*pos, "invalid number");
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return fail(*pos, "digit required after decimal point");
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return fail(*pos, "digit required in exponent");
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(n) => Ok(Value::Number(n)),
        Err(e) => fail(start, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::{escape_into, parse, validate, Value};

    #[test]
    fn escaped_strings_round_trip_through_parse() {
        for s in [
            "plain",
            "say \"hi\"",
            "back\\slash\\",
            "two\nlines",
            "tab\there",
            "bell \u{1} and \u{1f}",
            "\"\\\n\t\u{1}",
            "é ünïcode ✓",
        ] {
            let mut doc = String::from('"');
            escape_into(&mut doc, s);
            doc.push('"');
            assert_eq!(parse(&doc), Ok(Value::String(s.to_string())), "{doc}");
        }
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            "[]",
            "{}",
            "[1, 2.5, -3e4, \"x\", {\"k\": [false]}]",
            "  {\"a\": {\"b\": \"\\u00e9\\n\"}}  ",
            "0.125",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1] trailing",
            "\"unterminated",
            "01",
            "1.",
            "nul",
            "{a: 1}",
            "\"bad \u{1}\"",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\udc00\"",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} accepted");
        }
        // Every complaint names what and where.
        for (doc, complaint) in [
            ("[1,]", "unexpected character at byte 3"),
            ("[1 2]", "expected ',' or ']' in array at byte 3"),
            (
                "{\"a\": 1 \"b\"}",
                "expected ',' or '}' in object at byte 8",
            ),
            ("[1] x", "trailing data at byte 4"),
            ("\"abc", "unterminated string at byte 4"),
        ] {
            assert_eq!(validate(doc).unwrap_err(), complaint, "{doc:?}");
        }
    }

    #[test]
    fn rejects_overdeep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(validate(&deep).is_err());
    }

    #[test]
    fn parse_builds_dom() {
        use super::{parse, Value};
        let doc = r#"{"name": "x\né", "ts": 1.5, "neg": -2e3, "ok": true,
                      "none": null, "items": [1, "two", {"k": 3}]}"#;
        let v = parse(doc).expect("parse");
        assert_eq!(v.get("name").and_then(Value::as_str), Some("x\né"));
        assert_eq!(v.get("ts").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-2000.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let items = v.get("items").and_then(Value::as_array).expect("array");
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("k").and_then(Value::as_f64), Some(3.0));
        // Surrogate pair.
        let emoji = parse(r#""\ud83d\ude00""#).expect("surrogates");
        assert_eq!(emoji.as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate accepted");
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
    }
}
