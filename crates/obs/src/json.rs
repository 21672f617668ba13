//! A minimal, dependency-free JSON emitter and parser.
//!
//! The workspace is std only, so events, metric snapshots and run reports
//! serialize through this hand-rolled writer. The emitted subset is plain
//! JSON: objects, arrays, strings, bools, `u64`/`i64`/`f64` numbers and
//! `null`. Non-finite floats serialize as `null` so the output always
//! parses.

use std::fmt::Write as _;

/// Escapes `s` into `out` as the body of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
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
}

/// Writes `v` as a JSON number, or `null` when it is not finite.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest round-trip formatting; integral values gain a
        // trailing ".0" so readers see a float, not an int.
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

/// An incremental JSON **object** builder.
///
/// ```
/// use nautilus_obs::json::JsonObj;
/// let mut o = JsonObj::new();
/// o.str("type", "eval_completed").bool("cached", false).u64("tool_secs", 60);
/// assert_eq!(o.finish(), r#"{"type":"eval_completed","cached":false,"tool_secs":60}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

impl JsonObj {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObj { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let buf = self.key(k);
        buf.push('"');
        escape_into(buf, v);
        buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let buf = self.key(k);
        let _ = write!(buf, "{v}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        let buf = self.key(k);
        let _ = write!(buf, "{v}");
        self
    }

    /// Adds a float field (`null` when not finite).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        let buf = self.key(k);
        push_f64(buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        let buf = self.key(k);
        buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-serialized JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        let buf = self.key(k);
        buf.push_str(json);
        self
    }

    /// Adds an array-of-strings field.
    pub fn arr_str<S: AsRef<str>>(&mut self, k: &str, vs: &[S]) -> &mut Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push('"');
            escape_into(buf, v.as_ref());
            buf.push('"');
        }
        buf.push(']');
        self
    }

    /// Adds an array-of-u64 field.
    pub fn arr_u64(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{v}");
        }
        buf.push(']');
        self
    }

    /// Adds an array field of already-serialized JSON values.
    pub fn arr_raw<S: AsRef<str>>(&mut self, k: &str, vs: &[S]) -> &mut Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(v.as_ref());
        }
        buf.push(']');
        self
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return false,
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return false;
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return false;
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    true
}

/// A parsed JSON value (the same subset the emitter produces; numbers
/// are `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, preserving member order (duplicate keys: first wins in
    /// [`JsonValue::get`]).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A JSON parse failure, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>, offset: usize) -> Result<T, JsonError> {
    Err(JsonError { message: message.into(), offset })
}

/// Parses exactly one JSON value from `s` (RFC 8259 grammar, recursion
/// depth capped at 128 nested arrays and objects).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed construct, a
/// trailing-garbage error when `s` continues past the value, or a
/// depth-cap error on pathological nesting.
pub fn parse_json(s: &str) -> Result<JsonValue, JsonError> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = value_at(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err("trailing characters after JSON value", pos);
    }
    Ok(value)
}

fn value_at(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    if depth > MAX_DEPTH {
        return err("nesting deeper than supported", *pos);
    }
    match b.get(*pos) {
        Some(b'{') => object_at(b, pos, depth + 1),
        Some(b'[') => array_at(b, pos, depth + 1),
        Some(b'"') => string_at(b, pos).map(JsonValue::Str),
        Some(b't') => lit_at(b, pos, b"true", JsonValue::Bool(true)),
        Some(b'f') => lit_at(b, pos, b"false", JsonValue::Bool(false)),
        Some(b'n') => lit_at(b, pos, b"null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => number_at(b, pos),
        Some(_) => err("unexpected character", *pos),
        None => err("unexpected end of input", *pos),
    }
}

fn lit_at(b: &[u8], pos: &mut usize, lit: &[u8], value: JsonValue) -> Result<JsonValue, JsonError> {
    if parse_lit(b, pos, lit) {
        Ok(value)
    } else {
        err(format!("expected `{}`", String::from_utf8_lossy(lit)), *pos)
    }
}

fn object_at(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return err("expected object key", *pos);
        }
        let key = string_at(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return err("expected `:`", *pos);
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = value_at(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return err("expected `,` or `}`", *pos),
        }
    }
}

fn array_at(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value_at(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return err("expected `,` or `]`", *pos),
        }
    }
}

fn string_at(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let start = *pos;
    *pos += 1; // consume '"'
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = hex4_at(b, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require a low surrogate next.
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = hex4_at(b, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return err("unpaired surrogate", *pos);
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or(())
                            } else {
                                Err(())
                            }
                        } else {
                            char::from_u32(hi).ok_or(())
                        };
                        match c {
                            Ok(c) => out.push(c),
                            Err(()) => return err("invalid \\u escape", *pos),
                        }
                        continue; // hex4_at already advanced past the digits
                    }
                    _ => return err("invalid escape", *pos),
                }
                *pos += 1;
            }
            0x00..=0x1F => return err("control character in string", *pos),
            _ => {
                // Multi-byte UTF-8 is passed through; the input is a &str
                // so byte-level copying stays valid.
                let ch_len = utf8_len(b[*pos]);
                let end = *pos + ch_len;
                if end > b.len() {
                    return err("truncated UTF-8", *pos);
                }
                out.push_str(
                    std::str::from_utf8(&b[*pos..end])
                        .map_err(|_| JsonError { message: "invalid UTF-8".into(), offset: *pos })?,
                );
                *pos = end;
            }
        }
    }
    err("unterminated string", start)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn hex4_at(b: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut v = 0u32;
    for _ in 0..4 {
        let Some(c) = b.get(*pos).copied().filter(u8::is_ascii_hexdigit) else {
            return err("expected 4 hex digits", *pos);
        };
        v = v * 16 + (c as char).to_digit(16).expect("hex digit");
        *pos += 1;
    }
    Ok(v)
}

fn number_at(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if !parse_number(b, pos) {
        return err("malformed number", start);
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("number bytes are ASCII");
    match text.parse::<f64>() {
        Ok(v) => Ok(JsonValue::Num(v)),
        Err(_) => err("unrepresentable number", start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_emits_valid_json() {
        let mut o = JsonObj::new();
        o.str("s", "he\"llo\n")
            .u64("u", 42)
            .i64("i", -7)
            .f64("f", 1.5)
            .f64("nan", f64::NAN)
            .bool("b", true)
            .arr_str("names", &["a", "b"])
            .arr_u64("counts", &[1, 2, 3]);
        let json = o.finish();
        assert!(parse_json(&json).is_ok(), "invalid: {json}");
        assert!(json.contains(r#""nan":null"#));
        assert!(json.contains(r#""s":"he\"llo\n""#));
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObj::new().finish(), "{}");
        assert!(parse_json("{}").is_ok());
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let mut o = JsonObj::new();
        o.f64("v", 3.0);
        assert_eq!(o.finish(), r#"{"v":3.0}"#);
    }

    #[test]
    fn raw_and_nested_fields_compose() {
        let mut inner = JsonObj::new();
        inner.u64("n", 1);
        let mut outer = JsonObj::new();
        outer.raw("inner", &inner.clone().finish());
        outer.arr_raw("list", &[inner.finish()]);
        let json = outer.finish();
        assert!(parse_json(&json).is_ok(), "invalid: {json}");
        assert_eq!(json, r#"{"inner":{"n":1},"list":[{"n":1}]}"#);
    }

    #[test]
    fn validator_accepts_standard_json() {
        for ok in [
            "null",
            "true",
            "-0.5e10",
            "[1, 2, 3]",
            r#"{"a": [true, {"b": "c"}], "d": 1e-3}"#,
            r#""é\\""#,
            "  [ ]  ",
        ] {
            assert!(parse_json(ok).is_ok(), "should accept: {ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "\"unterminated",
            "{}extra",
            "{\"a\":1,}",
            "\"bad\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse_json(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn validator_bounds_recursion_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse_json(&ok).is_ok());
    }
}
