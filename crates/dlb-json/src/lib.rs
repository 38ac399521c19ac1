//! Minimal self-contained JSON support for the dlb workspace.
//!
//! The build environment has no crates.io access, so instead of serde the
//! workspace serialises through an explicit [`Json`] value tree with a
//! recursive-descent parser and deterministic renderers. Design points:
//!
//! - Integers are kept as `i128` ([`Json::Int`]), separate from floats, so
//!   `u64` seeds and `u128` stream positions round-trip exactly.
//! - Objects are ordered `Vec<(String, Json)>`, so rendering is a pure
//!   function of construction order — byte-stable output for determinism
//!   regression tests.
//! - [`ToJson`] / [`FromJson`] are implemented by hand per type; parse
//!   errors are `String`s with context.
//! - Nesting is capped at [`MAX_DEPTH`] arrays/objects, so hostile input
//!   (say 50,000 `[`) is a parse error rather than a stack overflow.

use std::io::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.  Scenarios,
/// trace lines and benchmark baselines nest fewer than ten levels; the
/// cap only exists so the recursive-descent parser cannot exhaust the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (no fraction or exponent in the source text).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, first match wins on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Json::Int`].
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses JSON text.  Nesting deeper than [`MAX_DEPTH`] is an error
    /// naming the depth and the byte offset of the offending bracket.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_compact(&mut out);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// Renders pretty JSON (two-space indent).
    pub fn render_pretty(&self) -> String {
        let mut out = Vec::new();
        self.write_pretty(&mut out, 0);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    fn write_compact(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_compact(out);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.write_compact(out);
                }
                out.push(b'}');
            }
        }
    }

    fn write_pretty(&self, out: &mut Vec<u8>, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.extend_from_slice(b"[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(b",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push(b'\n');
                indent(out, depth);
                out.push(b']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.extend_from_slice(b"{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(b",\n");
                    }
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.extend_from_slice(b": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push(b'\n');
                indent(out, depth);
                out.push(b'}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut Vec<u8>, depth: usize) {
    for _ in 0..depth {
        out.extend_from_slice(b"  ");
    }
}

/// Appends `f` as a JSON number: Rust's `{}` form (the shortest decimal
/// that parses back to the same `f64`, never in exponent notation), or
/// `null` for NaN and the infinities, which JSON cannot express.
pub fn write_f64(out: &mut Vec<u8>, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Appends `s` as a quoted JSON string.  Quotes, backslashes and
/// control characters are escaped (`\n`, `\r`, `\t`, else `\u00xx`);
/// everything else, non-ASCII included, is copied through as UTF-8.
/// Every byte of a multi-byte UTF-8 sequence is >= 0x80, so a byte scan
/// escapes exactly the characters a `char` scan would.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut clean = 0; // start of the run not yet copied
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x00..=0x1f => b"\\u00",
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean..i]);
        out.extend_from_slice(escape);
        if escape.len() > 2 {
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xf)]);
        }
        clean = i + 1;
    }
    out.extend_from_slice(&bytes[clean..]);
    out.push(b'"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(format!("bad escape near byte {}", self.pos)),
                            }
                            continue; // hex4 already advanced
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            // Past i128 an integer literal is read as a float: `{}`
            // writes a whole f64 such as 1e300 as its full digit string.
            text.parse::<i128>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Types convertible into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Types constructible from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses from a JSON value; the error names what was wrong.
    fn from_json(value: &Json) -> Result<Self, String>;
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, String> {
                let i = value
                    .as_i128()
                    .ok_or_else(|| format!("expected integer, got {value:?}"))?;
                <$t>::try_from(i).map_err(|_| {
                    format!("integer {i} out of range for {}", stringify!($t))
                })
            }
        }
    )*};
}
json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl ToJson for u128 {
    fn to_json(&self) -> Json {
        Json::Int(i128::try_from(*self).expect("u128 value exceeds i128 range"))
    }
}

impl FromJson for u128 {
    fn from_json(value: &Json) -> Result<Self, String> {
        let i = value
            .as_i128()
            .ok_or_else(|| format!("expected integer, got {value:?}"))?;
        u128::try_from(i).map_err(|_| format!("integer {i} out of range for u128"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("expected number, got {value:?}"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_bool()
            .ok_or_else(|| format!("expected bool, got {value:?}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {value:?}"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_arr()
            .ok_or_else(|| format!("expected array, got {value:?}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Required-field lookup with a descriptive error.
pub fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Optional-field decode falling back to `default` when absent.
pub fn field_or<T: FromJson>(obj: &Json, key: &str, default: T) -> Result<T, String> {
    match obj.get(key) {
        Some(v) => T::from_json(v).map_err(|e| format!("field '{key}': {e}")),
        None => Ok(default),
    }
}

/// Required-field decode with the key folded into the error.
pub fn req<T: FromJson>(obj: &Json, key: &str) -> Result<T, String> {
    T::from_json(field(obj, key)?).map_err(|e| format!("field '{key}': {e}"))
}

/// Rejects keys outside `allowed` with a key-path error, so a typo in a
/// config file fails loudly instead of silently falling back to a
/// default.  Callers that decode nested objects via [`req`]/[`field_or`]
/// get the full path for free: the nested error is wrapped as
/// `field 'outer': unknown key "inner_typo" ...`.
///
/// Non-object values pass (the decoder reports its own type error).
pub fn reject_unknown(value: &Json, allowed: &[&str]) -> Result<(), String> {
    if let Json::Obj(entries) = value {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown key {key:?} (allowed: {})",
                    allowed.join(", ")
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_unknown_names_the_stray_key() {
        let value = Json::parse(r#"{"n": 4, "stepz": 9}"#).unwrap();
        assert!(reject_unknown(&value, &["n", "stepz"]).is_ok());
        let err = reject_unknown(&value, &["n", "steps"]).unwrap_err();
        assert!(err.contains("\"stepz\""), "{err}");
        assert!(err.contains("steps"), "{err}");
        // Non-objects pass; the decoder reports its own type error.
        assert!(reject_unknown(&Json::Int(3), &[]).is_ok());
    }

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "12345678901234567890",
            "\"hi\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
        let v = Json::parse("1.5").unwrap();
        assert_eq!(v, Json::Float(1.5));
        assert_eq!(v.render(), "1.5");
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn nested_round_trip_preserves_order() {
        let text = r#"{"b":1,"a":[true,null,{"x":-2.25}],"c":"s"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        // Pretty output re-parses to the same value.
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\c\n\tAé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\n\tAé");
        let rendered = Json::Str("x\ny\"z\u{1}".to_string()).render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str().unwrap(),
            "x\ny\"z\u{1}"
        );
    }

    #[test]
    fn surrogate_pair() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        // A high surrogate must be followed by a low one; any other
        // escape is an error, not an out-of-range code point.
        for bad in [r#""\udbff\u0000""#, r#""\ud800\ud800""#, r#""\ud800x""#] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("lone surrogate"), "{bad}: {err}");
        }
    }

    /// The byte-level escaper against a per-`char` statement of the rule.
    #[test]
    fn write_str_escapes_like_the_char_rule() {
        fn by_char(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut every_ascii: String = (0u8..0x80).map(char::from).collect();
        every_ascii.push_str("é€\u{2028}😀\u{7f}\u{80}\u{10ffff}");
        for s in ["", "plain", "a\"b\\c", every_ascii.as_str()] {
            let mut out = b"x".to_vec();
            write_str(&mut out, s);
            assert_eq!(&out[..1], b"x", "appends");
            assert_eq!(std::str::from_utf8(&out[1..]).unwrap(), by_char(s));
        }
        assert_eq!(
            Json::Str("\u{1}\u{1f}".into()).render(),
            r#""\u0001\u001f""#
        );
    }

    #[test]
    fn integers_past_i128_read_as_floats() {
        // `{}` writes a whole f64 as its full digit string.
        for f in [1e300, -1e300, f64::MAX, 1e39] {
            let text = Json::Float(f).render();
            assert!(!text.contains(['.', 'e']), "{text}");
            assert_eq!(Json::parse(&text).unwrap(), Json::Float(f));
        }
        assert_eq!(
            Json::parse("170141183460469231731687303715884105727").unwrap(),
            Json::Int(i128::MAX)
        );
        assert!(u64::from_json(&Json::parse(&"9".repeat(60)).unwrap()).is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn u128_and_u64_precision() {
        let pos: u128 = (1u128 << 68) + 3;
        let rendered = pos.to_json().render();
        assert_eq!(
            u128::from_json(&Json::parse(&rendered).unwrap()).unwrap(),
            pos
        );
        let big: u64 = u64::MAX;
        let rendered = big.to_json().render();
        assert_eq!(
            u64::from_json(&Json::parse(&rendered).unwrap()).unwrap(),
            big
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(u8::from_json(&Json::Int(300)).is_err());
        assert!(req::<u64>(&Json::Obj(vec![]), "n").is_err());
        assert_eq!(field_or(&Json::Obj(vec![]), "n", 7u64).unwrap(), 7);
    }

    #[test]
    fn nesting_depth_is_capped_with_a_clean_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let mixed = format!(
            "{}1{}",
            "[{\"k\":".repeat(MAX_DEPTH / 2),
            "}]".repeat(MAX_DEPTH / 2)
        );
        assert!(Json::parse(&mixed).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&over).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past the cap the parser stops at the same bracket instead
        // of recursing until the stack overflows.
        let err = Json::parse(&"[".repeat(50_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = Json::parse(&format!("{}{}", "{\"a\":".repeat(MAX_DEPTH), "{}")).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn float_int_coercion() {
        // Integral floats render without a dot and re-parse as Int;
        // f64::from_json must accept that.
        let rendered = Json::Float(2.0).render();
        assert_eq!(rendered, "2");
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(f64::from_json(&back).unwrap(), 2.0);
    }

    #[test]
    fn vec_and_option() {
        let xs = vec![1u64, 2, 3];
        let j = xs.to_json();
        assert_eq!(Vec::<u64>::from_json(&j).unwrap(), xs);
        assert_eq!(Option::<u64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u64>::from_json(&Json::Int(4)).unwrap(), Some(4));
        assert_eq!(None::<u64>.to_json(), Json::Null);
    }
}
