//! A minimal JSON value, emitter and parser.
//!
//! Replaces the `serde` derive machinery with an explicit builder API:
//! report types implement [`ToJson`] by assembling a [`Json`] value, which
//! serialises with correct string escaping and round-trips through
//! [`Json::parse`]. No derives, no monomorphisation blow-up, no external
//! dependency — the emitter exists so experiment artefacts
//! (`BENCH_*.json`, campaign reports) are machine-readable.
//!
//! Numbers are `f64` (JSON's native model); integers up to 2⁵³ round-trip
//! exactly, which covers every counter in this workspace.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (emitted shortest-exact via Rust's `f64` Display).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap) so emission is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object, for builder-style assembly with [`Json::set`].
    #[must_use]
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// An array from anything iterable over `Into<Json>`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Inserts `key` into an object (builder style). Panics when `self`
    /// is not an object — that is a programming error, not data.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to a compact JSON string.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact form to `out`: the one number and string
    /// formatter, shared by [`Json::to_string_compact`] and by writers
    /// that stream a document into a `String` without building a tree.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serialises with 2-space indentation (for committed artefacts whose
    /// diffs should be reviewable).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for round-tripping our own
    /// emitter and reading hand-written configs).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Appends `n` to `out` as a JSON number: the one number formatter,
/// shared by [`Json`] emission and by writers that stream a document
/// without building a tree. An integral value below 9e15 in magnitude
/// prints as an integer (`-0.0` as `0`), any other finite value in
/// Rust's shortest round-trip `f64` form, and NaN or ±∞ as `null`.
pub fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-bad encoding.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        write_int(out, n as i64);
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

/// Appends the decimal digits of `v` (with a leading `-` when
/// negative), without going through `fmt`.
fn write_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `items` to `out` as a compact JSON array, each item written
/// by `item`.
pub fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Appends `s` to `out` as a quoted JSON string, escaping exactly as
/// the emitter does for keys and string values. A string with no quote,
/// backslash or control character, the usual case, is copied whole
/// (every byte of a multibyte UTF-8 character is ≥ 0x80, so none needs
/// an escape).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------- conversions

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
impl_from_num!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::array(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Types that render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> From<&T> for Json {
    fn from(t: &T) -> Json {
        t.to_json()
    }
}

// ------------------------------------------------------------------ parser

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
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // Up to 15 digits, the integers most documents are full of, convert
    // exactly on their own (they are below 2^53); the float parser
    // would give the same value.
    let token = &bytes[start..*pos];
    let digits = token.strip_prefix(b"-").unwrap_or(token);
    if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        let n = digits
            .iter()
            .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0')) as f64;
        return Ok(Json::Num(if digits.len() < token.len() { -n } else { n }));
    }
    std::str::from_utf8(token)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    scan_string(bytes, pos).map(Cow::into_owned)
}

/// Scans the string at `pos`: borrowed from the input when it has no
/// escape, the usual case, so a reader that only compares or skips it
/// allocates nothing.
fn scan_string<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, String> {
    expect(bytes, pos, b'"')?;
    let mut out: Option<String> = None;
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out.map_or(Cow::Borrowed(""), Cow::Owned));
            }
            Some(b'\\') => {
                let out = out.get_or_insert_with(String::new);
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Take the run up to the next quote or backslash. Both
                // are ASCII, so the run ends on a char boundary; decoding
                // only the run keeps the parse linear in the input.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                match &mut out {
                    Some(out) => out.push_str(run),
                    // A whole string with no escape is the run itself.
                    None if bytes.get(*pos) == Some(&b'"') => {
                        *pos += 1;
                        return Ok(Cow::Borrowed(run));
                    }
                    None => out = Some(run.to_string()),
                }
            }
        }
    }
}

// ------------------------------------------------------------- pull reader

/// A pull reader over one JSON document, for decoders that stream a
/// large document into their own structures instead of building a
/// [`Json`] tree of it. It runs the tree parser's own string, number,
/// literal and whitespace scanners, and it accepts and rejects exactly
/// what [`Json::parse`] does, with the same messages at the same byte
/// offsets.
///
/// An object is read as [`Reader::begin_object`], then
/// [`Reader::next_key`] until it returns `None`, with one value read
/// after each key; an array as [`Reader::begin_array`], then
/// [`Reader::next_item`] until it returns `false`, with one value read
/// after each `true`. A value is read with [`Reader::value`] (a [`Json`]
/// subtree), [`Reader::skip`], or a nested container.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// A container was just opened, so the next key or item takes no
    /// separator.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            fresh: false,
        }
    }

    /// The byte offset of the next unread byte.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The first byte of the next value, past any whitespace.
    pub fn peek(&mut self) -> Option<u8> {
        skip_ws(self.bytes, &mut self.pos);
        self.bytes.get(self.pos).copied()
    }

    /// Enters the object the next value must be.
    ///
    /// # Errors
    ///
    /// The next value does not start with `{`.
    pub fn begin_object(&mut self) -> Result<(), String> {
        skip_ws(self.bytes, &mut self.pos);
        expect(self.bytes, &mut self.pos, b'{')?;
        self.fresh = true;
        Ok(())
    }

    /// The next key of the innermost open object, or `None` at its end.
    ///
    /// # Errors
    ///
    /// A syntax error, as [`Json::parse`] reports it.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        skip_ws(self.bytes, &mut self.pos);
        let first = std::mem::take(&mut self.fresh);
        match self.bytes.get(self.pos) {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            _ if !first => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            _ => {}
        }
        skip_ws(self.bytes, &mut self.pos);
        let key = scan_string(self.bytes, &mut self.pos)?;
        skip_ws(self.bytes, &mut self.pos);
        expect(self.bytes, &mut self.pos, b':')?;
        Ok(Some(key))
    }

    /// Enters the array the next value must be.
    ///
    /// # Errors
    ///
    /// The next value does not start with `[`.
    pub fn begin_array(&mut self) -> Result<(), String> {
        skip_ws(self.bytes, &mut self.pos);
        expect(self.bytes, &mut self.pos, b'[')?;
        self.fresh = true;
        Ok(())
    }

    /// Whether the innermost open array has another item; `false` at
    /// its end.
    ///
    /// # Errors
    ///
    /// A syntax error, as [`Json::parse`] reports it.
    pub fn next_item(&mut self) -> Result<bool, String> {
        skip_ws(self.bytes, &mut self.pos);
        let first = std::mem::take(&mut self.fresh);
        match self.bytes.get(self.pos) {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if !first => Err(format!("expected ',' or ']' at byte {}", self.pos)),
            _ => Ok(true),
        }
    }

    /// The next value as a [`Json`] subtree.
    ///
    /// # Errors
    ///
    /// A syntax error, as [`Json::parse`] reports it.
    pub fn value(&mut self) -> Result<Json, String> {
        parse_value(self.bytes, &mut self.pos)
    }

    /// Checks and passes over the next value without building it.
    ///
    /// # Errors
    ///
    /// A syntax error, as [`Json::parse`] reports it.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Some(b'"') => {
                scan_string(self.bytes, &mut self.pos)?;
            }
            _ => {
                parse_value(self.bytes, &mut self.pos)?;
            }
        }
        Ok(())
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// Trailing data, reported as [`Json::parse`] reports it.
    pub fn finish(&mut self) -> Result<(), String> {
        skip_ws(self.bytes, &mut self.pos);
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_nested_objects() {
        let j = Json::object()
            .set("name", "e1")
            .set("trials", 3000u64)
            .set("ok", true)
            .set("nested", Json::object().set("p95_ns", 123.5))
            .set("tags", Json::array(["a", "b"]));
        assert_eq!(j.get("name").and_then(Json::as_str), Some("e1"));
        assert_eq!(j.get("trials").and_then(Json::as_f64), Some(3000.0));
        assert_eq!(
            j.get("nested")
                .and_then(|n| n.get("p95_ns"))
                .and_then(Json::as_f64),
            Some(123.5)
        );
    }

    #[test]
    fn compact_emission_is_canonical() {
        let j = Json::object().set("b", 1u32).set("a", Json::Null);
        // BTreeMap keys sort: a before b.
        assert_eq!(j.to_string_compact(), r#"{"a":null,"b":1}"#);
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
        assert_eq!(Json::from(-3i64).to_string_compact(), "-3");
        assert_eq!(Json::from(0.5f64).to_string_compact(), "0.5");
    }

    #[test]
    fn integer_tokens_parse_as_the_float_parser_reads_them() {
        let mut rng = crate::Rng::seed_from_u64(0x1e7);
        let mut tokens: Vec<String> = ["0", "-0", "007", "-12", "999999999999999", "1000000000"]
            .iter()
            .map(|t| t.to_string())
            .collect();
        tokens.push("1234567890123456".to_string());
        tokens.extend((0..200).map(|_| rng.gen_range(0..10u64.pow(15)).to_string()));
        for t in &tokens {
            let got = Json::parse(t).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), t.parse::<f64>().unwrap().to_bits(), "{t}");
        }
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("[1,-]").is_err());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{01} unicode\u{2603}";
        let j = Json::object().set(nasty, nasty);
        let text = j.to_string_compact();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, j);
        assert_eq!(back.get(nasty).and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn write_compact_appends_what_to_string_compact_returns() {
        let j = Json::object()
            .set(
                "n",
                Json::array([Json::from(0.1), Json::from(3u64), Json::Null]),
            )
            .set("s", "q\"\u{01}");
        let mut out = String::from("[");
        j.write_compact(&mut out);
        write_escaped(&mut out, "q\"\u{01}");
        assert_eq!(
            out,
            format!("[{}{}", j.to_string_compact(), Json::from("q\"\u{01}"))
        );
    }

    #[test]
    fn pretty_and_compact_parse_identically() {
        let j = Json::object()
            .set("rows", Json::array([1u32, 2, 3]))
            .set("label", "x\ny")
            .set("empty_arr", Json::Arr(vec![]))
            .set("empty_obj", Json::object());
        let compact = Json::parse(&j.to_string_compact()).unwrap();
        let pretty = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(compact, pretty);
        assert_eq!(compact, j);
    }

    #[test]
    fn parses_plain_documents() {
        let j = Json::parse(r#" {"a": [1, 2.5, -3e2], "b": {"c": null}, "d": false} "#).unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            j.get("a").unwrap().as_array().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(j.get("d"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1, 2,,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("").is_err());
    }

    /// `text` through a [`Reader`]: the whole value skipped, or read
    /// key by key and item by item with every scalar taken as a value.
    fn read_all(text: &str, skipping: bool) -> Result<(), String> {
        fn walk(r: &mut Reader<'_>) -> Result<(), String> {
            match r.peek() {
                Some(b'{') => {
                    r.begin_object()?;
                    while r.next_key()?.is_some() {
                        walk(r)?;
                    }
                    Ok(())
                }
                Some(b'[') => {
                    r.begin_array()?;
                    while r.next_item()? {
                        walk(r)?;
                    }
                    Ok(())
                }
                _ => r.value().map(drop),
            }
        }
        let mut r = Reader::new(text);
        if skipping {
            r.skip()?;
        } else {
            walk(&mut r)?;
        }
        r.finish()
    }

    #[test]
    fn the_reader_accepts_and_rejects_what_parse_does() {
        let doc = r#" {"a": [1, -2.5e3, "x\"y", {"b": null}, []], "c": {}, "d": [true, false], "e": "é"} "#;
        let mut cases: Vec<String> = (0..=doc.len())
            .filter(|&i| doc.is_char_boundary(i))
            .map(|i| doc[..i].to_string())
            .collect();
        for (i, _) in doc.char_indices() {
            for b in [
                "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "1", "x", "-", ".",
            ] {
                let end = i + doc[i..].chars().next().map_or(0, char::len_utf8);
                cases.push(format!("{}{b}{}", &doc[..i], &doc[end..]));
            }
        }
        for text in &cases {
            let want = Json::parse(text).map(drop);
            assert_eq!(read_all(text, true), want, "skip: {text}");
            assert_eq!(read_all(text, false), want, "walk: {text}");
        }
    }

    #[test]
    fn the_reader_borrows_plain_keys_and_reports_offsets() {
        let text = r#"{"plain": 1, "esc\"aped": [2]}"#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert!(matches!(
            r.next_key().unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        assert_eq!(r.value().unwrap(), Json::Num(1.0));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("esc\"aped"));
        let start = r.peek().map(|_| r.pos()).unwrap();
        r.skip().unwrap();
        assert_eq!(&text[start..r.pos()], "[2]");
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn from_conversions_cover_common_types() {
        assert_eq!(Json::from(Some(1u8)).to_string_compact(), "1");
        assert_eq!(Json::from(None::<u8>).to_string_compact(), "null");
        assert_eq!(Json::from(vec![1u8, 2]).to_string_compact(), "[1,2]");
        assert_eq!(Json::from("s".to_string()).to_string_compact(), r#""s""#);
    }

    #[test]
    fn to_json_trait_feeds_builder() {
        struct P(u32);
        impl ToJson for P {
            fn to_json(&self) -> Json {
                Json::object().set("v", self.0)
            }
        }
        let j = Json::object().set("p", &P(7));
        assert_eq!(j.to_string_compact(), r#"{"p":{"v":7}}"#);
    }
}
