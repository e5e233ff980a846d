//! The one JSON module: the writers every report and export renders
//! through, and the reader fault plans parse with.
//!
//! The workspace has no serialization dependency, so output is rendered
//! directly. Large outputs go row by row through a [`Row`]: a growable
//! buffer cleared for each row, filled with literal text, pre-escaped
//! names and decimal digits, then handed to the sink in one write. So
//! rendering streams into any `io::Write` and never holds the whole output.
//!
//! Row writers follow one rule: **one literal per field, with the
//! separator joined into the key.** A field is a single constant such as
//! `", \"arrival_cycle\": "` followed by its value, never a separator, a
//! quote, a runtime key and `": "` appended one by one. A field whose key
//! and value are both fixed per task (a task's escaped name) is joined
//! into one string per task, built once per report.

use std::fmt::{self, Display, Write as _};
use std::io::{self, Write};

/// Escapes `s` as the body of a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A float that displays with `Display` when finite and as a stand-in
/// otherwise, never as `NaN`/`inf`: `null` in JSON, an empty CSV cell.
pub(crate) struct Float<T>(T, bool, &'static str);

impl<T: Display> Display for Float<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.1 {
            self.0.fmt(f)
        } else {
            f.write_str(self.2)
        }
    }
}

/// A JSON number: `Display` when finite, `null` otherwise (JSON has no
/// `NaN`/`Infinity`).
pub(crate) fn json_f64(v: f64) -> Float<f64> {
    Float(v, v.is_finite(), "null")
}

/// A CSV cell: `Display` when finite, empty otherwise.
pub(crate) fn csv_f64(v: f64) -> Float<f64> {
    Float(v, v.is_finite(), "")
}

/// [`csv_f64`] for `f32` columns, at `f32` precision (widening would turn
/// `0.85` into `0.8500000238418579`).
pub(crate) fn csv_f32(v: f32) -> Float<f32> {
    Float(v, v.is_finite(), "")
}

/// `"00"` to `"99"`, the decimal digit pairs [`Row::u64`] writes.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324\
    2526272829303132333435363738394041424344454647484950515253545556575859606162636465666768\
    69707172737475767778798081828384858687888990919293949596979899";

/// A reusable row buffer. Growable, so a row of any length (a 4 KB task
/// name, say) fits without a size limit.
///
/// Write each field as one literal that carries its separator and key,
/// then its value: `row.str(", \"start_cycle\": ").u64(start)`. Per row
/// that is two appends per field, one of them a constant-length copy. The
/// appends are `#[inline]`: the writers live in other modules, and a call
/// per append measured slower than the append itself.
#[derive(Debug, Default)]
pub(crate) struct Row(Vec<u8>);

impl Row {
    /// Appends literal text.
    #[inline]
    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends `value` in decimal, two digits per division, without going
    /// through `fmt`.
    #[inline]
    pub(crate) fn u64(&mut self, mut value: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            let pair = 2 * (value % 100) as usize;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            value /= 100;
            if value == 0 {
                break;
            }
        }
        // The leading pair of an odd digit count (or of zero) starts with 0.
        at += usize::from(digits[at] == b'0');
        self.0.extend_from_slice(&digits[at..]);
        self
    }

    /// Hands the row to `w` in one write and clears it for the next row.
    #[inline]
    pub(crate) fn send(&mut self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.0)?;
        self.0.clear();
        Ok(())
    }
}

/// Renders into a `Vec<u8>` reserved for `capacity` bytes and returns it
/// as a `String` without copying it.
pub(crate) fn render_string(
    capacity: usize,
    render: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> String {
    let mut out = Vec::with_capacity(capacity);
    // Writing into a Vec cannot fail, and every renderer writes UTF-8.
    let _ = render(&mut out);
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Minimal JSON value model — just enough for fault plans (the workspace
/// has no JSON dependency, so plans parse through this hand-rolled
/// recursive-descent reader).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// A number's source text, checked to parse as an `f64`, so integers
    /// above 2^53 read back exactly.
    Number(String),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(entries) => Ok(entries),
            other => Err(format!("{what} must be a JSON object, got {other:?}")),
        }
    }

    pub(crate) fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(entries) => Ok(entries),
            other => Err(format!("{what} must be a JSON array, got {other:?}")),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("{what} must be a JSON string, got {other:?}")),
        }
    }

    pub(crate) fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Number(text) => text
                .parse()
                .map_err(|_| format!("{what} must be a JSON number, got {text}")),
            other => Err(format!("{what} must be a JSON number, got {other:?}")),
        }
    }

    /// The number as a `u64`: digits read exactly, or any other form
    /// (`1e3`, `40000.0`) whose value is an integer an `f64` holds exactly
    /// (at most 2^53), so no integer is rounded on the way in.
    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        if let Json::Number(text) = self {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(n);
            }
        }
        let n = self.as_f64(what)?;
        if !(0.0..=(1u64 << 53) as f64).contains(&n) || n.fract() != 0.0 {
            return Err(format!("{what} must be a non-negative integer, got {n}"));
        }
        Ok(n as u64)
    }
}

/// Deepest nesting of objects and arrays a fault plan may use. The plan
/// format itself nests three levels (plan, event list, event); the limit
/// turns a hostile file of nested brackets into a parse error instead of
/// a stack overflow in the recursive reader.
const MAX_JSON_DEPTH: usize = 16;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around the current position.
    depth: usize,
}

pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    reader.skip_whitespace();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing content at byte {}", reader.pos));
    }
    Ok(value)
}

impl Reader<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn consume(&mut self, expected: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != expected {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                expected as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            b'"' => Ok(Json::String(self.string()?)),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {} (fault plans use objects, arrays, \
                 strings, and numbers only)",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.consume(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut entries = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(entries));
        }
        loop {
            entries.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or("unterminated escape sequence")?;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(format!(
                                "unsupported escape \\{} in fault plan",
                                *other as char
                            ))
                        }
                    });
                    self.pos += 2;
                }
                Some(&byte) => {
                    // Multi-byte UTF-8 passes through unchanged: the input
                    // is a &str, so byte boundaries are already valid.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    while byte >= 0x80 && self.bytes.get(end).is_some_and(|b| b & 0xc0 == 0x80) {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Number(text.to_string())),
            Err(_) => Err(format!("malformed number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decimal(value: u64) -> String {
        let mut row = Row::default();
        let mut out = Vec::new();
        row.u64(value).send(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn decimal_writer_matches_to_string_at_every_width_edge() {
        let mut values: Vec<u64> = (0..10_000).chain([u64::MAX, u64::MAX - 1]).collect();
        for k in 1..=19 {
            let power = 10u64.pow(k);
            values.extend([power - 1, power, power + 1]);
        }
        for value in values {
            assert_eq!(decimal(value), value.to_string());
        }
    }

    #[test]
    fn non_finite_floats_render_as_null_in_json_and_empty_in_csv() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(v).to_string(), "null");
            assert_eq!(csv_f64(v).to_string(), "");
            assert_eq!(csv_f32(v as f32).to_string(), "");
        }
        assert_eq!(json_f64(1.5).to_string(), "1.5");
        assert_eq!(csv_f64(-0.25).to_string(), "-0.25");
        assert_eq!(csv_f32(0.85).to_string(), "0.85");
    }

    #[test]
    fn integers_read_back_exactly_past_two_to_the_53() {
        let read = |text: &str| parse_json(text).and_then(|v| v.as_u64("n"));
        // 2^53 + 1, 2^62 + 1 and u64::MAX used to round through an f64.
        for n in [(1u64 << 53) + 1, (1 << 62) + 1, u64::MAX] {
            assert_eq!(read(&n.to_string()), Ok(n));
        }
        assert_eq!(read("1e3"), Ok(1000));
        assert_eq!(read("40000.0"), Ok(40_000));
        for bad in ["18446744073709551616", "1e19", "-1", "2.5"] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escapers_handle_special_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}\r\t"), "\\u0001\\r\\t");
    }

    #[test]
    fn rows_clear_between_sends_and_grow_past_any_length() {
        let long = "x".repeat(1 << 16);
        let mut row = Row::default();
        let mut out = Vec::new();
        row.str("a").send(&mut out).unwrap();
        row.str(&long).send(&mut out).unwrap();
        assert_eq!(out.len(), 1 + long.len());
        assert_eq!(render_string(0, |w| row.str("é").send(w)), "é");
    }
}
