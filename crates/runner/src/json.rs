//! A minimal hand-rolled JSON reader/writer (the workspace builds
//! offline, so no serde). Just enough for telemetry lines, the
//! `BENCH_*.json` artifacts, and reading the daemon's JSON replies
//! back ([`Json::parse`]).

use std::fmt::Write as _;

/// A JSON value. Build with the constructors, render with
/// [`Json::render`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integers render without a decimal point.
    Int(i64),
    /// Unsigned integers (counters can exceed `i64::MAX` in theory).
    UInt(u64),
    /// Finite floats render via Rust's shortest round-trip formatting;
    /// NaN/infinity render as `null` (JSON has no spelling for them).
    Float(f64),
    /// A string, escaped per RFC 8259.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses one JSON document (RFC 8259 subset: no duplicate-key
    /// policing, `\uXXXX` escapes decoded without surrogate pairing).
    /// Numbers become [`Json::UInt`] / [`Json::Int`] when they look
    /// integral and round-trip exactly, [`Json::Float`] otherwise.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed byte;
    /// trailing non-whitespace after the document is an error too.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders to a compact one-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{}` on f64 is shortest-round-trip and always
                    // contains a `.` or exponent? No: `1.0` renders "1".
                    // That is still valid JSON (a number), so keep it.
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Recursive-descent state for [`Json::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of document".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if !self.eat(b',') {
                            self.expect(b']')?;
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        pairs.push((key, self.value()?));
                        if !self.eat(b',') {
                            self.expect(b'}')?;
                            break;
                        }
                    }
                }
                Ok(Json::Obj(pairs))
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let start = self.pos;
        // Fast path: no escapes, borrow straight from the input.
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
                    self.pos += 1;
                    return Ok(s.to_string());
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        let mut out = String::from_utf8(self.bytes[start..self.pos].to_vec())
            .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("unknown escape `\\{}`", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Copy a run of plain bytes in one go.
                    let run = self.pos;
                    let mut end = self.pos;
                    while let Some(&c) = self.bytes.get(end) {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[run..end])
                            .map_err(|_| format!("invalid UTF-8 in string at byte {run}"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("malformed number `{text}` at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Float(0.5).render(), "0.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj([
            ("bench", Json::str("serve")),
            ("count", Json::UInt(3)),
            ("delta", Json::Int(-7)),
            ("p50", Json::Float(0.598)),
            ("ok", Json::Bool(true)),
            ("gap", Json::Null),
            (
                "tiers",
                Json::Arr(vec![
                    Json::obj([("c", Json::UInt(1))]),
                    Json::obj([("c", Json::UInt(64))]),
                ]),
            ),
        ]);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("count"), Some(&Json::UInt(3)));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_nesting() {
        let parsed = Json::parse(" { \"a\\n\\\"b\" : [ 1 , 2.5e1 , \"\\u0041x\" ] } ").unwrap();
        assert_eq!(
            parsed,
            Json::Obj(vec![(
                "a\n\"b".to_string(),
                Json::Arr(vec![Json::UInt(1), Json::Float(25.0), Json::str("Ax")]),
            )])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"open", "{1:2}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_preserves_order() {
        let j = Json::obj([
            ("event", Json::str("job_end")),
            ("job", Json::UInt(3)),
            ("counters", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            j.render(),
            "{\"event\":\"job_end\",\"job\":3,\"counters\":[1,2]}"
        );
    }
}
