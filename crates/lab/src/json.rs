//! Minimal hand-rolled JSON — the workspace builds offline, so report
//! serialization cannot lean on crates.io. The writer emits canonical,
//! deterministic text (object keys in insertion order, shortest-roundtrip
//! float formatting). The parser accepts standard JSON. It certifies every
//! report `nn-lab` writes by re-parsing it, and it is also the reader of
//! the shard wire (worker stdout) and of `nn-lab --merge` files, so it
//! treats its input as hostile: it runs in time linear in the input,
//! bounds nesting depth, and answers malformed text with an `Err`, never
//! a panic.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, kept exact (seeds are full u64s that a f64
    /// would silently round).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved, so rendering is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric view, covering both number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact unsigned view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // `{:?}` keeps a decimal point on whole values
                    // ("2.0", not "2"), so parse(render(x)) preserves
                    // the Num/UInt variant split.
                    let _ = write!(out, "{n:?}");
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit unparseable text.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Deepest array/object nesting [`Json::parse`] accepts. The writer's
/// reports nest at most 6 levels; the bound turns hostile input (e.g.
/// 200 000 `[`) into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null").map(|_| Json::Null),
            Some(b't') => self.eat_lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Reads the four hex digits of a `\u` escape. Entered with `pos` on
    /// the `u`; leaves `pos` on the last hex digit (the caller's shared
    /// `pos += 1` then steps past it). Exactly four ASCII hex digits: no
    /// sign, no whitespace.
    fn hex_escape(&mut self) -> Result<u32, String> {
        let at = self.pos;
        let hex = self
            .bytes
            .get(at + 1..at + 5)
            .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
        let mut code = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
            code = code << 4 | digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Reads a string. Each unescaped run up to the next `"`, `\` or
    /// control byte is copied in one step, so every byte is scanned and
    /// UTF-8-checked once and parsing stays linear in the input.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 at byte {}", start + e.valid_up_to()))?,
            );
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: must be followed by
                                // `\uDC00..\uDFFF`; combine the pair.
                                self.pos += 1;
                                if self.peek() != Some(b'\\') {
                                    return Err("high surrogate not followed by \\u".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("high surrogate not followed by \\u".to_string());
                                }
                                let low = self.hex_escape()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("bad low surrogate {low:#06x}"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or("bad surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&code) {
                                return Err(format!("unpaired low surrogate {code:#06x}"));
                            } else {
                                char::from_u32(code).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // JSON forbids raw control bytes inside strings; the
                    // writer always escapes them.
                    return Err(format!(
                        "raw control byte {b:#04x} in string at byte {}",
                        self.pos
                    ));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let v = Json::obj(vec![
            ("name", Json::Str("matrix \"x\"\n".to_string())),
            ("seed", Json::UInt(u64::MAX)),
            ("ratio", Json::Num(0.125)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "cells",
                Json::Arr(vec![Json::UInt(1), Json::Num(-2.5), Json::Arr(vec![])]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0xdead_beef_cafe_f00d_u64;
        let text = Json::UInt(seed).render();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = Json::obj(vec![("b", Json::UInt(2)), ("a", Json::UInt(1))]);
        assert_eq!(v.render(), v.render());
        assert_eq!(v.render(), r#"{"b":2,"a":1}"#);
    }

    #[test]
    fn nonfinite_floats_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Raw (non-escaped) UTF-8 passes through unchanged too.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        // Unpaired or malformed surrogates are errors, not silent U+FFFD.
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83dA""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn whole_valued_floats_keep_their_variant_through_roundtrip() {
        for v in [Json::Num(2.0), Json::Num(0.0), Json::Num(-3.0)] {
            let text = v.render();
            assert!(text.contains('.'), "{text} must keep a decimal point");
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        // Integers still render bare and parse back as UInt.
        assert_eq!(Json::parse(&Json::UInt(2).render()).unwrap(), Json::UInt(2));
    }

    #[test]
    fn parses_standard_json_with_whitespace() {
        let v = Json::parse("  { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] }  ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("xA")
        );
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        assert_eq!(Json::parse(r#""\u00E9""#).unwrap().as_str(), Some("é"));
        // A sign or a space is not a hex digit, even where an integer
        // parser would accept it.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("\\u escape at byte 2"), "{bad}: {err}");
        }
        // The low half of a surrogate pair is held to the same rule.
        assert!(Json::parse(r#""\ud83d\u+e00""#).is_err());
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected() {
        for b in (0u8..0x20).map(char::from) {
            let text = format!("[\"ok\",\"a{b}z\"]");
            let err = Json::parse(&text).unwrap_err();
            assert_eq!(
                err,
                format!("raw control byte {:#04x} in string at byte 8", b as u32),
                "{text:?}"
            );
        }
        // Escaped, the same characters round-trip, and 0x7f (not a
        // control byte in JSON's sense) passes through raw.
        let all: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        let v = Json::Str(all);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the bound, unterminated, objects too: an error, never
        // a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn accessors_cover_variants() {
        assert_eq!(Json::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Json::Null.as_f64(), None);
        assert_eq!(Json::Str("s".into()).as_str(), Some("s"));
        assert!(Json::Arr(vec![]).as_arr().unwrap().is_empty());
        assert_eq!(Json::Null.get("k"), None);
    }
}
