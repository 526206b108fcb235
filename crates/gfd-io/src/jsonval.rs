//! A small self-contained JSON tree, parser and pretty-printer.
//!
//! This replaces `serde_json` for the documents a run writes about itself
//! — the Chrome trace, the run report, `BENCH_paper.json` — and the
//! readers that check them (DESIGN.md §5: the workspace builds offline,
//! so serialization is hand-rolled). The subset is exactly what those
//! documents need: objects with ordered keys, arrays, strings, 64-bit
//! integers, booleans and null. Floats are rejected — none of them holds
//! one, and silently truncating one on read would corrupt data.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number form the formats use).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object with `fields` in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let fields = fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value));
        Json::Object(fields.collect())
    }

    /// A string.
    pub fn string(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer, saturating at `i64::MAX` (counters are unsigned; the
    /// parser reads 64-bit signed integers).
    pub fn int(n: impl TryInto<i64>) -> Json {
        Json::Int(n.try_into().unwrap_or(i64::MAX))
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline-free
    /// final line, mirroring `serde_json::to_string_pretty`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Print on one line with no whitespace (large machine-read documents,
    /// such as the Chrome trace).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The one writer: `depth` is the indent level when pretty-printing,
    /// `None` for compact output.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_items(out, depth, "[]", items, |out, item| item.write(out, inner))
            }
            Json::Object(fields) => write_items(out, depth, "{}", fields, |out, (key, value)| {
                write_escaped(out, key);
                out.push_str(if depth.is_some() { ": " } else { ":" });
                value.write(out, inner);
            }),
        }
    }
}

/// `items` between the two `brackets`, comma-separated; pretty output
/// puts each item on its own line one level deeper.
fn write_items<T>(
    out: &mut String,
    depth: Option<usize>,
    brackets: &str,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth.map(|d| d + 1));
        write_item(out, item);
    }
    if !items.is_empty() {
        newline(out, depth);
    }
    out.push_str(close);
}

/// A line break and `depth` indents when pretty-printing; nothing when
/// compact.
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON syntax error with its byte offset.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Byte offset of the offending input position.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting accepted by [`parse`]: crafted input with
/// thousands of `[`/`{` must return an error, not overflow the stack
/// (serde_json enforces the same bound).
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                if self.eat_keyword("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the formats;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                        }
                        c => return Err(self.err(format!("unknown escape `\\{}`", c as char))),
                    }
                }
                Some(first) if first < 0x80 => {
                    out.push(first as char);
                    self.pos += 1;
                }
                Some(first) => {
                    // Consume one multi-byte UTF-8 scalar, validating only
                    // its own bytes: validating the whole remaining input
                    // per character made parsing quadratic on large files
                    // (a multi-megabyte trace took minutes).
                    let len = match first {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push(scalar.chars().next().unwrap());
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| self.err("integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::Object(vec![
            ("name".into(), Json::Str("a \"quoted\" name\n".into())),
            ("n".into(), Json::Int(-42)),
            ("flag".into(), Json::Bool(true)),
            ("missing".into(), Json::Null),
            (
                "items".into(),
                Json::Array(vec![
                    Json::Int(1),
                    Json::Str("two".into()),
                    Json::Array(vec![]),
                ]),
            ),
            ("empty".into(), Json::Object(vec![])),
        ]);
        let text = doc.pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(parse(&doc.compact()).unwrap(), doc);
    }

    #[test]
    fn compact_output_has_no_whitespace() {
        let doc = Json::Object(vec![
            (
                "a".into(),
                Json::Array(vec![Json::Int(1), Json::Str("x y".into())]),
            ),
            ("e".into(), Json::Object(vec![])),
            ("n".into(), Json::Array(vec![])),
        ]);
        assert_eq!(doc.compact(), r#"{"a":[1,"x y"],"e":{},"n":[]}"#);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"\\u0041\\t\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Json::Int(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Json::Str("A\t".into())
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
        // 100 levels stay fine.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{nodes: oops").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unicode_survives() {
        let doc = Json::Str("héllo ☃".into());
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
    }
}
