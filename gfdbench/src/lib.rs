//! Statistics, JSON and span bookkeeping shared by the `gfdbench` binary
//! and its smoke test. Everything the benchmark reports goes through
//! this module: one definition of "median", one of "tail", one writer.

#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// On an empty slice: a metric without samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so a
/// spread `(q3 − q1) / q2` calculated from these equals the one the
/// acceptance check computes.
///
/// # Panics
///
/// With fewer than two samples (as Python does).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let n = values.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// A tail reading: which percentile, its value, and how many samples
/// stood behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `87.5`).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile that still has at least ten samples beyond it.
/// With fewer than eleven samples no percentile qualifies and `None` is
/// returned: report the median instead of pretending to know the tail.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 11;
    Some(Tail {
        pct: 100.0 * (i + 1) as f64 / n as f64,
        value: v[i],
        samples: n,
    })
}

/// A ratio that carries the two readings it was taken from, so a
/// printed speed-up always shows its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// `numerator / base`.
    pub value: f64,
    /// The reading divided.
    pub numerator: f64,
    /// The reading divided by.
    pub base: f64,
}

impl Ratio {
    /// `numerator / base`.
    pub fn new(numerator: f64, base: f64) -> Self {
        Ratio {
            value: numerator / base,
            numerator,
            base,
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ({:.3} / {:.3})",
            self.value, self.numerator, self.base
        )
    }
}

/// A JSON value: what the benchmark prints, and what `--all` and the
/// smoke test read back (including `BENCHMARK.json`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Whole values print without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a JSON document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest digits that round-trip: every
            // digit measured, none invented. JSON has no NaN/inf.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json: {msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    fields.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid utf-8"));
                }
                b'\\' => {
                    let Some(&e) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'"' | b'\\' | b'/' => e as char,
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in the files
                            // this reads; map a lone one to U+FFFD.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

/// Identifier of a span inside one [`SpanLog`].
pub type SpanId = usize;

/// One recorded interval: `{name, start_us, end_us, parent, op}`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.order_units`.
    pub name: &'static str,
    /// Start, microseconds since the log's epoch.
    pub start_us: f64,
    /// End, microseconds since the log's epoch.
    pub end_us: f64,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<SpanId>,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Spans recorded from the benchmark's side of each layer boundary, kept
/// in memory and written out once when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`SpanLog::open`]; returns its duration
    /// in milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_us = self.now_us();
        self.spans[id].ms()
    }

    /// Run `f` inside a child span of `parent`; returns its result and
    /// the span's duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), self.spans[parent].op);
        let out = f();
        let ms = self.close(id);
        (out, ms)
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time in milliseconds: its duration minus the part
    /// of that interval its direct children cover.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.end_us.min(s.end_us) - c.start_us.max(s.start_us)).max(0.0))
            .sum();
        (s.end_us - s.start_us - covered) / 1e3
    }

    /// Share of `root`'s wall time accounted for by the self times of
    /// its descendants — what the ledger's parts sum to, over the whole.
    pub fn coverage(&self, root: SpanId) -> f64 {
        let mut sum = 0.0;
        for id in 0..self.spans.len() {
            let mut up = self.spans[id].parent;
            while let Some(p) = up {
                if p == root {
                    sum += self.self_ms(id);
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        sum / self.spans[root].ms()
    }

    /// The span file: one array of `{name, start_us, end_us, parent, op}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(f64::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from Python: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.samples), (6.0, 16));
        assert_eq!(t.pct, 37.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio::new(300.0, 150.0);
        assert_eq!(r.value, 2.0);
        assert_eq!(r.to_string(), "2.000 (300.000 / 150.000)");
    }

    #[test]
    fn json_round_trips() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("value", Json::Num(1.2034)),
            ("name", Json::Str("a \"quoted\"\nline\\".into())),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-2.5e-3)])),
            ("empty", Json::obj::<String>([])),
        ]);
        let text = doc.to_string();
        assert!(text.contains("\"attempted\": 1000,"), "{text}");
        assert!(text.contains("\"value\": 1.2034"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn json_rejects_garbage() {
        for bad in ["", "{", "[1,,2]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            Json::parse(" {\"a\": [1, 2.5e1, \"\\u0041\"]} ")
                .unwrap()
                .get("a")
                .unwrap()
                .as_arr()
                .unwrap(),
            &[Json::Num(1.0), Json::Num(25.0), Json::Str("A".into())]
        );
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn span_self_time_and_coverage() {
        let mut log = SpanLog::default();
        let root = log.open("op", None, 7);
        let a = log.open("a", Some(root), 7);
        let b = log.open("a.inner", Some(a), 7);
        log.close(b);
        log.close(a);
        log.close(root);
        // Fix the clock readings so the arithmetic is exact.
        let set = |log: &mut SpanLog, id: SpanId, s: f64, e: f64| {
            log.spans[id].start_us = s;
            log.spans[id].end_us = e;
        };
        set(&mut log, root, 0.0, 10_000.0);
        set(&mut log, a, 1_000.0, 9_000.0);
        set(&mut log, b, 2_000.0, 5_000.0);
        assert_eq!(log.self_ms(root), 2.0);
        assert_eq!(log.self_ms(a), 5.0);
        assert_eq!(log.self_ms(b), 3.0);
        assert_eq!(log.coverage(root), 0.8);
        let json = log.to_json();
        let first = &json.as_arr().unwrap()[1];
        assert_eq!(first.get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(first.get("op"), Some(&Json::Num(7.0)));
    }

    #[test]
    fn timed_child_inherits_the_operation() {
        let mut log = SpanLog::default();
        let root = log.open("op", None, 3);
        let (v, ms) = log.time("child", root, || 41 + 1);
        log.close(root);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(log.spans()[1].op, 3);
        assert_eq!(log.spans()[1].parent, Some(root));
    }
}
