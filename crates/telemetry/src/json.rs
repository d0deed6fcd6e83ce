//! The workspace's JSON encoder and its one JSON reader.
//!
//! The workspace is hermetic (no serde_json). Trace events, audit records,
//! flight-recorder entries and `BENCH_*.json` snapshots are flat objects of
//! scalars, written with [`ObjectWriter`] and read back with
//! [`parse_flat_object`]. `POST /map` bodies and Perfetto exports nest, and
//! [`parse`] reads those. `parse_flat_object` is `parse` plus a shape check,
//! so every JSON document the workspace reads goes through one parser.
//!
//! The parser is recursive descent with a fixed nesting bound,
//! [`MAX_DEPTH`]: past it, [`parse`] returns `Err` instead of recursing
//! further, so no input can overflow the reading thread's stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON null.
    Null,
    /// true / false.
    Bool(bool),
    /// Any JSON number, kept as f64.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; a repeated key keeps its last value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.get(key),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_str_escaped(out: &mut String, s: &str) {
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

/// Appends a JSON rendering of `v` to `out` (`null` for non-finite floats,
/// which JSON cannot represent).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Builds a flat JSON object of scalars incrementally — the encoder dual of
/// [`parse_flat_object`]. Used wherever the workspace exports machine-
/// readable state outside the trace sink (the `baton profile --json`
/// per-layer records, `BENCH_*.json` snapshots): everything it emits parses
/// back with [`parse_flat_object`].
///
/// ```
/// use baton_telemetry::json::{parse_flat_object, ObjectWriter};
///
/// let mut w = ObjectWriter::new();
/// w.str("record", "layer").u64("evaluations", 42).f64("ms", 1.5);
/// let obj = parse_flat_object(&w.finish()).unwrap();
/// assert_eq!(obj["evaluations"].as_f64(), Some(42.0));
/// ```
#[derive(Debug, Clone)]
pub struct ObjectWriter {
    buf: String,
    pretty: bool,
    empty: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Starts a compact single-line object.
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// Starts a compact single-line object with room for `bytes` bytes of
    /// output, so a writer of a known typical size grows without
    /// reallocating.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut buf = String::with_capacity(bytes);
        buf.push('{');
        Self {
            buf,
            pretty: false,
            empty: true,
        }
    }

    /// Starts a pretty-printed object (one key per line) — still a *flat*
    /// object, so [`parse_flat_object`] accepts it.
    pub fn pretty() -> Self {
        Self {
            buf: String::from("{"),
            pretty: true,
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        if self.pretty {
            self.buf.push_str("\n  ");
        }
        push_str_escaped(&mut self.buf, key);
        self.buf.push(':');
        if self.pretty {
            self.buf.push(' ');
        }
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_str_escaped(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (`null` when non-finite, as JSON demands).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        push_f64(&mut self.buf, value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.pretty && !self.empty {
            self.buf.push('\n');
        }
        self.buf.push('}');
        self.buf
    }
}

/// The deepest container nesting [`parse`] accepts. `/map` bodies nest 2
/// deep, Perfetto exports 4 and flat objects 1.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a description of the first syntax problem, or of a container
/// nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(value)
}

/// Parses a flat JSON object of scalars: [`parse`], then a
/// check that the top level is an object and no field holds a container.
///
/// # Errors
///
/// Returns [`parse`]'s error, or names the shape problem.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let Value::Object(fields) = parse(line)? else {
        return Err("expected a JSON object".into());
    };
    match fields
        .iter()
        .find(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)))
    {
        Some((key, _)) => Err(format!("field `{key}` holds a container, not a scalar")),
        None => Ok(fields),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?} at byte {}, got {other:?}",
                want as char,
                self.pos.saturating_sub(1)
            )),
        }
    }

    /// One value whose enclosing containers number `depth`.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                let mut fields = BTreeMap::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Reads the comma-separated `item`s of a container up to `close`,
    /// starting at its opening bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.peek() != Some(b',') {
                return self.expect(close);
            }
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole: all three are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = self
                .text
                .get(start..self.pos)
                .ok_or("split UTF-8 sequence")?;
            out.push_str(run);
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err("raw control byte in string".into()),
            }
        }
    }

    /// The character of one escape sequence, after its backslash. A
    /// `\u` escape of a UTF-16 high surrogate must be followed by the
    /// escape of a low one, and the pair reads as one character.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unit = self.hex4()?;
                let code = match unit {
                    0xD800..=0xDBFF => {
                        if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                            return Err("unpaired surrogate escape".into());
                        }
                        match self.hex4()? {
                            low @ 0xDC00..=0xDFFF => {
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            }
                            _ => return Err("unpaired surrogate escape".into()),
                        }
                    }
                    code => code,
                };
                char::from_u32(code).ok_or("bad \\u codepoint")?
            }
            other => return Err(format!("bad escape {other:?}")),
        })
    }

    /// Exactly four hex digits: no sign, no shorter run.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .next()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or("bad \\u escape")?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    /// A number as RFC 8259 spells it: an optional minus, an integer part
    /// without leading zeros, then an optional fraction and exponent, each
    /// with at least one digit. The span it takes is valid `f64` syntax.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(bad()),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(bad());
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(bad());
            }
            self.digits();
        }
        let text = self.text.get(start..self.pos).ok_or_else(bad)?;
        text.parse::<f64>().map(Value::Number).map_err(|_| bad())
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_parse_round_trips() {
        let mut line = String::from("{");
        push_str_escaped(&mut line, "event");
        line.push(':');
        push_str_escaped(&mut line, "demo \"quoted\"\nline");
        line.push(',');
        push_str_escaped(&mut line, "x");
        line.push(':');
        push_f64(&mut line, 1.5);
        line.push('}');
        let obj = parse_flat_object(&line).unwrap();
        assert_eq!(obj["event"].as_str(), Some("demo \"quoted\"\nline"));
        assert_eq!(obj["x"].as_f64(), Some(1.5));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_flat_object("{").is_err());
        assert!(parse_flat_object("{\"a\":1} tail").is_err());
        assert!(parse_flat_object("{\"a\":{}}").is_err());
        assert!(parse_flat_object("not json").is_err());
        let err = parse_flat_object("{\"a\":1,\"b\":[]}").unwrap_err();
        assert!(err.contains("`b`"), "{err}");
        assert!(parse_flat_object("[1]").is_err());
        assert!(parse_flat_object("{\"a\":\"raw\u{1}byte\"}").is_err());
    }

    #[test]
    fn object_writer_round_trips_compact_and_pretty() {
        let mut w = ObjectWriter::new();
        w.str("s", "a\"b")
            .u64("u", 7)
            .f64("f", -0.5)
            .bool("b", false);
        let compact = w.finish();
        assert!(!compact.contains('\n'));
        let obj = parse_flat_object(&compact).unwrap();
        assert_eq!(obj["s"].as_str(), Some("a\"b"));
        assert_eq!(obj["u"].as_f64(), Some(7.0));
        assert_eq!(obj["b"], Value::Bool(false));

        let mut w = ObjectWriter::pretty();
        w.u64("x", 1).f64("nan", f64::NAN);
        let pretty = w.finish();
        assert!(pretty.contains('\n'));
        let obj = parse_flat_object(&pretty).unwrap();
        assert_eq!(obj["x"].as_f64(), Some(1.0));
        assert_eq!(obj["nan"], Value::Null);
        assert_eq!(ObjectWriter::pretty().finish(), "{}");
    }

    /// Re-encodes a parsed flat object in key-sorted (BTreeMap iteration)
    /// order — the canonical form used by the byte-for-byte tests below.
    fn encode_sorted(obj: &BTreeMap<String, Value>) -> String {
        let mut w = ObjectWriter::new();
        for (k, v) in obj {
            match v {
                Value::Null => {
                    w.f64(k, f64::NAN);
                }
                Value::Bool(b) => {
                    w.bool(k, *b);
                }
                Value::Number(n) => {
                    w.f64(k, *n);
                }
                Value::String(s) => {
                    w.str(k, s);
                }
                Value::Array(_) | Value::Object(_) => unreachable!("flat objects hold scalars"),
            }
        }
        w.finish()
    }

    #[test]
    fn trace_event_lines_with_hostile_labels_round_trip_byte_for_byte() {
        // A span event the trace sink could emit, keys pre-sorted, whose
        // label value carries every escapable shape: backslashes (single
        // and doubled), embedded quotes, and a quoted-backslash tail.
        let label = r#"c:\tmp\\conv "1x1" end\"#;
        let mut w = ObjectWriter::new();
        w.u64("dur_us", 42)
            .str("event", "span")
            .str("label", label)
            .str("phase", "search_layer");
        let line = w.finish();
        // The wire bytes hold the *escaped* forms.
        assert!(
            line.contains(r#""label":"c:\\tmp\\\\conv \"1x1\" end\\""#),
            "{line}"
        );

        // parse -> re-encode reproduces the input exactly: the encoder's
        // output is a fixed point of the parse/encode pair.
        let obj = parse_flat_object(&line).unwrap();
        assert_eq!(obj["label"].as_str(), Some(label));
        assert_eq!(encode_sorted(&obj), line);

        // And again, one more lap for good measure.
        let again = parse_flat_object(&encode_sorted(&obj)).unwrap();
        assert_eq!(encode_sorted(&again), line);
    }

    #[test]
    fn sink_emitted_event_lines_canonicalize_stably() {
        let _guard = crate::test_lock::hold();
        let (sink, lines) = crate::MemorySink::new();
        let _s = crate::attach_with_sink(&crate::TelemetryConfig::default(), Some(Box::new(sink)));
        crate::event("span")
            .str("phase", "sweep_geometry")
            .str("label", "2x2x4x4/o_l1=\\\"8\\\"")
            .u64("dur_us", 7)
            .emit();
        let lines = lines.lock().unwrap();
        let raw = &lines[1]; // lines[0] is session_start
        assert!(raw.contains(r#""label":"2x2x4x4/o_l1=\\\"8\\\"""#), "{raw}");
        // The emitted line parses, and its canonical form is a fixed point
        // byte for byte — escapes survive any number of round trips.
        let obj = parse_flat_object(raw).unwrap();
        assert_eq!(obj["label"].as_str(), Some("2x2x4x4/o_l1=\\\"8\\\""));
        let canonical = encode_sorted(&obj);
        let reparsed = parse_flat_object(&canonical).unwrap();
        assert_eq!(encode_sorted(&reparsed), canonical);
        assert_eq!(reparsed, obj);
    }

    #[test]
    fn parses_all_scalar_shapes() {
        let obj =
            parse_flat_object("{\"a\": true, \"b\": false, \"c\": null, \"d\": -2.5e3}").unwrap();
        assert_eq!(obj["a"], Value::Bool(true));
        assert_eq!(obj["b"], Value::Bool(false));
        assert_eq!(obj["c"], Value::Null);
        assert_eq!(obj["d"].as_f64(), Some(-2500.0));
    }

    #[test]
    fn parser_round_trips_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"x\n"}],"c":null,"d":true}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        let Some(Value::Array(a)) = v.get("a") else {
            panic!("a not array");
        };
        assert_eq!(a[2].get("b").and_then(Value::as_str), Some("x\n"));
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2] junk").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Value::String("Aé".into())));
        // `u32::from_str_radix` would read `+041` as 0x41.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u41""#).is_err());
        assert!(parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn every_rfc_8259_escape_reads() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t""#),
            Ok(Value::String("\"\\/\u{8}\u{c}\n\r\t".into()))
        );
        // A surrogate pair is one character; a half pair is an error.
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::String("😀".into())));
        assert_eq!(parse(r#""\uD834\uDD1E""#), Ok(Value::String("𝄞".into())));
        for half in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse(half).is_err(), "{half}");
        }
        assert!(parse(r#""\a""#).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("32", 32.0),
            ("-2.5e3", -2500.0),
            ("1E+2", 100.0),
            ("1e-2", 0.01),
            ("0.125", 0.125),
        ] {
            assert_eq!(parse(text), Ok(Value::Number(want)), "{text}");
        }
        for text in [
            "+1", "+00032.", "00032", "01", "1.", ".5", "-", "-.5", "1e", "1e+", "1.e3", "0x10",
            "Infinity", "NaN", "1_000", "--1",
        ] {
            assert!(parse(text).is_err(), "{text} parsed");
        }
        let err = parse_flat_object(r#"{"res":+00032.}"#).unwrap_err();
        assert!(err.contains("bad number at byte 7"), "{err}");
    }

    #[test]
    fn nesting_bound_is_exact() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert_eq!(depth(&parse(&nest(MAX_DEPTH)).unwrap()), MAX_DEPTH);
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn megabytes_of_openers_are_an_error_on_a_default_thread_stack() {
        // Without the bound, each opener is one more recursion, and a
        // default 2 MiB spawned-thread stack overflows (an abort, which no
        // `catch_unwind` can catch) long before the input runs out.
        let brackets = "[".repeat(1 << 20);
        let fields = "{\"a\":".repeat((1 << 20) / 5);
        std::thread::spawn(move || {
            assert!(parse(&brackets).is_err());
            assert!(parse(&fields).is_err());
            assert!(parse_flat_object(&fields).is_err());
        })
        .join()
        .unwrap();
    }

    /// Container depth of a value: 0 for a scalar.
    fn depth(v: &Value) -> usize {
        match v {
            Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Value::Object(fields) => 1 + fields.values().map(depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Bytes, half of them drawn from JSON's own alphabet so that random
    /// inputs get past the first few bytes of the grammar.
    fn json_ish_bytes() -> impl Strategy<Value = Vec<u8>> {
        const ALPHABET: &[u8] = b"{}[]{}[]::,,\"\"\\ \n0123456789.eE+-ubtrnfalsenull";
        let byte = (0u16..512).prop_map(|x| match u8::try_from(x) {
            Ok(b) => b,
            Err(_) => ALPHABET[usize::from(x) % ALPHABET.len()],
        });
        vec(byte, 0..96)
    }

    /// Strings over control characters, ASCII, and 2-, 3- and 4-byte
    /// UTF-8 (surrogate code points dropped).
    fn any_string() -> impl Strategy<Value = String> {
        let code = prop_oneof![
            0u32..0x20,
            0x20u32..0x80,
            0x80u32..0x800,
            0x800u32..0x11_0000
        ];
        vec(code, 0..12).prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    /// Finite doubles over the whole bit space: subnormals, huge
    /// magnitudes and negative zero included.
    fn any_finite() -> impl Strategy<Value = f64> {
        (0u32..=u32::MAX, 0u32..=u32::MAX)
            .prop_map(|(hi, lo)| f64::from_bits(u64::from(hi) << 32 | u64::from(lo)))
            .prop_filter("finite", |v| v.is_finite())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn arbitrary_bytes_never_panic_and_never_nest_past_the_bound(bytes in json_ish_bytes()) {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(v) = parse(&text) {
                prop_assert!(depth(&v) <= MAX_DEPTH);
            }
            let _ = parse_flat_object(&text);
        }

        #[test]
        fn accepted_documents_nest_within_the_bound(
            openers in vec(0u8..2, 0..2 * MAX_DEPTH),
            leaf in 0u8..3,
        ) {
            let mut text = String::new();
            for &o in &openers {
                text.push_str(if o == 0 { "[" } else { "{\"k\":" });
            }
            text.push_str(["1", "[]", "{}"][usize::from(leaf)]);
            for &o in openers.iter().rev() {
                text.push(if o == 0 { ']' } else { '}' });
            }
            let want = openers.len() + usize::from(leaf > 0);
            match parse(&text) {
                Ok(v) => {
                    prop_assert_eq!(depth(&v), want);
                    prop_assert!(want <= MAX_DEPTH);
                }
                Err(e) => prop_assert!(want > MAX_DEPTH, "{e}"),
            }
        }

        #[test]
        fn written_flat_objects_round_trip(
            fields in vec((any_string(), 0u8..4, any_string(), any_finite()), 0..8),
            pretty in 0u8..2,
        ) {
            let mut w = if pretty == 1 { ObjectWriter::pretty() } else { ObjectWriter::new() };
            let mut want = BTreeMap::new();
            for (key, kind, s, n) in &fields {
                let value = match kind {
                    0 => Value::String(s.clone()),
                    1 => Value::Number(*n),
                    2 => Value::Bool(n.is_sign_negative()),
                    _ => Value::Null,
                };
                match &value {
                    Value::String(s) => w.str(key, s),
                    Value::Number(n) => w.f64(key, *n),
                    Value::Bool(b) => w.bool(key, *b),
                    _ => w.f64(key, f64::NAN),
                };
                want.insert(key.clone(), value);
            }
            let text = w.finish();
            let got = parse_flat_object(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
            prop_assert_eq!(got.len(), want.len());
            for (key, value) in &want {
                match (value, &got[key]) {
                    // Bit-exact, so `-0` and the last digit of a subnormal count.
                    (Value::Number(a), Value::Number(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
    }
}
