//! Structured events: the unit of record of the telemetry spine.
//!
//! An [`Event`] is a name, a virtual-time stamp in milliseconds, and an
//! ordered list of typed fields. Events are plain data — emitting one never
//! reads the wall clock, so the same seeded simulation always produces the
//! identical event stream (the determinism invariant in `DESIGN.md`).

use std::fmt;

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One structured telemetry event.
///
/// Build with [`Event::new`] and chain [`Event::with`]:
///
/// ```
/// use simba_telemetry::Event;
///
/// let ev = Event::new("wal.append", 1_500).with("wal_id", 7u64).with("source", "aladdin-gw");
/// assert_eq!(ev.name, "wal.append");
/// assert_eq!(ev.time_ms, 1_500);
/// assert_eq!(ev.fields.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, dot-separated by subsystem (`wal.append`,
    /// `delivery.fallback`, `mab.received`, ...).
    pub name: String,
    /// Timestamp in milliseconds. On simulation paths this is
    /// `SimTime::as_millis()` — never a wall-clock read; on live-runtime
    /// paths it is milliseconds since the runtime clock's epoch.
    pub time_ms: u64,
    /// Ordered `(key, value)` pairs.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event with no fields.
    pub fn new(name: impl Into<String>, time_ms: u64) -> Self {
        Event {
            name: name.into(),
            time_ms,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Looks a field up by key (first match).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serializes the event as one line of JSON (no trailing newline):
    /// `{"t":1500,"name":"wal.append","fields":{"wal_id":7}}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"t\":");
        out.push_str(&self.time_ms.to_string());
        out.push_str(",\"name\":\"");
        escape_json_into(&self.name, &mut out);
        out.push_str("\",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(k, &mut out);
            out.push_str("\":");
            match v {
                Value::Str(s) => {
                    out.push('"');
                    escape_json_into(s, &mut out);
                    out.push('"');
                }
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::I64(n) => out.push_str(&n.to_string()),
                // `{:?}` is Rust's shortest round-trip float format.
                Value::F64(n) => out.push_str(&format!("{n:?}")),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push_str("}}");
        out
    }

    /// Parses one line produced by [`Event::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the line is not in the emitted grammar.
    pub fn from_json_line(line: &str) -> Result<Event, JsonError> {
        Parser::new(line).event()
    }
}

impl fmt::Display for Event {
    /// The human-readable one-line rendering used by `simba-cli telemetry`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10.3}s] {}",
            self.time_ms as f64 / 1000.0,
            self.name
        )?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Escapes `s` per the JSON string rules (the same discipline as
/// `simba-xml`'s writer: every reserved character has exactly one escape,
/// so escape ∘ unescape is the identity — property-tested below).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(s, &mut out);
    out
}

fn escape_json_into(s: &str, out: &mut String) {
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
}

/// A parse failure from [`Event::from_json_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// A recursive-descent parser for the exact subset `to_json_line` emits
/// (an object with `t`, `name`, and a flat `fields` object). Hand-rolled
/// because the workspace builds offline with no serde.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, reason: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            reason: reason.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn event(&mut self) -> Result<Event, JsonError> {
        self.expect(b'{')?;
        let mut time_ms: Option<u64> = None;
        let mut name: Option<String> = None;
        let mut fields: Option<Vec<(String, Value)>> = None;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "t" => match self.value()? {
                    Value::U64(n) => time_ms = Some(n),
                    _ => return self.err("\"t\" must be an unsigned integer"),
                },
                "name" => match self.value()? {
                    Value::Str(s) => name = Some(s),
                    _ => return self.err("\"name\" must be a string"),
                },
                "fields" => fields = Some(self.fields_object()?),
                other => return self.err(format!("unknown key {other:?}")),
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing content after event");
        }
        match (time_ms, name) {
            (Some(time_ms), Some(name)) => Ok(Event {
                name,
                time_ms,
                fields: fields.unwrap_or_default(),
            }),
            _ => self.err("missing \"t\" or \"name\""),
        }
    }

    fn fields_object(&mut self) -> Result<Vec<(String, Value)>, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(_) => self.number(),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected {lit}"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError {
                at: start,
                reason: "invalid utf-8 in number".into(),
            })?;
        if text.is_empty() {
            return self.err("expected a value");
        }
        let float_like = text.contains(['.', 'e', 'E']);
        if !float_like {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::F64(n)),
            Err(_) => Err(JsonError {
                at: start,
                reason: format!("bad number {text:?}"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Work on chars from here: contents can be any unicode.
        let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
            at: self.pos,
            reason: "invalid utf-8".into(),
        })?;
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = chars.next() else {
                                return self.err("truncated \\u escape");
                            };
                            let Some(d) = h.to_digit(16) else {
                                return self.err("bad hex digit in \\u escape");
                            };
                            code = code * 16 + d;
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return self.err("\\u escape is not a scalar value"),
                        }
                    }
                    _ => return self.err("bad escape"),
                },
                c => out.push(c),
            }
        }
        self.err("unterminated string")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let ev = Event::new("x", 5).with("a", 1u64).with("b", "two");
        assert_eq!(ev.field("a"), Some(&Value::U64(1)));
        assert_eq!(ev.field("b"), Some(&Value::Str("two".into())));
        assert_eq!(ev.field("c"), None);
    }

    #[test]
    fn json_round_trip_simple() {
        let ev = Event::new("wal.append", 1500)
            .with("wal_id", 7u64)
            .with("source", "aladdin-gw")
            .with("delta", -3i64)
            .with("rate", 0.25f64)
            .with("ok", true);
        let line = ev.to_json_line();
        assert_eq!(Event::from_json_line(&line).unwrap(), ev);
    }

    #[test]
    fn json_round_trip_awkward_strings() {
        // The same escaping discipline as the simba-xml writer: every
        // reserved character round-trips, including controls.
        for s in [
            "plain",
            "quote \" backslash \\",
            "tab\tnewline\ncarriage\r",
            "nul-adjacent \u{1} \u{1f} bell \u{7}",
            "unicode ünïcødé ✓",
            "",
        ] {
            let ev = Event::new(s, 0).with("k", s);
            let parsed = Event::from_json_line(&ev.to_json_line()).unwrap();
            assert_eq!(parsed, ev, "for {s:?}");
        }
    }

    #[test]
    fn json_round_trip_float_shapes() {
        for v in [0.0, 1.5, -2.25, 1e300, 4.9e-10, f64::MAX] {
            let ev = Event::new("f", 1).with("v", v);
            let parsed = Event::from_json_line(&ev.to_json_line()).unwrap();
            assert_eq!(parsed.field("v"), Some(&Value::F64(v)), "for {v}");
        }
    }

    #[test]
    fn escape_is_injective_on_reserved_chars() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("\n"), "\\n");
        assert_eq!(escape_json("\u{2}"), "\\u0002");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_json_line("").is_err());
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line("{\"t\":1}").is_err());
        assert!(Event::from_json_line("{\"t\":\"x\",\"name\":\"y\",\"fields\":{}}").is_err());
        assert!(Event::from_json_line("{\"t\":1,\"name\":\"y\",\"fields\":{}}extra").is_err());
        assert!(Event::from_json_line("{\"t\":1,\"name\":\"y\",\"bogus\":{}}").is_err());
    }

    #[test]
    fn display_is_one_line() {
        let ev = Event::new("mab.routed", 2500).with("category", "Home.Security").with("subs", 2u64);
        let s = ev.to_string();
        assert!(s.contains("2.500s"), "{s}");
        assert!(s.contains("mab.routed"), "{s}");
        assert!(s.contains("category=\"Home.Security\""), "{s}");
        assert!(!s.contains('\n'));
    }
}
