//! JSON serialisation of graphs, and the JSON value model and parser the
//! workspace's wire formats are built on.
//!
//! This module pins down a concrete interchange representation so downstream
//! tooling — notebooks, plotting scripts, the benchmark report generator,
//! and the `egraph-serve` HTTP wire format — can consume graphs and search
//! results without linking the Rust crates. The build environment has no
//! access to crates.io, so instead of serde the module carries a small
//! hand-rolled JSON writer and recursive-descent parser.
//!
//! The value model ([`Value`]) and parser are public: other crates build
//! their own document codecs on top of them (`egraph-query`'s descriptor and
//! result codecs, the one JSON form of a search result; `egraph-serve`'s
//! request/response framing). [`parse_value`] parses a complete in-memory
//! document, which must span the whole input: HTTP bodies arrive whole and
//! chunked encoding delimits subscription frames, so nothing reads JSON off
//! a stream.
//!
//! The parser accepts the full JSON string grammar (`\uXXXX` escapes with
//! surrogate pairs, all short escapes) and rejects what the grammar rejects
//! (unescaped control characters, lone surrogates, truncated documents,
//! numbers with leading zeros or digit-less fractions and exponents). A
//! nesting-depth bound ([`MAX_DEPTH`]) turns adversarially deep documents
//! into a clean [`JsonError`] instead of a stack overflow — a serving layer
//! parses untrusted bytes.
//!
//! One ready-made document shape is defined here, the graph document:
//! `{"num_nodes", "directed", "timestamps", "edges"}` with edges as
//! `[src, dst, time_index]` triples. It is the one format that records
//! directedness, timestamp labels and empty snapshots.

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TimeIndex, Timestamp};

// `write!` into a `String` cannot fail, so its `fmt::Result` is ignored.
use core::fmt::{self, Write as _};

/// Deepest object/array nesting [`parse_value`] accepts.
/// Beyond it the parser reports a syntax error instead of recursing toward
/// a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Errors produced while encoding or decoding JSON documents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// The input is not syntactically valid JSON (message, byte offset).
    Syntax(String, usize),
    /// The JSON is valid but does not have the expected document shape.
    Shape(String),
    /// The document decodes to an invalid graph (e.g. unsorted timestamps).
    Graph(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(msg, at) => write!(f, "JSON syntax error at byte {at}: {msg}"),
            JsonError::Shape(msg) => write!(f, "unexpected JSON document shape: {msg}"),
            JsonError::Graph(msg) => write!(f, "decoded graph is invalid: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON round-trip helpers.
pub type Result<T> = std::result::Result<T, JsonError>;

/// Serialises a graph to a JSON string.
pub fn graph_to_json(graph: &AdjacencyListGraph) -> Result<String> {
    let mut out = String::new();
    out.push_str("{\"num_nodes\":");
    write_json_u64(&mut out, graph.num_nodes() as u64);
    out.push_str(",\"directed\":");
    out.push_str(if graph.is_directed() { "true" } else { "false" });
    out.push_str(",\"timestamps\":[");
    for (i, &label) in graph.timestamps().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_i64(&mut out, label);
    }
    out.push_str("],\"edges\":[");
    for (i, (u, v, t)) in graph.edge_triples().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{}]", u.0, v.0, t.0);
    }
    out.push_str("]}");
    Ok(out)
}

/// Deserialises a graph from a JSON string.
pub fn graph_from_json(json: &str) -> Result<AdjacencyListGraph> {
    let value = parse_value(json)?;
    let obj = value.as_object("graph document")?;
    let num_nodes = obj.get("num_nodes")?.as_usize("num_nodes")?;
    let directed = obj.get("directed")?.as_bool("directed")?;
    let timestamps: Vec<Timestamp> = obj
        .get("timestamps")?
        .as_array("timestamps")?
        .iter()
        .map(|v| v.as_i64("timestamp label"))
        .collect::<Result<_>>()?;
    let mut graph = AdjacencyListGraph::new(num_nodes, timestamps, directed)
        .map_err(|e| JsonError::Graph(e.to_string()))?;
    for triple in obj.get("edges")?.as_array("edges")? {
        let triple = triple.as_array("edge entry")?;
        if triple.len() != 3 {
            return Err(JsonError::Shape(
                "edges must be [src, dst, time_index] triples".into(),
            ));
        }
        graph
            .add_edge(
                NodeId(triple[0].as_u32("edge src")?),
                NodeId(triple[1].as_u32("edge dst")?),
                TimeIndex(triple[2].as_u32("edge time")?),
            )
            .map_err(|e| JsonError::Graph(e.to_string()))?;
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// The JSON value model.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Integer tokens (no fraction or exponent) are kept exact in [`Value::Int`]:
/// `i64` covers every timestamp label, so labels never round through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The `null` literal.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer token.
    Int(i64),
    /// A number with a fraction or exponent part.
    Number(f64),
    /// A string (escapes already decoded).
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object as ordered key/value entries (duplicates kept; lookups
    /// return the first).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Views this value as an object, or reports what `what` must be.
    pub fn as_object(&self, what: &str) -> Result<Object<'_>> {
        match self {
            Value::Object(entries) => Ok(Object { entries }),
            _ => Err(JsonError::Shape(format!("{what} must be a JSON object"))),
        }
    }

    /// Views this value as an array, or reports what `what` must be.
    pub fn as_array(&self, what: &str) -> Result<&[Value]> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError::Shape(format!("{what} must be a JSON array"))),
        }
    }

    /// Reads this value as an exact integer, or reports what `what` must be.
    pub fn as_i64(&self, what: &str) -> Result<i64> {
        match self {
            Value::Int(x) => Ok(*x),
            _ => Err(JsonError::Shape(format!("{what} must be an integer"))),
        }
    }

    /// Reads this value as a `u32`, or reports what `what` must be.
    pub fn as_u32(&self, what: &str) -> Result<u32> {
        let x = self.as_i64(what)?;
        u32::try_from(x).map_err(|_| JsonError::Shape(format!("{what} must fit in u32")))
    }

    /// Reads this value as a `usize`, or reports what `what` must be.
    pub fn as_usize(&self, what: &str) -> Result<usize> {
        let x = self.as_i64(what)?;
        usize::try_from(x).map_err(|_| JsonError::Shape(format!("{what} must be non-negative")))
    }

    /// Reads this value as a number (integer tokens included), or reports
    /// what `what` must be.
    pub fn as_f64(&self, what: &str) -> Result<f64> {
        match self {
            Value::Int(x) => Ok(*x as f64),
            Value::Number(x) => Ok(*x),
            _ => Err(JsonError::Shape(format!("{what} must be a number"))),
        }
    }

    /// Reads this value as a boolean, or reports what `what` must be.
    pub fn as_bool(&self, what: &str) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(JsonError::Shape(format!("{what} must be a boolean"))),
        }
    }

    /// Reads this value as a string, or reports what `what` must be.
    pub fn as_str(&self, what: &str) -> Result<&str> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(JsonError::Shape(format!("{what} must be a string"))),
        }
    }

    /// Whether this value is the `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serialises this value back to JSON text (strings escaped per the
    /// grammar; [`Value::Number`] uses Rust's shortest round-trip `f64`
    /// formatting, with non-finite values written as `null` since JSON has
    /// no representation for them).
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(x) => write_json_i64(out, *x),
            Value::Number(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => write_json_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// [`Value::write_json`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Borrowed view over an object's key/value entries.
pub struct Object<'a> {
    entries: &'a [(String, Value)],
}

impl<'a> Object<'a> {
    /// The value of field `key`, or a shape error naming the missing field.
    pub fn get(&self, key: &str) -> Result<&'a Value> {
        self.get_opt(key)
            .ok_or_else(|| JsonError::Shape(format!("missing field \"{key}\"")))
    }

    /// The value of field `key`, if present. A field explicitly set to
    /// `null` is treated as absent, so optional wire fields can be omitted
    /// or nulled interchangeably.
    pub fn get_opt(&self, key: &str) -> Option<&'a Value> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .filter(|v| !v.is_null())
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping `"`, `\\` and
/// every control character (`\n`, `\r`, `\t`, `\b`, `\f` short forms,
/// `\u00XX` otherwise). Multi-byte UTF-8 passes through verbatim.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the decimal form of `x` to `out` — the integer writer every
/// encoder in the workspace shares. It formats into a stack buffer, so
/// writing an integer never allocates beyond `out`'s own growth.
#[inline]
pub fn write_json_u64(out: &mut String, x: u64) {
    let mut buf = [0u8; 20];
    let start = put_digits_before(&mut buf, 20, x);
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

/// [`write_json_u64`] for signed integers (`i64::MIN` included).
#[inline]
pub fn write_json_i64(out: &mut String, x: i64) {
    if x < 0 {
        out.push('-');
    }
    write_json_u64(out, x.unsigned_abs());
}

/// [`write_json_u64`] onto a byte buffer, for bulk writers that assemble a
/// large ASCII document as bytes and check it as UTF-8 once at the end
/// instead of once per integer.
#[inline]
pub fn push_json_u64(out: &mut Vec<u8>, x: u64) {
    let mut buf = [0u8; 20];
    let start = put_digits_before(&mut buf, 20, x);
    out.extend_from_slice(&buf[start..]);
}

/// Appends small integer arrays — the reached entries and parent links of
/// a result document — onto a byte buffer. Each array is rendered back to
/// front into one reused stack scratch, so no digit count is taken first,
/// and appended with one copy.
pub struct U32ArrayWriter {
    /// `,[` + four 10-digit integers + three commas + `]` is 46 bytes.
    scratch: [u8; 48],
}

impl U32ArrayWriter {
    /// A writer with a zeroed scratch.
    pub fn new() -> Self {
        U32ArrayWriter { scratch: [0; 48] }
    }

    /// Appends `,[x0,x1,...]`, comma first, for at most four integers.
    #[inline]
    pub fn push(&mut self, out: &mut Vec<u8>, xs: &[u32]) {
        let buf = &mut self.scratch;
        let mut pos = buf.len() - 1;
        buf[pos] = b']';
        for (i, &x) in xs.iter().rev().enumerate() {
            if i > 0 {
                pos -= 1;
                buf[pos] = b',';
            }
            pos = put_digits_before(buf, pos, x.into());
        }
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(b",[");
        out.extend_from_slice(&buf[pos..]);
    }
}

impl Default for U32ArrayWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of bytes [`write_json_u64`] appends for `x`.
#[inline]
pub fn json_u64_len(x: u64) -> usize {
    x.checked_ilog10().map_or(1, |digits| digits as usize + 1)
}

/// Writes the decimal digits of `x` to end just before `buf[end]`, two
/// per step from the last, and returns where they start.
#[inline]
fn put_digits_before(buf: &mut [u8], mut end: usize, mut x: u64) -> usize {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    while x >= 100 {
        let pair = (x % 100) as usize * 2;
        x /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if x >= 10 {
        let pair = x as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + x as u8;
    }
    end
}

/// Parses a complete JSON document from `input`. The document must span the
/// whole input: trailing non-whitespace is an error.
pub fn parse_value(input: &str) -> Result<Value> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.peek().is_some() {
        return parser.error("trailing characters after document");
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Recursive-descent parser over an in-memory byte slice.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error<T>(&self, msg: &str) -> Result<T> {
        Err(JsonError::Syntax(msg.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn advance(&mut self) {
        self.pos += 1;
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.advance();
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.advance();
            Ok(())
        } else {
            self.error(&format!("expected '{}'", byte as char))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.error("expected a JSON value"),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value> {
        for &expected in text.as_bytes() {
            if self.peek() != Some(expected) {
                return self.error(&format!("expected '{text}'"));
            }
            self.advance();
        }
        Ok(value)
    }

    /// Bounds object/array recursion: deeper than [`MAX_DEPTH`] is a syntax
    /// error, not a stack overflow.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.error(&format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value> {
        self.descend()?;
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.advance();
            self.depth -= 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b'}') => {
                    self.advance();
                    self.depth -= 1;
                    return Ok(Value::Object(entries));
                }
                _ => return self.error("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.advance();
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b']') => {
                    self.advance();
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.error("expected ',' or ']' in array"),
            }
        }
    }

    /// One `\uXXXX` code unit (the caller consumed `\u`).
    fn hex_code_unit(&mut self) -> Result<u16> {
        let mut unit: u16 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return self.error("expected 4 hex digits after \\u"),
            };
            self.advance();
            unit = unit << 4 | digit as u16;
        }
        Ok(unit)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        // Accumulate raw bytes: escapes contribute UTF-8-encoded scalars,
        // everything else is copied verbatim, so multi-byte UTF-8 sequences
        // survive intact (continuation bytes never collide with '"' or '\\').
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    self.advance();
                    return String::from_utf8(out)
                        .or_else(|_| self.error("invalid UTF-8 in string"));
                }
                Some(b'\\') => {
                    self.advance();
                    match self.peek() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0C),
                        Some(b'u') => {
                            self.advance();
                            let scalar = self.unicode_escape()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(scalar.encode_utf8(&mut buf).as_bytes());
                            // The escape routines consumed their own bytes.
                            continue;
                        }
                        _ => return self.error("unsupported escape sequence"),
                    }
                    self.advance();
                }
                // The grammar forbids unescaped control characters inside
                // strings; truncated or binary-garbage input must not slip
                // through as "valid".
                Some(c) if c < 0x20 => return self.error("unescaped control character in string"),
                Some(c) => {
                    out.push(c);
                    self.advance();
                }
            }
        }
    }

    /// Decodes `XXXX[\uXXXX]` after a consumed `\u` into a scalar value,
    /// pairing surrogates per the grammar and rejecting lone ones.
    fn unicode_escape(&mut self) -> Result<char> {
        let unit = self.hex_code_unit()?;
        match unit {
            0xD800..=0xDBFF => {
                // High surrogate: a low surrogate escape must follow.
                if self.peek() != Some(b'\\') {
                    return self.error("lone high surrogate in \\u escape");
                }
                self.advance();
                if self.peek() != Some(b'u') {
                    return self.error("lone high surrogate in \\u escape");
                }
                self.advance();
                let low = self.hex_code_unit()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return self.error("invalid low surrogate in \\u escape");
                }
                let scalar = 0x10000 + ((unit as u32 - 0xD800) << 10) + (low as u32 - 0xDC00);
                char::from_u32(scalar).map_or_else(|| self.error("invalid surrogate pair"), Ok)
            }
            0xDC00..=0xDFFF => self.error("lone low surrogate in \\u escape"),
            _ => char::from_u32(unit as u32).map_or_else(|| self.error("invalid \\u escape"), Ok),
        }
    }

    /// Consumes a run of decimal digits; reports `what` if there is none.
    fn digits(&mut self, what: &str) -> Result<()> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.error(what);
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.advance();
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, the number
    /// grammar of RFC 8259: no leading zeros, and a fraction or exponent
    /// needs at least one digit.
    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.advance();
        }
        if self.peek() == Some(b'0') {
            self.advance();
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.error("leading zero in number");
            }
        } else {
            self.digits("expected a digit in number")?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.advance();
            self.digits("expected a digit after the decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.advance();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.advance();
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("number is ASCII");
        if integral {
            // Exact integer path: i64 covers every timestamp label without
            // rounding through f64.
            return match text.parse::<i64>() {
                Ok(x) => Ok(Value::Int(x)),
                Err(_) => self.error("integer out of i64 range"),
            };
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Value::Number(x)),
            Err(_) => self.error("malformed number"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::paper_figure1;
    use egraph_core::graph::EvolvingGraph;

    #[test]
    fn graph_round_trips_through_json() {
        let g = paper_figure1();
        let json = graph_to_json(&g).unwrap();
        let back = graph_from_json(&json).unwrap();
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.num_static_edges(), 3);
        assert_eq!(back.edge_triples(), g.edge_triples());
        assert_eq!(back.timestamps(), g.timestamps());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(graph_from_json("{not json").is_err());
        assert!(graph_from_json("{}").is_err());
        assert!(graph_from_json("{\"num_nodes\": 2} trailing").is_err());
        // RFC 8259's number grammar: no leading zeros, and a fraction or
        // exponent needs a digit on both sides of its marker.
        for bad in [
            "01", "00", "-01", "1.", "-.5", ".5", "1.e5", "1e", "1e+", "-", "--1", "+1",
        ] {
            assert!(parse_value(bad).is_err(), "{bad:?} must not parse");
        }
        let err = parse_value("-").unwrap_err().to_string();
        assert!(err.contains("expected a digit"), "{err}");
        assert!(!err.contains("range"), "{err}");
        let good = [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("-12", Value::Int(-12)),
            ("0.25", Value::Number(0.25)),
            ("1.5e-3", Value::Number(1.5e-3)),
            ("2E+2", Value::Number(200.0)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
        ];
        for (text, value) in good {
            assert_eq!(parse_value(text).unwrap(), value, "{text:?}");
        }
    }

    #[test]
    fn negative_timestamps_survive_the_round_trip() {
        // Reversed views negate labels; the format must cope with that.
        let mut g = AdjacencyListGraph::new(2, vec![-5, -2, 7], true).unwrap();
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(1)).unwrap();
        let back = graph_from_json(&graph_to_json(&g).unwrap()).unwrap();
        assert_eq!(back.timestamps(), vec![-5, -2, 7]);
        assert_eq!(back.edge_triples(), g.edge_triples());
    }

    #[test]
    fn large_timestamp_labels_round_trip_exactly() {
        // Labels above 2^53 would corrupt silently if routed through f64.
        let big = (1i64 << 53) + 1;
        let mut g = AdjacencyListGraph::new(2, vec![-big, 0, big], true).unwrap();
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(2)).unwrap();
        let back = graph_from_json(&graph_to_json(&g).unwrap()).unwrap();
        assert_eq!(back.timestamps(), vec![-big, 0, big]);
    }

    #[test]
    fn extreme_i64_labels_round_trip_exactly() {
        // The full label domain: i64::MIN is also the one integer whose
        // absolute value does not fit in i64, a classic parser edge case.
        let mut g = AdjacencyListGraph::new(2, vec![i64::MIN, 0, i64::MAX], true).unwrap();
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        let back = graph_from_json(&graph_to_json(&g).unwrap()).unwrap();
        assert_eq!(back.timestamps(), vec![i64::MIN, 0, i64::MAX]);
        // One past either end of the domain must fail cleanly.
        assert!(parse_value("9223372036854775808").is_err());
        assert!(parse_value("-9223372036854775809").is_err());
        assert_eq!(
            parse_value("-9223372036854775808").unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn non_ascii_strings_survive_parsing() {
        let value = parse_value("{\"clé\": \"é → ✓\"}").unwrap();
        let obj = value.as_object("test").unwrap();
        assert_eq!(obj.get("clé").unwrap(), &Value::String("é → ✓".to_string()));
    }

    #[test]
    fn parser_handles_whitespace_and_strings() {
        let value = parse_value(" { \"a\" : [ 1 , 2.5 , true , null , \"x\\ny\" ] } ").unwrap();
        let obj = value.as_object("test").unwrap();
        let arr = obj.get("a").unwrap().as_array("a").unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_i64("n").unwrap(), 1);
        assert!(arr[1].as_i64("n").is_err());
        assert!(arr[2].as_bool("b").unwrap());
        assert_eq!(arr[4], Value::String("x\ny".to_string()));
    }

    #[test]
    fn all_escape_sequences_decode_and_re_encode() {
        let value = parse_value(r#""q\" b\\ s\/ n\n t\t r\r bb\b ff\f""#).unwrap();
        assert_eq!(
            value,
            Value::String("q\" b\\ s/ n\n t\t r\r bb\u{8} ff\u{c}".into())
        );
        // Writer round-trip: re-encoding and re-parsing is the identity.
        let reparsed = parse_value(&value.to_json()).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        assert_eq!(
            parse_value(r#""Aé世""#).unwrap(),
            Value::String("Aé世".into())
        );
        // 𝄞 (U+1D11E) as a surrogate pair.
        assert_eq!(
            parse_value(r#""𝄞""#).unwrap(),
            Value::String("\u{1D11E}".into())
        );
        // Lone and malformed surrogates are rejected, not mangled.
        assert!(parse_value(r#""\ud834""#).is_err());
        assert!(parse_value(r#""\ud834x""#).is_err());
        assert!(parse_value(r#""\ud834A""#).is_err());
        assert!(parse_value(r#""\udd1e""#).is_err());
        assert!(parse_value(r#""\u12g4""#).is_err());
    }

    #[test]
    fn unescaped_control_characters_are_rejected() {
        assert!(parse_value("\"a\u{0}b\"").is_err());
        assert!(parse_value("\"a\nb\"").is_err());
        assert!(parse_value("\"a\u{1f}b\"").is_err());
        // ...while their escaped forms are fine.
        assert!(parse_value(r#""a\tb""#).is_ok());
    }

    #[test]
    fn control_characters_are_escaped_on_write() {
        let value = Value::String("a\u{1}\u{8}\u{c}\n\"\\z".into());
        let json = value.to_json();
        assert_eq!(json, r#""a\u0001\b\f\n\"\\z""#);
        assert_eq!(parse_value(&json).unwrap(), value);
    }

    #[test]
    fn deep_nesting_errors_cleanly_instead_of_overflowing() {
        // Within the bound: parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value(&ok).is_ok());
        // One past the bound (and absurdly past it): clean Err, no overflow.
        for depth in [MAX_DEPTH + 1, 100_000] {
            let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let err = parse_value(&deep).unwrap_err();
            assert!(matches!(err, JsonError::Syntax(ref m, _) if m.contains("nesting")));
            let deep_obj = "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
            assert!(parse_value(&deep_obj).is_err());
        }
    }

    #[test]
    fn truncated_documents_error_cleanly() {
        let full = r#"{"a":[1,2,{"b":"cA"}],"d":true}"#;
        // Every strict prefix is an error (never a panic, never an Ok).
        for cut in 1..full.len() {
            assert!(
                parse_value(&full[..cut]).is_err(),
                "prefix {cut} must not parse: {:?}",
                &full[..cut]
            );
        }
        assert!(parse_value(full).is_ok());
        assert!(parse_value("").is_err());
        assert!(parse_value("   ").is_err());
        assert!(parse_value("tru").is_err());
        assert!(parse_value("-").is_err());
        assert!(parse_value("\"abc").is_err());
        assert!(parse_value("\"abc\\").is_err());
    }

    #[test]
    fn null_fields_read_as_absent() {
        let value = parse_value("{\"a\": null, \"b\": 1}").unwrap();
        let obj = value.as_object("test").unwrap();
        assert!(obj.get_opt("a").is_none());
        assert!(obj.get("a").is_err());
        assert_eq!(obj.get_opt("b").unwrap().as_i64("b").unwrap(), 1);
        assert!(obj.get_opt("missing").is_none());
    }

    #[test]
    fn integer_writer_matches_std_formatting() {
        let mut samples: Vec<u64> = (0..=1000).collect();
        for k in 1..20 {
            let p = 10u64.pow(k);
            samples.extend([p - 1, p, p + 1]);
        }
        samples.extend([u32::MAX as u64, u64::MAX - 1, u64::MAX]);
        let mut out = String::new();
        for &x in &samples {
            out.clear();
            write_json_u64(&mut out, x);
            assert_eq!(out, x.to_string());
            assert_eq!(json_u64_len(x), out.len(), "length of {x}");
        }
        let mut bytes = Vec::new();
        for &x in &samples {
            bytes.clear();
            push_json_u64(&mut bytes, x);
            assert_eq!(bytes, x.to_string().as_bytes());
        }
        let xs: Vec<u32> = samples.iter().map(|&x| x as u32).collect();
        let mut arrays = U32ArrayWriter::new();
        for chunk in xs.chunks(4).chain(xs.chunks(3)).chain([&[][..]]) {
            bytes.clear();
            arrays.push(&mut bytes, chunk);
            let std: Vec<String> = chunk.iter().map(u32::to_string).collect();
            assert_eq!(bytes, format!(",[{}]", std.join(",")).as_bytes());
        }
        for x in [
            0i64,
            -1,
            -9,
            -10,
            -99,
            -100,
            42,
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
        ] {
            out.clear();
            write_json_i64(&mut out, x);
            assert_eq!(out, x.to_string());
        }
    }

    #[test]
    fn control_characters_escape_as_four_hex_digits() {
        let mut out = String::new();
        write_json_string(&mut out, "\u{1}\u{1f}\u{b}");
        assert_eq!(out, "\"\\u0001\\u001f\\u000b\"");
        assert_eq!(
            parse_value(&out).unwrap(),
            Value::String("\u{1}\u{1f}\u{b}".into())
        );
    }

    #[test]
    fn write_json_round_trips_every_value_shape() {
        let value = Value::Object(vec![
            ("int".into(), Value::Int(-42)),
            ("big".into(), Value::Int(i64::MAX)),
            ("num".into(), Value::Number(2.5)),
            ("s".into(), Value::String("a\"b\\c\u{7}é".into())),
            ("t".into(), Value::Bool(true)),
            ("n".into(), Value::Null),
            (
                "arr".into(),
                Value::Array(vec![Value::Int(1), Value::Array(vec![])]),
            ),
            ("obj".into(), Value::Object(vec![])),
        ]);
        assert_eq!(parse_value(&value.to_json()).unwrap(), value);
    }
}
