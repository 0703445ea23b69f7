//! A minimal, dependency-free JSON value, writer and parser.
//!
//! The workspace has no serialisation dependency, so the observability
//! plane carries its own JSON layer: [`Value`] for building documents,
//! [`Value::render`] / [`Value::render_pretty`] for deterministic
//! output, and [`parse`] for reading documents back (the event-log
//! round-trip and the `OBS_summary.json` schema checker).
//!
//! Determinism rules:
//! - Object member order is preserved exactly as inserted (a `Vec`, not
//!   a hash map), so rendering is byte-stable.
//! - Integers render through the decimal `Display` of `i64`/`u64`;
//!   floats through Rust's shortest round-trip formatting. Identical
//!   bit patterns always render to identical bytes.
//! - Non-finite floats render as `null` (JSON has no NaN/∞).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (renders without a decimal point).
    Int(i64),
    /// An unsigned integer (renders without a decimal point).
    UInt(u64),
    /// A double-precision number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; member order is preserved and meaningful for output.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object (`None` for other node kinds).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string node.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if losslessly representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if losslessly representable.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(x) => Some(x),
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The array elements, if this is an array node.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object node.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the value compactly (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the value with two-space indentation.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write_i64(out, *i),
            Value::UInt(u) => write_u64(out, *u),
            Value::Num(x) => write_f64(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a decimal `u64` without going through `core::fmt` — event
/// emission formats millions of small integers per traced run, and the
/// formatting machinery dominates at that volume.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Signed companion of [`write_u64`].
pub(crate) fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Writes a float in valid JSON: shortest round-trip decimal for finite
/// values, `null` otherwise.
///
/// Quarter-integer multiples (the vast majority of traced values —
/// lease amounts are bulk-rounded) take a manual path that matches the
/// `Display` rendering exactly without the shortest-round-trip search.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let quarters = x * 4.0;
    // Exactness bound: below 2^52 every quarter multiple is exact in
    // f64 and `x != 0.0` keeps `-0.0` (which Display renders "-0") on
    // the general path.
    if x != 0.0 && quarters == quarters.trunc() && quarters.abs() < 4.503_599_627_370_496e15 {
        if x < 0.0 {
            out.push('-');
        }
        let q = quarters.abs() as u64;
        write_u64(out, q / 4);
        match q % 4 {
            1 => out.push_str(".25"),
            2 => out.push_str(".5"),
            3 => out.push_str(".75"),
            _ => {}
        }
        return;
    }
    let _ = write!(out, "{x}");
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Fast path: copy maximal runs that need no escaping in one
    // `push_str` instead of pushing char-by-char (event emission
    // renders millions of short strings per traced run).
    let mut start = 0;
    for (i, c) in s.char_indices() {
        if c != '"' && c != '\\' && (c as u32) >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + c.len_utf8();
        write_escape_code(out, c);
    }
    out.push_str(&s[start..]);
    out.push('"');
}

fn write_escape_code(out: &mut String, c: char) {
    match c {
        '"' => out.push_str("\\\""),
        '\\' => out.push_str("\\\\"),
        '\n' => out.push_str("\\n"),
        '\r' => out.push_str("\\r"),
        '\t' => out.push_str("\\t"),
        c => {
            let _ = write!(out, "\\u{:04x}", c as u32);
        }
    }
}

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
///
/// # Errors
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

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
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !float {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
        // `-0` is the rendering of a negative-zero float, not the
        // integer 0: it falls through to the float path so the sign
        // survives and re-rendering reproduces the input.
        if let Some(i) = text.parse::<i64>().ok().filter(|&i| i != 0) {
            return Ok(Value::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a character boundary).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8".to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let slice = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
    u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())
}

/// A type an obs document stores as one JSON node. Its writer and its
/// parser are the same impl, so a member cannot be written as one type
/// and read back as another. [`object_node!`](crate::object_node)
/// derives it for structs.
pub trait Node: Sized {
    /// The node this value renders as.
    fn to_value(&self) -> Value;
    /// Reads the value back out of `node`.
    ///
    /// # Errors
    /// Returns a message naming the first mistyped or inconsistent
    /// member.
    fn from_value(node: &Value) -> Result<Self, String>;
}

fn mistyped(node: &Value, what: &str) -> String {
    format!("{} is not {what}", node.render())
}

macro_rules! scalar_nodes {
    ($($ty:ty => $variant:ident, $read:ident, $what:literal;)*) => {$(
        impl Node for $ty {
            fn to_value(&self) -> Value {
                Value::$variant(*self)
            }
            fn from_value(node: &Value) -> Result<Self, String> {
                node.$read().ok_or_else(|| mistyped(node, $what))
            }
        }
    )*};
}

scalar_nodes! {
    u64 => UInt, as_u64, "a u64";
    i64 => Int, as_i64, "an i64";
    f64 => Num, as_f64, "a number";
}

impl Node for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_value(node: &Value) -> Result<Self, String> {
        match node {
            Value::Bool(b) => Ok(*b),
            node => Err(mistyped(node, "a bool")),
        }
    }
}

impl Node for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn from_value(node: &Value) -> Result<Self, String> {
        let s = node.as_str().ok_or_else(|| mistyped(node, "a string"))?;
        Ok(s.to_string())
    }
}

/// `null` stands for `None`.
impl<T: Node> Node for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }
    fn from_value(node: &Value) -> Result<Self, String> {
        match node {
            Value::Null => Ok(None),
            node => T::from_value(node).map(Some),
        }
    }
}

impl<T: Node> Node for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(T::to_value).collect())
    }
    fn from_value(node: &Value) -> Result<Self, String> {
        let items = node.as_arr().ok_or_else(|| mistyped(node, "an array"))?;
        let item = |(i, v)| T::from_value(v).map_err(|e| format!("[{i}]: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

/// A JSON object keyed by name, in key order.
impl<T: Node> Node for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
    fn from_value(node: &Value) -> Result<Self, String> {
        let members = node.as_obj().ok_or_else(|| mistyped(node, "an object"))?;
        let entry = |(k, v): &(String, Value)| {
            let parsed = T::from_value(v).map_err(|e| format!("`{k}`: {e}"))?;
            Ok((k.clone(), parsed))
        };
        members.iter().map(entry).collect()
    }
}

/// Reads member `name` of the object `obj`.
///
/// # Errors
/// Returns a message naming the member when it is missing or mistyped.
pub fn member<T: Node>(obj: &Value, name: &str) -> Result<T, String> {
    let node = obj.get(name).ok_or_else(|| format!("missing `{name}`"))?;
    T::from_value(node).map_err(|e| format!("`{name}`: {e}"))
}

/// The `schema` tag of a document, if it carries one.
#[must_use]
pub fn schema(doc: &Value) -> Option<&str> {
    doc.get("schema").and_then(Value::as_str)
}

/// Checks that the document's `schema` tag is `expected`.
///
/// # Errors
/// Returns a message when the tag is missing or names another schema.
pub fn expect_schema(doc: &Value, expected: &str) -> Result<(), String> {
    match schema(doc) {
        Some(tag) if tag == expected => Ok(()),
        Some(other) => Err(format!("unknown schema {other:?}")),
        None => Err("missing schema field".to_string()),
    }
}

/// A whole obs artifact: a [`Node`] stored as its pretty rendering.
/// Its `Node` impl is the artifact's only writer and [`Document::parse`]
/// its only reader.
pub trait Document: Node {
    /// The document text: the bytes its file holds.
    fn to_json(&self) -> String {
        self.to_value().render_pretty()
    }

    /// Parses the document. Only the writer's format is accepted: every
    /// member must have the type the writer gives it, the type's checks
    /// must hold, and the parsed value must re-render to `text` byte for
    /// byte, so no member can be missing, extra, reordered or
    /// reformatted.
    ///
    /// # Errors
    /// Returns a message naming the first violation.
    fn parse(text: &str) -> Result<Self, String> {
        let doc = Self::from_value(&crate::json::parse(text)?)?;
        let rendered = doc.to_json();
        if rendered != text {
            let same = rendered
                .lines()
                .zip(text.lines())
                .take_while(|(a, b)| a == b);
            return Err(format!(
                "line {} differs from the writer's rendering of the same data",
                same.count() + 1
            ));
        }
        Ok(doc)
    }
}

/// Implements [`Node`](crate::json::Node) for a struct as a JSON object
/// holding one member per field, named after the field, in field
/// order. Given a struct definition, it also declares the struct; given
/// `Type { fields }`, it implements the listed fields only. An optional
/// `schema` leads the object as its `schema` tag and must match on
/// parse; an optional `check` function vets the parsed value.
#[macro_export]
macro_rules! object_node {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty),* $(,)?
        }
        $(schema = $schema:expr,)?
        $(check = $check:path)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }
        $crate::object_node!($name { $($field),* } $(, schema = $schema)? $(, check = $check)?);
    };
    ($ty:ty { $($field:ident),* $(,)? } $(, schema = $schema:expr)? $(, check = $check:path)?) => {
        impl $crate::json::Node for $ty {
            fn to_value(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $(("schema".to_string(), $crate::json::Value::Str($schema.to_string())),)?
                    $((
                        stringify!($field).to_string(),
                        $crate::json::Node::to_value(&self.$field),
                    ),)*
                ])
            }
            fn from_value(node: &$crate::json::Value) -> Result<Self, String> {
                $($crate::json::expect_schema(node, $schema)?;)?
                let parsed = Self {
                    $($field: $crate::json::member(node, stringify!($field))?,)*
                };
                $($check(&parsed)?;)?
                Ok(parsed)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_documents() {
        let v = Value::Obj(vec![
            ("a".into(), Value::UInt(1)),
            ("b".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("c".into(), Value::Str("x\"y\n".into())),
        ]);
        assert_eq!(v.render(), r#"{"a":1,"b":[true,null],"c":"x\"y\n"}"#);
    }

    #[test]
    fn floats_render_shortest_and_nonfinite_as_null() {
        assert_eq!(Value::Num(0.1).render(), "0.1");
        assert_eq!(Value::Num(2.0).render(), "2");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_round_trips_documents() {
        let text = r#"{"a":1,"b":[true,null,-7,3.5],"c":"x\"y\n","d":{"e":"é"}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Value::as_arr).map(<[Value]>::len),
            Some(4)
        );
        assert_eq!(
            v.get("d").and_then(|d| d.get("e")).unwrap().as_str(),
            Some("é")
        );
    }

    #[test]
    fn parse_handles_surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn pretty_rendering_is_parseable() {
        let v = Value::Obj(vec![
            ("empty".into(), Value::Obj(vec![])),
            (
                "list".into(),
                Value::Arr(vec![Value::Int(-1), Value::UInt(2)]),
            ),
        ]);
        let pretty = v.render_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"list\""));
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        // A float sum over nothing is -0.0, which renders as `-0`.
        assert_eq!(Value::Num(-0.0).render(), "-0");
        let v = parse("-0").unwrap();
        assert!(v.as_f64().is_some_and(|x| x == 0.0 && x.is_sign_negative()));
        assert_eq!(v.render(), "-0");
        assert_eq!(v.as_u64(), None, "not an unsigned integer");
    }

    #[test]
    fn integer_widths_round_trip() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v, Value::UInt(u64::MAX));
        let v = parse("-9223372036854775808").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }
}
