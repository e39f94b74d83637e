//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], and [`from_str`] over the vendored
//! serde shim's value tree.
//!
//! Number formatting follows upstream `serde_json`: integers print bare,
//! floats always carry a decimal point or exponent (`2.0`, not `2`) via
//! Rust's shortest-round-trip float formatter, and non-finite floats encode
//! as `null`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;

pub use serde::{Error, Value};

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Infallible for the shim's value tree; the `Result` keeps upstream's
/// signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to a two-space-indented JSON string.
///
/// # Errors
///
/// Infallible for the shim's value tree; the `Result` keeps upstream's
/// signature.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Deserializes a `T` from a JSON string.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Rebuilds a `T` from a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] on a shape mismatch with `T`.
pub fn from_value<T: serde::de::DeserializeOwned>(v: &Value) -> Result<T> {
    T::from_value(v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                write_sep(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !entries.is_empty() {
                write_sep(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn write_sep(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Writes a float the way serde_json does: shortest round-trip representation
/// that still reads back as a float (`2.0`, not `2`); non-finite as `null`.
fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:?}` is Rust's shortest-round-trip formatter: `2.0` keeps its
    // decimal point and huge/tiny magnitudes switch to scientific notation,
    // matching upstream serde_json's ryu output.
    let s = format!("{f:?}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deep arrays and objects may nest before [`parse`] returns an error
/// instead of recursing further: upstream `serde_json`'s default limit.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] on malformed input, on arrays and objects nested more
/// than 128 deep, or on trailing non-whitespace.
pub fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error::custom(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    /// Parses one array or object a level deeper, failing past
    /// [`MAX_DEPTH`] so hostile input cannot exhaust the stack.
    fn nested(&mut self, parse: fn(&mut Parser<'a>) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            if (0xD800..0xDC00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("invalid surrogate pair");
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                match char::from_u32(combined) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid surrogate pair"),
                                }
                            } else {
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid \\u escape"),
                                }
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return self.err("invalid UTF-8"),
                        };
                        let end = start + len;
                        let Some(chunk) = self.bytes.get(start..end) else {
                            return self.err("truncated UTF-8");
                        };
                        match std::str::from_utf8(chunk) {
                            Ok(s) => out.push_str(s),
                            Err(_) => return self.err("invalid UTF-8"),
                        }
                        self.pos = end;
                    }
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape: ASCII hex digits only,
    /// so a sign (which `u32::from_str_radix` would accept) is an error.
    fn hex4(&mut self) -> Result<u32> {
        let Some(chunk) = self.bytes.get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let mut cp = 0;
        for &b in chunk {
            match char::from(b).to_digit(16) {
                Some(digit) => cp = cp * 16 + digit,
                None => return self.err("invalid \\u escape"),
            }
        }
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number slice is ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Value::Float(f)),
            Err(_) => self.err("invalid number"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&429.0f64).unwrap(), "429.0");
        assert_eq!(to_string(&5.5f64).unwrap(), "5.5");
        assert_eq!(to_string(&1e300f64).unwrap(), "1e300");
    }

    #[test]
    fn integers_print_bare() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a":[1,2.5,"x\n"],"b":{"nested":true},"c":null}"#;
        let v = parse(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"k":[1,2],"s":"hi"}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
        assert!(from_str::<f64>("\"no\"").is_err());
    }

    #[test]
    fn high_surrogate_before_a_non_low_escape_is_an_error() {
        assert!(parse(r#""\uD800\u0041""#).is_err());
        assert!(parse(r#""\uD800\uE000""#).is_err());
        assert!(parse(r#""\uD800""#).is_err());
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u 041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Value::Str("é".to_string()));
        assert_eq!(parse(r#""\u00E9""#).unwrap(), Value::Str("é".to_string()));
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Far past any stack: an error, not an abort.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Value::Str("é".to_string()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".to_string()));
        assert_eq!(
            parse(r#""héllo""#).unwrap(),
            Value::Str("héllo".to_string())
        );
    }
}
