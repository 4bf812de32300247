//! The workspace's one JSON reader and string escaper (std-only; the
//! build environment is offline, so no `serde_json`).
//!
//! Everything that turns JSON text into values goes through
//! [`Json::parse`]: trace lines and headers ([`crate::trace`]), fault
//! plans (`fupermod-runtime`), the serving protocol
//! (`fupermod-store`), the daemon client and the tracetool's schema
//! validation (`fupermod-trace`). Every decoder of an object that
//! comes from outside the process reads its members through
//! [`Members`], under one rule for what an integer is (see there),
//! and maps [`MemberError`] onto its own error type. The grammar
//! lives here, once:
//!
//! * string escapes are decoded, `\uXXXX` surrogate pairs included;
//!   a lone surrogate is an error, as is an unescaped control
//!   character (`< 0x20`) inside a string;
//! * a number starts with a digit or `-`, runs over
//!   `[0-9+-.eE]` and must parse as an `f64` (so the trace encoding's
//!   `1e9999` reads as `+inf`);
//! * anything but whitespace after the document is an error;
//! * containers nest at most [`MAX_DEPTH`] deep — a deeper document
//!   is an error, never a stack overflow.

use std::fmt;

/// Deepest container nesting [`Json::parse`] accepts. Every document
/// this workspace reads or writes is at most a handful of levels
/// deep; the cap keeps a hostile file of `[[[[…` from exhausting the
/// stack of the recursive-descent parser.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// A syntax error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub pos: usize,
    /// What was wrong there.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace
    /// allowed, trailing input rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input
    /// or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// JSON type name used in schema/validation messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// The members of one JSON object, each read once into a typed value
/// ([`Members::take`]) and moved out, not cloned.
///
/// # Integers
///
/// This is the one rule for what a JSON integer is. [`Json::parse`]
/// reads a number as an `f64`, which holds every integer of magnitude
/// below 2⁵³ exactly; from 2⁵³ on, a written integer may have been
/// rounded to a neighbour (2⁵³ + 1 reads as 2⁵³). So an integer member
/// ([`FromMember`] for `u64`, `usize`, `u32` and `i64`) is a number
/// with no fractional part (`1e2` is 100, `-0` is 0): a `u64` or
/// `usize` is non-negative and below 2⁵³, a `u32` non-negative and
/// below 2³², an `i64` of magnitude below 2⁵³. Anything else is a
/// [`MemberError`] naming the member, never a saturated, truncated or
/// rounded number.
#[derive(Debug)]
pub struct Members(Vec<(String, Json)>);

impl Members {
    /// The members of `value`, or the [`Json::type_name`] of a `value`
    /// that is not an object.
    pub fn new(value: Json) -> Result<Self, &'static str> {
        match value {
            Json::Obj(members) => Ok(Self(members)),
            other => Err(other.type_name()),
        }
    }

    /// Member `key` (the first, if repeated) as a `T`; an error when
    /// it is missing or not a `T`.
    pub fn take<T: FromMember>(&mut self, key: &str) -> Result<T, MemberError> {
        self.take_opt(key)?
            .ok_or_else(|| MemberError(format!("missing field '{key}'")))
    }

    /// [`Members::take`] for a member that may be absent: `None` then
    /// (a `null` member is present).
    pub fn take_opt<T: FromMember>(&mut self, key: &str) -> Result<Option<T>, MemberError> {
        let found = self.0.iter_mut().find(|(k, _)| k == key);
        found
            .map(|(_, v)| T::from_member(key, std::mem::replace(v, Json::Null)))
            .transpose()
    }

    /// An error naming the first key outside `allowed` or repeated
    /// (which a first-match read would half ignore).
    pub fn only(&self, allowed: &[&str]) -> Result<(), MemberError> {
        for (i, (key, _)) in self.0.iter().enumerate() {
            if !allowed.contains(&key.as_str()) {
                return Err(MemberError(format!("unknown field '{key}'")));
            }
            if self.0[..i].iter().any(|(k, _)| k == key) {
                return Err(MemberError(format!("field '{key}' appears more than once")));
            }
        }
        Ok(())
    }
}

/// The members in document order (one already read holds `null`).
impl IntoIterator for Members {
    type Item = (String, Json);
    type IntoIter = std::vec::IntoIter<(String, Json)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// A member that did not read ([`Members`]); the message names it.
#[derive(Debug)]
pub struct MemberError(String);

impl fmt::Display for MemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MemberError {}

/// A type a member's value reads as, under the integer rule of
/// [`Members`].
pub trait FromMember: Sized {
    /// Reads `value`, the value of member `key` (which errors name).
    fn from_member(key: &str, value: Json) -> Result<Self, MemberError>;
}

fn mistyped(key: &str, want: &str, got: &Json) -> MemberError {
    MemberError(format!(
        "field '{key}' must be {want}, got {}",
        got.type_name()
    ))
}

/// Number `x` in member `key`, which `must` be otherwise.
fn out_of_range(key: &str, must: &str, x: f64) -> MemberError {
    MemberError(format!("field '{key}' {must}, got {x}"))
}

/// Integers of magnitude below `2^bits`, `bits` ≤ 53 (every such
/// integer is exactly an `f64`), non-negative unless `signed`.
macro_rules! integer_members {
    ($($ty:ty: $bits:expr, $signed:expr;)*) => {$(
        impl FromMember for $ty {
            fn from_member(key: &str, value: Json) -> Result<Self, MemberError> {
                let x = f64::from_member(key, value)?;
                let (whole, magnitude) = if $signed {
                    ("must be an integer", "of magnitude ")
                } else {
                    ("must be a non-negative integer", "")
                };
                if x.fract() != 0.0 || (x < 0.0 && !$signed) {
                    Err(out_of_range(key, whole, x))
                } else if x.abs() >= (1u64 << $bits) as f64 {
                    let must = format!("must be an integer {magnitude}below 2^{}", $bits);
                    Err(out_of_range(key, &must, x))
                } else {
                    Ok(x as $ty) // exact: an integer of magnitude below 2^bits
                }
            }
        }
    )*};
}

integer_members! {
    u64: 53, false;
    usize: usize::BITS.min(53), false;
    u32: 32, false;
    i64: 53, true;
}

impl FromMember for f64 {
    fn from_member(key: &str, value: Json) -> Result<Self, MemberError> {
        match value {
            Json::Num(x) => Ok(x),
            other => Err(mistyped(key, "a number", &other)),
        }
    }
}

impl FromMember for String {
    fn from_member(key: &str, value: Json) -> Result<Self, MemberError> {
        match value {
            Json::Str(s) => Ok(s),
            other => Err(mistyped(key, "a string", &other)),
        }
    }
}

/// `null` as `None`, any other value as a `T`.
impl<T: FromMember> FromMember for Option<T> {
    fn from_member(key: &str, value: Json) -> Result<Self, MemberError> {
        match value {
            Json::Null => Ok(None),
            value => T::from_member(key, value).map(Some),
        }
    }
}

impl FromMember for Json {
    fn from_member(_key: &str, value: Json) -> Result<Self, MemberError> {
        Ok(value)
    }
}

/// An array whose every item reads as a `T` (an item's error names
/// the array).
impl<T: FromMember> FromMember for Vec<T> {
    fn from_member(key: &str, value: Json) -> Result<Self, MemberError> {
        match value {
            Json::Arr(items) => items.into_iter().map(|v| T::from_member(key, v)).collect(),
            other => Err(mistyped(key, "an array", &other)),
        }
    }
}

/// Escapes a string for embedding between quotes in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a JSON string literal: `"` + [`escape`] + `"`.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", want as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                self.pos += 1;
                let v = if open == b'{' {
                    self.object()?
                } else {
                    self.array()?
                };
                self.depth -= 1;
                Ok(v)
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The members of an object whose `{` has been consumed.
    fn object(&mut self) -> Result<Json, JsonError> {
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// The items of an array whose `[` has been consumed.
    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs a decision.
            // Those bytes are all ASCII, so the run ends on a character
            // boundary of the (already valid UTF-8) input.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// One escape sequence whose `\` has been consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = match unit {
                    0xd800..=0xdbff => {
                        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                            return Err(self.err("lone surrogate in \\u escape"));
                        }
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xdc00..=0xdfff).contains(&low) {
                            return Err(self.err("lone surrogate in \\u escape"));
                        }
                        0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                    }
                    unit => unit,
                };
                // Only a lone low surrogate is left to fail here.
                char::from_u32(code).ok_or_else(|| self.err("lone surrogate in \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "+1",
            "\"raw\u{1}control\"",
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800A""#,
            r#""\u+041""#,
            r#""\x""#,
        ] {
            assert!(Json::parse(text).is_err(), "accepted: {text:?}");
        }
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        let v = Json::parse(r#""\u0041\/\b\f\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("A/\u{8}\u{c}\u{1f600}"));
        // The trace encoding's infinities are ordinary numbers here.
        assert_eq!(Json::parse("1e9999").unwrap().as_f64(), Some(f64::INFINITY));
        assert_eq!(Json::parse("-1e9999").unwrap().as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn escape_and_quote_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{0001}f\u{1f600}";
        assert_eq!(Json::parse(&quote(nasty)).unwrap().as_str(), Some(nasty));
        assert_eq!(quote("x"), "\"x\"");
    }

    #[test]
    fn nesting_is_capped_not_fatal() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 64"), "{err}");
        // A bomb far past any stack budget is the same one-line error.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).unwrap_err().msg.contains("nesting deeper than"));
    }
}
