//! The crate's one JSON reader and writer: store record lines, the
//! `hyperpredd` wire, triage bundles and `/v1/stats` all go through it.
//!
//! [`parse`] makes one pass over the bytes and returns a [`Value`] that
//! borrows from the input wherever a string needed no unescaping. It
//! never panics; a failure is an [`Error`] with the byte offset. Nesting
//! deeper than [`MAX_DEPTH`], bytes after the value and a repeated key
//! are errors. Numbers stay text until [`Value::num`] reads them, so
//! integers are exact and a float is parsed only where one is asked for.
//! Every RFC 8259 escape is decoded, surrogate pairs included; raw
//! control characters in strings are accepted, as earlier clients and
//! writers send tabs raw.
//!
//! [`Object`] writes one compact object in call order, escaping `"`, `\`
//! and every control character (`\n`, `\t`, `\r`, `\b`, `\f` short, the
//! rest `\u00XX`). A string whose only control character is newline is
//! written exactly as the hand-rolled writers this module replaced wrote
//! it, so record lines, their checksums and wire messages keep their
//! bytes.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Deepest nesting of arrays and objects [`parse`] descends into. The
/// documents this crate reads nest at most three deep.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number's text, checked against the JSON grammar.
    Num(&'a str),
    /// A string, escapes decoded.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members in input order (keys are unique).
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, for a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number read as `T`: `u64`/`i64` only for an integer in range,
    /// `f64` for any number.
    pub fn num<T: FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, for `true`/`false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, for an array.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member `key` of an object, read by `read`: `Ok(None)` when
    /// absent, an error naming the key when present with the wrong type.
    pub fn field<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v Value<'a>) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| read(v).ok_or_else(|| format!("field `{key}` has the wrong type")))
            .transpose()
    }
}

/// Why [`parse`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    Eof,
    /// A byte that cannot start or continue a value where it stands.
    Unexpected,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Bytes after the top-level value.
    Trailing,
    /// A key repeated within one object.
    DuplicateKey,
    /// A number outside the JSON grammar.
    Number,
    /// An unknown escape, a bad `\u` sequence, or a lone surrogate.
    Escape,
}

/// A parse failure at byte `offset` of the input (for a duplicated key,
/// the offset of the object holding it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Where the failure was detected.
    pub offset: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ErrorKind::Eof => "unexpected end of input",
            ErrorKind::Unexpected => "unexpected byte",
            ErrorKind::TooDeep => "nesting too deep",
            ErrorKind::Trailing => "trailing bytes after the value",
            ErrorKind::DuplicateKey => "duplicated key",
            ErrorKind::Number => "malformed number",
            ErrorKind::Escape => "malformed escape",
        };
        write!(f, "invalid JSON at byte {}: {what}", self.offset)
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
/// Any input that is not exactly one JSON value within the limits in
/// the module docs.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < text.len() {
        return Err(p.fail(ErrorKind::Trailing));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, kind: ErrorKind) -> Error {
        Error {
            offset: self.at,
            kind,
        }
    }

    /// `Unexpected` at a byte, `Eof` past the last one.
    fn unexpected(&self) -> Error {
        self.fail(match self.peek() {
            Some(_) => ErrorKind::Unexpected,
            None => ErrorKind::Eof,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.at += 1;
        }
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self.text.as_bytes()[self.at..].starts_with(lit.as_bytes());
        self.at += if found { lit.len() } else { 0 };
        found
    }

    /// Consumes `want`, after any whitespace.
    fn expect(&mut self, want: u8) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(want) {
            return Err(self.unexpected());
        }
        self.at += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.fail(ErrorKind::TooDeep)),
            Some(b'{') => {
                let start = self.at;
                let mut members = Vec::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                // Sorting keeps the check O(n log n) for hostile objects.
                let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|w| w[0] == w[1]) {
                    return Err(Error {
                        offset: start,
                        kind: ErrorKind::DuplicateKey,
                    });
                }
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => Err(self.unexpected()),
        }
    }

    /// Comma-separated `item`s from the opening bracket to `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b) if b == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value<'a>, Error> {
        let start = self.at;
        self.eat("-");
        let int = self.at;
        let valid = self.digits()
            && (self.at - int == 1 || self.text.as_bytes()[int] != b'0')
            && (!self.eat(".") || self.digits())
            && (!(self.eat("e") || self.eat("E")) || {
                let _ = self.eat("+") || self.eat("-");
                self.digits()
            });
        if !valid {
            return Err(self.fail(ErrorKind::Number));
        }
        Ok(Value::Num(&self.text[start..self.at]))
    }

    /// Consumes a run of digits; false when there is none.
    fn digits(&mut self) -> bool {
        let from = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at > from
    }

    /// A string, borrowed from the input unless an escape needs decoding.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        let mut run = self.at;
        loop {
            match self.peek() {
                None => return Err(self.unexpected()),
                Some(b'"') => {
                    let tail = &self.text[run..self.at];
                    self.at += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.at]);
                    self.at += 1;
                    out.push(self.escape()?);
                    run = self.at;
                }
                Some(_) => self.at += 1,
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b @ (b'"' | b'\\' | b'/')) => char::from(b),
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                return self.unicode_escape();
            }
            Some(_) => return Err(self.fail(ErrorKind::Escape)),
            None => return Err(self.fail(ErrorKind::Eof)),
        };
        self.at += 1;
        Ok(c)
    }

    /// The code point of a `\uXXXX` escape, joining a surrogate pair
    /// written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            let low = if self.eat("\\u") { self.hex4()? } else { 0 };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.fail(ErrorKind::Escape));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        // A lone low surrogate is no `char`.
        char::from_u32(code).ok_or_else(|| self.fail(ErrorKind::Escape))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.text.get(self.at..self.at + 4);
        let code = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.fail(ErrorKind::Escape))?;
        self.at += 4;
        Ok(code)
    }
}

/// Builds one compact JSON object, member by member, in call order.
#[derive(Debug, Clone, Default)]
pub struct Object {
    out: String,
}

impl Object {
    fn key(&mut self, key: &str) -> &mut String {
        if self.out.is_empty() {
            self.out.reserve(256);
            self.out.push('{');
        } else {
            self.out.push(',');
        }
        push_str(&mut self.out, key);
        self.out.push(':');
        &mut self.out
    }

    /// Appends a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Object {
        push_str(self.key(key), value);
        self
    }

    /// Appends an unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Object {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a signed integer member.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Object {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Object {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a member whose value is already-encoded JSON, such as an
    /// [`array`].
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Object {
        self.key(key).push_str(json);
        self
    }

    /// The text written so far: the object without its closing brace.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Closes the object and returns its text, leaving the builder empty.
    pub fn finish(&mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        std::mem::take(&mut self.out)
    }
}

/// Joins already-encoded values into a JSON array.
pub fn array(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item.as_ref());
    }
    out.push(']');
    out
}

/// Appends `s` as a quoted, escaped JSON string.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn err(text: &str) -> ErrorKind {
        parse(text).expect_err(text).kind
    }

    #[test]
    fn values_parse_and_read_back() {
        let v = parse(r#" {"a":[1,-2,3.5e2,true,false,null],"b":{"c":"d"}} "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].num::<u64>(), Some(1));
        assert_eq!(a[1].num::<i64>(), Some(-2));
        assert_eq!(a[1].num::<u64>(), None);
        assert_eq!(a[2].num::<f64>(), Some(350.0));
        assert_eq!(a[2].num::<i64>(), None, "a float is not an integer");
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[5], Value::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("d")
        );
        assert!(v.get("zz").is_none());
    }

    #[test]
    fn integers_are_exact_past_two_to_the_53() {
        let v = parse("[18446744073709551615,-9223372036854775808,9007199254740993]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0].num::<u64>(), Some(u64::MAX));
        assert_eq!(a[1].num::<i64>(), Some(i64::MIN));
        assert_eq!(a[2].num::<u64>(), Some(9_007_199_254_740_993));
        assert_eq!(parse("18446744073709551616").unwrap().num::<u64>(), None);
    }

    #[test]
    fn every_rfc_escape_decodes() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé😀"));
        assert_eq!(err(r#""\ud83d""#), ErrorKind::Escape, "lone high surrogate");
        assert_eq!(err(r#""\ude00""#), ErrorKind::Escape, "lone low surrogate");
        assert_eq!(err(r#""\x""#), ErrorKind::Escape);
        assert_eq!(err(r#""\u12zz""#), ErrorKind::Escape);
        assert_eq!(err(r#""\u12"#), ErrorKind::Escape, "cut short");
    }

    #[test]
    fn raw_control_characters_are_accepted() {
        let v = parse("\"a\tb\rc\u{1}\"").unwrap();
        assert_eq!(v.as_str(), Some("a\tb\rc\u{1}"));
    }

    #[test]
    fn malformed_input_is_a_typed_error_with_an_offset() {
        assert_eq!(parse("").unwrap_err().kind, ErrorKind::Eof);
        assert_eq!(
            parse("{\"a\":1} x").unwrap_err(),
            Error {
                offset: 8,
                kind: ErrorKind::Trailing
            }
        );
        assert_eq!(err("{\"a\":1,\"a\":2}"), ErrorKind::DuplicateKey);
        assert_eq!(err("{\"a\":1,}"), ErrorKind::Unexpected);
        assert_eq!(err("[1,]"), ErrorKind::Unexpected);
        assert_eq!(err("01"), ErrorKind::Number);
        assert_eq!(err("1."), ErrorKind::Number);
        assert_eq!(err("-"), ErrorKind::Number);
        assert_eq!(err("1e+"), ErrorKind::Number);
        assert_eq!(err("+1"), ErrorKind::Unexpected);
        assert_eq!(err("tru"), ErrorKind::Unexpected);
        assert_eq!(err("{\"a\" 1}"), ErrorKind::Unexpected);
        assert_eq!(err("\"open"), ErrorKind::Eof);
        let e = parse("[1,2").unwrap_err();
        assert_eq!((e.offset, e.kind), (4, ErrorKind::Eof));
        assert!(e.to_string().contains("byte 4"), "{e}");
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_it() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().kind, ErrorKind::TooDeep);
        let mib = "[".repeat(1 << 20);
        let e = parse(&mib).unwrap_err();
        assert_eq!((e.offset, e.kind), (MAX_DEPTH, ErrorKind::TooDeep));
        let objects = "{\"a\":".repeat(1 << 16);
        assert_eq!(parse(&objects).unwrap_err().kind, ErrorKind::TooDeep);
    }

    #[test]
    fn duplicate_check_stays_fast_on_huge_objects() {
        let mut body = String::from("{");
        for i in 0..200_000 {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"k{i}\":0"));
        }
        body.push('}');
        assert!(parse(&body).is_ok());
        body.insert_str(1, "\"k7\":1,");
        assert_eq!(parse(&body).unwrap_err().kind, ErrorKind::DuplicateKey);
    }

    #[test]
    fn writer_escapes_by_one_rule() {
        let mut o = Object::default();
        o.str("s", "q\" b\\ n\n t\t r\r \u{1}\u{8}\u{c}/é")
            .u64("u", u64::MAX)
            .i64("i", -7)
            .bool("b", false)
            .raw("a", &array(["1", "{}"]));
        let text = o.finish();
        assert_eq!(
            text,
            "{\"s\":\"q\\\" b\\\\ n\\n t\\t r\\r \\u0001\\b\\f/é\",\
             \"u\":18446744073709551615,\"i\":-7,\"b\":false,\"a\":[1,{}]}"
        );
        let back = parse(&text).unwrap();
        assert_eq!(
            back.get("s").and_then(Value::as_str),
            Some("q\" b\\ n\n t\t r\r \u{1}\u{8}\u{c}/é")
        );
        assert_eq!(Object::default().finish(), "{}");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn fields_tell_missing_from_wrong_type() {
        let v = parse(r#"{"n":1,"s":"x","a":[],"b":true}"#).unwrap();
        assert_eq!(v.field("n", Value::num::<u64>), Ok(Some(1)));
        assert_eq!(v.field("missing", Value::num::<u64>), Ok(None));
        let wrong = Err("field `s` has the wrong type".to_string());
        assert_eq!(v.field("s", Value::num::<u64>), wrong);
        assert!(v.field("n", Value::as_str).is_err());
        assert_eq!(
            v.field("a", |a| a.as_array().map(<[Value]>::len)),
            Ok(Some(0))
        );
        assert_eq!(v.field("b", Value::as_bool), Ok(Some(true)));
        assert_eq!(parse("[1]").unwrap().field("n", Value::as_str), Ok(None));
    }

    /// Bytes biased toward JSON's structural characters, so random
    /// inputs reach past the first byte of the grammar.
    pub(crate) fn jsonish_bytes(seed: u64, max_len: usize) -> Vec<u8> {
        const ALPHABET: &[u8] = b"{}[]:,\"\\ -0123456789.eEtrufalsn/bu";
        let mut r = StdRng::seed_from_u64(seed);
        let len = r.gen_range(0..max_len);
        (0..len)
            .map(|_| {
                if r.gen_range(0..4u32) == 0 {
                    r.gen_range(0..=255u8)
                } else {
                    ALPHABET[r.gen_range(0..ALPHABET.len())]
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_bytes_never_panic(seed in any::<u64>()) {
            let bytes = jsonish_bytes(seed, 256);
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse(&text) {
                prop_assert!(e.offset <= text.len(), "{e:?} past {}", text.len());
            }
        }

        #[test]
        fn written_strings_read_back(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let s: String = (0..r.gen_range(0..64usize))
                .map(|_| char::from_u32(r.gen_range(0..0x3000u32)).unwrap_or('?'))
                .collect();
            let mut o = Object::default();
            o.str("k", &s);
            let text = o.finish();
            prop_assert_eq!(parse(&text).unwrap().get("k").and_then(Value::as_str), Some(s.as_str()));
        }
    }
}
