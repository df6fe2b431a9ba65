//! The workspace's one JSON reader and one JSON string escaper.
//!
//! NDJSON trace lines ([`crate::parse_trace_line`]), `qcc serve` requests
//! and the E1 bench reference are all read with [`parse`]. Every writer
//! keeps its own `format!` layout and passes the strings it writes
//! through [`escape_into`], so a label or an error message reads back
//! exactly as written. Std-only, like the rest of the crate.

use std::fmt;

/// Arrays and objects nested deeper than this are rejected: the reader
/// recurses once per level, and one hostile line must not exhaust the
/// stack.
const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as written (`-3`, `0.25`, `1e9`), so that an integer of
    /// any width converts exactly; see [`Value::as_u64`],
    /// [`Value::as_i64`] and [`Value::as_f64`].
    Number(String),
    /// A string, its escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields in document order, repeated keys kept.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`, if this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is an integer (no fraction, no exponent) that
    /// fits a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.integer_text()?.parse().ok()
    }

    /// The number, if this is an integer (no fraction, no exponent) that
    /// fits an `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        self.integer_text()?.parse().ok()
    }

    /// The nearest `f64` to the number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    fn integer_text(&self) -> Option<&str> {
        match self {
            Value::Number(text) if !text.contains(['.', 'e', 'E']) => Some(text),
            _ => None,
        }
    }
}

/// Why a text is not JSON, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the text at which reading stopped.
    pub pos: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

/// Reads the JSON value at the start of `text` (leading whitespace
/// skipped) and returns it with the rest of the text, whitespace after the
/// value skipped. An NDJSON line is well formed when the rest is empty;
/// each caller words that error for its own format.
///
/// # Errors
///
/// The first malformation, with its byte offset.
///
/// # Examples
///
/// ```
/// use qcc_congest::json::{parse, Value};
///
/// let (v, rest) = parse(r#" {"id": 18446744073709551615, "label": "a\tb"} "#)?;
/// assert_eq!(v.get("id").and_then(Value::as_u64), Some(u64::MAX));
/// assert_eq!(v.get("label").and_then(Value::as_str), Some("a\tb"));
/// assert_eq!(rest, "");
/// assert!(parse("[1,").is_err());
/// # Ok::<(), qcc_congest::json::Error>(())
/// ```
pub fn parse(text: &str) -> Result<(Value, &str), Error> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    Ok((value, &text[reader.pos..]))
}

/// Appends `s` to `out` as the body of a JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` take their short escapes and
/// every other control character a `\u00XX` one.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// `s` as a JSON string literal, quotes included.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, message: impl Into<String>) -> Error {
        Error {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is the next byte (no whitespace skipped).
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.text.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!(
                "expected '{}', found {}",
                b as char,
                other.map_or("end of line".to_string(), |c| format!("'{}'", c as char))
            ))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.error("unexpected end of line")),
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or_default();
                Err(self.error(format!("unexpected character '{c}'")))
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("malformed literal (expected {word})")))
        }
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let rest = &self.text[self.pos..];
        let count = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        self.pos += count;
        count
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = self.eat(b'0') || self.digits() > 0;
        let frac_ok = !self.eat(b'.') || self.digits() > 0;
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        if int_ok && frac_ok && exp_ok {
            Ok(Value::Number(self.text[start..self.pos].to_string()))
        } else {
            Err(self.error("malformed number"))
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or_default();
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("bad \\u escape"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => {
                    self.pos -= 1;
                    return Err(self.error("unescaped control character in string"));
                }
            }
            let escape = self.text.as_bytes().get(self.pos).copied();
            self.pos += 1;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    // A high surrogate pairs with the low one escaped next.
                    if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u")
                    {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("bad \\u code point"));
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    out.push(char::from_u32(code).ok_or_else(|| self.error("bad \\u code point"))?);
                }
                _ => {
                    self.pos -= 1;
                    return Err(self.error("bad escape"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whole(text: &str) -> Result<Value, Error> {
        let (value, rest) = parse(text)?;
        assert_eq!(rest, "", "{text:?}");
        Ok(value)
    }

    #[test]
    fn reads_every_kind_of_value() {
        let v = whole(r#"{"a":[null,true,false,-0,12.5e-3,"x"],"b":{},"c":[]}"#).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        Value::Null,
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Number("-0".into()),
                        Value::Number("12.5e-3".into()),
                        Value::String("x".into()),
                    ])
                ),
                ("b".into(), Value::Object(vec![])),
                ("c".into(), Value::Array(vec![])),
            ])
        );
    }

    #[test]
    fn numbers_convert_exactly_or_not_at_all() {
        let num = |t: &str| whole(t).unwrap();
        assert_eq!(num("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(num("18446744073709551616").as_u64(), None);
        assert_eq!(num("-9223372036854775808").as_i64(), Some(i64::MIN));
        assert_eq!(num("-1").as_u64(), None);
        assert_eq!(num("1.0").as_i64(), None);
        assert_eq!(num("1e3").as_u64(), None);
        assert_eq!(num("1e3").as_f64(), Some(1000.0));
        assert_eq!(num("240.5").as_f64(), Some(240.5));
        assert_eq!(whole("\"7\"").unwrap().as_u64(), None);
        for bad in ["-", "1.", ".5", "1e", "1e+", "+1", "01"] {
            assert!(!matches!(parse(bad), Ok((_, ""))), "{bad:?}");
        }
    }

    #[test]
    fn strings_decode_every_escape() {
        let s = whole(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00 é""#).unwrap();
        assert_eq!(
            s.as_str(),
            Some("q\" b\\ s/ \u{8}\u{c}\n\r\t é \u{1f600} é")
        );
        for bad in [
            r#""abc"#,
            r#""\q""#,
            r#""\u00g1""#,
            r#""\u12""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            "\"a\tb\"",
        ] {
            assert!(whole(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn escaped_strings_read_back_as_written() {
        let raw = "quote \" backslash \\ nl \n cr \r tab \t nul \u{0} bell \u{7} é";
        let text = quote(raw);
        assert_eq!(
            text,
            "\"quote \\\" backslash \\\\ nl \\n cr \\r tab \\t nul \\u0000 bell \\u0007 é\""
        );
        assert_eq!(whole(&text).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn errors_name_the_byte_they_stopped_at() {
        let e = parse("{\"a\" 1}").unwrap_err();
        assert_eq!((e.pos, e.message.as_str()), (5, "expected ':', found '1'"));
        assert_eq!(e.to_string(), "expected ':', found '1' at byte 5");
        assert_eq!(parse("").unwrap_err().message, "unexpected end of line");
        assert_eq!(
            parse("nope").unwrap_err().message,
            "malformed literal (expected null)"
        );
        assert_eq!(
            parse("[1 2]").unwrap_err().message,
            "expected ',' or ']' in array"
        );
        assert_eq!(
            parse("{\"a\":1 \"b\"}").unwrap_err().message,
            "expected ',' or '}' in object"
        );
        assert_eq!(parse("\"é\\x\"").unwrap_err().pos, 4);
        assert_eq!(
            parse("\u{e9}").unwrap_err().message,
            "unexpected character 'é'"
        );
    }

    #[test]
    fn rest_is_what_follows_the_value() {
        assert_eq!(
            parse(" [1] \t").unwrap(),
            (Value::Array(vec![Value::Number("1".into())]), "")
        );
        assert_eq!(parse("{} extra").unwrap().1, "extra");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(whole(&deep(MAX_DEPTH)).is_ok());
        let e = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, MAX_DEPTH);
        assert!(e.message.contains("nested deeper"), "{e}");
        assert!(parse(&"[".repeat(200_000)).is_err());
    }
}
