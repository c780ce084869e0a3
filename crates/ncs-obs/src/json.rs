//! The workspace's one JSON value type, with a compact writer and a
//! recursive-descent parser. The workspace is dependency-free by design
//! (no serde), so every JSON document it writes or reads — telemetry
//! dumps, the launcher's world snapshot, the perf artifact and its
//! checker — goes through [`Json`].
//!
//! ```
//! use ncs_obs::json::Json;
//! use ncs_obs::obj;
//!
//! let doc = obj! { "node": "r0", "rank": Some(3u32), "pi": 3.5, "tags": vec!["a", "b"] };
//! assert_eq!(doc.to_string(), r#"{"node":"r0","rank":3,"pi":3.5,"tags":["a","b"]}"#);
//! assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. Parsing is
/// recursive, so without a bound a document of a million `[` (say, a
/// corrupt telemetry push) would overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer: covers the whole `i64` and `u64` ranges.
    Int(i128),
    /// A number with a fraction or exponent. Non-finite values are
    /// written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order. A parsed object keeps
    /// duplicate keys; [`Json::get`] returns the last.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `"key": value` pairs in order; each value
/// goes through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(::std::vec![
            $((::std::string::String::from($key), $crate::json::Json::from($value))),*
        ])
    };
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().rev().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Parses one JSON document, rejecting trailing garbage and nesting
    /// deeper than [`MAX_DEPTH`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem, with its byte
    /// offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }
}

/// The compact writer: no whitespace, strings escaped.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // `Debug` is the shortest round-tripping form and always
            // carries a '.' or an exponent, so it parses back as `Num`.
            Json::Num(n) if n.is_finite() => write!(f, "{n:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => Escaped(s).fmt(f),
            Json::Arr(a) => {
                f.write_char('[')?;
                for (i, v) in a.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { "," } else { "" })?;
                }
                f.write_char(']')
            }
            Json::Obj(m) => {
                f.write_char('{')?;
                for (i, (k, v)) in m.iter().enumerate() {
                    write!(f, "{}{}:{v}", if i > 0 { "," } else { "" }, Escaped(k))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// A string written as a quoted, escaped JSON string literal.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

macro_rules! from {
    ($($t:ty => $v:ident $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

from! {
    bool => b Json::Bool(b);
    f64 => n Json::Num(n);
    String => s Json::Str(s);
    &str => s Json::Str(s.to_owned());
    i32 => i Json::Int(i.into());
    i64 => i Json::Int(i.into());
    u32 => i Json::Int(i.into());
    u64 => i Json::Int(i.into());
    usize => i Json::Int(i as i128);
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, why: &str) -> String {
        format!("{why} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let hit = self.eat(b);
        hit.then_some(())
            .ok_or_else(|| self.err(&format!("expected '{}'", b as char)))
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        let hit = self.text[self.at..].starts_with(lit);
        self.at += if hit { lit.len() } else { 0 };
        hit.then_some(v)
            .ok_or_else(|| self.err(&format!("expected '{lit}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go; both
            // are ASCII, so `at` stays on a char boundary.
            let run = self.text[self.at..]
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run + 1;
            if self.text.as_bytes()[self.at - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
            self.at += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .text
                        .get(self.at..self.at + 4)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.at += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).expect("four hex digits"))
                        .ok_or_else(|| self.err("invalid \\u code point"))?
                }
                other => return Err(self.err(&format!("unknown escape '\\{}'", other as char))),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.at += 1;
        }
        let text = &self.text[start..self.at];
        // Integers stay exact; a fraction or exponent makes an f64.
        (text.parse().map(Json::Int))
            .or_else(|_| text.parse().map(Json::Num))
            .map_err(|_| self.err("bad number"))
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat(b'{') {
            return self.nested(b'}');
        }
        if self.eat(b'[') {
            return self.nested(b']');
        }
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    /// The members of an array or object up to `close`; the opening
    /// bracket is consumed.
    fn nested(&mut self, close: u8) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let (mut arr, mut obj) = (Vec::new(), Vec::new());
        while !self.eat(close) {
            if !(arr.is_empty() && obj.is_empty()) {
                self.expect(b',')?;
            }
            if close == b'}' {
                let key = self.string()?;
                self.expect(b':')?;
                obj.push((key, self.value()?));
            } else {
                arr.push(self.value()?);
            }
        }
        self.depth -= 1;
        Ok(if close == b'}' {
            Json::Obj(obj)
        } else {
            Json::Arr(arr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let v = obj! {
            "s": "a\"b\\c\nd\u{1}",
            "n": Json::Null,
            "i": -3i64,
            "u": u64::MAX,
            "f": 0.25,
            "inf": f64::INFINITY,
            "a": vec![1u32, 2],
            "o": Json::Obj(vec![]),
        };
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b\\c\nd\u0001","n":null,"i":-3,"u":18446744073709551615,"f":0.25,"inf":null,"a":[1,2],"o":{}}"#
        );
    }

    #[test]
    fn none_renders_as_null() {
        assert_eq!(Json::from(None::<i32>).to_string(), "null");
        assert_eq!(Json::from(Some(-3)).to_string(), "-3");
    }

    #[test]
    fn parses_the_artifact_shapes() {
        let v =
            Json::parse(r#"{ "a": -1.5e3, "b": [0.25, 99], "c": "q\"uote\né", "d": 7 }"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Num(-1500.0)));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("q\"uote\né"));
        assert_eq!(v.get("d").and_then(Json::as_u64), Some(7));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            Json::parse(r#"{"k":1,"k":2}"#).unwrap().get("k"),
            Some(&Json::Int(2))
        );
        for bad in [
            "{",
            "{} trailing",
            r#"{"a" 1}"#,
            "[1,]",
            r#""\u12""#,
            "",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("MAX_DEPTH"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }
}
