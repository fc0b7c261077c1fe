//! The workspace's one JSON reader and its one JSON writer.
//!
//! Every JSON artifact the tools exchange — `obs.json`, `estimates.json`,
//! `map.json`, `fleet.json`, `delta.json`, `dcpicheck --json`,
//! `dcpitrace --json`, `profile --json`'s records, speedscope
//! flamegraphs — is written here and read here. A writer says only which
//! keys it has and what each value is: a key list of `(key, `[`Value`]`)`
//! pairs, where the writer names every value's type, so a string that
//! happens to look like a number is still written as a string. The
//! layout is [`Doc`]'s, one member per line and one row object per line,
//! so every artifact diffs line by line and is byte-deterministic:
//!
//! ```text
//! {
//!   "schema": 1,
//!   "image": "/bin/app",
//!   "ledger": {"generated": 16, "attributed": 14},
//!   "blocks": [
//!     {"proc": 0, "freq": 12.500000},
//!     {"proc": 1, "freq": -1.000000}
//!   ]
//! }
//! ```
//!
//! A format with a layout of its own (speedscope's, one line) is built as
//! a [`Json`] value, whose `Display` is compact JSON. Documents are read
//! by [`parse`] into a [`Json`] value and walked with typed member access
//! whose errors name the member ([`Json::int`], [`Json::string`], …).
//!
//! What the reader guarantees on arbitrary input:
//!
//! * **No panic, bounded stack.** Containers nest at most [`MAX_DEPTH`]
//!   deep; anything deeper is an error, not a recursion.
//! * **Exact integers.** A non-negative integer literal up to `u64::MAX`
//!   is kept as [`Json::Int`], bit for bit (span ids, `wall_ns` and cycle
//!   stamps exceed 2^53). Everything else numeric is a finite `f64`.
//! * **Allocation bounded by input length.** Nothing is reserved from a
//!   count the text claims; containers grow as elements actually parse,
//!   so a call requests at most [`ALLOC_FACTOR`] bytes per input byte
//!   (plus [`ALLOC_SLACK`]) from the allocator, summed over the call.
//! * **Strict grammar.** RFC 8259: no trailing content, no trailing
//!   commas, no leading zeros, no raw control characters in strings, no
//!   lone surrogates, no non-finite numbers.
//! * **First key wins.** Duplicate object keys are kept in order;
//!   [`Json::get`] returns the first.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// Bytes [`parse`] may request from the allocator per byte of input,
/// summed over the call (reallocations count at their new size). The
/// worst case is a long array of one-digit numbers: two input bytes per
/// 32-byte [`Json`], doubled by `Vec` growth and doubled again by
/// counting every regrowth.
pub const ALLOC_FACTOR: usize = 64;

/// Constant term of the allocation bound: up to [`MAX_DEPTH`] open
/// containers each reserve four elements on their first push, however
/// short the input, and an error carries its message.
pub const ALLOC_SLACK: usize = 16 * 1024;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, exact.
    Int(u64),
    /// Any other number (negative, fractional, exponent, or past
    /// `u64::MAX`); always finite.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order, duplicates included.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match); `None` on a non-object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64`, if this is a number (lossy past 2^53).
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value, if this is a non-negative integer literal.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The text, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member `key`, which must exist.
    ///
    /// # Errors
    ///
    /// Names the member when it is absent (or `self` is not an object).
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing \"{key}\""))
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        pick: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        pick(self.member(key)?).ok_or_else(|| format!("\"{key}\" is not {what}"))
    }

    /// Member `key` as an unsigned integer of type `T`, exact.
    ///
    /// # Errors
    ///
    /// Names the member when it is absent, not a non-negative integer
    /// literal, or out of `T`'s range.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.typed(key, "an unsigned integer in range", |v| {
            T::try_from(v.as_u64()?).ok()
        })
    }

    /// Member `key` as a number.
    ///
    /// # Errors
    ///
    /// Names the member when it is absent or not a number.
    pub fn float(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::num)
    }

    /// Member `key` as a string.
    ///
    /// # Errors
    ///
    /// Names the member when it is absent or not a string.
    pub fn string(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// Member `key` as a boolean.
    ///
    /// # Errors
    ///
    /// Names the member when it is absent or not `true`/`false`.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// Member `key` as an array.
    ///
    /// # Errors
    ///
    /// Names the member when it is absent or not an array.
    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::items)
    }

    /// Checks the `"schema"` stamp our artifacts open with; `what` names
    /// the artifact ("obs export") for the message.
    ///
    /// # Errors
    ///
    /// The stamp is absent or not an integer (so this is no such
    /// artifact), or is a version other than `want`.
    pub fn expect_schema(&self, what: &str, want: u32) -> Result<(), String> {
        let got: u32 = self
            .int("schema")
            .map_err(|e| format!("{e} (not an {what}?)"))?;
        if got == want {
            Ok(())
        } else {
            Err(format!("unsupported {what} schema {got} (expected {want})"))
        }
    }

    /// Runs `f` on every item of array member `key`, in order.
    ///
    /// # Errors
    ///
    /// As [`Json::array`]; an error from `f` comes back prefixed with the
    /// item it was reading, `key[i]: …`.
    pub fn each<'a>(
        &'a self,
        key: &str,
        mut f: impl FnMut(&'a Json) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut items = self.array(key)?.iter().enumerate();
        items.try_for_each(|(i, item)| f(item).map_err(|e| format!("{key}[{i}]: {e}")))
    }
}

/// Compact JSON, no whitespace: what a format with a layout of its own
/// prints. [`parse`] reads it back to an equal value; a number that is
/// not finite, which JSON cannot spell, is written as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // `{:?}` is the shortest text that reads back to the same f64.
            Json::Num(n) if n.is_finite() => write!(f, "{n:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write!(f, "{}", quote(s)),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{}:{value}", quote(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// A value a writer puts after a key. The writer names the type; nothing
/// is inferred from how a string looks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An unsigned integer, exact.
    Int(u64),
    /// A number with this many digits after the point (`{:.N}`); `null`
    /// when it is not finite, which JSON cannot spell.
    Fixed(f64, usize),
    /// A string, escaped so that [`parse`] reads back exactly it.
    Str(&'a str),
    /// A one-line object, `{"key": value, …}`: a row of a [`Doc`], a
    /// member's ledger, or a whole record (`profile --json`).
    Obj(&'a [(&'a str, Value<'a>)]),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(x, places) if x.is_finite() => write!(f, "{x:.places$}"),
            Value::Fixed(..) => f.write_str("null"),
            Value::Str(s) => write!(f, "{}", quote(s)),
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {value}", quote(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

impl From<bool> for Value<'_> {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value<'_> {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<u32> for Value<'_> {
    fn from(n: u32) -> Self {
        Value::Int(n.into())
    }
}

impl From<usize> for Value<'_> {
    fn from(n: usize) -> Self {
        // Widening: no supported target has a usize wider than 64 bits.
        Value::Int(n as u64)
    }
}

impl From<Option<u64>> for Value<'_> {
    fn from(n: Option<u64>) -> Self {
        n.map_or(Value::Null, Value::Int)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(s: &'a str) -> Self {
        Value::Str(s)
    }
}

impl<'a> From<&'a String> for Value<'a> {
    fn from(s: &'a String) -> Self {
        Value::Str(s)
    }
}

/// A document in the one layout (module docs): members in the order they
/// are added, one per line; [`Doc::finish`] closes it.
#[derive(Debug, Default)]
pub struct Doc {
    out: String,
}

impl Doc {
    /// An empty document.
    #[must_use]
    pub fn new() -> Doc {
        Doc::default()
    }

    /// Starts member `key` on its own line; its value goes after.
    fn member(&mut self, key: &str) -> &mut String {
        let sep = if self.out.is_empty() {
            "{\n  "
        } else {
            ",\n  "
        };
        self.out.push_str(sep);
        let _ = write!(self.out, "{}: ", quote(key));
        &mut self.out
    }

    /// Member `key`, a value on the member's line.
    pub fn field<'v>(&mut self, key: &str, value: impl Into<Value<'v>>) -> &mut Doc {
        let value = value.into();
        let _ = write!(self.member(key), "{value}");
        self
    }

    /// Member `key`, an array of the row objects `fill` adds, one per
    /// line.
    pub fn rows(&mut self, key: &str, fill: impl FnOnce(&mut Rows<'_>)) -> &mut Doc {
        let out = self.member(key);
        out.push_str("[\n");
        let mut rows = Rows { out, empty: true };
        fill(&mut rows);
        let close = if rows.empty { "  ]" } else { "\n  ]" };
        self.out.push_str(close);
        self
    }

    /// The document, closed and newline-terminated.
    #[must_use]
    pub fn finish(self) -> String {
        let mut out = self.out;
        out.push_str(if out.is_empty() { "{}\n" } else { "\n}\n" });
        out
    }
}

/// The rows of one [`Doc::rows`] member.
#[derive(Debug)]
pub struct Rows<'d> {
    out: &'d mut String,
    empty: bool,
}

impl Rows<'_> {
    /// One row object, on its own line.
    pub fn row(&mut self, fields: &[(&str, Value<'_>)]) {
        self.out
            .push_str(if self.empty { "    " } else { ",\n    " });
        self.empty = false;
        let _ = write!(self.out, "{}", Value::Obj(fields));
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab get their short
/// forms, every other control character becomes `\u00XX`. [`parse`]
/// reads the result back to exactly `s`.
fn quote(s: &str) -> Quoted<'_> {
    Quoted(s)
}

/// What [`quote`] returns: formats as the escaped literal without an
/// intermediate `String`.
#[derive(Clone, Copy, Debug)]
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        // Runs between escapes are written whole; every byte that needs
        // escaping is ASCII, so the cuts fall on character boundaries.
        let mut run = 0;
        for (i, b) in self.0.bytes().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&self.0[run..i])?;
            if short.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(short)?;
            }
            run = i + 1;
        }
        f.write_str(&self.0[run..])?;
        f.write_char('"')
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first violation of the
/// grammar or of the limits in the module docs.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// After an element: a comma (more follow) or `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(&format!("expected ',' or '{}'", close as char))),
        }
    }

    /// `depth` containers are open around the value about to be read.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    if !self.more(b'}')? {
                        return Ok(Json::Obj(members));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if !self.more(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// A string literal; `pos` is at its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece (all ASCII, so a character boundary).
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            match rest.as_bytes()[run] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// One escape sequence; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                // A high surrogate must be followed by an escaped low one.
                let code = if (0xd800..0xdc00).contains(&hi) && self.eat("\\u") {
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("unpaired surrogate in \\u escape"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                return char::from_u32(code)
                    .ok_or_else(|| self.err("unpaired surrogate in \\u escape"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.eat("-");
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_start] == b'0') {
            return Err(self.err("malformed number"));
        }
        let mut integral = !negative;
        if self.eat(".") {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if self.eat("e") || self.eat("E") {
            integral = false;
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        let token = &self.text[start..self.pos];
        if integral {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        match token.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_is_one_member_per_line_and_one_row_per_line() {
        let mut doc = Doc::new();
        doc.field("schema", 1_u32)
            .field("name", "a\"b")
            .field("gone", None)
            .field("ok", true)
            .field(
                "ledger",
                Value::Obj(&[("n", 7_u64.into()), ("f", Value::Fixed(0.5, 3))]),
            )
            .rows("none", |_| {})
            .rows("rows", |rows| {
                rows.row(&[("i", 0_usize.into())]);
                rows.row(&[("i", 1_usize.into()), ("s", "x".into())]);
            });
        let text = doc.finish();
        assert_eq!(
            text,
            "{\n  \"schema\": 1,\n  \"name\": \"a\\\"b\",\n  \"gone\": null,\n  \"ok\": true,\n  \
             \"ledger\": {\"n\": 7, \"f\": 0.500},\n  \"none\": [\n  ],\n  \"rows\": [\n    \
             {\"i\": 0},\n    {\"i\": 1, \"s\": \"x\"}\n  ]\n}\n"
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.string("name"), Ok("a\"b"));
        assert_eq!(v.array("rows").unwrap()[1].string("s"), Ok("x"));
        assert_eq!(Doc::new().finish(), "{}\n");
        assert_eq!(parse(&Doc::new().finish()).unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn values_are_written_as_the_type_they_are() {
        let text = |v: Value| v.to_string();
        assert_eq!(text("120".into()), "\"120\"");
        assert_eq!(text(120_u64.into()), "120");
        assert_eq!(text(u64::MAX.into()), "18446744073709551615");
        assert_eq!(text(Value::Fixed(1.0 / 3.0, 6)), "0.333333");
        assert_eq!(text(Value::Fixed(-0.0, 2)), "-0.00");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(text(Value::Fixed(x, 6)), "null");
        }
        assert_eq!(text(Some(3).into()), "3");
        assert_eq!(text(None.into()), "null");
        assert_eq!(Value::Obj(&[]).to_string(), "{}");
    }

    #[test]
    fn compact_form_reads_back_equal() {
        let doc = r#"{"s": "a\"b\u0001\n", "n": [-0, 1.5, 1e300, -2.5E-1, 0, 18446744073709551615],
                      "o": {"t": true, "f": false, "z": null, "e": [], "m": {}}}"#;
        let v = parse(doc).unwrap();
        let compact = v.to_string();
        assert!(!compact.contains(' '), "{compact}");
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn every_escape_reads_back() {
        let v = parse(r#""\" \\ \/ \n \r \t \b \f \u0041 \u00e9 \u001F \ud83d\ude00""#).unwrap();
        assert_eq!(
            v,
            Json::Str("\" \\ / \n \r \t \u{8} \u{c} A \u{e9} \u{1f} \u{1f600}".into())
        );
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud83d""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            "\"raw\nnewline\"",
            "\"raw\u{1}control\"",
            r#""unterminated"#,
            r#""ends in a backslash\"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn quote_escapes_exactly_what_json_requires() {
        assert_eq!(quote("plain /path é").to_string(), "\"plain /path é\"");
        assert_eq!(
            quote("a\"b\\c\nd\re\tf\u{0}g\u{1f}h\u{7f}").to_string(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u001fh\u{7f}\""
        );
        let mut every = String::new();
        every.extend((0..0x80u8).map(char::from));
        every.push_str("é\u{1f600}a\"b,c{d}e\nf\\");
        assert_eq!(
            parse(&quote(&every).to_string()).unwrap(),
            Json::Str(every.clone())
        );
    }

    #[test]
    fn integers_are_exact_and_other_numbers_are_floats() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Int(u64::MAX));
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some((1 << 53) + 1)
        );
        assert_eq!(parse("0").unwrap(), Json::Int(0));
        // One past u64::MAX is still a number, just not an exact one.
        let big = parse("18446744073709551616").unwrap();
        assert_eq!(big.as_u64(), None);
        assert_eq!(big.num(), Some(18_446_744_073_709_551_616.0));
        assert_eq!(parse("-1").unwrap(), Json::Num(-1.0));
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-2.5E-1").unwrap(), Json::Num(-0.25));
        assert_eq!(parse("7").unwrap().num(), Some(7.0));
        for bad in [
            "01", "-", "1.", ".5", "1e", "1e+", "+1", "1e999", "NaN", "inf", "0x10", "1_0",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn structure_and_malformation() {
        let v = parse(" { \"a\" : [ 1 , true , null , { } , [ ] ] , \"b\" : \"x\" } ").unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![
                        Json::Int(1),
                        Json::Bool(true),
                        Json::Null,
                        Json::Obj(vec![]),
                        Json::Arr(vec![]),
                    ])
                ),
                ("b".into(), Json::Str("x".into())),
            ])
        );
        for bad in [
            "",
            " ",
            "{",
            "[",
            "{}x",
            "[] []",
            "[1,]",
            "[,1]",
            "{\"a\"1}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{a:1}",
            "{1:1}",
            "[1 2]",
            "tru",
            "nullx",
            "garbage",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_kept_and_the_first_wins() {
        let v = parse(r#"{"k": 1, "k": 2, "other": 3}"#).unwrap();
        assert_eq!(v.get("k"), Some(&Json::Int(1)));
        let Json::Obj(members) = &v else {
            panic!("not an object")
        };
        assert_eq!(members.len(), 3);
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Far past the cap: an error long before the stack is at risk.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn typed_access_names_the_member() {
        let v = parse(r#"{"n": 300, "f": 1.5, "s": "x", "b": true, "a": [1], "neg": -1}"#).unwrap();
        assert_eq!(v.int::<u64>("n"), Ok(300));
        assert_eq!(v.int::<u32>("n"), Ok(300));
        assert_eq!(v.float("n"), Ok(300.0));
        assert_eq!(v.float("f"), Ok(1.5));
        assert_eq!(v.string("s"), Ok("x"));
        assert_eq!(v.flag("b"), Ok(true));
        assert_eq!(v.array("a"), Ok(&[Json::Int(1)][..]));
        assert_eq!(
            v.int::<u8>("n").unwrap_err(),
            "\"n\" is not an unsigned integer in range"
        );
        assert_eq!(
            v.int::<u64>("neg").unwrap_err(),
            "\"neg\" is not an unsigned integer in range"
        );
        assert_eq!(
            v.int::<u64>("f").unwrap_err(),
            "\"f\" is not an unsigned integer in range"
        );
        assert_eq!(v.int::<u64>("gone").unwrap_err(), "missing \"gone\"");
        assert_eq!(v.string("n").unwrap_err(), "\"n\" is not a string");
        assert_eq!(v.flag("s").unwrap_err(), "\"s\" is not a boolean");
        assert_eq!(v.array("s").unwrap_err(), "\"s\" is not an array");
        assert_eq!(v.float("s").unwrap_err(), "\"s\" is not a number");
        assert_eq!(Json::Null.member("k").unwrap_err(), "missing \"k\"");
        let rows = parse(r#"{"rows": [{"n": 1}, {"n": 2}, {"m": 3}]}"#).unwrap();
        let mut sum = 0;
        let err = rows.each("rows", |row| {
            sum += row.int::<u64>("n")?;
            Ok(())
        });
        assert_eq!((sum, err), (3, Err("rows[2]: missing \"n\"".into())));
        assert_eq!(
            rows.each("gone", |_| Ok(())).unwrap_err(),
            "missing \"gone\""
        );
    }
}
