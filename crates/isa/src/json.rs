//! A minimal RFC 8259 JSON reader for the serving layer's requests.
//!
//! `raa-serve`'s HTTP front accepts JSON request bodies from untrusted
//! clients and parses them here, with the per-gate form of a `circuit`
//! job decoded by [`codec::gate_from_json`](crate::codec::gate_from_json).
//! Programs themselves never travel as JSON: their one wire format is
//! the binary [`codec`](crate::codec).
//!
//! Errors are [`DecodeError`] values carrying the byte offset of the
//! problem — [`DecodeError::Json`] for syntax errors,
//! [`DecodeError::UnexpectedEnd`]/[`DecodeError::BadUtf8`] (with
//! offset + context) for truncated or non-UTF-8 input.

use crate::error::DecodeError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys are kept; lookups
    /// return the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as a number.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Structure`] if the value is not a number.
    pub fn num(&self) -> Result<f64, DecodeError> {
        match self {
            Value::Num(v) => Ok(*v),
            _ => Err(structure("expected number")),
        }
    }

    /// The value as an unsigned integer in `[0, max]`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Structure`] if the value is not an integer in
    /// range.
    pub fn uint(&self, max: u64) -> Result<u64, DecodeError> {
        let v = self.num()?;
        if v.fract() != 0.0 || v < 0.0 || v > max as f64 {
            return Err(structure(format!("expected integer in [0, {max}]")));
        }
        Ok(v as u64)
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Structure`] if the value is not a string.
    pub fn str(&self) -> Result<&str, DecodeError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(structure("expected string")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Structure`] if the value is not an array.
    pub fn arr(&self) -> Result<&[Value], DecodeError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(structure("expected array")),
        }
    }

    /// Looks up a required object field.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Structure`] if the value is not an object or the
    /// field is missing.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Value, DecodeError> {
        match self {
            Value::Obj(items) => items
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| structure(format!("missing field `{key}`"))),
            _ => Err(structure("expected object")),
        }
    }

    /// Looks up an optional object field: `Ok(None)` when the field is
    /// absent or JSON `null`, an error when `self` is not an object.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Structure`] if the value is not an object.
    pub fn opt_field<'a>(&'a self, key: &str) -> Result<Option<&'a Value>, DecodeError> {
        match self {
            Value::Obj(items) => Ok(items
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| !matches!(v, Value::Null))),
            _ => Err(structure("expected object")),
        }
    }
}

/// Builds a [`DecodeError::Structure`] — the error for well-formed
/// JSON whose shape does not match what the caller expects.
pub fn structure(message: impl Into<String>) -> DecodeError {
    DecodeError::Structure {
        message: message.into(),
    }
}

/// Parses a complete JSON document: exactly one value, with nothing
/// but whitespace after it.
///
/// # Errors
///
/// [`DecodeError::Json`] on syntax problems, [`DecodeError::
/// UnexpectedEnd`] on truncation, [`DecodeError::TrailingData`] if
/// non-whitespace bytes follow the value.
///
/// # Examples
///
/// ```
/// use raa_isa::json::{parse, Value};
///
/// let v = parse(r#"{"jobs": [1, 2.5], "name": "bell"}"#)?;
/// assert_eq!(v.field("name")?.str()?, "bell");
/// assert_eq!(v.field("jobs")?.arr()?.len(), 2);
/// assert!(matches!(v.opt_field("missing")?, None));
/// # Ok::<(), raa_isa::DecodeError>(())
/// ```
pub fn parse(text: &str) -> Result<Value, DecodeError> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(DecodeError::TrailingData {
            bytes: parser.bytes.len() - parser.pos,
        });
    }
    Ok(root)
}

/// Maximum container (array/object) nesting the parser accepts.
/// Parsing recurses per level, and the serving layer feeds this parser
/// untrusted multi-megabyte bodies — without a bound, a document of
/// nothing but `[` would overflow the connection thread's stack. 128
/// is far beyond any legitimate request (a `circuit` job's gates nest 6
/// deep).
const MAX_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn end(&self) -> DecodeError {
        DecodeError::UnexpectedEnd {
            offset: self.bytes.len(),
            context: "json document",
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), DecodeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, DecodeError>,
    ) -> Result<Value, DecodeError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.peek().ok_or_else(|| self.end())? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(format!("unexpected byte `{}`", c as char))),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, DecodeError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Value, DecodeError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DecodeError::BadUtf8 { offset: start })?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.end())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or_else(|| self.end())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => {
                    // Re-borrow from the byte slice to keep UTF-8 intact.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while let Some(&c) = self.bytes.get(end) {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| DecodeError::BadUtf8 { offset: start })?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, DecodeError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.end())?;
        let text =
            std::str::from_utf8(chunk).map_err(|_| DecodeError::BadUtf8 { offset: self.pos })?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad hex"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, DecodeError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, DecodeError> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            items.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(items));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_trailing_data() {
        assert!(matches!(
            parse("{} x"),
            Err(DecodeError::TrailingData { bytes: 1 })
        ));
    }

    #[test]
    fn truncated_documents_report_end_offset() {
        for doc in ["", "{", "[1,", "\"ab", "{\"k\": "] {
            match parse(doc) {
                Err(DecodeError::UnexpectedEnd { offset, context }) => {
                    assert!(offset <= doc.len());
                    assert!(!context.is_empty());
                }
                Err(_) => {}
                Ok(v) => panic!("truncated doc `{doc}` parsed as {v:?}"),
            }
        }
    }

    #[test]
    fn nesting_at_the_bound_parses_and_past_it_errors() {
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(matches!(parse(&over), Err(DecodeError::Json { .. })));
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(parse(&objects), Err(DecodeError::Json { .. })));
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing_the_stack() {
        // A megabyte of `[` recursed once per byte before the depth
        // bound existed — enough to overflow an 8 MiB thread stack.
        for doc in ["[".repeat(1 << 20), "{\"a\":".repeat(200_000)] {
            assert!(matches!(parse(&doc), Err(DecodeError::Json { .. })));
        }
    }

    #[test]
    fn malformed_surrogate_escapes_error_not_panic() {
        // High surrogate followed by a non-low-surrogate escape.
        assert!(matches!(
            parse(r#""\ud800\u0041""#),
            Err(DecodeError::Json { .. })
        ));
        // Lone high surrogate at the end of a string.
        assert!(matches!(
            parse(r#""\ud800""#),
            Err(DecodeError::Json { .. })
        ));
        // A valid pair still decodes (U+1F600).
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn every_prefix_of_a_document_errors() {
        // Every value kind, escapes (a surrogate pair included),
        // exponents, nesting and a multi-byte character.
        let doc = r#"{"jobs": [{"qasm": "h q[0];\r\n\"x\"\t\b\f\\\/\u00e9\ud83d\ude00 é"},
            {"circuit": [["rz", 3, -2.5e-3], ["cz", 0, 1]], "ok": true, "no": false}],
            "config": {"opt_level": 2, "e": 2.5E+0, "none": null, "empty": [], "obj": {}}}"#;
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(
                parse(&doc[..cut]).is_err(),
                "prefix of {cut}/{} bytes parsed",
                doc.len()
            );
        }
        let v = parse(doc).unwrap();
        let qasm = v.field("jobs").unwrap().arr().unwrap()[0].field("qasm");
        assert_eq!(
            qasm.unwrap().str().unwrap(),
            "h q[0];\r\n\"x\"\t\u{8}\u{c}\\/é\u{1F600} é"
        );
        let e = v.field("config").unwrap().field("e").unwrap().num();
        assert_eq!(e.unwrap(), 2.5);
    }

    #[test]
    fn gate_angles_round_trip_bit_exactly() {
        use crate::codec::{gate_from_json, gate_to_json};
        use raa_circuit::{Gate, OneQubitKind, Qubit};

        for angle in [-0.0, f64::MIN_POSITIVE, 1e-300, 0.1234567890123] {
            let text = gate_to_json(&Gate::rz(Qubit(1), angle)).unwrap();
            assert!(text.len() < 40, "{} bytes: {text}", text.len());
            match gate_from_json(&parse(&text).unwrap()).unwrap() {
                Gate::OneQ {
                    kind: OneQubitKind::Rz(t),
                    qubit: Qubit(1),
                } => assert_eq!(t.to_bits(), angle.to_bits(), "{text}"),
                other => panic!("{text} decoded as {other:?}"),
            }
        }
        assert!(gate_to_json(&Gate::rz(Qubit(0), f64::NAN)).is_err());
    }

    #[test]
    fn opt_field_treats_null_as_absent() {
        let v = parse(r#"{"a": null, "b": 1}"#).unwrap();
        assert!(v.opt_field("a").unwrap().is_none());
        assert!(v.opt_field("b").unwrap().is_some());
        assert!(v.opt_field("c").unwrap().is_none());
        assert!(Value::Null.opt_field("a").is_err());
    }
}
