//! The workspace's one JSON grammar: a dependency-free recursive-descent
//! parser (no serde exists here) that both checks well-formedness — for
//! smokes and tests over the exporters' hand-rolled output — and yields a
//! value tree for the consumers that read documents back (the bench
//! crate's baseline snapshots).

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value)` pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of an object's first field called `key` (`None` for
    /// non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse `text` as a single JSON value (surrounding whitespace allowed,
/// trailing data rejected).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

/// Validate that `text` is a single well-formed JSON value. Returns the
/// number of bytes consumed on success.
pub fn validate_json(text: &str) -> Result<usize, String> {
    parse_json(text).map(|_| text.len())
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Parse a string starting at its opening quote.
    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        // Start of the pending run of unescaped bytes. Runs begin and end
        // at ASCII bytes, so slicing the text there never splits a scalar.
        let mut run = self.pos;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let code = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates never appear in our own output;
                            // map them to the replacement char.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    });
                    self.pos += 1;
                    run = self.pos;
                }
                c if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos));
                }
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_json_and_rejects_non_json() {
        for good in [
            "null",
            "true",
            "-12.5e3",
            "\"s\"",
            "[]",
            "[1,2,[3]]",
            "{\"a\":{\"b\":[null,false]}}",
            "  { \"x\" : 1 }  ",
        ] {
            let consumed = validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
            assert_eq!(consumed, good.len(), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "nul",
            "{} {}",
            "1.",
            "[1 2]",
            "{\"a\":1,}",
            "\"raw\u{1}control\"",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\u12",
        ] {
            assert!(validate_json(bad).is_err(), "accepted bad JSON: {bad:?}");
        }
    }

    #[test]
    fn parser_yields_values_in_document_order() {
        let doc = parse_json(" {\"b\":[1,-2.5e1,null,true],\"a\":{\"k\":\"v\"},\"b\":0} ").unwrap();
        assert_eq!(
            doc.get("b"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Null,
                Json::Bool(true)
            ])),
            "first duplicate wins"
        );
        assert_eq!(
            doc.get("a").and_then(|a| a.get("k")).and_then(Json::as_str),
            Some("v")
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Num(2.0).as_num(), Some(2.0));
        assert_eq!(Json::Num(2.0).as_str(), None);
        assert_eq!(Json::Null.get("a"), None);
        let Json::Obj(fields) = doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
    }

    #[test]
    fn strings_decode_escapes_and_keep_multibyte_scalars() {
        let parsed = parse_json("\"a\\\"b\\\\c\\/\\n\\t\\r\\b\\f\\u00e9\\u0001 é→😀\"").unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c/\n\t\r\u{8}\u{c}é\u{1} é→😀"));
        // Surrogate halves are not scalars: each decodes to U+FFFD.
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for v in [0.0, -0.001953125, 12.5, 1e300, 3.25, 8.341285228729248] {
            assert_eq!(parse_json(&format!("{v}")).unwrap(), Json::Num(v));
        }
    }
}
