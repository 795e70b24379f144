//! A minimal, dependency-free JSON reader for trace tooling.
//!
//! Parses the subset the workspace's hand-rolled serializers emit
//! (objects, arrays, strings, numbers, booleans, `null`) into a [`Json`]
//! tree. Used by `netdiag explain` to replay JSONL event streams and by
//! tests to check exporter well-formedness. Fully `Result`-based: a
//! malformed document is an `Err`, never a panic.

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; trace values fit exactly).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered key/value list (duplicates preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound one line of `[`s read from a socket
/// overflows the stack and aborts the process; the workspace's own
/// documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace, and nesting
/// deeper than `MAX_DEPTH`, are errors.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_owned())?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for &b in word.as_bytes() {
            self.eat(b)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(fields)),
                b => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        b as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(items)),
                b => {
                    return Err(format!(
                        "expected ',' or ']' in array, found '{}'",
                        b as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            let digit = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| format!("bad \\u digit '{}'", d as char))?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    b => return Err(format!("bad escape '\\{}'", b as char)),
                },
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: copy the remaining continuation bytes.
                    let len = utf8_len(b);
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump()?;
                    }
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|raw| std::str::from_utf8(raw).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = self
            .bytes
            .get(start..self.pos)
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .ok_or_else(|| format!("invalid number at byte {start}"))?;
        raw.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number '{raw}': {e}"))
    }
}

/// Total byte length of a UTF-8 sequence given its leading byte.
fn utf8_len(lead: u8) -> usize {
    if lead >= 0xF0 {
        4
    } else if lead >= 0xE0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_shaped_lines() {
        let line = r#"{"name":"hs.pick","placement":0,"trial":null,"seq":3,"payload":{"edge":12,"covered":[0,2],"label":"10.0.0.1->10.0.0.2"}}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("hs.pick"));
        assert!(matches!(v.get("trial"), Some(Json::Null)));
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(3));
        let payload = v.get("payload").expect("payload");
        assert_eq!(payload.get("edge").and_then(Json::as_u64), Some(12));
        assert_eq!(
            payload
                .get("covered")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"b\\c\ndAé"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn parses_numbers_and_bools() {
        let v = parse(r#"[0, -3, 2.5, 1e3, true, false, null]"#).expect("parses");
        let items = v.as_array().expect("array");
        assert_eq!(items[0].as_u64(), Some(0));
        assert_eq!(items[1], Json::Num(-3.0));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2], Json::Num(2.5));
        assert_eq!(items[3].as_u64(), Some(1000));
        assert_eq!(items[4], Json::Bool(true));
        assert_eq!(items[6], Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"open", "{} x", "01a"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(1_000_000), "}".repeat(1_000_000));
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok(), "the limit itself parses");
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn run_report_round_trips_through_the_parser() {
        let (h, rec) = crate::RecorderHandle::live();
        h.add("a.count", 3);
        h.observe("h.sizes", 7);
        let v = parse(&rec.snapshot().to_json()).expect("report parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.count"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use std::fmt::Write as _;

        /// Characters that exercise every escape, control and multi-byte
        /// path of the string reader.
        const CHARS: [char; 14] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '€', '😀',
        ];

        /// A short string drawn from [`CHARS`] by the bits of `n`.
        fn string_from(n: u32) -> String {
            (0..n % 5)
                .map(|k| CHARS[(n >> (4 * k)) as usize % CHARS.len()])
                .collect()
        }

        /// Builds a value tree from a stream of draws, at most six levels
        /// deep; an exhausted stream ends in `null`.
        fn build(draws: &mut impl Iterator<Item = u32>, depth: usize) -> Json {
            let Some(n) = draws.next() else {
                return Json::Null;
            };
            let width = n / 7 % 4;
            match n % 7 {
                0 => Json::Null,
                1 => Json::Bool(n & 8 != 0),
                // Sixty-fourths are exact in f64, so Display round-trips.
                2 => Json::Num(f64::from(n as i32) / 64.0),
                3 => Json::Str(string_from(n / 7)),
                4 if depth < 6 => Json::Arr((0..width).map(|_| build(draws, depth + 1)).collect()),
                5 if depth < 6 => Json::Obj(
                    (0..width)
                        .map(|i| (string_from(n.rotate_left(i)), build(draws, depth + 1)))
                        .collect(),
                ),
                _ => Json::Num(f64::from(n / 7)),
            }
        }

        /// Renders a value in the workspace's serializer style.
        fn render(v: &Json, out: &mut String) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                Json::Str(s) => crate::push_json_string(out, s),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render(item, out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, item)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        crate::push_json_string(out, k);
                        out.push(':');
                        render(item, out);
                    }
                    out.push('}');
                }
            }
        }

        fn arb_json() -> impl Strategy<Value = Json> {
            proptest::collection::vec(any::<u32>(), 1..64)
                .prop_map(|draws| build(&mut draws.into_iter(), 0))
        }

        fn rendered(v: &Json) -> String {
            let mut out = String::new();
            render(v, &mut out);
            out
        }

        /// A rendered document cut short at any character boundary.
        fn truncated() -> impl Strategy<Value = String> {
            (arb_json(), any::<usize>()).prop_map(|(v, cut)| {
                let doc = rendered(&v);
                let mut cut = cut % (doc.len() + 1);
                while !doc.is_char_boundary(cut) {
                    cut -= 1;
                }
                doc[..cut].to_owned()
            })
        }

        /// Arbitrary bytes, lossily decoded as a socket line would be.
        fn random_bytes() -> impl Strategy<Value = String> {
            proptest::collection::vec(any::<u8>(), 0..512)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        }

        /// Random strings over the JSON alphabet.
        fn json_soup() -> impl Strategy<Value = String> {
            const ALPHABET: &[u8] = b"{}[]\":,0123456789.eE-+ truefalsn\\u";
            proptest::collection::vec(0..ALPHABET.len(), 0..256)
                .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i] as char).collect())
        }

        /// Open, keyed and balanced nesting on both sides of the limit.
        fn deep_nesting() -> impl Strategy<Value = String> {
            (1usize..2000, 0usize..3).prop_map(|(depth, shape)| match shape {
                0 => "[".repeat(depth),
                1 => r#"{"a":"#.repeat(depth),
                _ => format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The parser is total: any input yields `Ok` or an `Err`
            /// with a message, never a panic.
            #[test]
            fn parse_is_total(src in prop_oneof![
                random_bytes(),
                json_soup(),
                truncated(),
                deep_nesting(),
            ]) {
                if let Err(e) = parse(&src) {
                    prop_assert!(!e.is_empty(), "empty error for {src:?}");
                }
            }

            /// A rendered value parses back to itself.
            #[test]
            fn rendered_values_round_trip(v in arb_json()) {
                let doc = rendered(&v);
                prop_assert_eq!(parse(&doc), Ok(v), "{}", doc);
            }
        }
    }
}
