//! The workspace's one JSON reader and writer.
//!
//! The workspace vendors no JSON crate. Every document it writes — the
//! `--report` run report, the `degraded:` line, `BENCH_spider.json`,
//! `ind-lint --json` — is built as a [`Json`]
//! value and rendered by [`Json::compact`] or [`Json::pretty`], and every
//! document it reads back goes through [`parse`]: strict enough to reject
//! malformed input, small enough to audit. Integers that fit `u64` are
//! kept exact (counters round-trip losslessly); everything else numeric
//! becomes `f64`. Objects keep insertion order, so rendered files diff
//! cleanly.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number. Rendered so that it parses back as `Num`; a
    /// non-finite value renders as `null`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's field list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
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

    /// One line with no spaces: `{"k":[1,2],"s":"x"}`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented for files people read and diff. A container that is empty
    /// or holds only scalars stays on one line (`{"k": 1, "s": "x"}`,
    /// `[1, 2]`); any other puts one member per line, two spaces deeper per
    /// level. Ends with a newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders `self`; `depth` is the indent level in the pretty layout and
    /// `None` in the compact one.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            // `{:?}` is the shortest text that reads back as the same f64,
            // and always has a `.` or an exponent, so it parses as `Num`.
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_members(
                out,
                depth,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container's members between `brackets`, each with its key when
/// the container is an object.
fn write_members<'a, I>(out: &mut String, depth: Option<usize>, brackets: [char; 2], members: I)
where
    I: Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
{
    // The pretty layout breaks a container over lines only when it holds
    // another container.
    let broken = depth.filter(|_| {
        members
            .clone()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
    });
    let (separator, colon) = match (depth, broken) {
        (None, _) => (",", ":"),
        (Some(_), None) => (", ", ": "),
        (Some(_), Some(_)) => (",", ": "),
    };
    out.push(brackets[0]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        if let Some(level) = broken {
            newline(out, level + 1);
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(colon);
        }
        value.write(out, depth.map(|level| level + 1));
    }
    if let Some(level) = broken {
        newline(out, level);
    }
    out.push(brackets[1]);
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * level));
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Deepest nesting [`parse`] accepts. The deepest document the workspace
/// writes, a report's span tree, is a handful of levels; the cap keeps a
/// hostile file from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
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

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(want), *pos))
    }
}

/// Parses the value at `pos`, which `depth` containers enclose.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one piece. All are ASCII, so the run ends on a character boundary.
        let start = *pos;
        while bytes
            .get(*pos)
            .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(&b) if b < 0x20 => return Err(format!("unescaped control byte at {}", *pos)),
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}
