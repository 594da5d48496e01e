//! The TSV data path: one `.tsv` file to and from a table's columns.
//!
//! Loading reads lines through a fixed-size buffer and writes each field
//! straight into its [`Column`] — validated and canonicalised on the way,
//! with no per-row vector and no per-cell allocation: a numeric field whose
//! text already is the canonical rendering is copied as is (the common
//! case: the saver wrote it), any other spelling (`+5`, `007`, `1e3`) is
//! parsed and re-rendered into the store; text is unescaped into the store.
//! Saving walks the same cells back out.
//!
//! Each fill of the read buffer is checked as UTF-8 once and its whole
//! lines are parsed where they lie; only the line that straddles two fills
//! is assembled in a reused line buffer. Tabs, line feeds and backslashes
//! are found in one pass, eight bytes a step ([`Fields`]): most cells are a
//! few bytes, and a library call per field (`str::split`, `str::contains`)
//! cost more than the bytes. A field still open after [`LONG_FIELD`] bytes
//! is finished by the standard library's `memchr`-backed searches, which
//! keeps kilobyte-wide text cells at copy speed.

use super::parse_error;
use crate::column::{Column, ColumnFull};
use crate::error::{Result, StorageError};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::io::{BufRead, Write};

const NULL_TOKEN: &str = "\\N";

/// Capacity of the loader's read buffer; a longer line is assembled in the
/// (reused) line buffer, which grows to the longest line of the file.
pub(super) const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Bytes one step of the field scan looks at.
const WORD: usize = 8;

/// A field that runs this many bytes without a tab or line feed is finished
/// by `memchr`: past a few words a vectorised search beats eight bytes a
/// step.
const LONG_FIELD: usize = 32;

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of every byte of `word` that equals `byte`, and no other
/// bit. Exact: adding `0x7f` to a byte's low seven bits cannot carry into
/// the next byte, so a match never marks its neighbour (the shorter
/// `(x - 0x01…) & !x` test can mark the byte after a match).
#[inline]
fn eq_mask(word: u64, byte: u8) -> u64 {
    let x = word ^ (ONES * u64::from(byte));
    !(((x & !HIGH) + !HIGH) | x) & HIGH
}

/// The rows of a run of whole lines, field by field, found in one pass
/// eight bytes a step: each field's borders, whether it holds a backslash,
/// and whether it ends its row.
///
/// A line ends at `\n` or `\r\n` (the saver escapes carriage returns inside
/// values, so a bare one before the line feed can only belong to the line
/// end); the last line of the text may lack it.
struct Fields<'a> {
    text: &'a str,
    /// Where the next field starts; past the text's end after the last.
    start: usize,
    /// Whether the field before `start` ended its row.
    row_done: bool,
    /// Offset of the word the two masks describe.
    at: usize,
    /// Tabs and line feeds of that word not yet handed out.
    ends: u64,
    /// Backslashes of that word past the last border handed out.
    slashes: u64,
    /// The line feed (or the text's end) that ends the row of the last long
    /// field: the long-field search reuses it for the row's later fields.
    line_end: usize,
}

impl<'a> Fields<'a> {
    fn new(text: &'a str) -> Self {
        let mut fields = Fields {
            text,
            start: 0,
            row_done: true,
            at: 0,
            ends: 0,
            slashes: 0,
            line_end: 0,
        };
        fields.load(0);
        fields
    }

    /// Loads the word at `at`; past the text's end it reads as zeros.
    #[inline]
    fn load(&mut self, at: usize) {
        let mut word = [0; WORD];
        let bytes = self.text.as_bytes();
        match bytes.get(at..at + WORD) {
            Some(whole) => word.copy_from_slice(whole),
            None => {
                let tail = bytes.get(at..).unwrap_or_default();
                word[..tail.len()].copy_from_slice(tail);
            }
        }
        let word = u64::from_le_bytes(word);
        self.at = at;
        self.ends = eq_mask(word, b'\t') | eq_mask(word, b'\n');
        self.slashes = eq_mask(word, b'\\');
    }
}

impl<'a> Iterator for Fields<'a> {
    /// A field, whether it holds a backslash, and whether it ends its row.
    type Item = (&'a str, bool, bool);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (start, len) = (self.start, self.text.len());
        if start > len || (start == len && self.row_done) {
            return None;
        }
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        let end = loop {
            if self.ends != 0 {
                let bit = self.ends.trailing_zeros();
                let before = u64::MAX >> (63 - bit);
                escaped |= self.slashes & before != 0;
                self.slashes &= !before;
                self.ends &= self.ends - 1;
                break self.at + bit as usize / 8;
            }
            escaped |= self.slashes != 0;
            let next = self.at + WORD;
            if next >= len {
                break len;
            }
            if next - start < LONG_FIELD {
                self.load(next);
                continue;
            }
            // A long field: search the rest of it from the first character
            // border on (the bytes skipped are inside one character).
            let mut from = next;
            while !self.text.is_char_boundary(from) {
                from += 1;
            }
            if self.line_end < from {
                self.line_end = self.text[from..].find('\n').map_or(len, |lf| from + lf);
            }
            let line = &self.text[from..self.line_end];
            let end = line.find('\t').map_or(self.line_end, |tab| from + tab);
            escaped = escaped || bytes[from..end].contains(&b'\\');
            self.load(end + 1);
            break end;
        };
        let row_done = end == len || bytes[end] == b'\n';
        self.start = end + 1;
        self.row_done = row_done;
        // A `\r` before the line feed belongs to the line end.
        let crlf = row_done && end < len && end > start && bytes[end - 1] == b'\r';
        let field_end = if crlf { end - 1 } else { end };
        Some((&self.text[start..field_end], escaped, row_done))
    }
}

/// Appends `cell` to `out` with tabs, line ends and backslashes escaped.
/// Every escaped byte is ASCII, so UTF-8 sequences pass through whole.
pub(super) fn escape_into(cell: &[u8], out: &mut Vec<u8>) {
    let mut rest = cell;
    while let Some(at) = rest
        .iter()
        .position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.extend_from_slice(&rest[..at]);
        out.extend_from_slice(match rest[at] {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            _ => b"\\r",
        });
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
}

/// Undoes [`escape_into`] for a field that holds at least one backslash,
/// appending the plain text to `out`. A `\N` inside a longer field stays
/// the two characters it is (only the whole-field `\N` is NULL). Returns
/// the offending character of a bad escape (`None`: the field ended on the
/// backslash).
pub(super) fn unescape_into(
    field: &str,
    out: &mut Vec<u8>,
) -> std::result::Result<(), Option<char>> {
    let mut rest = field;
    while let Some(at) = rest.find('\\') {
        out.extend_from_slice(&rest.as_bytes()[..at]);
        let mut after = rest[at + 1..].chars();
        match after.next() {
            Some('\\') => out.push(b'\\'),
            Some('t') => out.push(b'\t'),
            Some('n') => out.push(b'\n'),
            Some('r') => out.push(b'\r'),
            Some('N') => out.extend_from_slice(b"\\N"),
            other => return Err(other),
        }
        rest = after.as_str();
    }
    out.extend_from_slice(rest.as_bytes());
    Ok(())
}

/// True when `text` is what `i64`'s `Display` prints for the integer it
/// spells: `0`, or an optional minus and up to 18 digits without a leading
/// zero (19-digit spellings may overflow and take the parsing path).
fn is_canonical_integer(text: &[u8]) -> bool {
    match text.strip_prefix(b"-").unwrap_or(text) {
        [b'0'] => text.len() == 1,
        [b'1'..=b'9', rest @ ..] => rest.len() < 18 && rest.iter().all(u8::is_ascii_digit),
        _ => false,
    }
}

/// True when `text` is what `f64`'s `Display` prints for the float it
/// spells, decided without parsing: an optional minus, an integer part
/// without a leading zero (or just `0`), an optional fraction that does not
/// end in `0`, and at most 15 digits in all. Fifteen significant decimal
/// digits survive the trip through an `f64` (`f64::DIGITS`), so the
/// shortest digits that name the parsed float are the ones written, and
/// `Display` lays them out without an exponent. Anything else — `1.50`,
/// `1e3`, `inf`, 16 digits — takes the parsing path.
fn is_canonical_float(text: &[u8]) -> bool {
    let unsigned = text.strip_prefix(b"-").unwrap_or(text);
    let (int, frac) = match unsigned.iter().position(|&b| b == b'.') {
        Some(dot) => (&unsigned[..dot], Some(&unsigned[dot + 1..])),
        None => (unsigned, None),
    };
    let int_ok = match int {
        [b'0'] => true,
        [b'1'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
        _ => false,
    };
    let frac_ok = match frac {
        None => true,
        Some([digits @ .., b'1'..=b'9']) => digits.iter().all(u8::is_ascii_digit),
        Some(_) => false,
    };
    int_ok && frac_ok && int.len() + frac.map_or(0, <[u8]>::len) <= f64::DIGITS as usize
}

/// Why one field could not be stored.
enum FieldError {
    /// Not a value of the column's type.
    NotA(DataType),
    /// A backslash followed by something [`unescape_into`] does not know.
    BadEscape(Option<char>),
    /// The column is at its 4 GiB bound.
    Full,
}

impl From<ColumnFull> for FieldError {
    fn from(_: ColumnFull) -> Self {
        FieldError::Full
    }
}

/// Stores one non-NULL field in `column`, canonicalised for `data_type`;
/// `escaped` says whether the field holds a backslash.
#[inline]
fn push_field(
    column: &mut Column,
    data_type: DataType,
    field: &str,
    escaped: bool,
) -> std::result::Result<(), FieldError> {
    match data_type {
        DataType::Integer if is_canonical_integer(field.as_bytes()) => {
            column.push_cell(field.as_bytes())?
        }
        DataType::Float if is_canonical_float(field.as_bytes()) => {
            column.push_cell(field.as_bytes())?
        }
        // No escape sequence spells a digit, a sign or a letter, so a
        // numeric field is parsed as it stands: one holding a backslash
        // fails to parse escaped or not.
        DataType::Integer | DataType::Float => {
            let value = Value::parse(data_type, field).ok_or(FieldError::NotA(data_type))?;
            column.push_with(|bytes| value.render_canonical(bytes))?
        }
        DataType::Text | DataType::Lob if !escaped => column.push_cell(field.as_bytes())?,
        DataType::Text | DataType::Lob => {
            let mut bad = None;
            column.push_with(|bytes| bad = unescape_into(field, bytes).err())?;
            if let Some(escape) = bad {
                return Err(FieldError::BadEscape(escape));
            }
        }
    }
    Ok(())
}

/// Reads every line of `reader` as one row of `schema` into a table.
/// `context` names the file in errors, which also carry the line number.
///
/// Whole lines are parsed where they lie in the reader's buffer; only a
/// line that straddles two fills is assembled in a (reused) line buffer.
/// Fields are checked left to right; a row with the wrong number of fields
/// is a parse error, and a `\N` in a NOT NULL column of an otherwise
/// well-formed row is a [`StorageError::NullViolation`].
pub(super) fn read_table(
    mut reader: impl BufRead,
    schema: TableSchema,
    context: &str,
) -> Result<Table> {
    let mut table = Table::new(schema);
    let (schema, columns) = table.load_parts();
    let mut rows = Rows {
        schema,
        columns,
        context,
        count: 0,
    };
    // lint: allow(hot_alloc) — the one line buffer of the load, reused for every straddling line
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buffer = reader.fill_buf()?;
        if buffer.is_empty() {
            break;
        }
        // The whole lines of the buffer, up to its last line feed before
        // any invalid or cut-off UTF-8: the line that holds that goes
        // through the line buffer, where it is checked and reported.
        let valid = match std::str::from_utf8(buffer) {
            Ok(text) => text,
            Err(error) => std::str::from_utf8(&buffer[..error.valid_up_to()]).unwrap_or_default(),
        };
        let whole = valid.rfind('\n').map_or(0, |lf| lf + 1);
        rows.load(&valid[..whole])?;
        reader.consume(whole);
        line.clear();
        if reader.read_until(b'\n', &mut line)? > 0 {
            let Ok(text) = std::str::from_utf8(&line) else {
                return Err(parse_error(
                    context,
                    rows.count + 1,
                    format_args!("invalid UTF-8"),
                ));
            };
            rows.load(text)?;
        }
    }
    let count = rows.count;
    table.finish_load(count);
    Ok(table)
}

/// The columns a load fills, and how many rows it has read.
struct Rows<'a> {
    schema: &'a TableSchema,
    columns: &'a mut [Column],
    context: &'a str,
    count: usize,
}

impl Rows<'_> {
    /// Stores the rows of `text`, whole lines.
    fn load(&mut self, text: &str) -> Result<()> {
        let (schema, context) = (self.schema, self.context);
        let mut fields = 0usize;
        let mut null_violation = None;
        for (field, escaped, row_done) in Fields::new(text) {
            if fields == 0 {
                self.count += 1;
            }
            let line = self.count;
            let (Some(spec), Some(column)) =
                (schema.columns.get(fields), self.columns.get_mut(fields))
            else {
                return Err(parse_error(context, line, format_args!("too many fields")));
            };
            fields += 1;
            if escaped && field == NULL_TOKEN {
                if !spec.nullable {
                    null_violation = null_violation.or(Some(spec));
                }
                column.push_null();
            } else {
                match push_field(column, spec.data_type, field, escaped) {
                    Ok(()) => {}
                    Err(FieldError::NotA(data_type)) => {
                        return Err(parse_error(
                            context,
                            line,
                            format_args!("cannot parse `{field}` as {data_type}"),
                        ))
                    }
                    Err(FieldError::BadEscape(escape)) => {
                        return Err(parse_error(
                            context,
                            line,
                            format_args!("bad escape sequence `\\{}`", escape.unwrap_or(' ')),
                        ))
                    }
                    Err(FieldError::Full) => {
                        return Err(StorageError::ColumnTooLarge {
                            // lint: allow(hot_alloc) — cold error path, once per load
                            table: schema.name.clone(),
                            // lint: allow(hot_alloc) — cold error path, once per load
                            column: spec.name.clone(),
                        });
                    }
                }
            }
            if !row_done {
                continue;
            }
            if fields < schema.arity() {
                return Err(parse_error(
                    context,
                    line,
                    format_args!("expected {} fields, got {fields}", schema.arity()),
                ));
            }
            if let Some(spec) = null_violation {
                return Err(StorageError::NullViolation {
                    // lint: allow(hot_alloc) — cold error path, once per load
                    table: schema.name.clone(),
                    // lint: allow(hot_alloc) — cold error path, once per load
                    column: spec.name.clone(),
                });
            }
            fields = 0;
        }
        Ok(())
    }
}

/// Writes `table`'s rows to `out`, one line each: the stored cells escaped,
/// `\N` for NULL. The inverse of [`read_table`].
pub(super) fn write_table(table: &Table, mut out: impl Write) -> Result<()> {
    // lint: allow(hot_alloc) — the one line buffer of the save, reused for every row
    let mut line: Vec<u8> = Vec::new();
    for row in 0..table.row_count() {
        line.clear();
        for (j, _, column) in table.iter_cells() {
            if j > 0 {
                line.push(b'\t');
            }
            match column.cell(row) {
                None => line.extend_from_slice(NULL_TOKEN.as_bytes()),
                Some(cell) => escape_into(cell, &mut line),
            }
        }
        line.push(b'\n');
        out.write_all(&line)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSchema;

    #[test]
    fn malformed_rows_fail_with_their_variant_message_and_line() {
        let schema = || {
            let columns = vec![
                ColumnSchema::new("a", DataType::Integer).not_null(),
                ColumnSchema::new("b", DataType::Text),
                ColumnSchema::new("c", DataType::Float),
                ColumnSchema::new("d", DataType::Lob).not_null(),
            ];
            TableSchema::new("t", columns).unwrap()
        };
        // `#` stands for a 40-byte field, past the scanner's memchr switch;
        // `NULL c` for a `NullViolation` in column `c`.
        let cases: [(&[u8], &str); 26] = [
            // The whole line is checked for UTF-8 before any field: the bad
            // escape in field 2 never speaks.
            (b"1\tx\t1.5\ty\n2\ta\\q\t\xff\ty\n", "line 2: invalid UTF-8"),
            (b"1\tx\t1.5\t#\xe9\n", "line 1: invalid UTF-8"),
            (
                b"1\tx\t1.5\ty\n2\tx\t1.5\t\xf0\x9d\x84\n",
                "line 2: invalid UTF-8",
            ),
            (b"1\tx\t1.5\ty\tz\n", "line 1: too many fields"),
            (b"1\tx\t1.5\ty\t\n", "line 1: too many fields"),
            (b"1\t#\t1.5\ty\t\\N\n", "line 1: too many fields"),
            // Fields are checked left to right: a bad field before the
            // extra one speaks first.
            (
                b"1\tx\tnope\ty\tz\n",
                "line 1: cannot parse `nope` as float",
            ),
            (b"1\tx\t1.5\ty\n2\tx\n", "line 2: expected 4 fields, got 2"),
            (b"1\tx\t1.5\n", "line 1: expected 4 fields, got 3"),
            (b"1\tx\t1.5\ty\n\n", "line 2: cannot parse `` as integer"),
            (
                b"1\tabcdefghij\\q\t1\ty\n",
                "line 1: bad escape sequence `\\q`",
            ),
            (
                b"1\tx\\\xc3\xa9\t1\ty\n",
                "line 1: bad escape sequence `\\\u{e9}`",
            ),
            (b"1\tx\t1\t#\\n\\z\n", "line 1: bad escape sequence `\\z`"),
            // A trailing backslash: before a tab, at the end of the file,
            // before a CRLF line end.
            (b"1\tab\\\t1\ty\n", "line 1: bad escape sequence `\\ `"),
            (
                b"1\tx\t1\ty\n1\tx\t1\ty\\",
                "line 2: bad escape sequence `\\ `",
            ),
            (b"1\tx\t1\ty\\\r\n", "line 1: bad escape sequence `\\ `"),
            // A bad number holding a backslash is a bad number.
            (b"1\tx\t1\\t5\ty\n", "line 1: cannot parse `1\\t5` as float"),
            // `\N` in a NOT NULL column: the row completes first, so a later
            // bad field or a short or long row speaks instead.
            (b"\\N\tx\tnope\ty\n", "line 1: cannot parse `nope` as float"),
            (b"\\N\tx\n", "line 1: expected 4 fields, got 2"),
            (b"\\N\tx\t1\ty\tz\n", "line 1: too many fields"),
            (b"1\tx\t1\ty\n\\N\tx\t1\ty\n", "NULL a"),
            (b"1\tx\t1\t\\N\n", "NULL d"),
            // Two violations in one row: the first column's is reported.
            (b"\\N\tx\t1\t\\N\r\n", "NULL a"),
            // A bare carriage return is data, not a line end.
            (b"1\r\tx\t1\ty\n", "line 1: cannot parse `1\r` as integer"),
            (
                b"1\tx\t1.5\ty\n2\tx\t1.5\r\ty\n",
                "line 2: cannot parse `1.5\r` as float",
            ),
            (b"1\tx\r2\t1\n", "line 1: expected 4 fields, got 3"),
        ];
        for (data, expected) in cases {
            let data = data
                .split(|&b| b == b'#')
                .collect::<Vec<_>>()
                .join(&[b'y'; 40][..]);
            let expected = match expected.strip_prefix("NULL ") {
                Some(column) => format!("NullViolation {{ table: \"t\", column: \"{column}\" }}"),
                None => format!("Parse {{ context: \"t.tsv\", detail: {expected:?} }}"),
            };
            match read_table(&data[..], schema(), "t.tsv") {
                Err(error) => assert_eq!(format!("{error:?}"), expected, "{data:?}"),
                Ok(table) => panic!("{data:?}: loaded {} rows", table.row_count()),
            }
        }
    }

    #[test]
    fn fields_agree_with_split_and_contains() {
        // Every row of up to six tokens over an alphabet of tabs,
        // backslashes, one- to four-byte characters and the bytes next to
        // them in the ASCII table, so borders and backslashes fall at every
        // byte of a word. (Long fields: `tests/proptest_substrate.rs`.)
        let tokens = ["a", "\t", "\\", "é", "𝄞", "\u{8}", "]"];
        let mut rows = vec![String::new()];
        let mut level = 0..1;
        for _ in 0..6 {
            for i in level.clone() {
                for token in tokens {
                    rows.push(format!("{}{token}", rows[i]));
                }
            }
            level = level.end..rows.len();
        }
        for row in &rows {
            let mut expected = vec![("a\\", true, false), ("b", false, true)];
            expected.extend(row.split('\t').map(|f| (f, f.contains('\\'), false)));
            expected.last_mut().expect("split yields a field").2 = true;
            expected.extend([("\\c", true, false), ("d", false, true)]);
            // The row between two others, each line ended either way, and
            // the last one also not at all.
            for (mid, end) in [("\n", ""), ("\n", "\n"), ("\r\n", "\r\n")] {
                let text = format!("a\\\tb{mid}{row}{mid}\\c\td{end}");
                assert_eq!(Fields::new(&text).collect::<Vec<_>>(), expected, "{text:?}");
            }
        }
    }

    #[test]
    fn escape_unescape_round_trip() {
        for s in [
            "plain",
            "a\tb",
            "a\nb",
            "a\rb",
            "back\\slash",
            "\\N",
            "",
            "mix\t\n\\",
            "é\t∑\\",
        ] {
            let mut escaped = Vec::new();
            escape_into(s.as_bytes(), &mut escaped);
            let escaped = String::from_utf8(escaped).unwrap();
            assert!(!escaped.contains(['\t', '\n', '\r']), "{escaped:?}");
            let mut plain = Vec::new();
            unescape_into(&escaped, &mut plain).unwrap();
            assert_eq!(plain, s.as_bytes(), "input {s:?}");
        }
    }

    #[test]
    fn unescape_keeps_an_inner_null_token_and_names_a_bad_escape() {
        for (escaped, plain) in [
            ("a\\tb", "a\tb"),
            ("\\\\", "\\"),
            ("\\t\\n\\r\\\\", "\t\n\r\\"),
            ("x\\Ny", "x\\Ny"),
            ("no escape", "no escape"),
        ] {
            let mut out = Vec::new();
            unescape_into(escaped, &mut out).unwrap();
            assert_eq!(out, plain.as_bytes(), "{escaped:?}");
        }
        let mut out = Vec::new();
        assert_eq!(unescape_into("a\\qb", &mut out), Err(Some('q')));
        assert_eq!(unescape_into("a\\éb", &mut out), Err(Some('é')));
        assert_eq!(unescape_into("trailing\\", &mut out), Err(None));
    }

    #[test]
    fn the_canonical_integer_test_agrees_with_parse_and_display() {
        for text in [
            "0",
            "7",
            "-7",
            "10",
            "123456789012345678",
            "-123456789012345678",
            "-0",
            "+5",
            "007",
            "00",
            "",
            "-",
            "1234567890123456789",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "12a",
            "1 ",
            "1.0",
            "٣",
        ] {
            let rendered = text.parse::<i64>().ok().map(|i| i.to_string());
            if is_canonical_integer(text.as_bytes()) {
                assert_eq!(rendered.as_deref(), Some(text), "{text:?}");
            }
            // The fast path must not miss the plain spellings.
            if text.len() <= 18 && rendered.as_deref() == Some(text) {
                assert!(is_canonical_integer(text.as_bytes()), "{text:?}");
            }
        }
    }

    #[test]
    fn the_canonical_float_test_never_accepts_a_spelling_display_would_change() {
        let mut texts: Vec<String> = [
            "0",
            "-0",
            "1",
            "1.5",
            "-1.5",
            "1000",
            "1200",
            "0.5",
            "0.05",
            "0.000001",
            "123456789.123456",
            "999999999999999",
            "0.1",
            "0.3",
            "2.675",
            "1.50",
            "1.",
            ".5",
            "01",
            "00.5",
            "+1",
            "1e3",
            "1E3",
            "inf",
            "-inf",
            "NaN",
            "nan",
            "infinity",
            "",
            "-",
            ".",
            "-.",
            "1..2",
            "1.2.3",
            "1234567890123456",
            "0.1234567890123456",
            "123456789012345.6",
            "1 ",
            "1_0",
        ]
        .map(String::from)
        .to_vec();
        // Every 1..=15-digit spelling shape around the f64::DIGITS bound.
        for digits in 1..=16usize {
            for dot in 0..=digits {
                let body: String = (0..digits)
                    .map(|i| char::from(b'1' + ((i * 7 + digits + dot) % 9) as u8))
                    .collect();
                let (int, frac) = body.split_at(dot);
                let int = if int.is_empty() { "0" } else { int };
                texts.push(if frac.is_empty() {
                    int.to_string()
                } else {
                    format!("{int}.{frac}")
                });
            }
        }
        let mut accepted = 0;
        for text in &texts {
            if is_canonical_float(text.as_bytes()) {
                accepted += 1;
                let parsed: f64 = text.parse().unwrap_or_else(|_| panic!("{text:?} parses"));
                assert_eq!(&parsed.to_string(), text);
            }
        }
        assert!(accepted > 100, "the fast path is taken: {accepted}");
        for plain in ["0", "-0", "1.5", "1000", "0.05", "999999999999999"] {
            assert!(is_canonical_float(plain.as_bytes()), "{plain}");
        }
    }
}
