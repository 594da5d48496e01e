//! The TSV data path: one `.tsv` file to and from a table's columns.
//!
//! Loading reads lines through a fixed-size buffer and writes each field
//! straight into its [`Column`] — validated and canonicalised on the way,
//! with no per-row vector and no per-cell allocation: a numeric field whose
//! text already is the canonical rendering is copied as is (the common
//! case: the saver wrote it), any other spelling (`+5`, `007`, `1e3`) is
//! parsed and re-rendered into the store; text is unescaped into the store.
//! Saving walks the same cells back out. Line ends and field borders are
//! found by the standard library's `memchr`-backed searches (`read_until`,
//! `str::split`, `str::find`), which is what keeps kilobyte-wide text cells
//! at copy speed.

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

/// Stores one non-NULL field in `column`, canonicalised for `data_type`.
#[inline]
fn push_field(
    column: &mut Column,
    data_type: DataType,
    field: &str,
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
        DataType::Text | DataType::Lob if !field.contains('\\') => {
            column.push_cell(field.as_bytes())?
        }
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
/// A line ends at `\n` or `\r\n` (the saver escapes carriage returns
/// inside values, so a bare one before the line feed can only belong to the
/// line end); the last line may lack it. Fields are checked left to right;
/// a row with the wrong number of fields is a parse error, and a `\N` in a
/// NOT NULL column of an otherwise well-formed row is a
/// [`StorageError::NullViolation`].
pub(super) fn read_table(
    mut reader: impl BufRead,
    schema: TableSchema,
    context: &str,
) -> Result<Table> {
    let mut table = Table::new(schema);
    let (schema, columns) = table.load_parts();
    // lint: allow(hot_alloc) — the one line buffer of the load, reused for every row
    let mut line: Vec<u8> = Vec::new();
    let mut rows = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        rows += 1;
        let row = line
            .strip_suffix(b"\n")
            .map_or(&line[..], |row| row.strip_suffix(b"\r").unwrap_or(row));
        let Ok(row) = std::str::from_utf8(row) else {
            return Err(parse_error(context, rows, format_args!("invalid UTF-8")));
        };
        let mut fields = 0usize;
        let mut null_violation = None;
        for field in row.split('\t') {
            let (Some(spec), Some(column)) = (schema.columns.get(fields), columns.get_mut(fields))
            else {
                return Err(parse_error(context, rows, format_args!("too many fields")));
            };
            fields += 1;
            if field == NULL_TOKEN {
                if !spec.nullable {
                    null_violation = null_violation.or(Some(spec));
                }
                column.push_null();
                continue;
            }
            match push_field(column, spec.data_type, field) {
                Ok(()) => {}
                Err(FieldError::NotA(data_type)) => {
                    return Err(parse_error(
                        context,
                        rows,
                        format_args!("cannot parse `{field}` as {data_type}"),
                    ))
                }
                Err(FieldError::BadEscape(escape)) => {
                    return Err(parse_error(
                        context,
                        rows,
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
        if fields < schema.arity() {
            return Err(parse_error(
                context,
                rows,
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
    }
    table.finish_load(rows);
    Ok(table)
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
