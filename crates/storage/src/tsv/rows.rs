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
//! are found in one pass, 64 bytes a step ([`Fields`]): each block becomes
//! one bitmap of borders and one of backslashes, and the fields are read
//! off the first with `trailing_zeros`. Most cells are a few bytes, so the
//! cost is per field, not per byte: a library call per field
//! (`str::split`, `str::contains`) cost more than the bytes. A field still
//! open a block past its start is finished by the standard library's
//! `memchr`-backed searches, which keeps kilobyte-wide text cells at copy
//! speed.
//!
//! The per-field work is kept to the scan step, one indexed load of the
//! column's [`Slot`] (its type and nullability, looked up once per table)
//! and the push: a cell of at most [`WINDOW`] bytes is copied as a fixed
//! [`WINDOW`]-byte block and cut back to its length ([`push_verbatim`]),
//! not by a `memcpy` call per cell. After the first fill each column
//! reserves what the rest of the file will add at that fill's rate, so
//! the buffers do not grow by doubling through the load.

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

/// Bytes one step of the field scan looks at: one bit of a `u64` each. A
/// field still open a block past its start is finished by `memchr`: past
/// a block a vectorised search beats the block step.
const BLOCK: usize = 64;

/// A cell of at most this many bytes, with as many readable bytes of text
/// from its start, is pushed by one fixed-size copy ([`push_verbatim`]).
const WINDOW: usize = 16;

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

/// The byte flags of an [`eq_mask`] as the low eight bits, byte `i` at bit
/// `i`: the multiply moves byte `i`'s flag to bit `56 + i`, and no two
/// partial products meet at one bit, so nothing carries.
#[inline]
fn pack(mask: u64) -> u64 {
    (mask >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The tabs and line feeds of `block`, and its backslashes, as one bit per
/// byte, byte `i` at bit `i`. (Built last word first, each shifted in at
/// the bottom: a serial chain, which the compiler leaves scalar; it
/// vectorised the independent form with emulated 64-bit multiplies.)
#[inline]
fn block_masks(block: &[u8; BLOCK]) -> (u64, u64) {
    let (mut ends, mut slashes) = (0, 0);
    for word in block.chunks_exact(8).rev() {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(word);
        let word = u64::from_le_bytes(bytes);
        ends = ends << 8 | pack(eq_mask(word, b'\t') | eq_mask(word, b'\n'));
        slashes = slashes << 8 | pack(eq_mask(word, b'\\'));
    }
    (ends, slashes)
}

/// One field as [`Fields`] finds it.
struct Field<'a> {
    /// Where the field starts in the scanned text.
    at: usize,
    /// The field's bytes, without its line end: whole UTF-8, since both of
    /// its borders are ASCII or an end of the text.
    bytes: &'a [u8],
    /// Whether it holds a backslash.
    escaped: bool,
    /// Whether it ends its row.
    row_done: bool,
}

/// The rows of a run of whole lines, field by field, found in one pass
/// 64 bytes a step: each field's borders, whether it holds a backslash,
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
    /// Offset of the block the two bitmaps describe.
    at: usize,
    /// Tabs and line feeds of that block not yet handed out.
    ends: u64,
    /// Backslashes of that block past the last border handed out.
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

    /// Loads the block at `at`; past the text's end it reads as zeros.
    #[inline]
    fn load(&mut self, at: usize) {
        let bytes = self.text.as_bytes();
        let (ends, slashes) = match bytes.get(at..at + BLOCK).map(<&[u8; BLOCK]>::try_from) {
            Some(Ok(whole)) => block_masks(whole),
            _ => {
                let tail = bytes.get(at..).unwrap_or_default();
                let mut block = [0; BLOCK];
                block[..tail.len()].copy_from_slice(tail);
                block_masks(&block)
            }
        };
        self.at = at;
        self.ends = ends;
        self.slashes = slashes;
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Field<'a>;

    // Inlined into the row loop; the step to the next block, about once a
    // block, is not (`find_border`).
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let (start, len) = (self.start, self.text.len());
        if start > len || (start == len && self.row_done) {
            return None;
        }
        let (end, escaped) = if self.ends != 0 {
            self.take_border()
        } else {
            self.find_border(start)
        };
        let bytes = self.text.as_bytes();
        let row_done = end == len || bytes[end] == b'\n';
        self.start = end + 1;
        self.row_done = row_done;
        // A `\r` before the line feed belongs to the line end.
        let crlf = row_done && end < len && end > start && bytes[end - 1] == b'\r';
        let field_end = if crlf { end - 1 } else { end };
        Some(Field {
            at: start,
            bytes: &bytes[start..field_end],
            escaped,
            row_done,
        })
    }
}

impl Fields<'_> {
    /// Hands out the loaded block's next border (there must be one): where
    /// it lies, and whether a backslash comes before it since the last.
    #[inline(always)]
    fn take_border(&mut self) -> (usize, bool) {
        let bit = self.ends.trailing_zeros() as usize;
        let through = u64::MAX >> (63 - bit);
        let escaped = self.slashes & through != 0;
        self.slashes &= !through;
        self.ends &= self.ends - 1;
        (self.at + bit, escaped)
    }

    /// The end of the field that starts at `start` once the loaded block
    /// has no border left (about once a block, so kept out of line): in
    /// the next block, or for a long field by the `memchr`-backed search.
    #[inline(never)]
    fn find_border(&mut self, start: usize) -> (usize, bool) {
        let len = self.text.len();
        let mut escaped = self.slashes != 0;
        let next = self.at + BLOCK;
        if next >= len {
            return (len, escaped);
        }
        if next - start < BLOCK {
            self.load(next);
            if self.ends != 0 {
                let (end, slash) = self.take_border();
                return (end, escaped | slash);
            }
            escaped |= self.slashes != 0;
            let next = self.at + BLOCK;
            if next >= len {
                return (len, escaped);
            }
        }
        // A long field, a block past its start: search the rest of it from
        // the first character border after the last block on (the bytes
        // skipped are inside one character).
        let mut from = self.at + BLOCK;
        while !self.text.is_char_boundary(from) {
            from += 1;
        }
        if self.line_end < from {
            self.line_end = self.text[from..].find('\n').map_or(len, |lf| from + lf);
        }
        let line = &self.text[from..self.line_end];
        let end = line.find('\t').map_or(self.line_end, |tab| from + tab);
        escaped = escaped || self.text.as_bytes()[from..end].contains(&b'\\');
        self.load(end + 1);
        (end, escaped)
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

/// Stores `cell` as it stands. `window` is the text's [`WINDOW`] bytes
/// from the cell's start when the cell fits in them: it is copied whole and
/// cut back to the cell's length, a fixed-size copy in place of a `memcpy`
/// call per cell (the bytes past the cell only ever lie in spare capacity).
#[inline]
fn push_verbatim(
    column: &mut Column,
    cell: &[u8],
    window: Option<&[u8; WINDOW]>,
) -> std::result::Result<(), ColumnFull> {
    match window {
        Some(window) => column.push_with(|bytes| {
            let end = bytes.len() + cell.len();
            bytes.extend_from_slice(window);
            bytes.truncate(end);
        }),
        None => column.push_cell(cell),
    }
}

/// Stores one non-NULL field in `column`, canonicalised for `data_type`;
/// `escaped` says whether the field holds a backslash, `window` is as for
/// [`push_verbatim`]. Only the paths that parse or unescape the field look
/// at it as text; it is whole UTF-8 ([`Field::bytes`]), so that view
/// cannot fail.
#[inline]
fn push_field(
    column: &mut Column,
    data_type: DataType,
    field: &[u8],
    escaped: bool,
    window: Option<&[u8; WINDOW]>,
) -> std::result::Result<(), FieldError> {
    match data_type {
        DataType::Integer if is_canonical_integer(field) => push_verbatim(column, field, window)?,
        DataType::Float if is_canonical_float(field) => push_verbatim(column, field, window)?,
        // No escape sequence spells a digit, a sign or a letter, so a
        // numeric field is parsed as it stands: one holding a backslash
        // fails to parse escaped or not.
        DataType::Integer | DataType::Float => {
            let text = std::str::from_utf8(field).unwrap_or_default();
            let value = Value::parse(data_type, text).ok_or(FieldError::NotA(data_type))?;
            column.push_with(|bytes| value.render_canonical(bytes))?
        }
        DataType::Text | DataType::Lob if !escaped => push_verbatim(column, field, window)?,
        DataType::Text | DataType::Lob => {
            let text = std::str::from_utf8(field).unwrap_or_default();
            let mut bad = None;
            column.push_with(|bytes| bad = unescape_into(text, bytes).err())?;
            if let Some(escape) = bad {
                return Err(FieldError::BadEscape(escape));
            }
        }
    }
    Ok(())
}

/// Reads every line of `reader` as one row of `schema` into a table.
/// `context` names the file in errors, which also carry the line number.
/// `input_bytes` is the reader's length: once the first fill is stored,
/// each column reserves what the rest of the input will add at the fill's
/// rate ([`Rows::reserve_rest`]).
///
/// Whole lines are parsed where they lie in the reader's buffer; only a
/// line that straddles two fills is assembled in a (reused) line buffer.
/// Fields are checked left to right; a row with the wrong number of fields
/// is a parse error, and a `\N` in a NOT NULL column of an otherwise
/// well-formed row is a [`StorageError::NullViolation`].
pub(super) fn read_table(
    mut reader: impl BufRead,
    input_bytes: u64,
    schema: TableSchema,
    context: &str,
) -> Result<Table> {
    let mut table = Table::new(schema);
    let (schema, columns) = table.load_parts();
    let mut rows = Rows {
        schema,
        slots: columns
            .iter_mut()
            .zip(&schema.columns)
            .map(|(column, spec)| Slot {
                data_type: spec.data_type,
                nullable: spec.nullable,
                column,
            })
            // lint: allow(hot_alloc) — one slot per column, once per table
            .collect(),
        context,
        count: 0,
    };
    // lint: allow(hot_alloc) — the one line buffer of the load, reused for every straddling line
    let mut line: Vec<u8> = Vec::new();
    let mut reserved = false;
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
        if !reserved && whole > 0 {
            rows.reserve_rest(whole as u64, input_bytes);
            reserved = true;
        }
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
    drop(rows);
    table.finish_load(count);
    Ok(table)
}

/// One column of a load with what its fields need from the schema, looked
/// up once per table rather than once per field.
struct Slot<'a> {
    column: &'a mut Column,
    data_type: DataType,
    nullable: bool,
}

/// The columns a load fills, and how many rows it has read.
struct Rows<'a> {
    schema: &'a TableSchema,
    /// One per column, in schema order.
    slots: Vec<Slot<'a>>,
    context: &'a str,
    count: usize,
}

impl Rows<'_> {
    /// Reserves, in every column, what the input's remaining bytes will add
    /// if they hold rows like the first `seen` bytes did, plus an eighth:
    /// an estimate that is short only costs the growth it would have cost
    /// anyway, and the slack goes back at [`Table::finish_load`].
    fn reserve_rest(&mut self, seen: u64, input_bytes: u64) {
        let scale = input_bytes.saturating_sub(seen) as f64 / seen as f64 * 1.125;
        for slot in &mut self.slots {
            let (bytes, rows) = (slot.column.bytes().len(), slot.column.len());
            slot.column.reserve(
                (bytes as f64 * scale) as usize,
                (rows as f64 * scale) as usize,
            );
        }
    }

    /// Stores the rows of `text`, whole lines.
    fn load(&mut self, text: &str) -> Result<()> {
        let bytes = text.as_bytes();
        // Rows finished, and fields of the current row stored.
        let (mut rows, mut fields) = (self.count, 0usize);
        // The first column of the row that put NULL in a NOT NULL column.
        let mut null_violation = None;
        for Field {
            at,
            bytes: field,
            escaped,
            row_done,
        } in Fields::new(text)
        {
            let Some(slot) = self.slots.get_mut(fields) else {
                return Err(self.row_error(rows + 1, RowError::TooMany));
            };
            if escaped && field == NULL_TOKEN.as_bytes() {
                if !slot.nullable {
                    null_violation = null_violation.or(Some(fields));
                }
                slot.column.push_null();
            } else {
                let window = if field.len() <= WINDOW {
                    bytes
                        .get(at..at + WINDOW)
                        .and_then(|window| window.try_into().ok())
                } else {
                    None
                };
                if let Err(error) = push_field(slot.column, slot.data_type, field, escaped, window)
                {
                    return Err(self.field_error(rows + 1, fields, field, error));
                }
            }
            fields += 1;
            if !row_done {
                continue;
            }
            rows += 1;
            if fields < self.schema.arity() {
                return Err(self.row_error(rows, RowError::TooFew(fields)));
            }
            if let Some(column) = null_violation {
                return Err(self.row_error(rows, RowError::Null(column)));
            }
            fields = 0;
        }
        self.count = rows;
        Ok(())
    }

    /// The error of field `column` of line `line`, `field`.
    #[cold]
    fn field_error(
        &self,
        line: usize,
        column: usize,
        field: &[u8],
        error: FieldError,
    ) -> StorageError {
        let context = self.context;
        match error {
            FieldError::NotA(data_type) => parse_error(
                context,
                line,
                format_args!(
                    "cannot parse `{}` as {data_type}",
                    String::from_utf8_lossy(field)
                ),
            ),
            FieldError::BadEscape(escape) => parse_error(
                context,
                line,
                format_args!("bad escape sequence `\\{}`", escape.unwrap_or(' ')),
            ),
            FieldError::Full => StorageError::ColumnTooLarge {
                // lint: allow(hot_alloc) — cold error path, once per load
                table: self.schema.name.clone(),
                // lint: allow(hot_alloc) — cold error path, once per load
                column: self.schema.columns[column].name.clone(),
            },
        }
    }

    /// The error of line `line` as a whole.
    #[cold]
    fn row_error(&self, line: usize, error: RowError) -> StorageError {
        let (schema, context) = (self.schema, self.context);
        match error {
            RowError::TooMany => parse_error(context, line, format_args!("too many fields")),
            RowError::TooFew(fields) => parse_error(
                context,
                line,
                format_args!("expected {} fields, got {fields}", schema.arity()),
            ),
            RowError::Null(column) => StorageError::NullViolation {
                // lint: allow(hot_alloc) — cold error path, once per load
                table: schema.name.clone(),
                // lint: allow(hot_alloc) — cold error path, once per load
                column: schema.columns[column].name.clone(),
            },
        }
    }
}

/// Why a row could not be stored.
enum RowError {
    /// A field past the schema's last column.
    TooMany,
    /// The line ended after this many fields, short of the schema's.
    TooFew(usize),
    /// `\N` in this NOT NULL column.
    Null(usize),
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
            match read_table(&data[..], data.len() as u64, schema(), "t.tsv") {
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
                let fields: Vec<_> = Fields::new(&text)
                    .map(|f| (std::str::from_utf8(f.bytes).unwrap(), f.escaped, f.row_done))
                    .collect();
                assert_eq!(fields, expected, "{text:?}");
            }
        }
    }

    /// What [`Fields`] must find in `text`: its lines (a line feed ends
    /// one, and takes a carriage return before it along) split on tabs,
    /// each field with `contains('\\')` and whether it ends its row.
    fn split_model(text: &str) -> Vec<(&str, bool, bool)> {
        let mut lines: Vec<&str> = text.split('\n').collect();
        let last = lines.pop().filter(|last| !last.is_empty());
        let ended = lines
            .iter()
            .map(|line| line.strip_suffix('\r').unwrap_or(line));
        let mut fields = Vec::new();
        for line in ended.chain(last) {
            let mut row: Vec<_> = line
                .split('\t')
                .map(|f| (f, f.contains('\\'), false))
                .collect();
            row.last_mut().expect("split yields a field").2 = true;
            fields.extend(row);
        }
        fields
    }

    /// What a load of `text` must store: [`split_model`]'s fields, `\N` as
    /// NULL, text unescaped by hand and integers re-rendered, per column.
    fn stored_model(text: &str, types: &[DataType]) -> Vec<Vec<Option<Vec<u8>>>> {
        let mut columns = vec![Vec::new(); types.len()];
        for (i, (field, _, _)) in split_model(text).into_iter().enumerate() {
            let j = i % types.len();
            let cell = match (field, types[j]) {
                ("\\N", _) => None,
                (field, DataType::Integer) => Some(
                    field
                        .parse::<i64>()
                        .expect("an integer")
                        .to_string()
                        .into_bytes(),
                ),
                (field, _) => {
                    let mut cell = String::new();
                    let mut chars = field.chars();
                    while let Some(c) = chars.next() {
                        if c != '\\' {
                            cell.push(c);
                            continue;
                        }
                        match chars.next() {
                            Some('t') => cell.push('\t'),
                            Some('n') => cell.push('\n'),
                            Some('r') => cell.push('\r'),
                            Some('\\') => cell.push('\\'),
                            Some('N') => cell.push_str("\\N"),
                            other => panic!("{field:?}: bad escape {other:?}"),
                        }
                    }
                    Some(cell.into_bytes())
                }
            };
            columns[j].push(cell);
        }
        columns
    }

    /// Checks the scan of `text` against [`split_model`] and its load into
    /// columns of `types` against [`stored_model`].
    fn check_scan_and_load(text: &str, types: &[DataType]) {
        let found: Vec<_> = Fields::new(text)
            .map(|f| (std::str::from_utf8(f.bytes).unwrap(), f.escaped, f.row_done))
            .collect();
        assert_eq!(found, split_model(text), "{text:?}");
        let columns = types
            .iter()
            .enumerate()
            .map(|(j, &data_type)| ColumnSchema::new(format!("c{j}"), data_type))
            .collect();
        let schema = TableSchema::new("t", columns).unwrap();
        let table = read_table(text.as_bytes(), text.len() as u64, schema, "t.tsv").unwrap();
        for (j, want) in stored_model(text, types).into_iter().enumerate() {
            let got: Vec<_> = table
                .cells(j)
                .cells()
                .map(|c| c.map(<[u8]>::to_vec))
                .collect();
            assert_eq!(got, want, "column {j} of {text:?}");
        }
    }

    #[test]
    fn the_block_scan_and_the_cell_pushes_agree_with_split_at_block_edges() {
        let text3 = [DataType::Text; 3];
        for at in 56..=72 {
            let pad = "p".repeat(at);
            let short = &pad[..at - 4];
            // A tab, then a line feed, at byte `at`.
            check_scan_and_load(&format!("{pad}\tx\ty\nu\tv\tw\n"), &text3);
            check_scan_and_load(&format!("a\tb\t{short}\nu\tv\tw\n"), &text3);
            // A backslash at byte `at`: an escape, and a `\N` alone in its
            // field (NULL) or inside a longer one (text).
            check_scan_and_load(&format!("{pad}\\t\tx\ty\n"), &text3);
            check_scan_and_load(&format!("{}\t\\N\ty\n", &pad[..at - 1]), &text3);
            check_scan_and_load(&format!("{}\tq\\N\ty\n", &pad[..at - 2]), &text3);
            // A CRLF line end with its `\r` at byte `at`, then a row with
            // a NULL and an escaped carriage return.
            check_scan_and_load(&format!("{short}\tx\ty\r\n\\N\t\\r\tz\r\n"), &text3);
        }
        // A field still open a block past its start goes to `memchr`: an
        // escape in any block it spans still marks it.
        for at in [8, 60, 62, 63, 64, 100, 124, 126, 127, 128, 190] {
            let mut long = "l".repeat(200);
            long.replace_range(at..at + 2, "\\t");
            check_scan_and_load(&format!("a\t{long}\tz\n1\t2\t3\n"), &text3);
        }
        // A 64-byte run of tabs: 65 empty fields in one block and the next.
        for lead in 0..3 {
            let text = format!("{}{}\n", "a".repeat(lead), "\t".repeat(64));
            check_scan_and_load(&text, &[DataType::Text; 65]);
        }
        // Cells of 15 to 17 bytes ending 0 to 16 bytes before the end of
        // the text: the fixed-size copy is taken only where the text holds
        // 16 bytes from the cell's start, and either way stores the cell.
        let digits = "12345678901234567";
        for len in 15..=17 {
            for gap in 0..=16 {
                // The rest of the text: nothing, the line feed, or that
                // and a row whose last field is text or a number.
                let (tail, int_tail) = match gap {
                    0 | 1 => ("\n"[..gap].to_string(), Some("\n"[..gap].to_string())),
                    _ => (
                        format!("\n{}\t", "9".repeat(gap - 2)),
                        (gap > 2).then(|| format!("\n\t{}", "9".repeat(gap - 2))),
                    ),
                };
                let cell = &digits[..len];
                check_scan_and_load(&format!("1\t{cell}{tail}"), &[DataType::Text; 2]);
                if let Some(tail) = int_tail {
                    let types = [DataType::Text, DataType::Integer];
                    check_scan_and_load(&format!("1\t{cell}{tail}"), &types);
                }
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
