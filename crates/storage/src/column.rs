//! The column store: one attribute's cells as the bytes the pipeline reads.
//!
//! The paper's pipeline never looks at a typed cell — "we first extract
//! from the database the sorted sets of distinct values of each attribute"
//! (Sec. 3), every value already converted `to_char` (Sec. 3.2) — so a
//! column is stored as exactly that: the canonical renderings
//! ([`Value::render_canonical`]) back to back in one buffer, one `u32` end
//! offset per row, and one NULL bit per row. A cell costs its rendered
//! bytes plus four; nothing is allocated per cell or per row. Extraction,
//! statistics, hashing and TSV saving read the cells as they lie; a typed
//! [`Value`] is rebuilt from a cell only for callers that ask for one
//! ([`Column::value`], [`Column::values`], and the cached views of
//! [`crate::Table::column`]).

use crate::value::{DataType, Value};

/// A cell did not fit: a column addresses its rendered bytes with `u32`
/// offsets, so it holds at most `u32::MAX` of them. [`crate::Table`] and
/// the TSV loader report this as [`crate::StorageError::ColumnTooLarge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColumnFull;

/// Where a cell ends when the column's buffer has grown to `len` bytes:
/// `None` past the 32-bit addressing.
#[inline]
fn cell_end(len: usize) -> Option<u32> {
    u32::try_from(len).ok()
}

/// One attribute of a table, stored as canonical bytes.
///
/// Every non-NULL cell of an `Integer` or `Float` column is the canonical
/// rendering of a parsed number and every cell of a `Text`/`Lob` column is
/// valid UTF-8: the fields are private and every writer (the TSV loader,
/// [`crate::Table::insert`], [`Column::from_values`]) upholds that, which
/// is what lets [`Column::value`] rebuild the typed value.
#[derive(Debug, Clone)]
pub struct Column {
    data_type: DataType,
    /// Canonical renderings of the non-NULL cells, back to back in row
    /// order.
    bytes: Vec<u8>,
    /// `ends[row]` is where row's cell stops in `bytes`; it starts where
    /// the previous one stopped. A NULL is an empty range.
    ends: Vec<u32>,
    /// Bit `row % 64` of word `row / 64` is set for a NULL cell. Grown only
    /// when a NULL is pushed: a column without NULLs carries no bitmap.
    nulls: Vec<u64>,
}

impl Column {
    /// An empty column of declared type `data_type`.
    pub fn new(data_type: DataType) -> Self {
        Column {
            data_type,
            // lint: allow(hot_alloc) — the three buffers of a column: one allocation per column is the design
            bytes: Vec::new(),
            // lint: allow(hot_alloc) — see above
            ends: Vec::new(),
            // lint: allow(hot_alloc) — see above
            nulls: Vec::new(),
        }
    }

    /// A column holding `values`, for tests and tools that start from typed
    /// cells. It is declared with the type the non-NULL values share, and
    /// `Text` when they are mixed or absent — the cells are the same bytes
    /// either way.
    ///
    /// # Panics
    /// When the values render to more than `u32::MAX` bytes.
    pub fn from_values(values: &[Value]) -> Self {
        let mut types = values.iter().filter_map(|v| match v {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        });
        let first = types.next().unwrap_or(DataType::Text);
        let data_type = if types.all(|t| t == first) {
            first
        } else {
            DataType::Text
        };
        let mut column = Column::new(data_type);
        for value in values {
            column
                .push_value(value)
                // lint: allow(no_unwrap) — documented panic of the test/tool constructor; tables and the loader return the error
                .expect("column exceeds u32::MAX rendered bytes");
        }
        column
    }

    /// The declared type of the column.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Number of rows (NULL cells included).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    #[inline]
    fn is_null(&self, row: usize) -> bool {
        self.nulls
            .get(row / 64)
            .is_some_and(|word| word >> (row % 64) & 1 == 1)
    }

    /// The canonical bytes of row `row`'s cell, `None` for NULL.
    ///
    /// # Panics
    /// When `row` is out of range.
    #[inline]
    pub fn cell(&self, row: usize) -> Option<&[u8]> {
        let end = self.ends[row] as usize;
        if self.is_null(row) {
            return None;
        }
        let start = row.checked_sub(1).map_or(0, |r| self.ends[r] as usize);
        Some(&self.bytes[start..end])
    }

    /// Every cell in row order, `None` for NULL.
    pub fn cells(&self) -> Cells<'_> {
        Cells {
            column: self,
            row: 0,
            start: 0,
        }
    }

    /// The buffer every cell is a slice of: the non-NULL cells' canonical
    /// bytes back to back in row order. With [`Cells::offset`] it lets a
    /// reader address cells where they lie instead of copying them.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adds a NULL cell.
    #[inline]
    pub(crate) fn push_null(&mut self) {
        let row = self.ends.len();
        if self.nulls.len() <= row / 64 {
            self.nulls.resize(row / 64 + 1, 0);
        }
        self.nulls[row / 64] |= 1 << (row % 64);
        // The buffer never outgrows u32 (`push_with` truncates back).
        self.ends.push(self.bytes.len() as u32);
    }

    /// Adds a non-NULL cell by rendering it directly into the store:
    /// `render` receives the buffer and must only append — canonical bytes
    /// of the column's type, which is the caller's obligation. On
    /// [`ColumnFull`] the column is as it was.
    #[inline]
    pub(crate) fn push_with(
        &mut self,
        render: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ColumnFull> {
        let start = self.bytes.len();
        render(&mut self.bytes);
        debug_assert!(self.bytes.len() >= start, "render must only append");
        match cell_end(self.bytes.len()) {
            Some(end) => {
                self.ends.push(end);
                Ok(())
            }
            None => {
                self.bytes.truncate(start);
                Err(ColumnFull)
            }
        }
    }

    /// Adds a non-NULL cell whose canonical bytes are `cell`.
    #[inline]
    pub(crate) fn push_cell(&mut self, cell: &[u8]) -> Result<(), ColumnFull> {
        self.push_with(|bytes| bytes.extend_from_slice(cell))
    }

    /// Adds `value`, rendered canonically. The value's type is the caller's
    /// to check against the column's.
    pub(crate) fn push_value(&mut self, value: &Value) -> Result<(), ColumnFull> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        self.push_with(|bytes| value.render_canonical(bytes))
    }

    /// Drops every row from `rows` on (undoing a partly applied insert).
    pub(crate) fn truncate(&mut self, rows: usize) {
        if rows >= self.ends.len() {
            return;
        }
        let bytes = rows.checked_sub(1).map_or(0, |r| self.ends[r] as usize);
        self.bytes.truncate(bytes);
        self.ends.truncate(rows);
        self.nulls.truncate(rows.div_ceil(64));
        if let Some(last) = self.nulls.get_mut(rows / 64) {
            *last &= (1u64 << (rows % 64)) - 1;
        }
    }

    /// Makes room for `bytes` more rendered bytes and `rows` more rows, if
    /// the allocator has it: a load that can estimate its column's size
    /// takes the room once instead of growing by doubling, which copies or
    /// remaps the buffer at every step. A refusal is not an error; the
    /// pushes then grow the buffers as they would have.
    pub(crate) fn reserve(&mut self, bytes: usize, rows: usize) {
        // lint: allow(swallowed_result) — a refusal leaves the buffer as it was, and the pushes grow it
        let _ = self.bytes.try_reserve(bytes);
        // lint: allow(swallowed_result) — as above
        let _ = self.ends.try_reserve(rows);
    }

    /// Returns the growth slack of the three buffers (a finished load).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.nulls.shrink_to_fit();
    }

    /// Row `row`'s cell as a typed value.
    ///
    /// # Panics
    /// When `row` is out of range.
    pub fn value(&self, row: usize) -> Value {
        typed(self.data_type, self.cell(row))
    }

    /// The whole column as typed values — one `String` per text cell, which
    /// is what the store exists to avoid: the pipeline reads
    /// [`Column::cells`], and [`crate::Table::column`] caches this per
    /// column for the callers that do want values.
    pub fn values(&self) -> Vec<Value> {
        self.cells()
            .map(|cell| typed(self.data_type, cell))
            // lint: allow(hot_alloc) — the typed view, built on request and never on the pipeline's spine
            .collect()
    }
}

/// Rebuilds the typed value a cell renders.
fn typed(data_type: DataType, cell: Option<&[u8]>) -> Value {
    let Some(cell) = cell else {
        return Value::Null;
    };
    // lint: allow(no_unwrap) — `Column`'s invariant: every writer stores UTF-8
    let text = std::str::from_utf8(cell).expect("cells are UTF-8");
    // lint: allow(no_unwrap) — `Column`'s invariant: numeric cells are renderings of parsed numbers
    Value::parse(data_type, text).expect("numeric cells are canonical renderings")
}

/// Iterator over a column's cells ([`Column::cells`]).
#[derive(Debug, Clone)]
pub struct Cells<'a> {
    column: &'a Column,
    row: usize,
    start: usize,
}

impl Cells<'_> {
    /// Where the next cell starts in [`Column::bytes`] (a NULL is an empty
    /// range there); at most `u32::MAX`, like every offset of a column.
    #[inline]
    pub fn offset(&self) -> usize {
        self.start
    }
}

impl<'a> Iterator for Cells<'a> {
    type Item = Option<&'a [u8]>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let end = *self.column.ends.get(self.row)? as usize;
        let cell = if self.column.is_null(self.row) {
            None
        } else {
            Some(&self.column.bytes[self.start..end])
        };
        self.row += 1;
        self.start = end;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.column.ends.len() - self.row;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Cells<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Value> {
        vec![
            Value::Text("ab".into()),
            Value::Null,
            Value::Text(String::new()),
            Value::Text("c".into()),
            Value::Null,
        ]
    }

    #[test]
    fn cells_distinguish_null_from_the_empty_string() {
        let column = Column::from_values(&sample());
        assert_eq!(column.len(), 5);
        assert_eq!(column.bytes.len(), 3);
        let want: [Option<&[u8]>; 5] = [Some(b"ab"), None, Some(b""), Some(b"c"), None];
        assert_eq!(column.cells().collect::<Vec<_>>(), want);
        for (row, cell) in want.iter().enumerate() {
            assert_eq!(column.cell(row), *cell, "row {row}");
        }
        assert_eq!(column.cells().len(), 5);
        // Every cell is the slice of `bytes()` that starts at its offset.
        assert_eq!(column.bytes(), b"abc");
        let mut cells = column.cells();
        let mut offsets = Vec::new();
        while cells.len() > 0 {
            let offset = cells.offset();
            let cell = cells.next().unwrap().unwrap_or(b"");
            assert_eq!(&column.bytes()[offset..offset + cell.len()], cell);
            offsets.push(offset);
        }
        assert_eq!(offsets, [0, 2, 2, 2, 3]);
        assert_eq!(cells.offset(), 3);
        assert_eq!(column.values(), sample());
        assert_eq!(column.value(2), Value::Text(String::new()));
    }

    #[test]
    fn numbers_are_stored_rendered_and_come_back_typed() {
        let ints = [Value::Integer(10), Value::Null, Value::Integer(-7)];
        let column = Column::from_values(&ints);
        assert_eq!(column.data_type(), DataType::Integer);
        assert_eq!(column.cell(0), Some(b"10".as_slice()));
        assert_eq!(column.cell(2), Some(b"-7".as_slice()));
        assert_eq!(column.values(), ints);

        let floats = [Value::Float(1.5), Value::Float(1000.0), Value::Float(-0.0)];
        let column = Column::from_values(&floats);
        assert_eq!(column.data_type(), DataType::Float);
        let want: [Option<&[u8]>; 3] = [Some(b"1.5"), Some(b"1000"), Some(b"-0")];
        assert_eq!(column.cells().collect::<Vec<_>>(), want);
        assert_eq!(column.values(), floats);
    }

    #[test]
    fn mixed_and_absent_types_are_declared_text_with_the_same_bytes() {
        let mixed = [Value::Integer(10), Value::Text("apple".into())];
        let column = Column::from_values(&mixed);
        assert_eq!(column.data_type(), DataType::Text);
        assert_eq!(column.cell(0), Some(b"10".as_slice()));
        assert_eq!(column.value(0), Value::Text("10".into()));
        assert_eq!(Column::from_values(&[]).data_type(), DataType::Text);
        assert_eq!(
            Column::from_values(&[Value::Null]).data_type(),
            DataType::Text
        );
    }

    #[test]
    fn the_null_bitmap_is_only_as_long_as_its_last_null() {
        let mut column = Column::new(DataType::Integer);
        for i in 0..200 {
            column.push_value(&Value::Integer(i)).unwrap();
        }
        assert!(column.nulls.is_empty(), "no NULL, no bitmap");
        column.push_null();
        assert_eq!(column.nulls.len(), 4);
        assert_eq!(column.cell(200), None);
        assert_eq!(column.cell(199), Some(b"199".as_slice()));
        assert_eq!(column.cells().filter(Option::is_none).count(), 1);
    }

    #[test]
    fn truncate_undoes_pushes_including_their_null_bits() {
        let mut column = Column::from_values(&sample());
        column.truncate(7);
        assert_eq!(column.len(), 5);
        column.truncate(1);
        assert_eq!(column.len(), 1);
        assert_eq!(column.bytes.len(), 2);
        // The dropped NULL at row 1 must not resurface under a new cell.
        column.push_cell(b"x").unwrap();
        column.push_null();
        let want: [Option<&[u8]>; 3] = [Some(b"ab"), Some(b"x"), None];
        assert_eq!(column.cells().collect::<Vec<_>>(), want);
        column.truncate(0);
        assert!(column.is_empty());
        assert_eq!(column.bytes.len(), 0);
        column.push_cell(b"y").unwrap();
        assert_eq!(column.cell(0), Some(b"y".as_slice()));
    }

    #[test]
    fn the_addressing_bound_is_u32_max_bytes() {
        assert_eq!(cell_end(0), Some(0));
        assert_eq!(cell_end(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(cell_end(u32::MAX as usize + 1), None);
    }
}
