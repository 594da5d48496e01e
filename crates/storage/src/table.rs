//! Columnar table storage.

use crate::column::{Column, ColumnFull};
use crate::error::{Result, StorageError};
use crate::schema::{ColumnSchema, TableSchema};
use crate::value::Value;
use std::sync::OnceLock;

/// A table instance: a schema plus one [`Column`] of canonical bytes per
/// attribute.
///
/// Storage is columnar because every consumer in this workspace — value-set
/// extraction, statistics, hashing, TSV saving — scans one column at a
/// time, and it is *bytes* because those consumers read the canonical
/// rendering and nothing else: [`Table::cells`] / [`Table::iter_cells`]
/// hand out the store as it lies.
///
/// Typed cells are a **view** for the callers that want them (the SQL
/// baseline, the discovery heuristics, tests, oracles): [`Table::column`],
/// [`Table::column_by_name`] and [`Table::iter_columns`] build a column's
/// `Vec<Value>` on first request and cache it until the next
/// [`Table::insert`]. The discovery pipeline never asks
/// ([`Table::value_views_built`] stays 0 across a load and a discovery).
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<Column>,
    /// The typed view of each column, built on first request.
    views: Vec<OnceLock<Vec<Value>>>,
    rows: usize,
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let columns: Vec<Column> = schema
            .columns
            .iter()
            .map(|c| Column::new(c.data_type))
            .collect();
        let views = columns.iter().map(|_| OnceLock::new()).collect();
        Table {
            schema,
            columns,
            views,
            rows: 0,
        }
    }

    /// The TSV loader's way in: the schema beside the columns it fills cell
    /// by cell, to be sealed with [`Table::finish_load`].
    pub(crate) fn load_parts(&mut self) -> (&TableSchema, &mut [Column]) {
        (&self.schema, &mut self.columns)
    }

    /// Seals a load that pushed `rows` cells onto every column, returning
    /// the buffers' growth slack (the table lives as long as the discovery).
    pub(crate) fn finish_load(&mut self, rows: usize) {
        debug_assert!(self.columns.iter().all(|c| c.len() == self.rows + rows));
        self.columns.iter_mut().for_each(Column::shrink_to_fit);
        self.rows += rows;
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// True if the table holds no rows. Empty tables matter: the paper notes
    /// foreign keys defined on empty tables "obviously cannot be found when
    /// regarding the data" (Sec. 5).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Inserts one row, validating arity, types, and NOT NULL constraints;
    /// each value is rendered into its column's store. A failed insert
    /// leaves the table as it was. Cached typed views are dropped.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if value.is_null() {
                if !col.nullable {
                    return Err(StorageError::NullViolation {
                        table: self.schema.name.clone(),
                        column: col.name.clone(),
                    });
                }
            } else if !value.compatible_with(col.data_type) {
                return Err(StorageError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: col.name.clone(),
                    detail: format!(
                        "value `{value}` not compatible with column type {}",
                        col.data_type
                    ),
                });
            }
        }
        for (j, value) in row.iter().enumerate() {
            if let Err(ColumnFull) = self.columns[j].push_value(value) {
                for column in &mut self.columns[..j] {
                    column.truncate(self.rows);
                }
                return Err(StorageError::ColumnTooLarge {
                    table: self.schema.name.clone(),
                    column: self.schema.columns[j].name.clone(),
                });
            }
        }
        for view in &mut self.views {
            view.take();
        }
        self.rows += 1;
        Ok(())
    }

    /// Bulk insert convenience.
    pub fn insert_all<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.schema
            .column_index(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: self.schema.name.clone(),
                column: name.to_string(),
            })
    }

    /// The stored cells of column `idx`: what the pipeline reads.
    pub fn cells(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The stored cells of a column by name.
    pub fn cells_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Iterator over `(column index, column schema, stored cells)`.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, &ColumnSchema, &Column)> {
        self.schema
            .columns
            .iter()
            .zip(&self.columns)
            .enumerate()
            .map(|(i, (cs, column))| (i, cs, column))
    }

    /// Full column by index, as typed values (the cached view).
    pub fn column(&self, idx: usize) -> &[Value] {
        self.views[idx].get_or_init(|| self.columns[idx].values())
    }

    /// Full column by name, as typed values (the cached view).
    pub fn column_by_name(&self, name: &str) -> Result<&[Value]> {
        Ok(self.column(self.index_of(name)?))
    }

    /// Materializes row `i` from the stored cells, without building a view
    /// (test/debug convenience; hot paths stay columnar).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Iterator over `(column index, column schema, column data)`, the data
    /// as typed values (the cached views).
    pub fn iter_columns(&self) -> impl Iterator<Item = (usize, &ColumnSchema, &[Value])> {
        self.schema
            .columns
            .iter()
            .enumerate()
            .map(move |(i, cs)| (i, cs, self.column(i)))
    }

    /// How many of this table's columns currently hold a built typed view.
    /// Read-only; 0 on a table nobody asked for values.
    pub fn value_views_built(&self) -> usize {
        self.views.iter().filter(|v| v.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSchema;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "person",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("name", DataType::Text),
                    ColumnSchema::new("score", DataType::Float),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        t.insert(vec![1.into(), "ada".into(), 9.5.into()]).unwrap();
        t.insert(vec![2.into(), Value::Null, Value::Null]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column(0), &[Value::Integer(1), Value::Integer(2)]);
        assert_eq!(
            t.column_by_name("name").unwrap()[0],
            Value::Text("ada".into())
        );
        assert_eq!(t.row(1), vec![Value::Integer(2), Value::Null, Value::Null]);
    }

    #[test]
    fn arity_is_enforced() {
        let mut t = table();
        let err = t.insert(vec![1.into()]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
        assert_eq!(t.row_count(), 0, "failed insert must not partially apply");
    }

    #[test]
    fn types_are_enforced() {
        let mut t = table();
        let err = t
            .insert(vec!["oops".into(), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn not_null_is_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::NullViolation { .. }));
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = table();
        assert!(t.is_empty());
        assert_eq!(t.iter_columns().count(), 3);
    }

    #[test]
    fn the_store_holds_canonical_cells_and_the_view_is_built_on_request() {
        let mut t = table();
        t.insert(vec![10.into(), "ada".into(), 9.5.into()]).unwrap();
        t.insert(vec![9.into(), Value::Null, Value::Null]).unwrap();
        assert_eq!(t.value_views_built(), 0);
        let cells: Vec<Vec<Option<&[u8]>>> = t
            .iter_cells()
            .map(|(_, _, c)| c.cells().collect())
            .collect();
        let want: [[Option<&[u8]>; 2]; 3] = [
            [Some(b"10"), Some(b"9")],
            [Some(b"ada"), None],
            [Some(b"9.5"), None],
        ];
        assert_eq!(cells, want);
        assert_eq!(
            t.cells_by_name("name").unwrap().cell(0),
            Some(b"ada".as_slice())
        );
        assert!(t.cells_by_name("nope").is_err());
        assert_eq!(t.row(0), vec![10.into(), "ada".into(), 9.5.into()]);
        assert_eq!(t.value_views_built(), 0, "row() reads the store");

        assert_eq!(t.column(1), &[Value::Text("ada".into()), Value::Null]);
        assert_eq!(t.value_views_built(), 1);
        assert_eq!(t.iter_columns().count(), 3);
        assert_eq!(t.value_views_built(), 3);
        assert_eq!(t.clone().value_views_built(), 3);
    }

    #[test]
    fn insert_after_a_view_is_visible_through_the_next_view() {
        let mut t = table();
        t.insert(vec![1.into(), "a".into(), Value::Null]).unwrap();
        assert_eq!(t.column(0), &[Value::Integer(1)]);
        t.insert(vec![2.into(), "b".into(), 0.5.into()]).unwrap();
        assert_eq!(t.value_views_built(), 0, "insert drops the cached views");
        assert_eq!(t.column(0), &[Value::Integer(1), Value::Integer(2)]);
        assert_eq!(
            t.column_by_name("score").unwrap(),
            &[Value::Null, Value::Float(0.5)]
        );
        // A refused row neither lands nor disturbs what is cached.
        assert!(t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .is_err());
        assert_eq!(t.value_views_built(), 2);
        assert_eq!(t.cells(0).len(), 2);
    }
}
