//! Per-column statistics.
//!
//! Three statistics drive the paper's candidate generation and pruning:
//! the number of distinct values (cardinality pretest, Sec. 1.2/2), the
//! data-driven uniqueness of a column (referenced attributes are "non-empty
//! unique columns", Sec. 2; Aladin step 2 computes key candidates from the
//! uniqueness of the data), and the minimum/maximum canonical value
//! (max-value pretest, Sec. 4.1).

use crate::column::Column;
use crate::table::Table;

/// Statistics for one column, computed from the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Total rows in the owning table.
    pub rows: usize,
    /// Number of non-null values (with duplicates), `|v(a)|`.
    pub non_null: usize,
    /// Number of distinct non-null values, `|s(a)|`.
    pub distinct: usize,
    /// Smallest canonical rendering, if any value exists.
    pub min: Option<Vec<u8>>,
    /// Largest canonical rendering, if any value exists.
    pub max: Option<Vec<u8>>,
    /// Minimum rendered length over non-null values.
    pub min_len: usize,
    /// Maximum rendered length over non-null values.
    pub max_len: usize,
}

impl ColumnStats {
    /// Computes statistics by sorting the column's non-null cells — the
    /// canonical renderings, in the ordering every discovery algorithm
    /// uses, so `min`/`max` here agree byte-for-byte with the first/last
    /// entries of the extracted value sets.
    ///
    /// The cells are sorted by reference into the column's own store, and
    /// distinct values are counted by comparing neighbours — nothing is
    /// rendered or copied.
    pub fn compute(column: &Column) -> Self {
        let mut cells: Vec<&[u8]> = column.cells().flatten().collect();
        cells.sort_unstable();
        let lengths = cells.iter().map(|cell| cell.len());
        ColumnStats {
            rows: column.len(),
            non_null: cells.len(),
            distinct: cells.len().min(1) + cells.windows(2).filter(|w| w[0] != w[1]).count(),
            min: cells.first().map(|cell| cell.to_vec()),
            max: cells.last().map(|cell| cell.to_vec()),
            min_len: lengths.clone().min().unwrap_or(0),
            max_len: lengths.max().unwrap_or(0),
        }
    }

    /// "Non-empty" in the paper's sense: the column holds at least one
    /// non-null value.
    pub fn is_non_empty(&self) -> bool {
        self.non_null > 0
    }

    /// Data-driven uniqueness: every non-null value occurs exactly once.
    /// Empty columns are *not* unique (a referenced attribute must be
    /// non-empty anyway).
    pub fn is_unique(&self) -> bool {
        self.non_null > 0 && self.distinct == self.non_null
    }
}

/// Statistics for every column of a table, in schema order.
pub fn table_stats(table: &Table) -> Vec<ColumnStats> {
    (0..table.schema().arity())
        .map(|i| ColumnStats::compute(table.cells(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn stats_of(values: Vec<Value>) -> ColumnStats {
        ColumnStats::compute(&Column::from_values(&values))
    }

    #[test]
    fn counts_distinct_and_non_null() {
        let s = stats_of(vec![1.into(), 2.into(), 2.into(), Value::Null, 3.into()]);
        assert_eq!(s.rows, 5);
        assert_eq!(s.non_null, 4);
        assert_eq!(s.distinct, 3);
        assert!(s.is_non_empty());
        assert!(!s.is_unique());
    }

    #[test]
    fn unique_column_detected_from_data() {
        let s = stats_of(vec![10.into(), 11.into(), Value::Null]);
        assert!(s.is_unique(), "nulls do not break uniqueness");
        let s = stats_of(vec![10.into(), 10.into()]);
        assert!(!s.is_unique());
    }

    #[test]
    fn empty_column_is_neither_non_empty_nor_unique() {
        let s = stats_of(vec![Value::Null, Value::Null]);
        assert!(!s.is_non_empty());
        assert!(!s.is_unique());
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
    }

    #[test]
    fn min_max_use_canonical_order() {
        // Lexicographic: "10" < "2" < "9".
        let s = stats_of(vec![9.into(), 10.into(), 2.into()]);
        assert_eq!(s.min.as_deref(), Some(b"10".as_slice()));
        assert_eq!(s.max.as_deref(), Some(b"9".as_slice()));
    }

    #[test]
    fn distinct_counts_survive_duplicates_prefixes_and_the_empty_string() {
        let s = stats_of(vec![
            "ab".into(),
            "".into(),
            "a".into(),
            "ab".into(),
            Value::Null,
            "".into(),
            "abc".into(),
        ]);
        assert_eq!((s.rows, s.non_null, s.distinct), (7, 6, 4));
        assert_eq!(s.min.as_deref(), Some(b"".as_slice()));
        assert_eq!(s.max.as_deref(), Some(b"abc".as_slice()));
        assert_eq!((s.min_len, s.max_len), (0, 3));
        let s = stats_of(vec![7.into(), 7.into(), 7.into()]);
        assert_eq!((s.non_null, s.distinct), (3, 1));
        assert_eq!(stats_of(vec![]).distinct, 0);
    }

    #[test]
    fn length_range_tracks_rendered_lengths() {
        let s = stats_of(vec!["ab".into(), "abcd".into(), Value::Null]);
        assert_eq!(s.min_len, 2);
        assert_eq!(s.max_len, 4);
    }

    #[test]
    fn table_stats_cover_all_columns() {
        use crate::schema::{ColumnSchema, TableSchema};
        use crate::value::DataType;
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Text),
                ],
            )
            .unwrap(),
        );
        t.insert(vec![1.into(), "x".into()]).unwrap();
        t.insert(vec![1.into(), Value::Null]).unwrap();
        let stats = table_stats(&t);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].distinct, 1);
        assert_eq!(stats[1].non_null, 1);
    }
}
