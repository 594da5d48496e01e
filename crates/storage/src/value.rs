//! Typed values and their canonical textual rendering.
//!
//! The paper (Sec. 3.2) sorts *all* attribute values — including numerics —
//! lexicographically after converting them to character data (`to_char` in
//! the SQL statements of Sec. 2): "We can use lexicographic sorting for all
//! values including numeric values, because the actual order of values is
//! irrelevant as long as it is consistent over all sets." The single source
//! of truth for that conversion is [`Value::render_canonical`]; every
//! algorithm in the workspace compares the resulting byte strings.
//!
//! Those byte strings are also what a table *stores* ([`crate::Column`]):
//! a value is rendered once, when it is inserted or loaded, and the
//! discovery pipeline reads the stored bytes. `Value` itself is the typed
//! face of a cell — what callers insert, and what [`crate::Table::column`]
//! rebuilds on request for the consumers that compute on numbers or
//! strings (the SQL baseline, the discovery heuristics, tests, oracles).

use std::cmp::Ordering;
use std::fmt;

/// Declared type of a column.
///
/// `Lob` models large-object columns, which the paper excludes from the set
/// of potentially dependent attributes ("non-empty columns of any type
/// except LOB", Sec. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float.
    Float,
    /// Variable-length character data.
    Text,
    /// Large object (CLOB/BLOB-like); excluded from IND candidate generation.
    Lob,
}

impl DataType {
    /// Stable lowercase name used in persisted schemas.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Integer => "integer",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Lob => "lob",
        }
    }

    /// Inverse of [`DataType::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "integer" => Some(DataType::Integer),
            "float" => Some(DataType::Float),
            "text" => Some(DataType::Text),
            "lob" => Some(DataType::Lob),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single cell value, typed: the form rows are inserted in and the form
/// the `Value` views of a [`crate::Table`] hand back. Tables do not keep
/// `Value`s — they keep each cell's [`Value::render_canonical`] bytes — so
/// a value that went through a table comes back as what its rendering
/// parses to (`Value::parse`): the same integer, the same float (`-0.0` and
/// NaN included), the same text.
///
/// `Lob` columns store their payload as `Text` values; the exclusion from
/// IND discovery happens at the schema level, not the value level.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL. Never participates in value sets (`v(a)` collects only
    /// non-null values).
    Null,
    /// Integer payload.
    Integer(i64),
    /// Float payload.
    Float(f64),
    /// Character payload.
    Text(String),
}

impl Value {
    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value may be stored in a column of type `dt`.
    ///
    /// NULL is compatible with every type. Lob columns accept text payloads.
    pub fn compatible_with(&self, dt: DataType) -> bool {
        matches!(
            (self, dt),
            (Value::Null, _)
                | (Value::Integer(_), DataType::Integer)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text | DataType::Lob)
        )
    }

    /// Appends the canonical textual rendering to `buf` (the `to_char`
    /// conversion used throughout the paper). Panics on NULL, which by
    /// definition never enters a value set.
    pub fn render_canonical(&self, buf: &mut Vec<u8>) {
        use std::io::Write;
        match self {
            // lint: allow(no_unwrap) — documented contract: NULLs are filtered before rendering, per the paper's value-set definition
            Value::Null => panic!("NULL has no canonical rendering"),
            // lint: allow(no_unwrap) — fmt writes into a Vec are infallible
            Value::Integer(i) => write!(buf, "{i}").expect("write to Vec cannot fail"),
            // lint: allow(no_unwrap) — fmt writes into a Vec are infallible
            Value::Float(x) => write!(buf, "{x}").expect("write to Vec cannot fail"),
            Value::Text(s) => buf.extend_from_slice(s.as_bytes()),
        }
    }

    /// Canonical rendering as a fresh byte vector. Prefer
    /// [`Value::render_canonical`] with a reused buffer in hot loops.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.render_canonical(&mut buf);
        buf
    }

    /// Lexicographic comparison of the canonical renderings, the one and
    /// only ordering used by the discovery algorithms.
    pub fn cmp_canonical(&self, other: &Value) -> Ordering {
        // Fast path: same-variant comparisons avoid rendering.
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => a.as_bytes().cmp(b.as_bytes()),
            _ => self.canonical_bytes().cmp(&other.canonical_bytes()),
        }
    }

    /// Parses a rendering back into a typed value: the inverse of
    /// [`Value::render_canonical`], which also accepts every other spelling
    /// `i64`/`f64` parsing does (`+5`, `007`, `1e3`). The TSV loader takes
    /// it for numbers not already in canonical form, and the `Value` views
    /// rebuild cells with it. An empty string parses as empty text for text
    /// columns.
    pub fn parse(dt: DataType, s: &str) -> Option<Value> {
        match dt {
            DataType::Integer => s.parse::<i64>().ok().map(Value::Integer),
            DataType::Float => s.parse::<f64>().ok().map(Value::Float),
            DataType::Text | DataType::Lob => Some(Value::Text(s.to_string())),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_rendering_matches_to_char() {
        assert_eq!(Value::Integer(42).canonical_bytes(), b"42");
        assert_eq!(Value::Integer(-7).canonical_bytes(), b"-7");
        assert_eq!(Value::Float(1.5).canonical_bytes(), b"1.5");
        assert_eq!(Value::Text("abc".into()).canonical_bytes(), b"abc");
    }

    #[test]
    fn lexicographic_order_is_not_numeric_order() {
        // The paper's point: "10" < "9" lexicographically is fine as long
        // as the ordering is consistent across all sets.
        assert_eq!(
            Value::Integer(10).cmp_canonical(&Value::Integer(9)),
            Ordering::Less
        );
        assert_eq!(
            Value::Integer(9).cmp_canonical(&Value::Integer(10)),
            Ordering::Greater
        );
    }

    #[test]
    fn cross_type_comparison_uses_rendering() {
        // Integer 42 and text "42" render identically, so they compare equal
        // under the canonical ordering — exactly the behaviour needed for
        // life-science data where "often even attributes containing solely
        // integers are represented as string" (Sec. 4.1).
        assert_eq!(
            Value::Integer(42).cmp_canonical(&Value::Text("42".into())),
            Ordering::Equal
        );
    }

    #[test]
    fn compatibility_rules() {
        assert!(Value::Null.compatible_with(DataType::Integer));
        assert!(Value::Integer(1).compatible_with(DataType::Integer));
        assert!(!Value::Integer(1).compatible_with(DataType::Text));
        assert!(Value::Text("x".into()).compatible_with(DataType::Lob));
        assert!(!Value::Float(1.0).compatible_with(DataType::Integer));
    }

    #[test]
    fn parse_round_trips() {
        for (dt, v) in [
            (DataType::Integer, Value::Integer(-12)),
            (DataType::Float, Value::Float(2.25)),
            (DataType::Text, Value::Text("hello world".into())),
        ] {
            let rendered = String::from_utf8(v.canonical_bytes()).unwrap();
            assert_eq!(Value::parse(dt, &rendered), Some(v));
        }
        assert_eq!(Value::parse(DataType::Integer, "abc"), None);
    }

    #[test]
    #[should_panic(expected = "NULL has no canonical rendering")]
    fn null_has_no_rendering() {
        Value::Null.canonical_bytes();
    }

    #[test]
    fn datatype_names_round_trip() {
        for dt in [
            DataType::Integer,
            DataType::Float,
            DataType::Text,
            DataType::Lob,
        ] {
            assert_eq!(DataType::from_name(dt.name()), Some(dt));
        }
        assert_eq!(DataType::from_name("varchar"), None);
    }
}
