//! Error type shared by all storage operations.

use std::fmt;

/// Errors produced by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (persistence).
    Io(std::io::Error),
    /// A table name was not found in the database.
    UnknownTable(String),
    /// A column name was not found in a table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Missing column.
        column: String,
    },
    /// A row had the wrong number of values for its table.
    ArityMismatch {
        /// Table being inserted into.
        table: String,
        /// Number of columns declared.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A value's type did not match the column declaration.
    TypeMismatch {
        /// Table being inserted into.
        table: String,
        /// Offending column.
        column: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// NULL supplied for a non-nullable column.
    NullViolation {
        /// Table being inserted into.
        table: String,
        /// Offending column.
        column: String,
    },
    /// A column's canonical renderings passed the store's 32-bit
    /// addressing: one column holds at most `u32::MAX` (4 GiB) of rendered
    /// bytes.
    ColumnTooLarge {
        /// Table being loaded or inserted into.
        table: String,
        /// The column that is full.
        column: String,
    },
    /// Two tables with the same name were added to a database.
    DuplicateTable(String),
    /// Two columns with the same name were declared in one table.
    DuplicateColumn {
        /// Table declaring the duplicate.
        table: String,
        /// Duplicated name.
        column: String,
    },
    /// Failure while parsing persisted data back in.
    Parse {
        /// Source location (file or table).
        context: String,
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            StorageError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row arity mismatch for table `{table}`: expected {expected} values, got {got}"
            ),
            StorageError::TypeMismatch {
                table,
                column,
                detail,
            } => write!(f, "type mismatch in `{table}`.`{column}`: {detail}"),
            StorageError::NullViolation { table, column } => {
                write!(f, "NULL not allowed in `{table}`.`{column}`")
            }
            StorageError::ColumnTooLarge { table, column } => write!(
                f,
                "column `{table}`.`{column}` exceeds 4 GiB of rendered values"
            ),
            StorageError::DuplicateTable(t) => write!(f, "duplicate table `{t}`"),
            StorageError::DuplicateColumn { table, column } => {
                write!(f, "duplicate column `{column}` in table `{table}`")
            }
            StorageError::Parse { context, detail } => {
                write!(f, "parse error in {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::UnknownColumn {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(e.to_string().contains('t'));
        assert!(e.to_string().contains('c'));

        let e = StorageError::ArityMismatch {
            table: "t".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
