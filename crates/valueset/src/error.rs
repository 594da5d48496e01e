//! Errors for the value-set substrate.

use std::fmt;

/// Errors produced while writing, reading, or managing value sets.
#[derive(Debug)]
pub enum ValueSetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A value file is malformed (bad magic, truncated record, …).
    Corrupt {
        /// File (or description) that failed.
        context: String,
        /// What was wrong.
        detail: String,
    },
    /// Values were appended out of order or duplicated.
    Unsorted {
        /// File being written.
        context: String,
    },
    /// An attribute id was out of range for the provider.
    UnknownAttribute(u32),
    /// The run was cancelled cooperatively (deadline, SIGINT, or an
    /// explicit [`CancelToken`](crate::CancelToken)) while in `phase`.
    Cancelled {
        /// The pipeline phase that observed the cancellation.
        phase: &'static str,
    },
    /// Propagated storage error (during extraction).
    Storage(ind_storage::StorageError),
}

impl fmt::Display for ValueSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueSetError::Io(e) => write!(f, "I/O error: {e}"),
            ValueSetError::Corrupt { context, detail } => {
                write!(f, "corrupt value file {context}: {detail}")
            }
            ValueSetError::Unsorted { context } => write!(
                f,
                "values for {context} are not strictly increasing (sorted and distinct)"
            ),
            ValueSetError::UnknownAttribute(id) => write!(f, "unknown attribute id {id}"),
            ValueSetError::Cancelled { phase } => write!(f, "cancelled during {phase}"),
            ValueSetError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ValueSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValueSetError::Io(e) => Some(e),
            ValueSetError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ValueSetError {
    fn from(e: std::io::Error) -> Self {
        ValueSetError::Io(e)
    }
}

impl From<ind_storage::StorageError> for ValueSetError {
    fn from(e: ind_storage::StorageError) -> Self {
        ValueSetError::Storage(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ValueSetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = ValueSetError::Unsorted {
            context: "attr-3".into(),
        };
        assert!(e.to_string().contains("attr-3"));
        let e = ValueSetError::UnknownAttribute(42);
        assert!(e.to_string().contains("42"));
        let e = ValueSetError::Cancelled { phase: "export" };
        assert!(e.to_string().contains("cancelled during export"));
    }
}
