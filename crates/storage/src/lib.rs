//! # ind-storage
//!
//! Relational storage substrate for the spider-ind workspace: typed values
//! with the paper's canonical (`to_char`) rendering, schemas with
//! gold-standard foreign keys, columnar tables, per-column statistics, and
//! TSV persistence. A table *is* its column store ([`Column`]): each cell's
//! canonical bytes, parsed once at load or insert; [`Value`] is a view built
//! on request.
//!
//! This crate plays the role of the RDBMS the paper assumes: it holds the
//! undocumented database whose structure the discovery algorithms recover.
//! Nothing here looks at the declared foreign keys during discovery — those
//! exist solely for evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod column;
mod database;
mod error;
mod schema;
mod stats;
mod table;
pub mod tsv;
mod value;
mod workers;

pub use column::{Cells, Column};
pub use database::Database;
pub use error::{Result, StorageError};
pub use schema::{ColumnSchema, CompositeForeignKeyDef, ForeignKeyDef, QualifiedName, TableSchema};
pub use stats::{table_stats, ColumnStats};
pub use table::Table;
pub use value::{DataType, Value};
pub use workers::{default_workers, run_workers};
