//! # ind-valueset
//!
//! The sorted-value-set substrate beneath the paper's database-external
//! algorithms (Sec. 3): canonical byte-string value sets extracted per
//! attribute, persisted as counted, strictly-sorted value streams — one
//! per attribute, published a batch at a time as segments; a
//! block-oriented zero-copy I/O layer ([`BlockReader`], [`IoOptions`])
//! serving forward cursors straight out of large read blocks; and an
//! external merge sort standing in for the RDBMS's sort machinery. The
//! descriptors held no longer grow with cursors or runs, which is what hit
//! the operating-system limit on open files in Sec. 4.2: an export's
//! cursors share one descriptor per segment, and a spill merge reads all
//! of its runs through one descriptor.

#![warn(missing_docs)]

mod arena;
mod block;
pub mod cancel;
mod crc32c;
mod cursor;
mod error;
mod external_sort;
mod extract;
pub mod fault;
mod format;
mod frame;
mod manager;
mod memory;
mod segment;
mod tournament;
mod tuple;

pub use block::{BlockReader, IoOptions, ReadStats, DEFAULT_BLOCK_SIZE, MIN_BLOCK_SIZE};
pub use cancel::CancelToken;
pub use crc32c::{crc32c, Crc32c};
pub use cursor::{collect_cursor, ValueCursor, ValueSetProvider};
pub use error::{Result, ValueSetError};
pub use external_sort::{ExternalSorter, SortOptions, SortStats};
pub use extract::{
    extract_composite_to_file, extract_memory_columns, extract_memory_set, extract_sorted_distinct,
    extract_to_file, MemoryColumn, Source, MAX_COMPOSITE_ARITY,
};
pub use fault::FaultPlan;
pub use format::{write_value_file, ValueFileReader, ValueFileWriter};
pub use manager::{
    ExportOptions, ExportedAttribute, ExportedDatabase, FailedAttribute, ResumeMode,
};
pub use memory::{FlatValues, FlatValuesIter, MemoryCursor, MemoryProvider, MemoryValueSet};
pub use segment::{read_trailer, Extent, TrailerEntry, BATCH_MAX_BYTES};
pub use tournament::{compare_keys, key_prefix64, TournamentTree};
pub use tuple::{decode_tuple, encode_tuple, encode_tuple_into, tuple_arity};
