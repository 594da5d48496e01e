//! Extraction of sorted distinct value sets from stored columns.
//!
//! This is step one of both external algorithms: "We first extract from the
//! database the sorted sets of distinct values of each attribute using SQL"
//! (Sec. 3). Here the "SQL" is a scan over a stored [`Column`], whose cells
//! already are the canonical renderings (`ind-storage` parsed them once, at
//! load or insert) and already lie back to back in the column's buffer. So
//! unary extraction is index-only: one pass (`index_cells`, the crate's only
//! loop over a column's cells for it) records where each non-NULL cell lies;
//! repeated values are dropped from the index by hash and only the distinct
//! ones are sorted, over the column's own bytes (`crate::arena`); and the
//! sorted distinct slices are drained straight into their sink — a value
//! stream ([`extract_with_sorter`]) or a flat in-memory set
//! ([`extract_memory_columns`]). No cell is copied before its sink.

use crate::block::IoOptions;
use crate::error::Result;
use crate::external_sort::{ExternalSorter, SortOptions, SortStats};
use crate::format::ValueFileWriter;
use crate::memory::{MemorySetBuilder, MemoryValueSet};
use crate::segment::SegmentWriter;
use crate::tuple::encode_tuple_into;
use ind_storage::Column;
use std::path::Path;

/// Extracts the sorted distinct canonical values of a column into memory,
/// one vector per value (tests and tooling; the pipeline keeps the flat
/// [`MemoryValueSet`]).
pub fn extract_sorted_distinct(column: &Column) -> Vec<Vec<u8>> {
    // lint: allow(hot_alloc) — the explicit copy-out for tests and tooling; never on the pipeline's path
    extract_memory_set(column).as_slice().to_vec()
}

/// One column extracted into memory: its sorted distinct value set and what
/// the same pass counted on the way.
#[derive(Debug, Clone)]
pub struct MemoryColumn {
    /// The column's sorted distinct canonical values.
    pub set: MemoryValueSet,
    /// Non-null occurrences, duplicates included (`|v(a)|`).
    pub non_null: u64,
}

/// The one pass of unary extraction: shows every cell of `column` to `seen`
/// in row order, NULLs included (the export's content hash), and every
/// non-NULL cell to `record` together with the offset in
/// [`Column::bytes`] at which it lies (the sink's index entry).
#[inline]
fn index_cells(
    column: &Column,
    mut seen: impl FnMut(Option<&[u8]>),
    mut record: impl FnMut(usize, &[u8]) -> Result<()>,
) -> Result<()> {
    let mut cells = column.cells();
    loop {
        let offset = cells.offset();
        let Some(cell) = cells.next() else {
            return Ok(());
        };
        seen(cell);
        if let Some(cell) = cell {
            record(offset, cell)?;
        }
    }
}

/// One column into the memory sink: its non-null cells are indexed where
/// they lie, the index is deduplicated and sorted over the column's bytes,
/// and the survivors are compacted into the flat set. The builder comes
/// back empty and warm.
fn extract_column(builder: &mut MemorySetBuilder, column: &Column) -> Result<MemoryColumn> {
    let mut set = builder.resident(column.bytes(), column.len());
    index_cells(column, |_| (), |offset, cell| set.record(offset, cell))?;
    let non_null = set.recorded();
    Ok(MemoryColumn {
        set: set.finish(),
        non_null,
    })
}

/// Extracts a column into a [`MemoryValueSet`]. A [`Column`] holds at most
/// `u32::MAX` rendered bytes, which is the flat set's own bound, so this
/// form has nothing to report.
pub fn extract_memory_set(column: &Column) -> MemoryValueSet {
    extract_column(&mut MemorySetBuilder::default(), column)
        // lint: allow(no_unwrap) — a column's bytes fit the flat set's addressing by construction
        .expect("a stored column fits a flat set")
        .set
}

/// Where an extracted set's values come from: one stored column, or a group
/// of columns of one table whose rows are read as tuples.
#[derive(Debug, Clone)]
pub enum Source<'db> {
    /// One stored column: its non-NULL cells.
    Column(&'db Column),
    /// Columns of one table (equal lengths, at most [`MAX_COMPOSITE_ARITY`]):
    /// one entry per row whose components are all non-NULL, encoded with the
    /// order-preserving tuple encoding ([`crate::encode_tuple`]) so the sorted
    /// distinct set compares exactly like the tuple sequence.
    Group(Vec<&'db Column>),
}

impl Source<'_> {
    /// Rows of the owning table.
    pub fn rows(&self) -> u64 {
        match self {
            Source::Column(column) => column.len() as u64,
            Source::Group(columns) => columns[0].len() as u64,
        }
    }

    /// Extract → sort → write the source's values into `writer` through a
    /// caller-owned sorter (one warm arena serves a whole export); the
    /// writer is left unsealed. A group's tuples are encoded **directly
    /// into the arena** ([`ExternalSorter::push_with`]): no scratch buffer,
    /// no per-row tuple vector.
    pub(crate) fn sort_into(
        &self,
        sorter: &mut ExternalSorter,
        writer: &mut ValueFileWriter,
    ) -> Result<SortStats> {
        match self {
            Source::Column(column) => extract_with_sorter(column, sorter, writer),
            Source::Group(columns) => {
                for_each_tuple(columns, |tuple| {
                    sorter.push_with(|arena| encode_tuple_into(tuple, arena))
                })?;
                sorter.finish_into(writer)
            }
        }
    }

    /// The source into the memory sink; the builder comes back empty and
    /// warm.
    fn extract(&self, builder: &mut MemorySetBuilder) -> Result<MemoryColumn> {
        match self {
            Source::Column(column) => extract_column(builder, column),
            Source::Group(columns) => {
                let mut non_null = 0;
                for_each_tuple(columns, |tuple| {
                    non_null += 1;
                    builder.push_with(|arena| encode_tuple_into(tuple, arena))
                })?;
                Ok(MemoryColumn {
                    set: builder.finish(),
                    non_null,
                })
            }
        }
    }
}

/// Extracts many sources into memory on `threads` workers (extractions are
/// mutually independent: index, sort, dedup, compact). Output order matches
/// input order; `threads <= 1` runs on the calling thread. Source `i` is
/// attribute `i`: its extraction runs under an [`ind_trace::SORT`] span with
/// that argument, parented to the caller's current span. A group's
/// `non_null` counts its rows with every component non-NULL.
///
/// Workers claim sources one at a time off a shared atomic index instead of
/// fixed chunks, so a few huge columns at one end of a skewed schema cannot
/// idle the other workers. Each worker owns one builder for all its
/// sources, dropped the moment the index runs dry.
///
/// The ambient cancel token ([`crate::cancel::check_ambient`]) is polled
/// once per source, under phase `export`; workers re-install the token the
/// caller had (thread-local ambient tokens stop at a spawn).
pub fn extract_memory_columns(sources: &[Source<'_>], threads: usize) -> Result<Vec<MemoryColumn>> {
    let span_parent = ind_trace::current_parent();
    let cancel = crate::cancel::ambient();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = threads.min(sources.len());
    let shares = ind_storage::run_workers(workers, |_| -> Result<Vec<(usize, MemoryColumn)>> {
        // lint: allow(hot_alloc) — once per worker: the token is an `Arc`
        let _ambient = crate::cancel::set_ambient(cancel.clone());
        let mut builder = MemorySetBuilder::default();
        // lint: allow(hot_alloc) — once per worker; one entry per source, not per cell
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(source) = sources.get(i) else {
                return Ok(done);
            };
            crate::cancel::check_ambient("export")?;
            let _span = ind_trace::start_under(ind_trace::SORT, i as u64, span_parent);
            done.push((i, source.extract(&mut builder)?));
        }
    });
    let mut extracted = Vec::with_capacity(sources.len());
    for share in shares {
        extracted.extend(share?);
    }
    // The shared index hands every source to exactly one worker.
    extracted.sort_unstable_by_key(|(i, _)| *i);
    // lint: allow(hot_alloc) — the result vector: one entry per source
    Ok(extracted.into_iter().map(|(_, column)| column).collect())
}

/// Hard cap on composite arity, comfortably above anything the levelwise
/// search reaches in practice (the candidate space dies out long before).
pub const MAX_COMPOSITE_ARITY: usize = 16;

/// Shows `push` the components of every row of `columns` — the cells at
/// that row, in position order, pointing into the columns' stores — whose
/// components are all non-NULL (tuples with NULL components carry no
/// inclusion evidence, mirroring how unary extraction drops NULL
/// occurrences).
fn for_each_tuple(columns: &[&Column], mut push: impl FnMut(&[&[u8]]) -> Result<()>) -> Result<()> {
    assert!(!columns.is_empty() && columns.len() <= MAX_COMPOSITE_ARITY);
    let rows = columns[0].len();
    debug_assert!(
        columns.iter().all(|c| c.len() == rows),
        "ragged column group"
    );
    let mut components: [&[u8]; MAX_COMPOSITE_ARITY] = [&[]; MAX_COMPOSITE_ARITY];
    'rows: for row in 0..rows {
        for (slot, column) in components.iter_mut().zip(columns) {
            let Some(cell) = column.cell(row) else {
                continue 'rows;
            };
            *slot = cell;
        }
        push(&components[..columns.len()])?;
    }
    Ok(())
}

/// Writes one stream through `fill` and publishes it atomically as the
/// value file `path`: a segment holding that one unnamed stream, so the
/// standalone entry points publish exactly the way the export does — minus
/// the trailer, which only named streams get.
fn publish_alone(
    path: &Path,
    io: &IoOptions,
    fill: impl FnOnce(&mut ValueFileWriter) -> Result<SortStats>,
) -> Result<SortStats> {
    let mut segment = SegmentWriter::create(path, io)?;
    let mut writer = segment.stream(None);
    let stats = fill(&mut writer)?;
    segment.seal(writer, None)?;
    segment.publish()?;
    Ok(stats)
}

/// Extracts a column group into a composite value file at `path` via the
/// external sorter — the on-disk counterpart of a [`Source::Group`]'s
/// in-memory extraction, producing a stream byte-identical to it — and
/// publishes it atomically.
pub fn extract_composite_to_file(
    columns: &[&Column],
    path: &Path,
    spill_dir: &Path,
    options: SortOptions,
) -> Result<SortStats> {
    let mut sorter = ExternalSorter::new(spill_dir, options)?;
    // lint: allow(hot_alloc) — once per file: the options are a few `Arc`s
    let io = sorter.options().io.clone();
    publish_alone(path, &io, |writer| {
        // lint: allow(hot_alloc) — once per file: the group's column list
        Source::Group(columns.to_vec()).sort_into(&mut sorter, writer)
    })
}

/// Extracts a column into a value file at `path` via the external sorter,
/// spilling into `spill_dir` when the memory budget is exceeded, and
/// publishes it atomically.
pub fn extract_to_file(
    column: &Column,
    path: &Path,
    spill_dir: &Path,
    options: SortOptions,
) -> Result<SortStats> {
    let mut sorter = ExternalSorter::new(spill_dir, options)?;
    // lint: allow(hot_alloc) — once per file: the options are a few `Arc`s
    let io = sorter.options().io.clone();
    publish_alone(path, &io, |writer| {
        extract_with_sorter(column, &mut sorter, writer)
    })
}

/// Content hash of one source column, 64 bits, eight input bytes per
/// multiply: every cell in row order as a stream of little-endian words —
/// a NULL is the one word no length can equal, a non-NULL its byte length
/// followed by its canonical rendering (the exact bytes the export writes)
/// in 8-byte chunks, the last zero-padded. The length word says how many
/// body words follow, which keeps concatenation and padding ambiguity out.
/// Each word is folded in by a 64×64→128-bit multiply whose halves are
/// xored together, so every input bit reaches both ends of the state (a
/// plain wrapping multiply only ever carries upward). Deterministic across
/// runs and thread counts by construction. The export feeds it from the
/// pass that indexes each cell for the sorter; [`hash_column`] is the same
/// hash computed standalone, for the resume-side staleness check.
#[derive(Debug, Clone)]
struct ColumnHasher(u64);

impl ColumnHasher {
    const NULL_WORD: u64 = u64::MAX;

    fn new() -> Self {
        ColumnHasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// One cell as a column stores it: `None` for NULL, else its canonical
    /// rendering.
    fn cell(&mut self, cell: Option<&[u8]>) {
        let Some(rendered) = cell else {
            return self.word(Self::NULL_WORD);
        };
        self.word(rendered.len() as u64);
        let (words, tail) = rendered.as_chunks::<8>();
        for word in words {
            self.word(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`ColumnHasher`] over a whole stored column.
pub(crate) fn hash_column(column: &Column) -> u64 {
    let mut hash = ColumnHasher::new();
    column.cells().for_each(|cell| hash.cell(cell));
    hash.finish()
}

/// [`extract_to_file`] through a caller-owned sorter, so one warm index
/// serves a whole export, into a caller-owned writer — typically one stream
/// of a segment, so an interrupted extraction leaves nothing a reader or
/// a resume can see until its batch is published. The writer is left
/// unsealed. No cell is copied or rendered: the pass that feeds the
/// column's content hash ([`SortStats::source_hash`]) records one index
/// entry per non-NULL cell pointing into the column's own buffer, the
/// sorter permutes that index and the sorted distinct slices go straight
/// to the writer. The sorter's budget therefore charges 16 bytes per
/// non-NULL row, and a column spills only when that index alone outgrows
/// it ([`SortOptions::memory_budget_bytes`]). After the first attribute the
/// steady-state cost of another column (of at most as many rows) is zero
/// sorter allocations.
pub(crate) fn extract_with_sorter(
    column: &Column,
    sorter: &mut ExternalSorter,
    writer: &mut ValueFileWriter,
) -> Result<SortStats> {
    let mut hash = ColumnHasher::new();
    let mut sort = sorter.resident(column.bytes(), column.len());
    index_cells(
        column,
        |cell| hash.cell(cell),
        |offset, cell| sort.record(offset, cell),
    )?;
    let mut stats = sort.finish_into(writer)?;
    stats.source_hash = hash.finish();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{collect_cursor, ValueCursor};
    use crate::format::ValueFileReader;
    use ind_storage::Value;
    use ind_testkit::TempDir;

    fn stored(values: &[Value]) -> Column {
        Column::from_values(values)
    }

    /// The in-memory set of the group `(a, b)`.
    fn group_set(a: &Column, b: &Column) -> MemoryValueSet {
        let group = Source::Group(vec![a, b]);
        extract_memory_columns(&[group], 1).unwrap().remove(0).set
    }

    fn column() -> Column {
        stored(&[
            Value::Integer(10),
            Value::Null,
            Value::Text("apple".into()),
            Value::Integer(9),
            Value::Integer(10),
            Value::Null,
        ])
    }

    #[test]
    fn nulls_and_duplicates_are_dropped() {
        let s = extract_sorted_distinct(&column());
        // Lexicographic: "10" < "9" < "apple".
        assert_eq!(s, vec![b"10".to_vec(), b"9".to_vec(), b"apple".to_vec()]);
    }

    #[test]
    fn memory_and_file_extraction_agree() {
        let dir = TempDir::new("extract-agree");
        let col = column();
        let mem = extract_memory_set(&col);
        let stats = extract_to_file(
            &col,
            &dir.join("col.indv"),
            &dir.join("spill"),
            SortOptions::default(),
        )
        .unwrap();
        let file_values =
            collect_cursor(ValueFileReader::open(&dir.join("col.indv")).unwrap()).unwrap();
        assert_eq!(file_values, mem.as_slice());
        assert_eq!(stats.distinct, mem.len());
        assert_eq!(stats.pushed, 4, "non-null occurrences");
        assert_eq!(stats.min.as_deref(), Some(b"10".as_slice()));
        assert_eq!(stats.max.as_deref(), Some(b"apple".as_slice()));
    }

    #[test]
    fn the_extraction_pass_hashes_the_column_like_the_standalone_hash() {
        let dir = TempDir::new("extract-hash");
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(64)).unwrap();
        let columns: Vec<Column> = vec![
            column(),
            stored(&[]),
            stored(&[Value::Null]),
            stored(&[Value::Null, Value::Null]),
            stored(&[Value::from(""), Value::Null, Value::from("")]),
            // Concatenation ambiguity: same bytes, different cell borders.
            stored(&[Value::from("ab"), Value::from("c")]),
            stored(&[Value::from("a"), Value::from("bc")]),
            stored(&[Value::from("abc")]),
            // Ten times the four entries a 64-byte budget holds, NULLs in
            // between: the hash must not depend on where the index
            // overflowed and was flushed.
            stored(
                &(0..60i64)
                    .map(|i| match i % 3 {
                        0 => Value::Null,
                        _ => Value::Text(format!("value-{i:04}")),
                    })
                    .collect::<Vec<_>>(),
            ),
        ];
        let mut hashes = Vec::new();
        for (i, col) in columns.iter().enumerate() {
            let mut writer = ValueFileWriter::create(&dir.join(&format!("c{i}.indv"))).unwrap();
            let stats = extract_with_sorter(col, &mut sorter, &mut writer).unwrap();
            assert_eq!(stats.source_hash, hash_column(col), "column {i}");
            // A run per four entries the index had to make room for.
            assert_eq!(stats.runs, (stats.pushed as usize).saturating_sub(1) / 4);
            hashes.push(stats.source_hash);
        }
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), columns.len(), "all nine columns differ");
    }

    #[test]
    fn the_budget_charges_index_entries_not_cell_bytes() {
        // A stored column's cells are sorted where they lie, so what the
        // sorter allocates — and the budget bounds — is 16 bytes per
        // non-NULL row: 4 MB of cells sort in memory under 64 KiB, while a
        // short-valued column of more rows than the budget has entries for
        // spills, and both agree with the memory sink.
        let dir = TempDir::new("extract-budget");
        let budget = 64 << 10;
        let wide: Vec<Value> = (0..1000u32)
            .map(|i| Value::Text(format!("{:04}", i % 900).repeat(1024)))
            .collect();
        let long: Vec<Value> = (0..20_000i64)
            .map(|i| Value::Integer(i * 7919 % 15_000))
            .collect();
        for (name, values, spills) in [("wide", wide, false), ("long", long, true)] {
            let column = stored(&values);
            let path = dir.join(&format!("{name}.indv"));
            let stats = extract_to_file(
                &column,
                &path,
                &dir.join("spill"),
                SortOptions::with_memory_budget(budget),
            )
            .unwrap();
            assert!(stats.arena_bytes <= budget as u64, "{name}: {stats:?}");
            if spills {
                assert!(stats.runs >= 4, "{name}: {} runs", stats.runs);
                assert!(stats.key_compares > 0, "{name}: the spill merge ran");
            } else {
                assert_eq!(stats.runs, 0, "{name}: 16 KB of index fits 64 KiB");
                // Beside it, the hash table: 2,048 four-byte slots.
                assert_eq!(stats.arena_bytes, 16 * 1000 + 2048 * 4, "{name}");
            }
            let memory = extract_memory_set(&column);
            assert_eq!(stats.distinct, memory.len(), "{name}");
            let file = collect_cursor(ValueFileReader::open(&path).unwrap()).unwrap();
            assert_eq!(file, memory.as_slice(), "{name}");
        }
    }

    #[test]
    fn parallel_memory_extraction_matches_sequential() {
        let columns: Vec<Column> = (0..9)
            .map(|i| {
                let values: Vec<Value> = (0..40)
                    .map(|j| match (i + j) % 5 {
                        0 => Value::Null,
                        n => Value::Integer(i64::from(n * j % 11)),
                    })
                    .collect();
                stored(&values)
            })
            .collect();
        let sources: Vec<Source> = columns.iter().map(Source::Column).collect();
        let sequential: Vec<_> = columns.iter().map(extract_memory_set).collect();
        for threads in [0usize, 1, 2, 4, 16] {
            let parallel = extract_memory_columns(&sources, threads).unwrap();
            assert_eq!(parallel.len(), sequential.len(), "threads={threads}");
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.set.as_slice(), s.as_slice(), "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_extraction_survives_skewed_column_sizes() {
        // A few huge columns at the front and many tiny ones behind them:
        // with fixed chunking one worker owned all the giants; the
        // work-stealing index must still produce the sequential answer in
        // order, at every thread count from 1 to 8.
        let columns: Vec<Column> = (0..17)
            .map(|i| {
                let rows = if i < 2 { 4000 } else { 5 };
                let values: Vec<Value> = (0..rows)
                    .map(|j| match (i + j) % 7 {
                        0 => Value::Null,
                        n => Value::Integer(i64::from((n * j) % 257)),
                    })
                    .collect();
                stored(&values)
            })
            .collect();
        let sources: Vec<Source> = columns.iter().map(Source::Column).collect();
        let sequential: Vec<_> = columns.iter().map(extract_memory_set).collect();
        for threads in 1usize..=8 {
            let parallel = extract_memory_columns(&sources, threads).unwrap();
            assert_eq!(parallel.len(), sequential.len(), "threads={threads}");
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    p.set.as_slice(),
                    s.as_slice(),
                    "threads={threads}, column {i}"
                );
                let non_null = columns[i].cells().flatten().count();
                assert_eq!(p.non_null, non_null as u64, "threads={threads}, column {i}");
            }
        }
    }

    #[test]
    fn composite_extraction_skips_null_rows_and_dedups() {
        use crate::tuple::decode_tuple;
        let a = stored(&[
            Value::Integer(1),
            Value::Integer(1),
            Value::Integer(2),
            Value::Null,
            Value::Integer(3),
        ]);
        let b = stored(&[
            Value::Text("x".into()),
            Value::Text("x".into()), // duplicate pair (1, x)
            Value::Text("x".into()),
            Value::Text("y".into()), // dropped: NULL in `a`
            Value::Null,             // dropped: NULL in `b`
        ]);
        let set = group_set(&a, &b);
        let decoded: Vec<Vec<Vec<u8>>> = set
            .as_slice()
            .iter()
            .map(|t| decode_tuple(t).unwrap())
            .collect();
        assert_eq!(
            decoded,
            vec![
                vec![b"1".to_vec(), b"x".to_vec()],
                vec![b"2".to_vec(), b"x".to_vec()],
            ]
        );
    }

    #[test]
    fn composite_memory_and_file_extraction_agree() {
        let dir = TempDir::new("extract-composite-agree");
        let a: Vec<Value> = (0..40i64).map(|i| Value::Integer(i % 7)).collect();
        let b: Vec<Value> = (0..40i64)
            .map(|i| {
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Text(format!("t{}", i % 5))
                }
            })
            .collect();
        let (a, b) = (stored(&a), stored(&b));
        let mem = group_set(&a, &b);
        let stats = extract_composite_to_file(
            &[&a, &b],
            &dir.join("pair.indv"),
            &dir.join("spill"),
            SortOptions::default(),
        )
        .unwrap();
        let file_values =
            collect_cursor(ValueFileReader::open(&dir.join("pair.indv")).unwrap()).unwrap();
        assert_eq!(file_values, mem.as_slice());
        assert_eq!(stats.distinct, mem.len());
        assert_eq!(stats.pushed, 36, "40 rows minus 4 NULL-component rows");
    }

    #[test]
    fn composite_stream_orders_like_tuples() {
        use crate::tuple::decode_tuple;
        // Values whose canonical renderings share prefixes: the encoded
        // stream must sort by (first component, then second), not by the
        // raw concatenation.
        let a = stored(&["ab".into(), "b".into(), "a".into()]);
        let b = stored(&["z".into(), "a".into(), "bz".into()]);
        let set = group_set(&a, &b);
        let decoded: Vec<Vec<Vec<u8>>> = set
            .as_slice()
            .iter()
            .map(|t| decode_tuple(t).unwrap())
            .collect();
        assert_eq!(
            decoded,
            vec![
                vec![b"a".to_vec(), b"bz".to_vec()],
                vec![b"ab".to_vec(), b"z".to_vec()],
                vec![b"b".to_vec(), b"a".to_vec()],
            ]
        );
    }

    #[test]
    fn all_null_column_yields_empty_set() {
        let dir = TempDir::new("extract-null");
        let col = stored(&[Value::Null, Value::Null]);
        assert!(extract_sorted_distinct(&col).is_empty());
        for (column, non_null) in [
            (col.clone(), 0),
            (stored(&[]), 0),
            (stored(&[Value::from("")]), 1),
        ] {
            let extracted = extract_memory_columns(&[Source::Column(&column)], 1)
                .unwrap()
                .remove(0);
            assert_eq!(extracted.non_null, non_null);
            assert_eq!(extracted.set.len(), non_null, "the empty string is a value");
            let mut cursor = extracted.set.cursor();
            assert_eq!(cursor.advance().unwrap(), non_null == 1);
            assert!(!cursor.advance().unwrap());
        }
        let stats = extract_to_file(
            &col,
            &dir.join("n.indv"),
            &dir.join("spill"),
            SortOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.distinct, 0);
        assert_eq!(ValueFileReader::open(&dir.join("n.indv")).unwrap().len(), 0);
    }

    #[test]
    fn column_hash_tracks_content_not_layout() {
        use ind_storage::Value;
        let hash = |values: &[Value]| hash_column(&Column::from_values(values));
        let a = [Value::Integer(1), Value::Null, Value::from("xy")];
        assert_eq!(hash(&a), hash(&a.clone()));
        let c = [Value::Integer(1), Value::Null, Value::from("xz")];
        assert_ne!(hash(&a), hash(&c));
        // The hash is of the canonical bytes, whatever type declared them.
        assert_eq!(hash(&[Value::Integer(1)]), hash(&[Value::from("1")]));
        // Length prefixes keep concatenation ambiguity out of the hash.
        let d = [Value::from("ab"), Value::from("c")];
        let e = [Value::from("a"), Value::from("bc")];
        assert_ne!(hash(&d), hash(&e));
        assert_ne!(
            hash(&[Value::Null]),
            hash(&[]),
            "nulls are part of the content"
        );
    }

    #[test]
    fn column_hasher_word_stream_is_unambiguous() {
        let hash = |cells: &[Option<&[u8]>]| {
            let mut h = ColumnHasher::new();
            cells.iter().for_each(|cell| h.cell(*cell));
            h.finish()
        };
        // Zero padding of the tail never aliases real zero bytes, on either
        // side of a word boundary.
        assert_ne!(hash(&[Some(b"ab")]), hash(&[Some(b"ab\0")]));
        assert_ne!(hash(&[Some(b"12345678")]), hash(&[Some(b"12345678\0")]));
        assert_ne!(hash(&[Some(b"")]), hash(&[Some(b"\0")]));
        // A NULL is not a value of all-ones bytes, nor an empty value.
        assert_ne!(hash(&[None]), hash(&[Some(&[0xFF; 8])]));
        assert_ne!(hash(&[None]), hash(&[Some(b"")]));
        // Cell borders inside and across 8-byte words.
        assert_ne!(
            hash(&[Some(b"12345678"), Some(b"9")]),
            hash(&[Some(b"123456789")])
        );
        // The top bit of a word — all a wrapping multiply would keep of
        // it — must not cancel against the same bit one word later.
        let mut flipped = *b"aaaaaaaabbbbbbbb";
        flipped[7] ^= 0x80;
        flipped[15] ^= 0x80;
        assert_ne!(hash(&[Some(b"aaaaaaaabbbbbbbb")]), hash(&[Some(&flipped)]));
        // Order matters.
        assert_ne!(
            hash(&[Some(b"x"), Some(b"y")]),
            hash(&[Some(b"y"), Some(b"x")])
        );
    }
}
