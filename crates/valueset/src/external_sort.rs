//! External merge sort with duplicate elimination.
//!
//! This is the stand-in for the RDBMS's sort machinery: the paper lets the
//! database produce sorted, distinct value sets ("using the RDBMS only for
//! tasks it is good at", Sec. 3) and ships them to files. Our sorter accepts
//! unsorted values, keeps a bounded in-memory buffer, spills sorted runs to
//! disk when the buffer fills, and k-way merges the runs (plus the final
//! buffer) into a strictly increasing output stream.
//!
//! A sort writes its runs back to back into **one spill file**, each run a
//! v2 stream at its own extent, and the merge reads every run through one
//! shared read descriptor — so a spill merge holds one descriptor at any
//! fan-in, and the operating system's open-file limit never bounds how many
//! runs a column may spill. Runs are scratch: no fsync, no rename, no
//! trailer. The file is created at the sort's first spill and removed when
//! the sort finishes or resets.
//!
//! # Index-backed, allocation-free in the steady state
//!
//! What is sorted is a flat `(prefix, offset, len)` index over one byte
//! buffer — not one heap `Vec<u8>` per value. A sort first drops repeated
//! values from the index by hash, keeping each first occurrence at the
//! front of the same index, then runs `sort_unstable_by` over the distinct
//! entries left, comparing the cached keys and, where they cannot tell,
//! slices of the buffer in place; the bytes never move (`crate::arena`,
//! shared with the in-memory set builder). The hash table is at most
//! 128 KiB and charged to the budget: it is allocated only when it fits
//! beside the arena and index already held, and freed when they need the
//! room, so it never moves a spill — without it the index is sorted and
//! deduplicated whole. The sorter adds the budget and the spill, for two
//! kinds of input:
//!
//! * **Resident values** — the cells of a stored column, which already lie
//!   back to back in the column's buffer. The resident entry point (what
//!   [`crate::extract_with_sorter`] drives) indexes them where they lie: no
//!   cell is copied, and the budget charges what the sorter allocates —
//!   16 index bytes per value, sized once from the column's row count and
//!   clamped to the budget. Only a column whose *index* outgrows the budget
//!   spills (more than budget / 16 non-NULL rows); its runs are written
//!   from the borrowed bytes.
//! * **Pushed values** ([`ExternalSorter::push`],
//!   [`ExternalSorter::push_with`]) — values that exist nowhere yet, such
//!   as composite tuples. They land in the sorter's own growable **arena**
//!   (`Vec<u8>`), which [`ExternalSorter::push_with`] lets callers render
//!   into directly — no intermediate scratch vector, no copy. The budget
//!   charges what the allocator actually handed out (arena capacity plus
//!   index capacity), and both vectors grow through budget-clamped
//!   `reserve_exact` steps so the footprint is honoured within one growth
//!   granule; the one unclamped growth (a single value larger than the
//!   budget, or a rendering longer than every rendering before it) is
//!   transient — capacity shrinks back inside the clamp at the next spill
//!   or reset.
//!
//! The spill-phase k-way merge mirrors the zero-allocation SPIDER engine:
//! the same keyed tournament tree (`crate::tournament`), whose slots are run
//! indices beside the normalized key of each run's current value — compared
//! as integers, by the cursors' zero-copy `current()` slices only where the
//! keys cannot tell — with duplicate elimination
//! against the last *written* record through a single reusable buffer — no
//! per-record `to_vec`, no per-distinct `clone`.
//!
//! [`ExternalSorter::finish_into`] resets the sorter (keeping its index,
//! arena and hash table), so one sorter can serve a whole export: after the
//! first attribute the steady-state cost of sorting another column is zero
//! heap allocations.

use crate::arena::{self, Entry, ValueArena, ENTRY_BYTES, SLOT_BYTES};
use crate::block::IoOptions;
use crate::cursor::ValueCursor;
use crate::error::{Result, ValueSetError};
use crate::format::{ValueFileReader, ValueFileWriter};
use crate::segment::Extent;
use crate::tournament::TournamentTree;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The spill file's name inside the sorter's spill directory.
const SPILL_FILE: &str = "runs.indv";

/// Tuning for the external sorter.
#[derive(Debug, Clone)]
pub struct SortOptions {
    /// In-memory limit in bytes before a spill, charged by the capacity the
    /// sorter actually allocated and honoured within one growth granule:
    /// 16 index bytes per non-NULL row for a stored column (its cells are
    /// sorted where they lie, so a column spills only past budget / 16
    /// rows), arena bytes plus index bytes for pushed values (composite
    /// tuples). The hash table that drops repeats before a sort (up to
    /// 128 KiB) is charged too, but only ever takes room the values left:
    /// it is allocated when it fits beside them and freed when they grow,
    /// so the budget's spill points are the values' alone. The buffer always
    /// admits at least one value. One sorter's budget: an export with
    /// several workers runs one sorter per worker.
    pub memory_budget_bytes: usize,
    /// Block size for spill-run writers and the merge-phase readers.
    pub io: IoOptions,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions {
            memory_budget_bytes: Self::DEFAULT_MEMORY_BUDGET,
            io: IoOptions::default(),
        }
    }
}

impl SortOptions {
    /// Default memory budget: a stored column sorts fully in memory up to
    /// 4.19 M non-NULL rows (64 MiB / 16 B), whatever its values' size.
    pub const DEFAULT_MEMORY_BUDGET: usize = 64 << 20;

    /// Budget override with default I/O options.
    pub fn with_memory_budget(memory_budget_bytes: usize) -> Self {
        SortOptions {
            memory_budget_bytes,
            ..Default::default()
        }
    }
}

/// Summary of one sorted attribute extraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Values pushed in (non-null occurrences, with duplicates).
    pub pushed: u64,
    /// Distinct values written out.
    pub distinct: u64,
    /// Spill runs created (0 = fully in-memory).
    pub runs: usize,
    /// Final byte size of the output value file (header + records) —
    /// recorded so readers can size their block buffers without `fstat`.
    pub file_bytes: u64,
    /// High-water mark of the budget-charged footprint (arena capacity +
    /// index capacity + hash-table capacity; no arena for resident columns)
    /// over the sorter's lifetime — the number the memory budget bounds.
    /// Persists across [`ExternalSorter::finish_into`] reuse, so a shared
    /// sorter reports its lifetime peak.
    pub arena_bytes: u64,
    /// Arena/index/hash-table capacity-growth events over the sorter's
    /// lifetime — the sorter's entire allocation traffic. A reused sorter
    /// stops growing once warm, so this stays constant while `pushed` keeps
    /// climbing.
    pub arena_grows: u64,
    /// Merge-tree comparisons resolved by the normalized key (8-byte
    /// big-endian prefix and length) alone (0 when the sort never spilled —
    /// the in-memory path uses the hash pass and `sort_unstable_by`, not
    /// the tree).
    pub key_compares: u64,
    /// Merge-tree comparisons that tied on the key and fell through to a
    /// full `memcmp` of the value slices.
    pub memcmp_compares: u64,
    /// Smallest output value, if any.
    pub min: Option<Vec<u8>>,
    /// Largest output value, if any.
    pub max: Option<Vec<u8>>,
    /// Content hash of the whole source column, NULLs included (the
    /// resume's staleness check). The sorter never sees NULLs, so it
    /// reports 0; [`crate::extract_with_sorter`] fills it in from the pass
    /// that indexes the cells.
    pub source_hash: u64,
}

/// Smallest arena growth step, so tiny budgets don't degenerate into
/// byte-at-a-time reallocation.
const MIN_GROW: usize = 64;

/// External sorter; push values, then [`ExternalSorter::finish_into`] a
/// value-file writer. The sorter resets after `finish_into` and keeps its
/// arena, so it can be reused for the next attribute without reallocating.
pub struct ExternalSorter {
    buf: ValueArena,
    options: SortOptions,
    spill_dir: PathBuf,
    spill_dir_created: bool,
    /// The spill file's path: `spill_dir`/[`SPILL_FILE`].
    spill_path: PathBuf,
    /// The spill file's write descriptor, held from the sort's first spill
    /// until its merge, finish or reset. The file exists exactly while
    /// this is `Some` or `runs` is not empty.
    spill_file: Option<Arc<File>>,
    /// The runs written into the spill file, back to back: each run's
    /// extent and byte size.
    runs: Vec<(Extent, u64)>,
    pushed: u64,
    peak_footprint: usize,
    grows: u64,
    /// Largest single value seen over the sorter's lifetime — the
    /// pre-reservation hint that keeps [`ExternalSorter::push_with`]
    /// renders inside the budget-clamped growth path.
    max_value_len: usize,
}

impl ExternalSorter {
    /// Creates a sorter spilling into `spill_dir` (created lazily on the
    /// first spill, so fully in-memory sorts never touch the directory).
    pub fn new(spill_dir: &Path, options: SortOptions) -> Result<Self> {
        Ok(ExternalSorter {
            // Empty vecs allocate nothing; growth is budget-accounted.
            buf: ValueArena::default(),
            options,
            spill_dir: spill_dir.to_path_buf(),
            spill_dir_created: false,
            spill_path: spill_dir.join(SPILL_FILE),
            spill_file: None,
            // lint: allow(hot_alloc) — constructor: empty; one entry per spill, not per record
            runs: Vec::new(),
            pushed: 0,
            peak_footprint: 0,
            grows: 0,
            max_value_len: 0,
        })
    }

    /// The options this sorter was built with (the export manager shares
    /// them with the output writer).
    pub fn options(&self) -> &SortOptions {
        &self.options
    }

    /// Adds one value (unsorted, duplicates welcome).
    pub fn push(&mut self, value: &[u8]) -> Result<()> {
        if self.should_spill(value.len()) {
            self.spill(None)?;
        }
        self.reserve_arena(value.len());
        let offset = self.buf.bytes.len();
        self.buf.bytes.extend_from_slice(value);
        self.push_entry(offset)
    }

    /// Adds one value by rendering it **directly into the arena**: `render`
    /// receives the arena and must only append. This is the entry point for
    /// values that are stored nowhere yet — tuple encodings and canonical
    /// renderings land in their final resting place with no intermediate
    /// scratch vector. (A stored column's cells are not pushed at all:
    /// [`crate::extract_with_sorter`] sorts them where they lie.)
    pub fn push_with(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        // The rendered length is unknown up front, so the largest rendering
        // seen so far stands in for it: when values are already buffered and
        // one more of that size no longer fits the budget, spill first, then
        // pre-grow through the clamped path for it, so the render itself
        // does not grow the arena through `Vec`'s unclamped doubling.
        //
        // A hint no empty buffer could hold (a giant seen earlier) predicts
        // nothing and would spill every value on its own: then the index
        // projection alone decides (the budget always admits one more
        // value), and the reservation stops at the budget room left — a
        // lifetime-max giant may only overshoot through its own render
        // (counted below, clamped back at the next spill or reset), never
        // pin every later reservation past the budget.
        let budget = self.options.memory_budget_bytes;
        let hint = Some(self.max_value_len).filter(|len| len.saturating_add(ENTRY_BYTES) <= budget);
        if self.should_spill(hint.unwrap_or(0)) {
            self.spill(None)?;
        }
        let reserve = hint.unwrap_or_else(|| {
            budget
                .saturating_sub(self.buf.index.capacity() * ENTRY_BYTES)
                .saturating_sub(self.buf.bytes.len())
        });
        self.reserve_arena(reserve);
        let capacity_before = self.buf.bytes.capacity();
        let offset = self.buf.bytes.len();
        render(&mut self.buf.bytes);
        debug_assert!(self.buf.bytes.len() >= offset, "render must only append");
        if self.buf.bytes.capacity() != capacity_before {
            self.fit_table(self.buf.bytes.capacity() + self.buf.index.capacity() * ENTRY_BYTES);
            self.grows += 1;
            self.note_footprint();
        }
        self.push_entry(offset)
    }

    /// True when admitting `incoming` more bytes (plus one index entry)
    /// would push the *used* footprint past the budget. Capacity growth is
    /// separately clamped to the budget, so charged capacity tracks this
    /// projection within one growth granule.
    fn should_spill(&self, incoming: usize) -> bool {
        if self.buf.index.is_empty() {
            return false; // always admit at least one value
        }
        let used = self.buf.bytes.len() + incoming + (self.buf.index.len() + 1) * ENTRY_BYTES;
        used > self.options.memory_budget_bytes
            || self.buf.bytes.len() + incoming > u32::MAX as usize
    }

    /// Geometric growth target under the budget clamp: double (from at
    /// least `min_grow`), clamped to `share` — the budget room left for
    /// this vector — but never below `needed`, and never by less than an
    /// eighth of current capacity. The floor keeps growth geometric even
    /// when the clamp is exhausted (per-element exact reservations would
    /// turn quadratic in copied bytes); whatever it overshoots is at most
    /// one such granule and transient — capacity shrinks back inside the
    /// clamp at the next spill or reset.
    fn grow_target(capacity: usize, needed: usize, share: usize, min_grow: usize) -> usize {
        let floor = capacity + (capacity / 8).max(min_grow);
        (capacity.max(min_grow) * 2)
            .min(share)
            .max(needed)
            .max(floor)
    }

    /// Grows the arena for `extra` more bytes through [`Self::grow_target`].
    fn reserve_arena(&mut self, extra: usize) {
        let needed = self.buf.bytes.len() + extra;
        if needed <= self.buf.bytes.capacity() {
            return;
        }
        let share = self
            .options
            .memory_budget_bytes
            .saturating_sub(self.buf.index.capacity() * ENTRY_BYTES);
        let target = Self::grow_target(self.buf.bytes.capacity(), needed, share, MIN_GROW);
        self.fit_table(target + self.buf.index.capacity() * ENTRY_BYTES);
        self.buf.bytes.reserve_exact(target - self.buf.bytes.len());
        self.grows += 1;
        self.note_footprint();
    }

    /// Records the value at `arena[offset..]` in the index, growing the
    /// index under the same budget clamp as the arena.
    fn push_entry(&mut self, offset: usize) -> Result<()> {
        if self.buf.index.len() == self.buf.index.capacity() {
            let share = self
                .options
                .memory_budget_bytes
                .saturating_sub(self.buf.bytes.capacity())
                / ENTRY_BYTES;
            let target = Self::grow_target(
                self.buf.index.capacity(),
                self.buf.index.len() + 1,
                share,
                MIN_GROW / ENTRY_BYTES,
            );
            self.fit_table(self.buf.bytes.capacity() + target * ENTRY_BYTES);
            self.buf.index.reserve_exact(target - self.buf.index.len());
            self.grows += 1;
            self.note_footprint();
        }
        let len = self.buf.record(offset).ok_or_else(|| self.too_large())?;
        self.max_value_len = self.max_value_len.max(len);
        self.pushed += 1;
        Ok(())
    }

    /// Clears the buffered values and clamps any over-budget capacity back
    /// down (unclamped growths — a giant value, a render that outgrew its
    /// reservation — are transient by construction: the overshoot lasts at
    /// most until the data that forced it is spilled or flushed).
    fn reset_buffers(&mut self) {
        self.buf.clear();
        let budget = self.options.memory_budget_bytes;
        if self.buf.bytes.capacity() + self.buf.index.capacity() * ENTRY_BYTES > budget {
            let index_bytes = self.buf.index.capacity() * ENTRY_BYTES;
            self.buf.bytes.shrink_to(budget.saturating_sub(index_bytes));
        }
    }

    /// Discards everything buffered or spilled so far: clears the arena
    /// and index (keeping warm capacity), removes the spill file
    /// best-effort, and zeroes the pushed counter. The keep-going export
    /// path calls this after an attribute fails *mid-extraction* — before
    /// [`ExternalSorter::finish_into`] could run its own reset — so the
    /// next attribute starts from a clean sorter with no stale values and
    /// no leaked spill file.
    pub fn reset(&mut self) {
        // lint: allow(swallowed_result) — quarantine cleanup: the attribute already failed, its runs are best-effort garbage
        let _ = self.remove_spill_file();
        self.reset_buffers();
        self.pushed = 0;
    }

    /// Forgets the runs and, when the spill file exists, closes its write
    /// descriptor and removes it.
    fn remove_spill_file(&mut self) -> std::io::Result<()> {
        let exists = self.spill_file.take().is_some() || !self.runs.is_empty();
        self.runs.clear();
        if !exists {
            return Ok(());
        }
        std::fs::remove_file(&self.spill_path)
            .map_err(|e| crate::fault::annotate(&self.spill_path, e))
    }

    fn too_large(&self) -> ValueSetError {
        ValueSetError::Corrupt {
            // lint: allow(hot_alloc) — cold error-construction path, never on a successful sort
            context: self.spill_dir.display().to_string(),
            detail: "sorter arena would exceed u32::MAX bytes".into(),
        }
    }

    #[inline]
    fn note_footprint(&mut self) {
        let footprint = self.buf.bytes.capacity()
            + self.buf.index.capacity() * ENTRY_BYTES
            + self.buf.table.capacity() * SLOT_BYTES;
        self.peak_footprint = self.peak_footprint.max(footprint);
    }

    /// Frees the hash table when it no longer fits the budget beside
    /// `footprint` bytes of arena and index capacity — called before either
    /// grows, so the table never holds budget the values need.
    fn fit_table(&mut self, footprint: usize) {
        let table = self.buf.table.capacity() * SLOT_BYTES;
        if footprint + table > self.options.memory_budget_bytes {
            self.buf.table.clear();
            self.buf.table.shrink_to_fit();
        }
    }

    /// Sorts and deduplicates the index over `bytes` (the resident buffer
    /// or the arena's): repeats are dropped by hash first when the table
    /// fits the budget beside the arena and index capacity already held,
    /// and the table's growth is charged like theirs. Otherwise the index
    /// is sorted and deduplicated whole, so the table never moves a spill.
    fn sort_dedup(&mut self, resident: Option<&[u8]>) {
        let held = self.buf.bytes.capacity() + self.buf.index.capacity() * ENTRY_BYTES;
        self.fit_table(held);
        let room = self.options.memory_budget_bytes.saturating_sub(held);
        let wanted = arena::table_slots(self.buf.index.len());
        let slots = if wanted * SLOT_BYTES <= room {
            wanted
        } else {
            0
        };
        let capacity = self.buf.table.capacity();
        let bytes = resident.unwrap_or(&self.buf.bytes);
        arena::sort_dedup(&mut self.buf.index, bytes, &mut self.buf.table, slots);
        if self.buf.table.capacity() != capacity {
            self.grows += 1;
            self.note_footprint();
        }
    }

    /// Sorts what the index holds and writes it out as one run. The values
    /// are read from `resident` — the buffer a resident sort indexes — or,
    /// when `None`, from the sorter's own arena.
    fn spill(&mut self, resident: Option<&[u8]>) -> Result<()> {
        let mut w = self.next_run()?;
        self.sort_dedup(resident);
        let bytes = resident.unwrap_or(&self.buf.bytes);
        for value in arena::values(&self.buf.index, bytes) {
            w.append(value)?;
        }
        self.runs.push(w.finish_extent()?);
        self.reset_buffers();
        ind_trace::add_counter(ind_trace::Counter::SpillRuns, 1);
        Ok(())
    }

    /// A writer of the next run, `run-NNNN` of the spill file, right after
    /// the last one; the first run creates the spill directory and file.
    fn next_run(&mut self) -> Result<ValueFileWriter> {
        let file = match &self.spill_file {
            Some(file) => Arc::clone(file),
            None => {
                if !self.spill_dir_created {
                    std::fs::create_dir_all(&self.spill_dir)?;
                    self.spill_dir_created = true;
                }
                crate::fault::check_open(&self.spill_path, self.options.io.fault.as_ref())?;
                let file = Arc::new(crate::fault::create_file(&self.spill_path)?);
                Arc::clone(self.spill_file.insert(file))
            }
        };
        let offset = self
            .runs
            .last()
            .map_or(0, |(extent, bytes)| extent.offset() + bytes);
        // lint: allow(hot_alloc) — once per spilled run, not per record
        let name = format!("run-{:04}", self.runs.len());
        let extent = Extent::new(&self.spill_path, offset, &name);
        Ok(ValueFileWriter::at(file, extent, &self.options.io))
    }

    /// The resident entry point: a sort of up to `rows` values that already
    /// lie in `bytes` (a stored column's buffer, which outlives the sort).
    /// Nothing is copied — each value is [`record`](ResidentSort::record)ed
    /// as one index entry pointing into `bytes` — so index entries are all
    /// the sorter allocates and all the budget charges: the index is sized
    /// here, once, for `rows` entries clamped to the budget (at least one),
    /// and never grows. When it fills, what it holds is sorted and spilled
    /// as a run read from `bytes`; a column of at most budget / 16 values
    /// never spills, whatever their size.
    pub(crate) fn resident<'a>(&'a mut self, bytes: &'a [u8], rows: usize) -> ResidentSort<'a> {
        debug_assert!(
            self.buf.index.is_empty() && self.runs.is_empty(),
            "a sorter runs one sort at a time"
        );
        let room = self
            .options
            .memory_budget_bytes
            .saturating_sub(self.buf.bytes.capacity());
        let entries = rows.min((room / ENTRY_BYTES).max(1));
        if self.buf.index.capacity() < entries {
            self.fit_table(self.buf.bytes.capacity() + entries * ENTRY_BYTES);
            self.buf.index.reserve_exact(entries);
            self.grows += 1;
            self.note_footprint();
        }
        ResidentSort {
            sorter: self,
            bytes,
        }
    }

    /// Merges everything into `writer` (strictly increasing, deduplicated)
    /// and removes the spill runs — a cleanup failure surfaces as an error
    /// (best-effort only when the merge itself already failed). The caller
    /// finishes the writer. The sorter resets afterwards, keeping its arena
    /// capacity, so it can be reused for the next attribute.
    pub fn finish_into(&mut self, writer: &mut ValueFileWriter) -> Result<SortStats> {
        self.finish_over(None, writer)
    }

    /// [`Self::finish_into`] over the buffer the index addresses:
    /// `resident`, or the sorter's own arena when `None`.
    fn finish_over(
        &mut self,
        resident: Option<&[u8]>,
        writer: &mut ValueFileWriter,
    ) -> Result<SortStats> {
        self.sort_dedup(resident);
        let bytes = resident.unwrap_or(&self.buf.bytes);

        let mut min = None;
        let mut distinct = 0u64;
        let mut emit = |value: &[u8], writer: &mut ValueFileWriter| -> Result<()> {
            if min.is_none() {
                // lint: allow(hot_alloc) — bounds capture: once per merged attribute (first value)
                min = Some(value.to_vec());
            }
            distinct += 1;
            writer.append(value)
        };

        let (mut key_compares, mut memcmp_compares) = (0, 0);
        let merged = if self.runs.is_empty() {
            (|| {
                for value in arena::values(&self.buf.index, bytes) {
                    emit(value, writer)?;
                }
                Ok(())
            })()
        } else {
            let _span = ind_trace::start(ind_trace::SPILL_MERGE);
            // Every run is written: the merge reads them through one
            // descriptor of its own, the only one the sort then holds.
            self.spill_file = None;
            let memory = MemorySource {
                index: &self.buf.index,
                bytes,
            };
            merge_runs(
                &self.spill_path,
                &self.runs,
                memory,
                &self.options.io,
                |v| emit(v, writer),
            )
            .map(|compares| (key_compares, memcmp_compares) = compares)
        };
        // Remove the spill file whatever the merge outcome; a merge error
        // wins, but a cleanup failure on a clean merge is surfaced too —
        // leaking spill files silently would defeat the disk budget. The
        // sorter resets on every exit path, so a caller that catches the
        // error still gets a clean sorter for the next attribute.
        let runs = self.runs.len();
        let cleanup = self.remove_spill_file();
        // The writer keeps the last value for its order check: the largest
        // this sort emitted, if it emitted any.
        let last = writer.last().filter(|_| distinct > 0);
        // lint: allow(hot_alloc) — bounds capture: once per merged attribute
        let max = last.map(|last| last.to_vec());
        let stats = SortStats {
            pushed: self.pushed,
            distinct,
            runs,
            file_bytes: writer.bytes_written(),
            arena_bytes: self.peak_footprint as u64,
            arena_grows: self.grows,
            key_compares,
            memcmp_compares,
            min,
            max,
            source_hash: 0,
        };
        self.reset_buffers();
        self.pushed = 0;
        merged?;
        cleanup?;
        Ok(stats)
    }
}

/// A resident sort in progress ([`ExternalSorter::resident`]): the sorter
/// plus the buffer every recorded value lies in. Holding the sorter
/// mutably, it keeps pushed and resident values out of one index.
pub(crate) struct ResidentSort<'a> {
    sorter: &'a mut ExternalSorter,
    bytes: &'a [u8],
}

impl ResidentSort<'_> {
    /// Adds `cell`, which lies at `offset` of the sort's buffer (unsorted,
    /// duplicates welcome), spilling a run first when the index is full.
    #[inline]
    pub(crate) fn record(&mut self, offset: usize, cell: &[u8]) -> Result<()> {
        let sorter = &mut *self.sorter;
        // `resident` sized the index inside the budget: it is never grown.
        if sorter.buf.index.len() == sorter.buf.index.capacity() {
            sorter.spill(Some(self.bytes))?;
        }
        let entry = Entry::resident(offset, cell, self.bytes).ok_or_else(|| sorter.too_large())?;
        sorter.buf.index.push(entry);
        sorter.pushed += 1;
        Ok(())
    }

    /// [`ExternalSorter::finish_into`] for the recorded values: the index —
    /// the last merge source beside any runs — is drained straight from the
    /// borrowed bytes into `writer`, and the sorter comes back reset.
    pub(crate) fn finish_into(self, writer: &mut ValueFileWriter) -> Result<SortStats> {
        self.sorter.finish_over(Some(self.bytes), writer)
    }
}

/// The sorted in-memory index and the bytes it addresses: the last source
/// of the spill merge.
#[derive(Clone, Copy)]
struct MemorySource<'a> {
    index: &'a [Entry],
    bytes: &'a [u8],
}

/// K-way merge of the spill runs — `runs`' extents of the spill file at
/// `path`, read through one descriptor opened here — plus the sorted
/// in-memory index, feeding each distinct value to `emit` in strictly
/// increasing order. Returns the tree's `(key_compares, memcmp_compares)`.
///
/// The tree is the same [`TournamentTree`] the SPIDER merge engine runs on:
/// slots are *source indices* (`0..runs.len()` the run readers,
/// `runs.len()` the in-memory index) held beside the normalized key of
/// the source's current value, so a replay compares integers in the tree
/// and reads the sources' zero-copy slices only where the keys cannot tell
/// (ties between equal values are broken by source index — total and
/// deterministic). Each record read costs one replay of its source's leaf.
/// Duplicate elimination compares against the last written record through
/// one reusable buffer.
fn merge_runs(
    path: &Path,
    runs: &[(Extent, u64)],
    memory: MemorySource<'_>,
    io: &IoOptions,
    mut emit: impl FnMut(&[u8]) -> Result<()>,
) -> Result<(u64, u64)> {
    let file = Arc::new(crate::format::open_counted(path, path, io)?);
    let mut sources = MergeSources {
        readers: Vec::with_capacity(runs.len()),
        memory,
        index_pos: 0,
    };
    // Each reader is told its run's own size, so it sizes its block from
    // the run, not from the rest of the file.
    for (extent, bytes) in runs {
        sources.readers.push(ValueFileReader::over(
            Arc::clone(&file),
            extent,
            io,
            *bytes,
        )?);
    }
    let mem_src = runs.len() as u32;

    let mut tree = TournamentTree::new(runs.len() + 1);
    for src in 0..mem_src {
        let live = sources.readers[src as usize].advance()?;
        tree.enter(src, live.then(|| sources.current(src)), |a, b| {
            sources.compare(a, b)
        });
    }
    tree.enter(
        mem_src,
        (!memory.index.is_empty()).then(|| sources.current(mem_src)),
        |a, b| sources.compare(a, b),
    );

    // lint: allow(hot_alloc) — reusable dedup buffer: grows to the longest value once, then reused
    let mut last: Vec<u8> = Vec::new();
    let mut wrote_any = false;
    while let Some(top) = tree.winner() {
        {
            let value = sources.current(top);
            if !wrote_any || last.as_slice() != value {
                emit(value)?;
                last.clear();
                last.extend_from_slice(value);
                wrote_any = true;
            }
        }
        let live = sources.advance(top)?;
        tree.replay(live.then(|| sources.current(top)), |a, b| {
            sources.compare(a, b)
        });
    }
    Ok((tree.key_compares(), tree.memcmp_compares()))
}

/// The merge's value sources: spill-run readers by index, then the sorted
/// in-memory index as one extra source.
struct MergeSources<'a> {
    readers: Vec<ValueFileReader>,
    memory: MemorySource<'a>,
    index_pos: usize,
}

impl MergeSources<'_> {
    /// Current value of source `src` — a zero-copy slice into the reader's
    /// block or into the indexed bytes.
    #[inline]
    fn current(&self, src: u32) -> &[u8] {
        match self.readers.get(src as usize) {
            Some(reader) => reader.current(),
            None => self.memory.index[self.index_pos].slice(self.memory.bytes),
        }
    }

    /// The tree's tie callback: the current values of `a` and `b` in full.
    #[inline]
    fn compare(&self, a: u32, b: u32) -> std::cmp::Ordering {
        self.current(a).cmp(self.current(b))
    }

    /// Advances source `src`; false when it is exhausted.
    fn advance(&mut self, src: u32) -> Result<bool> {
        match self.readers.get_mut(src as usize) {
            Some(reader) => reader.advance(),
            None => {
                self.index_pos += 1;
                Ok(self.index_pos < self.memory.index.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect_cursor;
    use crate::format::ValueFileReader;
    use ind_testkit::TempDir;

    fn sort_values(values: &[&[u8]], budget: usize) -> (Vec<Vec<u8>>, SortStats) {
        let dir = TempDir::new("extsort");
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(budget))
                .unwrap();
        for v in values {
            sorter.push(v).unwrap();
        }
        let out_path = dir.join("out.indv");
        let mut writer = ValueFileWriter::create(&out_path).unwrap();
        let stats = sorter.finish_into(&mut writer).unwrap();
        writer.finish().unwrap();
        let out = collect_cursor(ValueFileReader::open(&out_path).unwrap()).unwrap();
        (out, stats)
    }

    fn expected(values: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> = values.iter().map(|s| s.to_vec()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn in_memory_path() {
        let values: Vec<&[u8]> = vec![b"pear", b"apple", b"pear", b"fig"];
        let (out, stats) = sort_values(&values, 1 << 20);
        assert_eq!(out, expected(&values));
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.pushed, 4);
        assert_eq!(stats.distinct, 3);
        assert_eq!(stats.min.as_deref(), Some(b"apple".as_slice()));
        assert_eq!(stats.max.as_deref(), Some(b"pear".as_slice()));
    }

    #[test]
    fn the_max_is_the_last_value_written_on_every_path() {
        let raw: Vec<String> = (0..500).map(|i| format!("v{:03}", i % 137)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        for budget in [64, 1 << 20] {
            let (out, stats) = sort_values(&values, budget);
            assert_eq!(stats.runs > 0, budget == 64, "budget {budget}");
            assert_eq!(stats.max.as_deref(), out.last().map(Vec::as_slice));
            assert_eq!(stats.max.as_deref(), Some(b"v136".as_slice()));
        }
        let (out, stats) = sort_values(&[], 64);
        assert!(out.is_empty() && stats.max.is_none(), "an empty stream");
        // A writer that already holds values keeps them out of the bounds
        // of a sort that emits none.
        let dir = TempDir::new("extsort-max");
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(64)).unwrap();
        let mut writer = ValueFileWriter::create(&dir.join("out.indv")).unwrap();
        writer.append(b"held").unwrap();
        let stats = sorter.finish_into(&mut writer).unwrap();
        assert_eq!((stats.distinct, stats.min, stats.max), (0, None, None));
    }

    #[test]
    fn spill_runs_and_scratch_files_never_start_writeback() {
        let dir = TempDir::new("extsort-writeback");
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(64)).unwrap();
        let run = sorter.next_run().unwrap();
        assert_eq!(run.writeback_range(0, 64 << 20), None);
        let scratch = ValueFileWriter::create(&dir.join("out.indv")).unwrap();
        assert_eq!(scratch.writeback_range(0, 64 << 20), None);
    }

    #[test]
    fn spilling_path_matches_in_memory() {
        let raw: Vec<String> = (0..500).map(|i| format!("v{:03}", i % 137)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let (with_spill, stats) = sort_values(&values, 64); // force many spills
        assert!(stats.runs > 1, "expected spills, got {}", stats.runs);
        let (no_spill, _) = sort_values(&values, 1 << 20);
        assert_eq!(with_spill, no_spill);
        assert_eq!(with_spill, expected(&values));
    }

    #[test]
    fn spilling_with_tiny_io_blocks_matches() {
        // The I/O block size is pure tuning: spill runs written and merged
        // through 16-byte blocks must produce byte-identical output.
        let raw: Vec<String> = (0..300).map(|i| format!("val-{:03}", i % 97)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let dir = TempDir::new("extsort-tinyblock");
        let mut sorter = ExternalSorter::new(
            &dir.join("spill"),
            SortOptions {
                memory_budget_bytes: 64,
                io: crate::block::IoOptions::with_block_size(16),
            },
        )
        .unwrap();
        for v in &values {
            sorter.push(v).unwrap();
        }
        let out_path = dir.join("out.indv");
        let mut writer = ValueFileWriter::create(&out_path).unwrap();
        let stats = sorter.finish_into(&mut writer).unwrap();
        writer.finish().unwrap();
        assert!(stats.runs > 1, "budget of 64 bytes must spill");
        let out = collect_cursor(ValueFileReader::open(&out_path).unwrap()).unwrap();
        assert_eq!(out, expected(&values));
    }

    #[test]
    fn duplicates_across_runs_are_merged() {
        // Same value in every run must appear once.
        let raw: Vec<String> = (0..50).map(|i| format!("dup-or-{}", i % 2)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let (out, stats) = sort_values(&values, 16);
        assert!(stats.runs >= 2);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.distinct, 2);
    }

    #[test]
    fn empty_input() {
        let (out, stats) = sort_values(&[], 1024);
        assert!(out.is_empty());
        assert_eq!(stats.distinct, 0);
        assert_eq!(stats.min, None);
        assert_eq!(stats.max, None);
    }

    #[test]
    fn a_spill_merge_reads_every_run_through_one_descriptor() {
        // A 16-byte budget holds one index entry: every value is a run of
        // its own. However many runs there are, the merge opens the spill
        // file once, and the sort leaves the spill directory empty.
        let dir = TempDir::new("extsort-one-descriptor");
        let spill = dir.join("spill");
        let stats = crate::block::ReadStats::new();
        let options = SortOptions {
            memory_budget_bytes: 16,
            io: IoOptions::default().with_stats(stats.clone()),
        };
        let mut sorter = ExternalSorter::new(&spill, options).unwrap();
        let raw: Vec<String> = (0..300).map(|i| format!("v{:03}", (i * 7) % 211)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        for v in &values {
            sorter.push(v).unwrap();
        }
        let out_path = dir.join("out.indv");
        let mut w = ValueFileWriter::create(&out_path).unwrap();
        let before = stats.file_opens();
        let sorted = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert!(sorted.runs >= 100, "{} runs", sorted.runs);
        assert_eq!(stats.file_opens() - before, 1, "one descriptor per merge");
        let out = collect_cursor(ValueFileReader::open(&out_path).unwrap()).unwrap();
        assert_eq!(out, expected(&values));
        let leftovers = || std::fs::read_dir(&spill).unwrap().count();
        assert_eq!(leftovers(), 0, "finish_into removes the spill file");

        for v in &values {
            sorter.push(v).unwrap();
        }
        assert_eq!(leftovers(), 1, "the runs share one spill file");
        sorter.reset();
        assert_eq!(leftovers(), 0, "reset removes the spill file");
    }

    #[test]
    fn in_memory_sort_never_touches_the_spill_dir() {
        // The spill directory is created lazily; an in-memory sort must
        // not leave an empty directory behind.
        let dir = TempDir::new("extsort-lazydir");
        let spill = dir.join("spill");
        let mut sorter = ExternalSorter::new(&spill, SortOptions::default()).unwrap();
        sorter.push(b"a").unwrap();
        let mut w = ValueFileWriter::create(&dir.join("out.indv")).unwrap();
        sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert!(!spill.exists(), "no spill, no spill dir");
    }

    #[test]
    fn push_with_renders_directly_into_the_arena() {
        let dir = TempDir::new("extsort-pushwith");
        let mut sorter = ExternalSorter::new(&dir.join("spill"), SortOptions::default()).unwrap();
        for i in [3u32, 1, 2, 1] {
            sorter
                .push_with(|buf| buf.extend_from_slice(format!("v{i}").as_bytes()))
                .unwrap();
        }
        let out_path = dir.join("out.indv");
        let mut w = ValueFileWriter::create(&out_path).unwrap();
        let stats = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.pushed, 4);
        assert_eq!(stats.distinct, 3);
        let out = collect_cursor(ValueFileReader::open(&out_path).unwrap()).unwrap();
        assert_eq!(out, expected(&[b"v1", b"v2", b"v3"]));
    }

    #[test]
    fn budget_is_charged_by_capacity_within_one_granule() {
        // Regression for the old accounting (`len + size_of::<Vec<u8>>` per
        // value): at a 1 KiB budget the charged footprint — actual arena +
        // index *capacity* — must stay within the budget plus one growth
        // granule, across many values and spills.
        let budget = 1024;
        let raw: Vec<String> = (0..400).map(|i| format!("value-{i:04}")).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let (out, stats) = sort_values(&values, budget);
        assert_eq!(out, expected(&values));
        assert!(stats.runs > 1, "1 KiB budget over ~4.4 KB must spill");
        // One growth granule past the clamp: an eighth of capacity (or the
        // MIN_GROW floor) — the geometric floor that keeps near-clamp
        // growth from degenerating into quadratic exact reservations.
        let granule = (budget / 8 + MIN_GROW) as u64;
        assert!(
            stats.arena_bytes <= budget as u64 + granule,
            "footprint {} exceeds budget {budget} by more than one granule",
            stats.arena_bytes
        );
        assert!(stats.arena_grows > 0, "growth events are counted");
    }

    #[test]
    fn push_with_spills_before_a_render_would_outgrow_the_budget() {
        // `push_with` does not know a rendering's length up front. It used
        // to spill on the index projection alone, cap its reservation to
        // the room left and let the render double the arena past the clamp
        // — ~2x the budget on every cycle. The largest rendering so far now
        // stands in for the next one.
        let budget = 1 << 20;
        let value_len = 4096;
        let raw: Vec<Vec<u8>> = (0..1000u32)
            .map(|i| {
                let mut v = vec![b'a' + (i % 7) as u8; value_len];
                v[..4].copy_from_slice(&(i % 400).to_be_bytes());
                v
            })
            .collect();
        let values: Vec<&[u8]> = raw.iter().map(Vec::as_slice).collect();
        let dir = TempDir::new("extsort-pushwith-budget");
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(budget))
                .unwrap();
        for v in &values {
            sorter
                .push_with(|arena| arena.extend_from_slice(v))
                .unwrap();
        }
        let out_path = dir.join("out.indv");
        let mut w = ValueFileWriter::create(&out_path).unwrap();
        let stats = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert!(stats.runs >= 3, "~4 MB through 1 MiB must spill");
        let granule = budget / 8 + MIN_GROW;
        assert!(
            stats.arena_bytes as usize <= budget + value_len + granule,
            "footprint {} exceeds budget {budget} by more than one value and one granule",
            stats.arena_bytes
        );
        let (pushed, push_stats) = sort_values(&values, budget);
        let out = collect_cursor(ValueFileReader::open(&out_path).unwrap()).unwrap();
        assert_eq!(out, pushed);
        assert_eq!(out, expected(&values));
        assert_eq!(
            (stats.pushed, stats.distinct),
            (push_stats.pushed, push_stats.distinct)
        );

        // A giant no budget could hold must not turn the hint into "spill
        // every value": after it, small values batch up again.
        let mut sorter =
            ExternalSorter::new(&dir.join("spill2"), SortOptions::with_memory_budget(4096))
                .unwrap();
        let giant = vec![b'z'; 3 * 4096];
        sorter
            .push_with(|arena| arena.extend_from_slice(&giant))
            .unwrap();
        for i in 0..64u32 {
            sorter
                .push_with(|arena| arena.extend_from_slice(&i.to_be_bytes()))
                .unwrap();
        }
        let mut w = ValueFileWriter::create(&dir.join("giant.indv")).unwrap();
        let stats = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.distinct, 65);
        assert!(stats.runs <= 2, "{} runs for 64 small values", stats.runs);
    }

    #[test]
    fn oversized_single_value_is_still_admitted() {
        // One value larger than the whole budget: the buffer always admits
        // at least one value, so the sort must succeed (footprint exceeds
        // the budget for exactly that value).
        let big = vec![b'x'; 4096];
        let values: Vec<&[u8]> = vec![b"a", &big, b"b"];
        let (out, stats) = sort_values(&values, 64);
        assert_eq!(out, expected(&values));
        assert_eq!(stats.distinct, 3);
    }

    #[test]
    fn spill_boundary_at_every_record_cut() {
        // Fixed-size values make the spill point a pure function of the
        // budget: sweeping the budget one value-cost at a time moves the
        // run boundary across every record position, and each cut must
        // produce byte-identical output.
        let raw: Vec<String> = (0..24).map(|i| format!("{:04}", (i * 7) % 24)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let reference = expected(&values);
        let value_cost = 4 + ENTRY_BYTES; // fixed 4-byte bodies
        for cut in 1..=values.len() {
            let (out, stats) = sort_values(&values, cut * value_cost);
            assert_eq!(out, reference, "cut after {cut} records");
            if cut < values.len() {
                assert!(stats.runs > 0, "budget for {cut} records must spill");
            }
        }
    }

    #[test]
    fn merge_error_wins_over_cleanup_and_runs_are_still_removed() {
        // Corrupt one run inside the spill file behind the sorter's back:
        // the merge error must surface (not a cleanup error), and the spill
        // file must still be removed best-effort.
        let dir = TempDir::new("extsort-merge-err");
        let spill = dir.join("spill");
        let mut sorter = ExternalSorter::new(&spill, SortOptions::with_memory_budget(16)).unwrap();
        for i in 0..64 {
            sorter.push(format!("{i:04}").as_bytes()).unwrap();
        }
        assert!(sorter.runs.len() > 1, "need at least two runs");
        // Flip a payload byte of the second run's first frame.
        let victim = sorter.spill_path.clone();
        let mut data = std::fs::read(&victim).unwrap();
        let at = sorter.runs[1].0.offset() as usize + crate::frame::V2_HEADER_LEN + 3;
        data[at] ^= 0x40;
        std::fs::write(&victim, &data).unwrap();
        let mut w = ValueFileWriter::create(&dir.join("out.indv")).unwrap();
        let err = sorter.finish_into(&mut w).unwrap_err();
        assert!(
            matches!(err, ValueSetError::Corrupt { .. }),
            "merge error must win: {err:?}"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&spill).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "cleanup stays best-effort after a merge error"
        );

        // The sorter resets on the error path too: reusing it afterwards
        // must yield exactly the new values, not remnants of the failed
        // attribute.
        for v in [b"zz".as_slice(), b"aa", b"zz"] {
            sorter.push(v).unwrap();
        }
        let retry_path = dir.join("retry.indv");
        let mut w = ValueFileWriter::create(&retry_path).unwrap();
        let stats = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.pushed, 3, "pushed resets after a failed finish");
        let out = collect_cursor(ValueFileReader::open(&retry_path).unwrap()).unwrap();
        assert_eq!(out, expected(&[b"aa", b"zz"]));
    }

    #[test]
    fn reset_discards_buffered_values_and_spill_runs() {
        // A mid-extraction failure leaves the sorter holding values and
        // run files; reset must clear both so a quarantining caller can
        // move on to the next attribute.
        let dir = TempDir::new("extsort-reset");
        let spill = dir.join("spill");
        let mut sorter = ExternalSorter::new(&spill, SortOptions::with_memory_budget(16)).unwrap();
        for i in 0..64 {
            sorter.push(format!("{i:04}").as_bytes()).unwrap();
        }
        assert!(!sorter.runs.is_empty(), "need spilled runs to clean");
        sorter.reset();
        let leftovers: Vec<_> = std::fs::read_dir(&spill).unwrap().collect();
        assert!(leftovers.is_empty(), "reset removes spill runs");
        for v in [b"bb".as_slice(), b"aa"] {
            sorter.push(v).unwrap();
        }
        let out_path = dir.join("out.indv");
        let mut w = ValueFileWriter::create(&out_path).unwrap();
        let stats = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.pushed, 2, "pushed restarts from zero after reset");
        let out = collect_cursor(ValueFileReader::open(&out_path).unwrap()).unwrap();
        assert_eq!(out, expected(&[b"aa", b"bb"]));
    }

    #[test]
    fn spill_enospc_surfaces_with_the_run_path() {
        // An injected ENOSPC on a spill write must fail the push that
        // triggered the spill, naming the run file.
        let dir = TempDir::new("extsort-enospc");
        let plan =
            std::sync::Arc::new(crate::fault::FaultPlan::parse("write:run-:enospc").unwrap());
        let mut sorter = ExternalSorter::new(
            &dir.join("spill"),
            SortOptions {
                memory_budget_bytes: 16,
                io: IoOptions::default().with_fault(plan),
            },
        )
        .unwrap();
        let mut failed = None;
        for i in 0..64 {
            if let Err(e) = sorter.push(format!("{i:04}").as_bytes()) {
                failed = Some(e);
                break;
            }
        }
        let err = failed.expect("a spill must hit the injected ENOSPC");
        assert!(matches!(err, ValueSetError::Io(_)));
        assert!(
            err.to_string().contains("run-"),
            "the error names the spill run: {err}"
        );
        // The quarantine path: reset (which removes the spill file the
        // failed run was written into) and reuse.
        sorter.reset();
        assert_eq!(std::fs::read_dir(dir.join("spill")).unwrap().count(), 0);
        sorter.push(b"ok").unwrap();
        let mut w = ValueFileWriter::create(&dir.join("out.indv")).unwrap();
        assert_eq!(sorter.finish_into(&mut w).unwrap().distinct, 1);
        w.finish().unwrap();
    }

    #[test]
    fn comparator_split_counts_merge_tree_work() {
        // In-memory sorts never run the merge tree: both tallies stay zero.
        let values: Vec<&[u8]> = vec![b"b", b"a", b"c"];
        let (_, stats) = sort_values(&values, 1 << 20);
        assert_eq!(stats.key_compares, 0);
        assert_eq!(stats.memcmp_compares, 0);

        // Short distinct values resolve on the 8-byte prefix alone.
        let raw: Vec<String> = (0..100).map(|i| format!("{i:04}")).collect();
        let short: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let (out, stats) = sort_values(&short, 64);
        assert!(stats.runs > 1);
        assert_eq!(out, expected(&short));
        assert!(stats.key_compares > 0, "prefix path must fire");
        assert_eq!(
            stats.memcmp_compares, 0,
            "4-byte values never tie past the prefix"
        );

        // Values sharing an 8-byte prefix must fall through to memcmp —
        // and the fast path must not disturb the output.
        let raw: Vec<String> = (0..100).map(|i| format!("sameprefix-{i:04}")).collect();
        let long: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let (out, stats) = sort_values(&long, 256);
        assert!(stats.runs > 1);
        assert_eq!(out, expected(&long));
        assert!(
            stats.memcmp_compares > 0,
            "shared prefixes must fall through"
        );
    }

    #[test]
    fn reused_sorter_stops_allocating_once_warm() {
        // One sorter across many attributes: after the first column the
        // arena and index are warm, so later columns add zero growth
        // events — the steady-state allocation-free property the export
        // manager relies on.
        let dir = TempDir::new("extsort-reuse");
        let mut sorter = ExternalSorter::new(&dir.join("spill"), SortOptions::default()).unwrap();
        let raw: Vec<String> = (0..200).map(|i| format!("warm-{i:05}")).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();

        let run = |sorter: &mut ExternalSorter, name: &str| -> SortStats {
            for v in &values {
                sorter.push(v).unwrap();
            }
            let mut w = ValueFileWriter::create(&dir.join(name)).unwrap();
            let stats = sorter.finish_into(&mut w).unwrap();
            w.finish().unwrap();
            stats
        };
        let first = run(&mut sorter, "a.indv");
        let second = run(&mut sorter, "b.indv");
        let third = run(&mut sorter, "c.indv");
        assert_eq!(first.distinct, second.distinct);
        assert!(first.arena_grows > 0);
        assert_eq!(
            second.arena_grows, first.arena_grows,
            "second column must not grow the arena"
        );
        assert_eq!(third.arena_grows, first.arena_grows);
        assert_eq!(second.pushed, values.len() as u64, "pushed resets per use");
        let a = collect_cursor(ValueFileReader::open(&dir.join("a.indv")).unwrap()).unwrap();
        let b = collect_cursor(ValueFileReader::open(&dir.join("b.indv")).unwrap()).unwrap();
        assert_eq!(a, b);

        // The resident path: the index is sized once from the first
        // column's row count, and a second column of as many rows finds it
        // warm — zero sorter allocations, not one per doubling.
        let column = ind_storage::Column::from_values(
            &raw.iter()
                .map(|s| ind_storage::Value::from(s.as_str()))
                .collect::<Vec<_>>(),
        );
        let mut sorter = ExternalSorter::new(&dir.join("spill"), SortOptions::default()).unwrap();
        let mut extract = |name: &str| {
            let mut writer = ValueFileWriter::create(&dir.join(name)).unwrap();
            crate::extract_with_sorter(&column, &mut sorter, &mut writer).unwrap()
        };
        let first = extract("d.indv");
        let second = extract("e.indv");
        // Two exact reservations, no doubling: the index, then the hash
        // table (twice the 200 entries, rounded up: 512 slots), both
        // charged to the footprint.
        assert_eq!(first.arena_grows, 2, "index and table, once each");
        let table = arena::table_slots(values.len()) * SLOT_BYTES;
        assert_eq!(table, 512 * 4);
        assert_eq!(
            first.arena_bytes,
            (values.len() * ENTRY_BYTES + table) as u64
        );
        assert_eq!(
            second.arena_grows, 2,
            "a warm index and table are not reallocated"
        );
        assert_eq!(second.arena_bytes, first.arena_bytes);
        assert_eq!((second.pushed, second.distinct), (200, 200));

        // A column of half the rows, then one of a tenth, with repeats:
        // the warm index and table serve them all.
        for rows in [100, 20] {
            let column = ind_storage::Column::from_values(
                &raw.iter()
                    .take(rows)
                    .chain(raw.iter().take(rows))
                    .map(|s| ind_storage::Value::from(s.as_str()))
                    .collect::<Vec<_>>(),
            );
            let mut writer = ValueFileWriter::create(&dir.join("f.indv")).unwrap();
            let stats = crate::extract_with_sorter(&column, &mut sorter, &mut writer).unwrap();
            assert_eq!(
                (stats.arena_grows, stats.arena_bytes),
                (2, first.arena_bytes)
            );
            assert_eq!(
                (stats.pushed, stats.distinct),
                (2 * rows as u64, rows as u64)
            );
        }
    }

    #[test]
    fn the_table_fits_beside_the_index_or_is_not_allocated() {
        // A 4096-byte budget is all index (256 entries): a column that
        // fills it sorts and spills as it did before there was a table,
        // pushed or resident.
        let dir = TempDir::new("extsort-table-budget");
        let raw: Vec<String> = (0..1000).map(|i| format!("v{:03}", i % 300)).collect();
        let values: Vec<&[u8]> = raw.iter().map(|s| s.as_bytes()).collect();
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(4096)).unwrap();
        for v in &values {
            sorter.push(v).unwrap();
            assert_eq!(sorter.buf.table.capacity(), 0, "no room, no table");
        }
        let mut w = ValueFileWriter::create(&dir.join("pushed.indv")).unwrap();
        let stats = sorter.finish_into(&mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(sorter.buf.table.capacity(), 0);
        assert_eq!((stats.distinct, stats.runs > 0), (300, true));

        let cells: Vec<ind_storage::Value> = raw.iter().map(|s| s.as_str().into()).collect();
        let column = ind_storage::Column::from_values(&cells);
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(4096)).unwrap();
        let mut w = ValueFileWriter::create(&dir.join("resident.indv")).unwrap();
        let stats = crate::extract_with_sorter(&column, &mut sorter, &mut w).unwrap();
        w.finish().unwrap();
        assert_eq!(sorter.buf.table.capacity(), 0);
        assert_eq!((stats.distinct, stats.runs), (300, 999 / 256));
        assert_eq!(stats.arena_bytes, 4096, "the index alone");

        // At 64 KiB a small column's table fits beside its index and is
        // charged; a column whose index then needs the room frees it, so
        // the footprint stays inside the budget.
        let budget = 64 << 10;
        let mut sorter =
            ExternalSorter::new(&dir.join("spill"), SortOptions::with_memory_budget(budget))
                .unwrap();
        let small = ind_storage::Column::from_values(&cells[..100]);
        let mut w = ValueFileWriter::create(&dir.join("small.indv")).unwrap();
        let stats = crate::extract_with_sorter(&small, &mut sorter, &mut w).unwrap();
        let table = arena::table_slots(100) * SLOT_BYTES;
        assert_eq!(sorter.buf.table.capacity() * SLOT_BYTES, table);
        assert_eq!(stats.arena_bytes as usize, 100 * ENTRY_BYTES + table);
        let long: Vec<ind_storage::Value> = (0..5000i64).map(ind_storage::Value::Integer).collect();
        let mut w = ValueFileWriter::create(&dir.join("long.indv")).unwrap();
        let stats = crate::extract_with_sorter(
            &ind_storage::Column::from_values(&long),
            &mut sorter,
            &mut w,
        )
        .unwrap();
        assert_eq!(sorter.buf.table.capacity(), 0, "the index took the room");
        assert_eq!((stats.distinct, stats.runs), (5000, 4999 / 4096));
        assert!(stats.arena_bytes as usize <= budget, "{stats:?}");
    }
}
