//! Whole-database export: one sorted value stream per attribute, written a
//! batch at a time into segments ([`crate::SegmentWriter`]), plus the
//! per-attribute metadata (cardinalities, min/max) that candidate
//! generation and the pretests consume.
//!
//! There is one export loop for every arity. [`ExportedDatabase::export`]
//! gives it one job per column; [`ExportedDatabase::export_groups`] gives
//! it one job per column group, the composite streams of one level of the
//! n-ary search. Both run on the same workers and publish through the
//! same group commit.

use crate::block::{IoOptions, ReadStats};
use crate::cursor::{ValueCursor, ValueSetProvider};
use crate::error::{Result, ValueSetError};
use crate::external_sort::{ExternalSorter, SortOptions};
use crate::extract::{hash_column, Source};
use crate::fault::FaultPlan;
use crate::format::{verify_extent_quick, ValueFileReader};
use crate::segment::{read_trailer, tmp_path, Extent, SegmentFiles, SegmentWriter, TrailerEntry};
use ind_storage::{DataType, Database, QualifiedName};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How [`ExportedDatabase::export`] treats a workdir that already holds
/// value streams from an earlier (possibly interrupted) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeMode {
    /// Rewrite every attribute from scratch (the default): every segment
    /// and stage in the workdir is swept before anything is written.
    #[default]
    Off,
    /// Read the trailer of every segment in the workdir, validate each
    /// attribute's latest entry with a cheap header + footer read of its
    /// stream ([`crate::format`]'s self-verifying seal), re-export only
    /// attributes that are missing, torn, of an older format version, or
    /// stale against the source data's content hash, and sweep what an
    /// interrupted run left behind.
    Reuse,
    /// Like [`ResumeMode::Reuse`], but each reused stream is fully drained
    /// through a checksum-verifying reader (every frame CRC walked) —
    /// `--resume verify`.
    Verify,
}

/// Options controlling a database export.
#[derive(Debug, Clone)]
pub struct ExportOptions {
    /// Sorter tuning: the memory budget before spilling — **per worker**
    /// (each of the [`threads`](Self::threads) workers owns one sorter), and
    /// charging 16 index bytes per non-NULL row, not the cells, which are
    /// sorted where the database stores them
    /// ([`SortOptions::memory_budget_bytes`]) — plus the I/O block size
    /// ([`SortOptions::io`]), the single knob governing every value file
    /// this export writes (spill runs included) and every cursor the
    /// resulting [`ExportedDatabase`] opens over them.
    pub sort: SortOptions,
    /// Workers for the per-attribute extract/sort/write pipeline (attribute
    /// extractions are independent), whatever algorithm merges the files
    /// afterwards. Defaults to every core
    /// ([`ind_storage::default_workers`]); `0` and `1` both mean the calling
    /// thread alone. Value streams and metadata are byte-identical at any
    /// count; which segment (and so which trailer) holds a stream follows
    /// scheduling. A fault plan that counts operations
    /// (`write:*:crash=400`) means a fixed point of the export only at one
    /// worker.
    pub threads: usize,
    /// Quarantine-and-continue: when an attribute's extraction fails
    /// (unreadable column, `ENOSPC` on its value file, …), record the
    /// failure in [`ExportedDatabase::failed_attributes`] and keep
    /// exporting the rest instead of aborting the whole export. The
    /// quarantined attribute keeps its id (dense indexing is preserved)
    /// but opening it yields the original error.
    pub keep_going: bool,
    /// Resume an interrupted export from its workdir (see [`ResumeMode`]).
    pub resume: ResumeMode,
}

impl Default for ExportOptions {
    fn default() -> Self {
        ExportOptions {
            sort: SortOptions::default(),
            threads: ind_storage::default_workers(),
            keep_going: false,
            resume: ResumeMode::Off,
        }
    }
}

impl ExportOptions {
    /// Default options with exactly `threads` extraction workers.
    pub fn with_threads(threads: usize) -> Self {
        ExportOptions {
            threads,
            ..Default::default()
        }
    }

    /// Default options with the given I/O block size for writers and
    /// readers alike.
    pub fn with_block_size(block_size: usize) -> Self {
        let mut options = ExportOptions::default();
        options.sort.io = IoOptions::with_block_size(block_size);
        options
    }

    /// Default options with the given sorter memory budget (bytes).
    pub fn with_memory_budget(memory_budget_bytes: usize) -> Self {
        ExportOptions {
            sort: SortOptions::with_memory_budget(memory_budget_bytes),
            ..Default::default()
        }
    }

    /// Builder toggle for quarantine-and-continue (see
    /// [`ExportOptions::keep_going`]).
    pub fn keep_going(mut self, keep_going: bool) -> Self {
        self.keep_going = keep_going;
        self
    }

    /// Builder for the resume mode (see [`ResumeMode`]).
    pub fn resume(mut self, mode: ResumeMode) -> Self {
        self.resume = mode;
        self
    }

    /// Attaches a cancellation token to every writer and cursor of this
    /// export (see [`crate::CancelToken`]).
    pub fn with_cancel(mut self, token: crate::cancel::CancelToken) -> Self {
        self.sort.io.cancel = Some(token);
        self
    }

    /// The I/O options every value file of this export uses.
    pub fn io(&self) -> &IoOptions {
        &self.sort.io
    }
}

/// One attribute quarantined by a keep-going export: its id and name stay
/// addressable, the error explains why its value file is unusable.
#[derive(Debug, Clone)]
pub struct FailedAttribute {
    /// The quarantined attribute's dense id (its slot in
    /// [`ExportedDatabase::attributes`] holds zeroed metadata).
    pub id: u32,
    /// Qualified `table.column` name.
    pub name: QualifiedName,
    /// The failure, stringified with its file/frame context.
    pub error: String,
}

/// Metadata for one exported attribute.
///
/// `distinct`, `non_null`, `min`, and `max` are byproducts of the sorted
/// export — the paper gets them for free from the RDBMS, we get them for
/// free from the sorter.
#[derive(Debug, Clone)]
pub struct ExportedAttribute {
    /// Dense attribute id; index into [`ExportedDatabase::attributes`].
    pub id: u32,
    /// Qualified `table.column` name.
    pub name: QualifiedName,
    /// Declared column type (LOB columns are exported but never become
    /// dependent attributes).
    pub data_type: DataType,
    /// Rows in the owning table.
    pub rows: u64,
    /// Non-null occurrences, `|v(a)|`.
    pub non_null: u64,
    /// Distinct values, `|s(a)|`.
    pub distinct: u64,
    /// Smallest canonical value, if any.
    pub min: Option<Vec<u8>>,
    /// Largest canonical value, if any.
    pub max: Option<Vec<u8>>,
    /// Where the attribute's value stream lies: its segment and offset,
    /// labelled `seg-WW-NNNN.indv[attr-NNNNN]`. A quarantined attribute
    /// has no stream; its extent only names it, inside the workdir.
    pub path: Extent,
    /// Byte size of that stream, recorded at write time so cursors can
    /// size their block buffers without an `fstat` per open.
    pub file_bytes: u64,
}

impl ExportedAttribute {
    /// "Non-empty" in the paper's sense.
    pub fn is_non_empty(&self) -> bool {
        self.non_null > 0
    }

    /// Data-driven uniqueness (every non-null value occurs once).
    pub fn is_unique(&self) -> bool {
        self.non_null > 0 && self.distinct == self.non_null
    }
}

/// A database exported to sorted value streams under one directory.
#[derive(Debug)]
pub struct ExportedDatabase {
    dir: PathBuf,
    attributes: Vec<ExportedAttribute>,
    /// Attributes quarantined by a keep-going export, by id order.
    failed: Vec<FailedAttribute>,
    /// Every cursor's I/O options; their [`IoOptions::stats`] is
    /// `read_stats`.
    io: IoOptions,
    read_stats: ReadStats,
    /// One read descriptor per segment, shared by every cursor into it.
    segments: SegmentFiles,
    /// Spill-merge comparator split summed over every attribute sort (see
    /// [`crate::SortStats::key_compares`]).
    key_compares: u64,
    memcmp_compares: u64,
    /// Resume accounting: attributes reused from segment trailers,
    /// attributes re-exported, and leftover files swept.
    exports_reused: u64,
    exports_redone: u64,
    orphans_swept: u64,
}

/// Full validation for `--resume verify`: drain the whole stream (every
/// frame CRC checked against the chain) and confirm the record count the
/// trailer promised.
fn deep_verify(
    file: Arc<File>,
    extent: &Extent,
    entry: &TrailerEntry,
    io: &IoOptions,
) -> Result<()> {
    let mut reader = ValueFileReader::over(file, extent, io, entry.file_bytes)?;
    let mut records = 0u64;
    while reader.advance()? {
        records += 1;
    }
    if records == entry.records {
        Ok(())
    } else {
        Err(ValueSetError::Corrupt {
            context: extent.display().to_string(),
            detail: format!(
                "trailer records {}, stream drained {records}",
                entry.records
            ),
        })
    }
}

/// The name of attribute `id`'s stream — what its extent's label, its
/// fault rules and its errors say: `attr-00001`.
fn stream_name(id: u32) -> String {
    format!("attr-{id:05}")
}

/// `seg-WW-NNNN.indv`: the `NNNN`th batch export worker `WW` wrote.
fn segment_name(worker: usize, ordinal: u32) -> String {
    format!("seg-{worker:02}-{ordinal:04}.indv")
}

/// The batch ordinal in a segment's file name (its `.tmp` stage included);
/// `None` for any other name.
fn segment_ordinal(name: &str) -> Option<u32> {
    let name = name.strip_suffix(".tmp").unwrap_or(name);
    let (_, ordinal) = name
        .strip_prefix("seg-")?
        .strip_suffix(".indv")?
        .split_once('-')?;
    ordinal.parse().ok()
}

/// The latest trailer entry of every attribute in `dir`, by id, with the
/// segment holding it. Every segment under its final name is
/// read for its trailer — one missing, torn or failing its CRC vouches for
/// nothing — and of two entries for one id, the one in the higher batch
/// ordinal wins (the segment's path breaks a tie).
fn latest_entries(
    dir: &Path,
    fault: Option<&Arc<FaultPlan>>,
) -> HashMap<u32, ((u32, PathBuf), TrailerEntry<'static>)> {
    let mut latest: HashMap<u32, ((u32, PathBuf), TrailerEntry<'static>)> = HashMap::new();
    let Ok(listing) = std::fs::read_dir(dir) else {
        return latest;
    };
    for file in listing.flatten() {
        let name = file.file_name().to_string_lossy().into_owned();
        let Some(ordinal) = segment_ordinal(&name).filter(|_| !name.ends_with(".tmp")) else {
            continue;
        };
        let Ok(entries) = read_trailer(&file.path(), fault) else {
            continue;
        };
        for entry in entries {
            let rank = (ordinal, file.path());
            if latest.get(&entry.id).is_none_or(|(held, _)| *held < rank) {
                latest.insert(entry.id, (rank, entry));
            }
        }
    }
    latest
}

/// Deletes from `dir` what no run can read any more — staged `.tmp` files
/// (garbage by construction), segments outside `keep`, and the files of
/// older layouts: one value file per attribute (`attr-NNNNN.indv`) and the
/// `MANIFEST.json` that indexed segments before their trailers did — and
/// returns how many files it removed and one past the highest batch
/// ordinal any segment name in `dir` carried.
fn sweep(dir: &Path, keep: &HashSet<PathBuf>) -> (u64, u32) {
    let (mut swept, mut next_ordinal) = (0u64, 0u32);
    let Ok(listing) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in listing.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let ordinal = segment_ordinal(&name);
        if let Some(ordinal) = ordinal {
            next_ordinal = next_ordinal.max(ordinal.saturating_add(1));
        }
        let garbage = name.ends_with(".tmp")
            || (ordinal.is_some() && !keep.contains(&entry.path()))
            || (name.starts_with("attr-") && name.ends_with(".indv"))
            || name == "MANIFEST.json";
        // A file that would not go (a race, a directory under a garbage
        // name) is not counted.
        if garbage && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    (swept, next_ordinal)
}

impl<'db> Source<'db> {
    /// One [`Source::Group`] per group of `db`'s columns, with the name and
    /// type its attribute takes: the table and its columns joined by `,`
    /// (so a group reads `chain.pdb_code,chain_id`), typed
    /// [`DataType::Text`]. Every group must name columns of one table; an
    /// unknown column fails.
    pub fn groups(
        db: &'db Database,
        groups: &[Vec<QualifiedName>],
    ) -> Result<Vec<(QualifiedName, DataType, Source<'db>)>> {
        let mut out = Vec::with_capacity(groups.len());
        for group in groups {
            let columns = group
                .iter()
                .map(|qn| db.cells(qn))
                .collect::<std::result::Result<_, _>>()?;
            let joined: Vec<&str> = group.iter().map(|qn| qn.column.as_str()).collect();
            let name = QualifiedName::new(group[0].table.clone(), joined.join(","));
            out.push((name, DataType::Text, Source::Group(columns)));
        }
        Ok(out)
    }
}

/// One value stream an export writes: the attribute it becomes, and its
/// source.
struct Job<'db> {
    id: u32,
    name: QualifiedName,
    data_type: DataType,
    rows: u64,
    source: Source<'db>,
}

impl Job<'_> {
    /// The attribute with its stream at `path` and zeroed metadata: what
    /// extraction fills in and what a quarantined attribute keeps.
    fn attribute(&self, path: Extent) -> ExportedAttribute {
        ExportedAttribute {
            id: self.id,
            name: self.name.clone(),
            data_type: self.data_type,
            rows: self.rows,
            non_null: 0,
            distinct: 0,
            min: None,
            max: None,
            path,
            file_bytes: 0,
        }
    }

    /// What the stream's extent label, its fault rules and its errors say:
    /// `attr-00001` for a column, `comp-00001` for a group.
    fn stream_name(&self) -> String {
        match self.source {
            Source::Column(_) => stream_name(self.id),
            Source::Group(_) => format!("comp-{:05}", self.id),
        }
    }
}

impl ExportedDatabase {
    /// Exports every column of `db` into `dir` (created if missing).
    /// Attribute ids follow [`Database::attributes`] order, so they are
    /// deterministic across runs — including under
    /// [`ExportOptions::threads`] parallelism, which only reorders the
    /// *work*, not the ids or the stream bytes.
    ///
    /// Publication is a **group commit**: each worker writes its streams
    /// back to back into one segment (`seg-WW-NNNN.indv.tmp`) and, once the
    /// segment holds [`crate::BATCH_MAX_BYTES`] — and on every way out,
    /// error and cancellation included — writes the segment's trailer,
    /// fsyncs it, renames it and fsyncs `dir` once, taking no lock shared
    /// with the other workers. A segment under its final name was fsynced,
    /// trailer included, before its rename, and anything ending in `.tmp`
    /// is garbage; an interruption loses at most the in-flight batch.
    /// Which worker's segment a stream lands in depends on scheduling, its
    /// bytes never do; at one worker the whole workdir is deterministic.
    pub fn export(db: &Database, dir: &Path, options: &ExportOptions) -> Result<Self> {
        let _span = ind_trace::start(ind_trace::EXPORT);
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(db.attribute_count());
        for table in db.tables() {
            for (_, col_schema, column) in table.iter_cells() {
                jobs.push(Job {
                    id: jobs.len() as u32,
                    name: QualifiedName::new(table.name(), col_schema.name.clone()),
                    data_type: col_schema.data_type,
                    rows: table.row_count() as u64,
                    source: Source::Column(column),
                });
            }
        }
        Self::export_jobs(jobs, dir, options)
    }

    /// Exports one sorted composite value stream per column group into
    /// `dir` (created if missing), through the same workers and group
    /// commit as [`ExportedDatabase::export`]: the per-level provider of the
    /// n-ary pipeline. Group `i` becomes attribute `i`, its stream labelled
    /// `comp-NNNNN`; its entries are the rows of the owning table with every
    /// component non-NULL, tuple-encoded ([`crate::encode_tuple`]) so the
    /// sorted stream compares like the tuple sequence. The attribute is
    /// named by the table and its columns joined by `,`, typed
    /// [`DataType::Text`]. Every group must name columns of one table; an
    /// unknown column fails the export before anything is written.
    ///
    /// A composite stream is never reused and never quarantined: the
    /// directory is swept and rewritten whatever `options.resume` says, and
    /// a failed stream fails the export whatever `options.keep_going` says.
    pub fn export_groups(
        db: &Database,
        groups: &[Vec<QualifiedName>],
        dir: &Path,
        options: &ExportOptions,
    ) -> Result<Self> {
        let _span = ind_trace::start(ind_trace::EXPORT);
        let jobs = Source::groups(db, groups)?
            .into_iter()
            .enumerate()
            .map(|(id, (name, data_type, source))| Job {
                id: id as u32,
                name,
                data_type,
                rows: source.rows(),
                source,
            })
            .collect();
        let strict = ExportOptions {
            keep_going: false,
            resume: ResumeMode::Off,
            ..options.clone()
        };
        Self::export_jobs(jobs, dir, &strict)
    }

    /// The export loop behind [`ExportedDatabase::export`] and
    /// [`ExportedDatabase::export_groups`], under their `export` span:
    /// resume scan, sweep, then the workers writing `jobs` into segments.
    fn export_jobs(mut jobs: Vec<Job<'_>>, dir: &Path, options: &ExportOptions) -> Result<Self> {
        let export_parent = ind_trace::current_parent();
        std::fs::create_dir_all(dir)?;
        let spill_dir = dir.join("spill");
        // One shared counter handle for the whole lifetime of this export:
        // writers count their retried writes into it during the export
        // itself, cursors count reads/retries/checksums afterwards.
        let mut sort = options.sort.clone();
        let read_stats = sort.io.stats.get_or_insert_with(ReadStats::new).clone();
        let fault = sort.io.fault.as_ref();

        // A trailer entry vouches for a stream only when every identity
        // field matches the live schema, the SOURCE column still hashes to
        // the recorded content hash, and the stream itself passes its seal
        // (cheap header+footer read, which also bounds the recorded extent
        // by the segment's size, then a full frame-CRC drain under
        // [`ResumeMode::Verify`]). The segments opened to check are kept
        // open for the cursors that read them next. A group stream has no
        // source hash and is never reused.
        let segments = SegmentFiles::default();
        let reusable = |job: &Job<'_>, segment: &Path, entry: &TrailerEntry| -> Option<Extent> {
            let Source::Column(column) = job.source else {
                return None;
            };
            if entry.table != job.name.table
                || entry.column != job.name.column
                || entry.data_type != job.data_type
                || entry.rows != job.rows
                || entry.source_hash != hash_column(column)
            {
                return None;
            }
            let extent = Extent::new(segment, entry.offset, &job.stream_name());
            let file = segments.get(extent.file(), Some(&read_stats)).ok()?;
            let valid = verify_extent_quick(&file, &extent, entry.file_bytes, entry.records, fault)
                .and_then(|()| match options.resume {
                    ResumeMode::Verify => deep_verify(file, &extent, entry, &sort.io),
                    _ => Ok(()),
                });
            valid.is_ok().then_some(extent)
        };

        // Resume: every attribute whose latest trailer entry passes the
        // checks above is reused without re-sorting a single value; the
        // segments holding those entries are kept.
        let mut attributes: Vec<ExportedAttribute> = Vec::with_capacity(jobs.len());
        let mut exports_reused = 0u64;
        let mut exports_redone = 0u64;
        let mut keep: HashSet<PathBuf> = HashSet::new();
        let scan = (options.resume != ResumeMode::Off)
            .then(|| ind_trace::start_under(ind_trace::RESUME_SCAN, 0, export_parent));
        if options.resume != ResumeMode::Off {
            let latest = latest_entries(dir, fault);
            let mut pending = Vec::with_capacity(jobs.len());
            for job in jobs {
                let reused = latest.get(&job.id).and_then(|((_, segment), entry)| {
                    Some((segment, entry, reusable(&job, segment, entry)?))
                });
                match reused {
                    Some((segment, entry, extent)) => {
                        attributes.push(ExportedAttribute {
                            non_null: entry.non_null,
                            distinct: entry.distinct,
                            min: entry.min.as_deref().map(<[u8]>::to_vec),
                            max: entry.max.as_deref().map(<[u8]>::to_vec),
                            file_bytes: entry.file_bytes,
                            ..job.attribute(extent)
                        });
                        keep.insert(segment.clone());
                        exports_reused += 1;
                    }
                    None => {
                        exports_redone += 1;
                        pending.push(job);
                    }
                }
            }
            jobs = pending;
        }
        // The sweep reclaims what earlier runs left behind; at most the
        // segments holding a reused stream survive it. New segments are
        // named past every ordinal the directory held, so whatever they
        // record outranks any older entry for the same attribute.
        let (orphans_swept, first_ordinal) = sweep(dir, &keep);
        segments.retain(|path| keep.contains(path));
        // lint: allow(swallowed_result) — spill runs from a dead run are garbage; absence is success
        let _ = std::fs::remove_dir_all(&spill_dir);
        drop(scan);

        // Comparator-split totals, summed across workers as jobs finish.
        let key_compares = AtomicU64::new(0);
        let memcmp_compares = AtomicU64::new(0);

        // Quarantine for keep-going exports: the attribute keeps its id slot
        // with zeroed metadata so dense indexing survives. Nothing on disk
        // is touched — its stream shares a segment with healthy siblings,
        // and an unsealed or unpublished stream is invisible anyway.
        type WorkerYield = (Vec<ExportedAttribute>, Vec<FailedAttribute>);
        let quarantine =
            |attr: ExportedAttribute, error: String, (done, lost): &mut WorkerYield| {
                lost.push(FailedAttribute {
                    id: attr.id,
                    name: attr.name.clone(),
                    error,
                });
                done.push(ExportedAttribute {
                    non_null: 0,
                    distinct: 0,
                    min: None,
                    max: None,
                    file_bytes: 0,
                    ..attr
                });
            };

        // The ONE publication path: the trailer, the segment's fsync, its
        // rename, one directory fsync. A failed commit costs the whole batch,
        // whose streams share that one file: all of it quarantined under
        // keep-going, the error otherwise. A failed directory fsync fails
        // the export, since no rename of the batch is known durable.
        let commit = |segment: &mut Option<SegmentWriter>,
                      staged: &mut Vec<ExportedAttribute>,
                      out: &mut WorkerYield|
         -> Result<()> {
            let Some(segment) = segment.take() else {
                return Ok(());
            };
            if staged.is_empty() {
                // Every stream begun in it failed and was quarantined.
                segment.discard();
                return Ok(());
            }
            let batch = std::mem::take(staged);
            let _span =
                ind_trace::start_under(ind_trace::PUBLISH, batch.len() as u64, export_parent);
            let tmp = tmp_path(segment.path());
            if let Err(e) = segment.commit() {
                if !options.keep_going {
                    return Err(e);
                }
                // lint: allow(swallowed_result) — the unpublished stage is garbage by construction; the resume sweep would delete it too
                let _ = std::fs::remove_file(&tmp);
                let error = e.to_string();
                for attr in batch {
                    quarantine(attr, error.clone(), out);
                }
                return Ok(());
            }
            crate::fault::sync_dir(dir, fault)?;
            out.0.extend(batch);
            Ok(())
        };

        // Workers claim jobs one at a time off a shared atomic index —
        // fixed chunks would let a few huge columns idle the other
        // workers. Each worker owns ONE sorter for its whole share of the
        // export (after the first attribute its index is warm, so every
        // further column sorts with zero sorter allocations) and ONE open
        // segment at a time, which never outlives the call.
        let workers = options.threads.clamp(1, jobs.len().max(1));
        let next = AtomicUsize::new(0);
        let worker = |w: usize| -> Result<WorkerYield> {
            // One spill subdirectory per concurrent worker: sorter spill
            // runs are named by ordinal and would collide.
            let spill = match workers {
                1 => spill_dir.clone(),
                _ => spill_dir.join(format!("worker-{w:02}")),
            };
            let mut sorter = ExternalSorter::new(&spill, sort.clone())?;
            let mut ordinal = first_ordinal;
            let mut segment: Option<SegmentWriter> = None;
            let mut staged: Vec<ExportedAttribute> = Vec::new();
            let mut out: WorkerYield = (Vec::new(), Vec::new());
            let outcome = loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    break Ok(());
                };
                // Extract → sort → write one attribute into the worker's
                // segment (opened on first use) and seal its stream. Parent
                // the span under the export span even from worker threads
                // (thread-local parenting stops at the spawn).
                let name = job.stream_name();
                let mut write = || -> Result<(ExportedAttribute, bool)> {
                    let _span =
                        ind_trace::start_under(ind_trace::SORT, u64::from(job.id), export_parent);
                    if let Some(cancel) = &sort.io.cancel {
                        cancel.check("export")?;
                    }
                    let open = match segment.take() {
                        Some(open) => open,
                        None => {
                            ordinal += 1;
                            let path = dir.join(segment_name(w, ordinal - 1));
                            SegmentWriter::create(&path, &sort.io)?
                        }
                    };
                    let open = segment.insert(open);
                    let mut writer = open.stream(Some(&name));
                    let stats = job.source.sort_into(&mut sorter, &mut writer)?;
                    let entry =
                        TrailerEntry::new(job.id, &job.name, job.data_type, job.rows, &stats);
                    let path = open.seal(writer, Some(entry))?;
                    key_compares.fetch_add(stats.key_compares, Ordering::Relaxed);
                    memcmp_compares.fetch_add(stats.memcmp_compares, Ordering::Relaxed);
                    ind_trace::add_counter(ind_trace::Counter::AttributesExported, 1);
                    let attr = ExportedAttribute {
                        non_null: stats.pushed,
                        distinct: stats.distinct,
                        min: stats.min,
                        max: stats.max,
                        file_bytes: stats.file_bytes,
                        ..job.attribute(path)
                    };
                    Ok((attr, open.is_full()))
                };
                match write() {
                    Ok((attr, full)) => {
                        staged.push(attr);
                        if full {
                            if let Err(e) = commit(&mut segment, &mut staged, &mut out) {
                                break Err(e);
                            }
                        }
                    }
                    // Cancellation is a STOP, not a data fault: quarantining
                    // it would record healthy attributes as failed.
                    Err(e)
                        if options.keep_going && !matches!(e, ValueSetError::Cancelled { .. }) =>
                    {
                        // A mid-extraction failure leaves buffered values
                        // and spill runs behind; its partial stream is
                        // overwritten by the next one or cut off at commit.
                        sorter.reset();
                        let placeholder = Extent::new(dir, 0, &name);
                        quarantine(job.attribute(placeholder), e.to_string(), &mut out);
                    }
                    Err(e) => break Err(e),
                }
            };
            // The index has sorted its last column; the commit below only
            // waits on fsyncs, while another worker's index may still grow.
            drop(sorter);
            // Every way out of the loop — work list drained, strict-mode
            // error, cancellation — commits the sealed siblings first, so
            // an interrupted run loses nothing it finished. The original
            // error wins over a commit failure it caused (after an
            // injected crash every fsync fails too).
            let committed = commit(&mut segment, &mut staged, &mut out);
            outcome.and(committed)?;
            Ok(out)
        };

        let mut failed: Vec<FailedAttribute> = Vec::new();
        for share in ind_storage::run_workers(workers, worker) {
            let (done, lost) = share?;
            attributes.extend(done);
            failed.extend(lost);
        }
        failed.sort_by_key(|f| f.id);
        // Reused and freshly exported attributes interleave in arbitrary
        // order; dense-by-id is the contract either way.
        attributes.sort_by_key(|a| a.id);

        // lint: allow(swallowed_result) — best-effort cleanup of an empty spill dir; the export already succeeded
        let _ = std::fs::remove_dir_all(&spill_dir); // empty after successful export
        Ok(ExportedDatabase {
            dir: dir.to_path_buf(),
            attributes,
            failed,
            io: sort.io.clone(),
            read_stats,
            segments,
            key_compares: key_compares.into_inner(),
            memcmp_compares: memcmp_compares.into_inner(),
            exports_reused,
            exports_redone,
            orphans_swept,
        })
    }
    /// Attributes quarantined during a keep-going export (empty unless
    /// [`ExportOptions::keep_going`] was set and something failed).
    pub fn failed_attributes(&self) -> &[FailedAttribute] {
        &self.failed
    }

    /// True when `id` was quarantined during export: its metadata slot is
    /// zeroed and [`ExportedDatabase::open`] refuses it.
    pub fn is_quarantined(&self, id: u32) -> bool {
        self.failed.iter().any(|f| f.id == id)
    }

    /// All exported attributes, indexed by id.
    pub fn attributes(&self) -> &[ExportedAttribute] {
        &self.attributes
    }

    /// One attribute by id.
    pub fn attribute(&self, id: u32) -> Option<&ExportedAttribute> {
        self.attributes.get(id as usize)
    }

    /// Export directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The I/O options every cursor opened from this export uses.
    pub fn io_options(&self) -> &IoOptions {
        &self.io
    }

    /// Overrides the I/O options for subsequently opened cursors. The
    /// export's counters stay attached, whatever `io.stats` holds.
    pub fn set_io_options(&mut self, io: IoOptions) {
        self.io = io.with_stats(self.read_stats.clone());
    }

    /// Total `pread`s made by every cursor this export has opened
    /// (including ones on worker threads), counted where each reaches the
    /// OS. The disk-side analogue of the bench harness's allocation
    /// counters. A block fill is usually one `pread`: raw frames land in
    /// the block and are decoded there.
    pub fn read_calls(&self) -> u64 {
        self.read_stats.read_calls()
    }

    /// Resets the shared read-call counter (between measured phases).
    pub fn reset_read_calls(&self) {
        self.read_stats.reset();
    }

    /// Physical descriptors opened for value data since the last reset:
    /// one per segment, however many cursors read it.
    pub fn file_opens(&self) -> u64 {
        self.read_stats.file_opens()
    }

    /// Transient I/O faults (`EINTR`, short reads) healed by the retrying
    /// wrapper — writes during the export and reads afterwards (see
    /// [`ReadStats::io_retries`]).
    pub fn io_retries(&self) -> u64 {
        self.read_stats.io_retries()
    }

    /// Checksum mismatches detected by opened cursors (each also surfaced
    /// as a `Corrupt` error; see [`ReadStats::checksum_failures`]).
    pub fn checksum_failures(&self) -> u64 {
        self.read_stats.checksum_failures()
    }

    /// Spill-merge tree comparisons the normalized key resolved alone,
    /// summed over every attribute sort of this export (0 when nothing
    /// spilled — in-memory sorts bypass the merge tree entirely).
    pub fn sort_key_compares(&self) -> u64 {
        self.key_compares
    }

    /// Spill-merge tree comparisons that tied on the key and fell
    /// through to a full `memcmp` (see [`crate::SortStats::memcmp_compares`]).
    pub fn sort_memcmp_compares(&self) -> u64 {
        self.memcmp_compares
    }

    /// Attributes reused from the segment trailers by a `--resume` run
    /// (their streams passed validation; not a byte was re-sorted).
    pub fn exports_reused(&self) -> u64 {
        self.exports_reused
    }

    /// Attributes a `--resume` run had to (re-)export: in no valid trailer,
    /// torn, checksum-invalid, or stale against the source hash.
    pub fn exports_redone(&self) -> u64 {
        self.exports_redone
    }

    /// Files an earlier run left behind that this export deleted: staged
    /// `.tmp` files, segments no manifest entry points into, and value
    /// files of the one-file-per-attribute layout.
    pub fn orphans_swept(&self) -> u64 {
        self.orphans_swept
    }
}

impl ValueSetProvider for ExportedDatabase {
    type Cursor = ValueFileReader;

    fn open(&self, id: u32) -> Result<ValueFileReader> {
        let attr = self
            .attributes
            .get(id as usize)
            .ok_or(ValueSetError::UnknownAttribute(id))?;
        if let Some(f) = self.failed.iter().find(|f| f.id == id) {
            return Err(ValueSetError::Corrupt {
                context: attr.path.display().to_string(),
                detail: format!("attribute quarantined during export: {}", f.error),
            });
        }
        // Through the shared descriptor of its segment; an `open:` fault
        // rule naming the stream refuses it.
        crate::fault::check_open(attr.path.label(), self.io.fault.as_ref())?;
        let file = self
            .segments
            .get(attr.path.file(), self.io.stats.as_ref())?;
        ValueFileReader::over(file, &attr.path, &self.io, attr.file_bytes)
    }

    fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Equal sets are byte-identical streams, so streams of different sizes
    /// differ without a read; equal sizes are compared through the
    /// checksum-verifying reader ([`ValueFileReader::same_stream`]), which
    /// fails on a corrupt stream exactly as a cursor reading it would.
    fn same_values(&self, a: u32, b: u32) -> Result<bool> {
        let file_bytes = |id: u32| {
            self.attribute(id)
                .map(|attr| attr.file_bytes)
                .ok_or(ValueSetError::UnknownAttribute(id))
        };
        if file_bytes(a)? != file_bytes(b)? {
            return Ok(false);
        }
        self.open(a)?.same_stream(&mut self.open(b)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{collect_cursor, ValueCursor};
    use ind_storage::{ColumnSchema, Table, TableSchema, Value};
    use ind_testkit::TempDir;

    /// The bytes of `attr`'s stream, read out of its segment.
    fn stream_bytes(attr: &ExportedAttribute) -> Vec<u8> {
        let segment = std::fs::read(attr.path.file()).unwrap();
        let start = attr.path.offset() as usize;
        segment[start..start + attr.file_bytes as usize].to_vec()
    }

    /// Every `.tmp` stage left in `dir`.
    fn stages(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect()
    }

    fn sample_db() -> Database {
        let mut db = Database::new("exported");
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("label", DataType::Text),
                    ColumnSchema::new("blob", DataType::Lob),
                ],
            )
            .unwrap(),
        );
        t.insert(vec![1.into(), "b".into(), "xxxx".into()]).unwrap();
        t.insert(vec![2.into(), "a".into(), Value::Null]).unwrap();
        t.insert(vec![3.into(), "a".into(), Value::Null]).unwrap();
        db.add_table(t).unwrap();
        let mut u = Table::new(
            TableSchema::new("u", vec![ColumnSchema::new("ref", DataType::Integer)]).unwrap(),
        );
        u.insert(vec![1.into()]).unwrap();
        u.insert(vec![3.into()]).unwrap();
        db.add_table(u).unwrap();
        db
    }

    #[test]
    fn export_produces_metadata_and_files() {
        let dir = TempDir::new("export-meta");
        let exp =
            ExportedDatabase::export(&sample_db(), dir.path(), &ExportOptions::default()).unwrap();
        assert_eq!(exp.attribute_count(), 4);

        let id_attr = &exp.attributes()[0];
        assert_eq!(id_attr.name.to_string(), "t.id");
        assert_eq!(id_attr.distinct, 3);
        assert_eq!(id_attr.non_null, 3);
        assert!(id_attr.is_unique());
        assert_eq!(id_attr.min.as_deref(), Some(b"1".as_slice()));
        assert_eq!(id_attr.max.as_deref(), Some(b"3".as_slice()));

        let label = &exp.attributes()[1];
        assert_eq!(label.distinct, 2);
        assert_eq!(label.non_null, 3);
        assert!(!label.is_unique());

        let blob = &exp.attributes()[2];
        assert_eq!(blob.data_type, DataType::Lob);
        assert_eq!(blob.non_null, 1);

        let values = collect_cursor(exp.open(3).unwrap()).unwrap();
        assert_eq!(values, vec![b"1".to_vec(), b"3".to_vec()]);
    }

    #[test]
    fn parallel_export_matches_sequential_byte_for_byte() {
        let db = sample_db();
        let seq_dir = TempDir::new("export-seq");
        let seq =
            ExportedDatabase::export(&db, seq_dir.path(), &ExportOptions::with_threads(1)).unwrap();
        for threads in [2usize, 3, 8] {
            let par_dir = TempDir::new("export-par");
            let par = ExportedDatabase::export(
                &db,
                par_dir.path(),
                &ExportOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(par.attribute_count(), seq.attribute_count());
            for (a, b) in par.attributes().iter().zip(seq.attributes()) {
                assert_eq!(a.id, b.id, "threads={threads}");
                assert_eq!(a.name, b.name);
                assert_eq!((a.non_null, a.distinct), (b.non_null, b.distinct));
                assert_eq!((&a.min, &a.max), (&b.min, &b.max));
                assert_eq!(
                    collect_cursor(par.open(a.id).unwrap()).unwrap(),
                    collect_cursor(seq.open(b.id).unwrap()).unwrap(),
                    "threads={threads}, attribute {}",
                    a.name
                );
            }
            assert!(
                !par_dir.join("spill").exists(),
                "worker spill dirs must be cleaned up"
            );
        }
        // Group streams too: the same bytes at 1 and 3 workers, and the
        // values the in-memory composite extraction yields.
        let groups = sample_groups();
        let exports: Vec<(TempDir, ExportedDatabase)> = [1usize, 3]
            .into_iter()
            .map(|threads| {
                let dir = TempDir::new("export-groups-par");
                let options = ExportOptions::with_threads(threads);
                let exp = ExportedDatabase::export_groups(&db, &groups, dir.path(), &options);
                (dir, exp.unwrap())
            })
            .collect();
        let (seq, par) = (&exports[0].1, &exports[1].1);
        for ((id, group), mem) in groups.iter().enumerate().zip(group_sets(&db, &groups)) {
            let (a, b) = (&seq.attributes()[id], &par.attributes()[id]);
            assert_eq!(stream_bytes(a), stream_bytes(b), "group {group:?}");
            assert_eq!(
                collect_cursor(par.open(b.id).unwrap()).unwrap(),
                mem.as_slice()
            );
        }
    }

    #[test]
    fn block_size_is_an_io_knob_not_a_format_knob() {
        // Exports at wildly different block sizes must produce identical
        // streams, and cursors opened at any block size read any export.
        let db = sample_db();
        let ref_dir = TempDir::new("export-io-ref");
        let reference =
            ExportedDatabase::export(&db, ref_dir.path(), &ExportOptions::default()).unwrap();
        for block_size in [1usize, 16, 64, 1 << 20] {
            let dir = TempDir::new("export-io");
            let exp = ExportedDatabase::export(
                &db,
                dir.path(),
                &ExportOptions::with_block_size(block_size),
            )
            .unwrap();
            assert_eq!(exp.io_options().block_size, block_size);
            for (a, b) in exp.attributes().iter().zip(reference.attributes()) {
                assert_eq!(
                    stream_bytes(a),
                    stream_bytes(b),
                    "block_size={block_size}, attribute {}",
                    a.name
                );
                assert_eq!(
                    collect_cursor(exp.open(a.id).unwrap()).unwrap(),
                    collect_cursor(reference.open(b.id).unwrap()).unwrap(),
                );
            }
        }
    }

    #[test]
    fn read_calls_aggregate_across_cursors() {
        let dir = TempDir::new("export-readcalls");
        let exp =
            ExportedDatabase::export(&sample_db(), dir.path(), &ExportOptions::default()).unwrap();
        assert_eq!(exp.read_calls(), 0, "no cursors opened yet");
        for id in 0..exp.attribute_count() as u32 {
            collect_cursor(exp.open(id).unwrap()).unwrap();
        }
        let after_scan = exp.read_calls();
        assert!(
            after_scan >= exp.attribute_count() as u64,
            "each cursor fills at least once, got {after_scan}"
        );
        // One descriptor per segment, however many cursors read it.
        let segments: HashSet<&Path> = exp.attributes().iter().map(|a| a.path.file()).collect();
        assert_eq!(exp.file_opens(), segments.len() as u64);
        for id in 0..exp.attribute_count() as u32 {
            collect_cursor(exp.open(id).unwrap()).unwrap();
        }
        assert_eq!(exp.file_opens(), segments.len() as u64, "reopens share it");
        exp.reset_read_calls();
        assert_eq!(exp.read_calls(), 0);
    }

    /// The two-column group of `t` and the one-column group of `u`.
    fn sample_groups() -> Vec<Vec<QualifiedName>> {
        vec![
            vec![
                QualifiedName::new("t", "id"),
                QualifiedName::new("t", "label"),
            ],
            vec![QualifiedName::new("u", "ref")],
        ]
    }

    /// The in-memory sets of `groups`.
    fn group_sets(db: &Database, groups: &[Vec<QualifiedName>]) -> Vec<crate::MemoryValueSet> {
        let sources: Vec<_> = Source::groups(db, groups)
            .unwrap()
            .into_iter()
            .map(|g| g.2)
            .collect();
        let extracted = crate::extract_memory_columns(&sources, 1).unwrap();
        extracted.into_iter().map(|column| column.set).collect()
    }

    #[test]
    fn composite_export_matches_memory_extraction() {
        let db = sample_db();
        let dir = TempDir::new("export-composite");
        let groups = sample_groups();
        let exp =
            ExportedDatabase::export_groups(&db, &groups, dir.path(), &ExportOptions::default())
                .unwrap();
        assert_eq!(exp.attribute_count(), 2);
        for ((id, group), mem) in groups.iter().enumerate().zip(group_sets(&db, &groups)) {
            let disk = collect_cursor(exp.open(id as u32).unwrap()).unwrap();
            assert_eq!(disk, mem.as_slice(), "group {group:?}");
            let meta = &exp.attributes()[id];
            assert_eq!(meta.distinct, mem.len());
            assert_eq!(meta.data_type, DataType::Text);
            assert_eq!(meta.rows, db.cells(&group[0]).unwrap().len() as u64);
            assert!(meta
                .path
                .label()
                .to_string_lossy()
                .ends_with(&format!("[comp-{id:05}]")));
        }
        assert_eq!(exp.attributes()[0].name.to_string(), "t.id,label");
        assert!(exp.read_calls() > 0, "cursors are counted");
        assert!(exp.open(2).is_err());
    }

    #[test]
    fn composite_export_rejects_unknown_columns() {
        let db = sample_db();
        let dir = TempDir::new("export-composite-bad");
        let groups = vec![vec![QualifiedName::new("t", "missing")]];
        let options = ExportOptions::default();
        assert!(ExportedDatabase::export_groups(&db, &groups, dir.path(), &options).is_err());
    }

    #[test]
    fn keep_going_quarantines_only_the_failed_attribute() {
        // Inject an ENOSPC on attribute 1's stream: without keep_going the
        // export dies; with it, attribute 1 is quarantined and every other
        // attribute exports byte-identically to a fault-free run — in the
        // very segment attribute 1 was being written into.
        let db = sample_db();
        let clean_dir = TempDir::new("export-keepgoing-ref");
        let clean =
            ExportedDatabase::export(&db, clean_dir.path(), &ExportOptions::default()).unwrap();
        for threads in [1usize, 3] {
            let strict_dir = TempDir::new("export-keepgoing-strict");
            assert!(
                ExportedDatabase::export(
                    &db,
                    strict_dir.path(),
                    &faulted("write:attr-00001:enospc", threads)
                )
                .is_err(),
                "threads={threads}: without keep_going the export fails"
            );

            let lax = faulted("write:attr-00001:enospc", threads).keep_going(true);
            let dir = TempDir::new("export-keepgoing");
            let exp = ExportedDatabase::export(&db, dir.path(), &lax).unwrap();
            assert_eq!(exp.attribute_count(), clean.attribute_count());
            assert_eq!(exp.failed_attributes().len(), 1, "threads={threads}");
            let failure = &exp.failed_attributes()[0];
            assert_eq!(failure.id, 1);
            assert_eq!(failure.name.to_string(), "t.label");
            assert!(failure.error.contains("attr-00001"), "{}", failure.error);
            assert!(exp.is_quarantined(1));
            assert!(!exp.is_quarantined(0));
            let denied = exp.open(1);
            match denied {
                Err(ValueSetError::Corrupt { context, detail }) => {
                    assert!(detail.contains("quarantined"), "{detail}");
                    assert!(context.contains("[attr-00001]"), "{context}");
                }
                _ => panic!("opening a quarantined attribute must fail"),
            }
            for id in [0u32, 2, 3] {
                assert_eq!(
                    collect_cursor(exp.open(id).unwrap()).unwrap(),
                    collect_cursor(clean.open(id).unwrap()).unwrap(),
                    "threads={threads}: healthy attribute {id} is untouched"
                );
                assert_eq!(
                    stream_bytes(&exp.attributes()[id as usize]),
                    stream_bytes(&clean.attributes()[id as usize])
                );
            }
            if threads == 1 {
                let segment = exp.attributes()[0].path.file();
                assert!(exp
                    .attributes()
                    .iter()
                    .all(|a| a.id == 1 || a.path.file() == segment));
            }
            assert!(
                !dir.join("spill").exists(),
                "spill dirs are cleaned up after a degraded export"
            );
            assert_eq!(vouched(dir.path()), [0, 2, 3], "threads={threads}");
            assert!(stages(dir.path()).is_empty());
        }
    }

    #[test]
    fn a_read_fault_in_a_shared_segment_costs_only_that_attribute() {
        // One worker: all four streams in one segment. A bit flip in
        // attribute 1's stream — offsets count from ITS first byte — fails
        // that cursor alone; its siblings, read through the same descriptor,
        // still answer.
        let dir = TempDir::new("export-shared-segment");
        let mut exp =
            ExportedDatabase::export(&sample_db(), dir.path(), &ExportOptions::with_threads(1))
                .unwrap();
        let segment = exp.attributes()[0].path.file().to_path_buf();
        assert!(exp.attributes().iter().all(|a| a.path.file() == segment));
        assert!(exp.attributes()[1].path.offset() > 0);
        let clean: Vec<_> = (0..4u32)
            .map(|id| collect_cursor(exp.open(id).unwrap()).unwrap())
            .collect();
        let plan = std::sync::Arc::new(crate::FaultPlan::parse("read:attr-00001:flip=30").unwrap());
        exp.set_io_options(exp.io_options().clone().with_fault(plan.clone()));
        match exp.open(1).and_then(collect_cursor) {
            Err(ValueSetError::Corrupt { context, .. }) => {
                assert!(
                    context.ends_with("seg-00-0000.indv[attr-00001]"),
                    "{context}"
                )
            }
            other => panic!("the flipped stream must be Corrupt, got {other:?}"),
        }
        assert_eq!(plan.fired_count(), 1);
        for id in [0u32, 2, 3] {
            assert_eq!(
                collect_cursor(exp.open(id).unwrap()).unwrap(),
                clean[id as usize]
            );
        }
    }

    /// The attribute ids the ON-DISK trailers of `dir` vouch for, each
    /// latest entry's stream checked against its seal first: a trailer may
    /// never describe a stream that is missing, torn, or not the one it
    /// recorded.
    fn vouched(dir: &Path) -> Vec<u32> {
        let mut ids: Vec<u32> = latest_entries(dir, None)
            .into_iter()
            .map(|(id, ((_, segment), entry))| {
                let extent = Extent::new(&segment, entry.offset, &stream_name(id));
                let file = std::fs::File::open(extent.file()).unwrap();
                verify_extent_quick(&file, &extent, entry.file_bytes, entry.records, None)
                    .unwrap_or_else(|e| {
                        panic!("a trailer vouches for a bad {}: {e}", extent.display())
                    });
                id
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    fn faulted(spec: &str, threads: usize) -> ExportOptions {
        let mut options = ExportOptions::with_threads(threads);
        options.sort.io = IoOptions::default().with_fault(std::sync::Arc::new(
            crate::fault::FaultPlan::parse(spec).unwrap(),
        ));
        options
    }

    #[test]
    fn a_worker_holds_one_segment_at_a_time() {
        // 600 attributes over 32 workers, every segment fsync failing: each
        // worker's commit fails the (strict) export for it and leaves the
        // one segment it was writing as a `.tmp` orphan, so the orphans
        // count the descriptors all workers held at their fullest.
        let mut db = Database::new("many-attributes");
        for t in 0..20 {
            let columns = (0..30)
                .map(|c| ColumnSchema::new(format!("c{c}"), DataType::Integer))
                .collect();
            let mut table = Table::new(TableSchema::new(format!("t{t}"), columns).unwrap());
            table.insert((0..30i64).map(Value::from).collect()).unwrap();
            db.add_table(table).unwrap();
        }
        let dir = TempDir::new("export-descriptors");
        let err = ExportedDatabase::export(&db, dir.path(), &faulted("fsync:seg-:fail@600", 32))
            .unwrap_err();
        assert!(err.to_string().contains("injected fsync"), "{err}");
        let orphans = stages(dir.path());
        assert!((1..=32).contains(&orphans.len()), "{orphans:?}");
        assert!(orphans.iter().all(|name| name.starts_with("seg-")));
    }

    #[test]
    fn batch_commit_writes_the_bytes_per_file_publication_wrote() {
        // Publication changes where a stream lies, never its bytes: every
        // extent equals the standalone `extract_to_file` output for its
        // column, and the trailer after them records each attribute as the
        // standalone extraction counted and hashed it.
        let db = sample_db();
        let dir = TempDir::new("export-identity");
        let exp =
            ExportedDatabase::export(&db, dir.path(), &ExportOptions::with_threads(1)).unwrap();
        let path = dir.join("seg-00-0000.indv");
        let trailer = read_trailer(&path, None).unwrap();
        let standalone = TempDir::new("export-identity-standalone");
        let columns = db
            .tables()
            .iter()
            .flat_map(|t| t.iter_cells().map(|(_, _, column)| column));
        for ((attr, column), entry) in exp.attributes().iter().zip(columns).zip(&trailer) {
            let plain = standalone.join(&format!("{}.indv", stream_name(attr.id)));
            let spill = standalone.join("spill");
            let stats =
                crate::extract_to_file(column, &plain, &spill, SortOptions::default()).unwrap();
            assert_eq!(stream_bytes(attr), std::fs::read(&plain).unwrap());
            let placed = (attr.path.offset(), attr.file_bytes, attr.distinct);
            let standalone =
                TrailerEntry::new(attr.id, &attr.name, attr.data_type, attr.rows, &stats);
            assert_eq!(
                *entry,
                TrailerEntry {
                    offset: placed.0,
                    file_bytes: placed.1,
                    records: placed.2,
                    ..standalone
                }
            );
        }
        assert_eq!(trailer.len(), 4);
        let segment = std::fs::read(&path).unwrap();
        let streams: Vec<u8> = exp.attributes().iter().flat_map(stream_bytes).collect();
        assert_eq!(
            segment[..streams.len()],
            streams,
            "the segment is its streams back to back, then the trailer"
        );

        // CRC-32C of each stream of this very export. The value streams
        // are re-pinned whenever the record format changes (last: the
        // front-coded v3 records) and hold on extents of a segment; the
        // trailer is re-pinned whenever its layout, the streams' sizes or
        // the `source_hash` function change (last: v3 sizes and the
        // four-lane buffer hash).
        let pins: [u32; 4] = [0xe1d7_8e85, 0x0dd2_a71f, 0x2398_a23e, 0x7cf5_7d76];
        for (attr, crc) in exp.attributes().iter().zip(pins) {
            assert_eq!(crate::crc32c(&stream_bytes(attr)), crc, "{}", attr.name);
        }
        assert_eq!(
            crate::crc32c(&segment[streams.len()..]),
            0xe6a3_bc05,
            "trailer"
        );
    }

    #[test]
    fn a_strict_error_commits_the_staged_siblings_first() {
        for threads in [1usize, 3] {
            let dir = TempDir::new("export-strict-commit");
            let err = ExportedDatabase::export(
                &sample_db(),
                dir.path(),
                &faulted("write:attr-00002:enospc", threads),
            )
            .unwrap_err();
            assert!(err.to_string().contains("attr-00002"), "{err}");
            // Everything sealed before (or beside) the failure is
            // published and vouched for; the failing attribute is not.
            let vouched = vouched(dir.path());
            assert!(!vouched.contains(&2));
            if threads == 1 {
                assert_eq!(vouched, [0, 1]);
            }
            assert!(stages(dir.path()).is_empty(), "no stage leaks");
        }
    }

    #[test]
    fn a_failed_segment_fsync_fails_a_strict_export_and_records_nothing() {
        for threads in [1usize, 3] {
            let dir = TempDir::new("export-fsync-strict");
            let err = ExportedDatabase::export(
                &sample_db(),
                dir.path(),
                &faulted("fsync:attr-00001:fail", threads),
            )
            .unwrap_err();
            assert!(err.to_string().contains("injected fsync"), "{err}");
            assert!(!vouched(dir.path()).contains(&1), "threads={threads}");
            if threads == 1 {
                assert!(vouched(dir.path()).is_empty(), "one batch, lost whole");
            }
        }
    }

    #[test]
    fn a_failed_segment_fsync_quarantines_its_whole_batch_under_keep_going() {
        // Attribute 1's segment fails its fsync. Its streams share that one
        // file, so every attribute of the batch is quarantined — the
        // documented price of one fsync per batch — and no other.
        let clean_dir = TempDir::new("export-fsync-ref");
        let clean =
            ExportedDatabase::export(&sample_db(), clean_dir.path(), &ExportOptions::default())
                .unwrap();
        for threads in [1usize, 3] {
            let dir = TempDir::new("export-fsync-quarantine");
            let options = faulted("fsync:attr-00001:fail", threads).keep_going(true);
            let exp = ExportedDatabase::export(&sample_db(), dir.path(), &options).unwrap();
            let lost: Vec<u32> = exp.failed_attributes().iter().map(|f| f.id).collect();
            assert!(lost.contains(&1), "threads={threads}: {lost:?}");
            let batch = exp.failed_attributes()[0].error.clone();
            for failure in exp.failed_attributes() {
                assert!(
                    failure.error.contains("injected fsync"),
                    "{}",
                    failure.error
                );
                assert_eq!(failure.error, batch, "one failure, one batch");
            }
            if threads == 1 {
                assert_eq!(lost, [0, 1, 2, 3], "one worker, one batch");
            }
            let healthy: Vec<u32> = (0..4u32).filter(|id| !lost.contains(id)).collect();
            for &id in &healthy {
                assert_eq!(
                    collect_cursor(exp.open(id).unwrap()).unwrap(),
                    collect_cursor(clean.open(id).unwrap()).unwrap(),
                    "threads={threads}: the other batches are untouched"
                );
            }
            assert_eq!(vouched(dir.path()), healthy);
            assert!(stages(dir.path()).is_empty(), "the failed stage is dropped");
        }
    }

    #[test]
    fn a_segment_renamed_before_a_crash_is_reused() {
        // One worker, one batch: the run dies after the segment's rename,
        // at the directory fsync, so no rename is known durable and the
        // export fails, keep-going or not. The segment under its final name
        // was fsynced, trailer included, before the rename: if the rename
        // survives, the resume reuses all of it and sweeps nothing.
        let db = sample_db();
        for keep_going in [false, true] {
            let dir = TempDir::new("export-renamed");
            let workdir = dir.join("wd");
            let options = faulted("fsync:wd$:fail", 1).keep_going(keep_going);
            let err = ExportedDatabase::export(&db, &workdir, &options).unwrap_err();
            assert!(err.to_string().contains("injected fsync"), "{err}");
            assert_eq!(vouched(&workdir), [0, 1, 2, 3], "keep_going={keep_going}");

            let resume = ExportOptions::with_threads(1).resume(ResumeMode::Reuse);
            let resumed = ExportedDatabase::export(&db, &workdir, &resume).unwrap();
            assert_eq!((resumed.exports_reused(), resumed.exports_redone()), (4, 0));
            assert_eq!(resumed.orphans_swept(), 0);
            assert!(resumed
                .attributes()
                .iter()
                .all(|a| a.path.file() == workdir.join("seg-00-0000.indv")));
        }
    }

    #[test]
    fn a_composite_level_commits_through_the_group_commit() {
        // A level stages and publishes like the unary export: its barrier
        // is fault-reachable, keep-going or not, and a clean level leaves
        // no stage. A rerun sweeps the level's old segments and writes new
        // ones past their ordinals.
        let groups: Vec<Vec<QualifiedName>> = ["id", "label", "blob"]
            .iter()
            .map(|c| vec![QualifiedName::new("t", *c)])
            .collect();
        let dir = TempDir::new("export-composite-batch");
        let workdir = dir.join("wd");
        let options = faulted("fsync:wd$:fail", 1).keep_going(true);
        assert!(
            ExportedDatabase::export_groups(&sample_db(), &groups, &workdir, &options).is_err()
        );
        let resume = ExportOptions::with_threads(1).resume(ResumeMode::Reuse);
        let exp =
            ExportedDatabase::export_groups(&sample_db(), &groups, &workdir, &resume).unwrap();
        assert_eq!(exp.attribute_count(), 3);
        assert_eq!((exp.exports_reused(), exp.orphans_swept()), (0, 1));
        assert!(stages(&workdir).is_empty());
        assert!(exp
            .attributes()
            .iter()
            .all(|c| c.path.file() == workdir.join("seg-00-0001.indv")));
    }

    #[test]
    fn export_counts_retried_writes() {
        // Transient write EINTRs during the export are healed invisibly
        // and land in the export's shared counters.
        let plan = std::sync::Arc::new(crate::fault::FaultPlan::parse("write:*:eintr@3").unwrap());
        let mut options = ExportOptions::default();
        options.sort.io = IoOptions::default().with_fault(plan);
        let dir = TempDir::new("export-retries");
        let exp = ExportedDatabase::export(&sample_db(), dir.path(), &options).unwrap();
        assert!(exp.failed_attributes().is_empty());
        assert_eq!(exp.io_retries(), 3, "retries are counted");
        let values = collect_cursor(exp.open(0).unwrap()).unwrap();
        assert_eq!(values.len(), 3, "the export is unharmed");
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let dir = TempDir::new("export-unknown");
        let exp =
            ExportedDatabase::export(&sample_db(), dir.path(), &ExportOptions::default()).unwrap();
        assert!(exp.open(99).is_err());
        assert!(exp.attribute(99).is_none());
    }

    #[test]
    fn cursors_are_independent() {
        let dir = TempDir::new("export-indep");
        let exp =
            ExportedDatabase::export(&sample_db(), dir.path(), &ExportOptions::default()).unwrap();
        let mut a = exp.open(0).unwrap();
        let mut b = exp.open(0).unwrap();
        a.advance().unwrap();
        a.advance().unwrap();
        b.advance().unwrap();
        assert_eq!(a.current(), b"2");
        assert_eq!(b.current(), b"1");
    }

    #[test]
    fn a_workdir_of_per_attribute_files_is_re_exported_and_swept() {
        // The two layouts before trailers: one `attr-NNNNN.indv` per
        // attribute, and segments without a trailer indexed by a
        // `MANIFEST.json`. Neither vouches for anything: every attribute is
        // exported again into a segment of its own layout, and the old
        // files are swept.
        let db = sample_db();
        let dir = TempDir::new("export-legacy-layout");
        let columns = db
            .tables()
            .iter()
            .flat_map(|t| t.iter_cells().map(|(_, _, c)| c));
        for (id, column) in columns.enumerate() {
            let values = crate::extract_sorted_distinct(column);
            let file = format!("attr-{id:05}.indv");
            crate::format::write_value_file(&dir.join(&file), &values).unwrap();
        }
        let segmented = TempDir::new("export-legacy-segments");
        let old = ExportedDatabase::export(&db, segmented.path(), &ExportOptions::with_threads(1))
            .unwrap();
        let streams: Vec<u8> = old.attributes().iter().flat_map(stream_bytes).collect();
        std::fs::write(dir.join("seg-00-0000.indv"), streams).unwrap();
        std::fs::write(dir.join("MANIFEST.json"), "{\"manifest_version\": 3}").unwrap();
        assert!(read_trailer(&dir.join("seg-00-0000.indv"), None).is_err());

        let resumed = ExportedDatabase::export(
            &db,
            dir.path(),
            &ExportOptions::default().resume(ResumeMode::Verify),
        )
        .unwrap();
        assert_eq!((resumed.exports_reused(), resumed.exports_redone()), (0, 4));
        assert_eq!(
            resumed.orphans_swept(),
            6,
            "every per-attribute file, the segment and the manifest"
        );
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| n.starts_with("seg-") && n != "seg-00-0000.indv"),
            "{names:?}"
        );
        assert_eq!(vouched(dir.path()), [0, 1, 2, 3]);
        for (a, b) in old.attributes().iter().zip(resumed.attributes()) {
            assert_eq!(stream_bytes(a), stream_bytes(b));
        }
    }

    #[test]
    fn resume_reuses_valid_exports_and_sweeps_orphans() {
        let dir = TempDir::new("resume-reuse");
        let db = sample_db();
        let first = ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).unwrap();
        let before: Vec<Vec<u8>> = first.attributes().iter().map(stream_bytes).collect();
        // What earlier runs may leave: a torn stage, a segment without a
        // trailer, a file of the per-attribute layout — and a directory
        // under a stage's name, which the sweep cannot remove and so does
        // not count.
        std::fs::write(dir.path().join("seg-07-0003.indv.tmp"), b"torn stage").unwrap();
        std::fs::write(dir.path().join("seg-01-0009.indv"), b"no trailer").unwrap();
        std::fs::write(dir.path().join("attr-00000.indv"), b"old layout").unwrap();
        std::fs::create_dir(dir.path().join("seg-00-0009.indv.tmp")).unwrap();

        let resumed = ExportedDatabase::export(
            &db,
            dir.path(),
            &ExportOptions::default().resume(ResumeMode::Reuse),
        )
        .unwrap();
        assert_eq!(resumed.exports_reused(), 4);
        assert_eq!(resumed.exports_redone(), 0);
        assert_eq!(resumed.orphans_swept(), 3);
        for orphan in [
            "seg-07-0003.indv.tmp",
            "seg-01-0009.indv",
            "attr-00000.indv",
        ] {
            assert!(!dir.path().join(orphan).exists(), "{orphan}");
        }
        assert!(dir.path().join("seg-00-0009.indv.tmp").is_dir());

        // Reconstructed metadata and stream bytes match the original export.
        let after: Vec<Vec<u8>> = resumed.attributes().iter().map(stream_bytes).collect();
        assert_eq!(before, after);
        for (a, b) in first.attributes().iter().zip(resumed.attributes()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name.to_string(), b.name.to_string());
            assert_eq!(a.data_type, b.data_type);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.non_null, b.non_null);
            assert_eq!(a.distinct, b.distinct);
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
            assert_eq!(a.path, b.path);
            assert_eq!(a.file_bytes, b.file_bytes);
        }
        // Reused attributes open and read like freshly exported ones.
        let values = collect_cursor(resumed.open(3).unwrap()).unwrap();
        assert_eq!(values, vec![b"1".to_vec(), b"3".to_vec()]);
    }

    #[test]
    fn resume_redoes_stale_and_torn_attributes() {
        let dir = TempDir::new("resume-redo");
        let first =
            ExportedDatabase::export(&sample_db(), dir.path(), &ExportOptions::default()).unwrap();
        // Break the seal of one published stream (its footer's last byte):
        // quick validation fails it, and only it.
        let torn = &first.attributes()[2];
        let end = torn.path.offset() + torn.file_bytes - 1;
        let mut segment = std::fs::read(torn.path.file()).unwrap();
        segment[end as usize] ^= 0xff;
        std::fs::write(torn.path.file(), segment).unwrap();

        // Same schema, different data in u.ref: attribute 3's stream is
        // intact but its source-content hash no longer matches.
        let mut db2 = sample_db();
        db2.table_mut("u").unwrap().insert(vec![9.into()]).unwrap();

        let resumed = ExportedDatabase::export(
            &db2,
            dir.path(),
            &ExportOptions::default().resume(ResumeMode::Reuse),
        )
        .unwrap();
        assert_eq!(resumed.exports_reused(), 2, "t.id and t.label reuse");
        assert_eq!(resumed.exports_redone(), 2, "torn t.blob + stale u.ref");
        let values = collect_cursor(resumed.open(3).unwrap()).unwrap();
        assert_eq!(values, vec![b"1".to_vec(), b"3".to_vec(), b"9".to_vec()]);
        let blob = collect_cursor(resumed.open(2).unwrap()).unwrap();
        assert_eq!(blob, vec![b"xxxx".to_vec()]);

        // The redone streams went into a segment numbered past the first,
        // whose trailer still holds their stale entries: the later entries
        // win, so the next resume reuses everything.
        let again = ExportedDatabase::export(
            &db2,
            dir.path(),
            &ExportOptions::default().resume(ResumeMode::Reuse),
        )
        .unwrap();
        assert_eq!((again.exports_reused(), again.exports_redone()), (4, 0));
        assert_eq!(vouched(dir.path()), [0, 1, 2, 3]);
    }

    #[test]
    fn a_trailer_extent_past_its_segment_is_redone_not_read() {
        // A trailer is input from disk: a later segment whose entry for
        // attribute 0 runs past the segment's end (here, right to the end
        // of the offset range) outranks the good entry, fails validation
        // before any stream is read, and is redone — in either mode.
        let db = sample_db();
        for mode in [ResumeMode::Reuse, ResumeMode::Verify] {
            let dir = TempDir::new("resume-bad-extent");
            ExportedDatabase::export(&db, dir.path(), &ExportOptions::with_threads(1)).unwrap();
            let mut entry = read_trailer(&dir.join("seg-00-0000.indv"), None).unwrap()[0].clone();
            entry.offset = u64::MAX - 8;
            let forged = crate::segment::encode_trailer(&[entry]);
            std::fs::write(dir.join("seg-00-0001.indv"), forged).unwrap();
            let resumed =
                ExportedDatabase::export(&db, dir.path(), &ExportOptions::default().resume(mode))
                    .unwrap();
            assert_eq!(
                (resumed.exports_reused(), resumed.exports_redone()),
                (3, 1),
                "{mode:?}"
            );
            assert_eq!(collect_cursor(resumed.open(0).unwrap()).unwrap().len(), 3);
            assert!(!dir.join("seg-00-0001.indv").exists(), "swept");
        }
    }

    #[test]
    fn cancelled_export_is_resumable_and_never_quarantined() {
        let dir = TempDir::new("cancel-resume");
        let db = sample_db();
        // A poll budget is an ordinal: it names a fixed point of the export
        // only at one worker.
        let options =
            ExportOptions::with_threads(1).with_cancel(crate::cancel::CancelToken::cancel_after(5));
        let err = ExportedDatabase::export(&db, dir.path(), &options).unwrap_err();
        assert!(matches!(err, ValueSetError::Cancelled { .. }), "{err}");
        // The stop committed what was already sealed: nothing finished is
        // lost, and the trailers vouch only for complete streams.
        assert!(!vouched(dir.path()).is_empty());

        // keep-going treats cancellation as a stop, not a data fault: no
        // quarantine, the error still surfaces.
        let options = ExportOptions::with_threads(1)
            .keep_going(true)
            .with_cancel(crate::cancel::CancelToken::cancel_after(5));
        let err = ExportedDatabase::export(&db, dir.path(), &options).unwrap_err();
        assert!(matches!(err, ValueSetError::Cancelled { .. }), "{err}");

        // Resume (with the deep frame-CRC walk) completes the export; the
        // attributes published before the budget ran out are reused.
        let resumed = ExportedDatabase::export(
            &db,
            dir.path(),
            &ExportOptions::default().resume(ResumeMode::Verify),
        )
        .unwrap();
        assert_eq!(resumed.exports_reused() + resumed.exports_redone(), 4);
        assert!(resumed.exports_reused() >= 1, "first publish survived");
        assert!(
            stages(dir.path()).is_empty(),
            "orphan stage survived resume"
        );

        // Byte-identical to an uninterrupted export.
        let clean_dir = TempDir::new("cancel-resume-clean");
        let clean =
            ExportedDatabase::export(&db, clean_dir.path(), &ExportOptions::default()).unwrap();
        for (a, b) in clean.attributes().iter().zip(resumed.attributes()) {
            assert_eq!(stream_bytes(a), stream_bytes(b));
        }
    }
}
