//! Perf-trajectory harness for the SPIDER merge engines and the value-file
//! I/O layer.
//!
//! ```text
//! cargo run --release -p ind-bench --bin bench_spider -- \
//!     [--scale N] [--block-size BYTES] [--memory-budget BYTES] [--out PATH] [--check]
//! ```
//!
//! Three measured sections per dataset (scale-N PDB, biosql/UniProt-shaped,
//! and wide-values datagen databases), plus a whole-run `nary` section over
//! the chains dataset (the datagen schema with a genuine composite foreign
//! key) recording per-level candidates-enumerable / generated / satisfied —
//! the committed evidence that the levelwise apriori pruning engages:
//!
//! * **memory** — the frozen pre-refactor engine shape
//!   (`ind_bench::legacy_spider`) and the current zero-allocation `spider`
//!   over in-memory value sets, with allocation counts from the counting
//!   allocator installed *in this binary only* (schema v10 dropped the
//!   value-domain-partitioned engine's row with the engine). Since schema
//!   v6 a `spider_traced` row re-runs the same merge with `ind-trace`
//!   phase spans and progress counters enabled — committed evidence that
//!   observability stays within a few percent of the traced-off run and
//!   keeps the merge allocation-free;
//! * **disk** — the same `spider` engine over an on-disk export, read
//!   through the frozen pre-block-layer `BufReader` reader shape
//!   (`ind_bench::legacy_reader`, engine `spider_bufreader`) and through
//!   the current block reader (`spider_block`, block size from
//!   `--block-size`, default 256 KiB), plus a block-size sweep. `read_calls`
//!   counts the read requests each reader issues to its I/O layer — per
//!   record (2× `read_exact`) for the legacy shape, per `pread` for the
//!   block reader (counted where it is made) — and `os_read_calls` the
//!   actual `read(2)` syscalls.
//!   The synchronous block reader is the library's only read mode; schema
//!   v9 dropped the overlapped-I/O rows together with those modes. Since
//!   format v2 the `spider_block`
//!   row (and the sweep) reads with checksum verification *off* — the raw
//!   framed-read baseline, trajectory-comparable with earlier schemas — and
//!   a `spider_checksum` row re-runs the same merge with per-frame CRC
//!   verification on (the production default), so the committed JSON shows
//!   exactly what self-verifying value files cost;
//! * **export** — the producer phase (extract → sort → spill → merge →
//!   write, every attribute of the database) through the frozen pre-arena
//!   sorter shape (`ind_bench::legacy_sorter`, one heap vector per pushed
//!   value) and the current arena sorter, byte-identical output files
//!   asserted before timing, with allocation counts, the peak
//!   budget-charged arena footprint, spill-run counts, and a spill sweep
//!   at tiny memory budgets (the configured `--memory-budget` becomes its
//!   own `arena_budget` row when non-default). An `export_checksum` row
//!   rides along: one arena export pass plus a full checksummed read-back
//!   of every emitted value stream — the self-verifying round trip. All of
//!   these are one worker. Since schema v8 two more rows time the export
//!   as the library runs it (`ExportedDatabase::export`: work-stealing
//!   workers, segments and their trailers): `export_serial` on one worker and
//!   `export_parallel` on every core, whose ratio is
//!   `speedup_export_parallel_vs_serial` (the parallel row is skipped, and
//!   the ratio says so, on a one-core host).
//!
//! Everything lands in a machine-readable `BENCH_spider.json` (default:
//! the current directory, i.e. the repo root when run from it) so
//! subsequent PRs can track the trajectory: wall-clock, `items_read`,
//! `value_bytes_read`, `comparisons`, allocation counts, and read calls.
//!
//! Results are cross-checked before timing — a wrong answer is never
//! benchmarked. `--check` switches to smoke mode for CI: it additionally
//! re-parses the emitted file and checks its keys, asserts the
//! zero-allocation property (the current engine's allocation count must be
//! a small constant, not proportional to `items_read`), and asserts the
//! block reader issues several times fewer read calls than the per-record
//! legacy shape with sweep counts non-increasing in block size, that the
//! current engine reads, compares and opens exactly what the frozen legacy
//! engine does (`items_read`, `value_bytes_read`, `comparisons`,
//! `cursor_opens`), and that `IndFinder::discover`, which merges one representative per class of
//! equal value sets (its IND set is cross-checked against `run_spider`
//! over every candidate), opens one cursor per class. At
//! `--scale >= 100` it also holds the pdb merge to >= 2.5x the frozen
//! legacy engine timed in the same run — the wall-clock gate on the merge
//! loop's constant factor. No gate compares two durable exports' wall
//! times: both are bound by fsync latency, which belongs to the disk.

use ind_bench::legacy_reader::LegacyDiskProvider;
use ind_bench::legacy_sorter::legacy_extract_to_file;
use ind_bench::legacy_spider::run_legacy_spider;
use ind_core::{
    generate_candidates, memory_export, run_spider, Algorithm, Candidate, IndFinder, NaryDiscovery,
    NaryFinder, PretestConfig, RunMetrics,
};
use ind_datagen::{
    generate_chains, generate_pdb, generate_uniprot, generate_wide, BiosqlConfig, ChainsConfig,
    OpenMmsConfig, WideConfig,
};
use ind_testkit::TempDir;
use ind_trace::json::{parse, Json};
use ind_valueset::{
    extract_with_sorter, ExportOptions, ExportedDatabase, Extent, ExternalSorter, IoOptions,
    SegmentWriter, SortOptions, SortStats, TrailerEntry, ValueCursor, ValueFileReader,
    DEFAULT_BLOCK_SIZE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator (bench-only; production crates never see it)
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator, counting allocation calls and tracking the
/// live-byte high-water mark. Relaxed atomics: the numbers are telemetry,
/// not synchronisation.
struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: delegates every allocation verbatim to `System`, upholding all
// of `GlobalAlloc`'s layout/validity contracts by construction; the only
// additions are relaxed atomic counter updates, which never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                let live = LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed) + (new - old);
                PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Snapshot of the allocation counters around a measured region.
struct AllocDelta {
    /// alloc/realloc calls during the region.
    calls: u64,
    /// High-water mark of live bytes observed during the region.
    peak_bytes: u64,
}

fn measure_allocs<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    // Reset the peak to the current live level so the delta reflects this
    // region, not program history.
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let out = f();
    let delta = AllocDelta {
        calls: ALLOC_CALLS.load(Ordering::Relaxed) - calls_before,
        // High-water mark relative to the live level at region entry, so
        // bytes still held by the region's result stay counted.
        peak_bytes: PEAK_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(live_before),
    };
    (out, delta)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ENGINE_RUNS: usize = 7;
/// Disk runs are quick but noisier (syscalls, page cache, neighbour load);
/// best-of-9 keeps the committed baseline stable on a busy container.
const DISK_ENGINE_RUNS: usize = 9;
/// `--check` holds the pdb merge to this multiple of the frozen legacy
/// engine's wall-clock once `--scale` reaches [`MERGE_GATE_MIN_SCALE`]
/// (below it the merge is too short to time).
const MERGE_GATE_MIN_SPEEDUP: f64 = 2.5;
const MERGE_GATE_MIN_SCALE: usize = 100;
/// The disk-section sweep: small (the old `BufReader` buffer size), medium,
/// and the default block.
const SWEEP_BLOCK_SIZES: [usize; 3] = [8 * 1024, 64 * 1024, 256 * 1024];

struct EngineResult {
    engine: &'static str,
    wall_ms: f64,
    metrics: RunMetrics,
    allocs: u64,
    peak_alloc_bytes: u64,
    satisfied: usize,
}

/// Snapshot of the export's shared I/O counters after a measured run.
#[derive(Clone, Copy)]
struct IoCounters {
    /// Read requests issued to the reader's I/O layer: per record for the
    /// legacy shape, per `pread` for the block reader.
    read_calls: u64,
    /// Physical descriptors opened on value files during the run.
    file_opens: u64,
    /// Transient read errors absorbed by the retrying wrapper (zero on a
    /// healthy filesystem — non-zero only under an injected fault plan).
    io_retries: u64,
    /// Format-v2 checksum mismatches detected (zero on healthy files).
    checksum_failures: u64,
}

impl IoCounters {
    fn zero() -> Self {
        IoCounters {
            read_calls: 0,
            file_opens: 0,
            io_retries: 0,
            checksum_failures: 0,
        }
    }

    fn snapshot(export: &ExportedDatabase) -> Self {
        IoCounters {
            read_calls: export.read_calls(),
            file_opens: export.file_opens(),
            io_retries: export.io_retries(),
            checksum_failures: export.checksum_failures(),
        }
    }
}

struct DiskEngineResult {
    engine: &'static str,
    wall_ms: f64,
    metrics: RunMetrics,
    /// Shared-counter snapshot of the run (read calls, descriptor opens,
    /// healed retries, checksum failures).
    io: IoCounters,
    /// Actual `read(2)` syscalls. The block reader's `io.read_calls` is
    /// already that count, measured at the fault wrapper where each
    /// `pread` is made.
    os_read_calls: u64,
    satisfied: usize,
}

struct SweepPoint {
    block_size: usize,
    wall_ms: f64,
    read_calls: u64,
}

struct DiskResult {
    block_size: usize,
    export_bytes: u64,
    engines: Vec<DiskEngineResult>,
    sweep: Vec<SweepPoint>,
}

impl DiskResult {
    fn engine(&self, engine: &str) -> Option<&DiskEngineResult> {
        self.engines.iter().find(|e| e.engine == engine)
    }

    fn read_calls(&self, engine: &str) -> Option<u64> {
        self.engine(engine).map(|e| e.io.read_calls)
    }

    fn wall_ms(&self, engine: &str) -> Option<f64> {
        self.engines
            .iter()
            .find(|e| e.engine == engine)
            .map(|e| e.wall_ms)
    }

    fn read_call_reduction(&self) -> Option<f64> {
        match (
            self.read_calls("spider_bufreader"),
            self.read_calls("spider_block"),
        ) {
            (Some(old), Some(new)) if new > 0 => Some(old as f64 / new as f64),
            _ => None,
        }
    }

    fn speedup_block_vs_bufreader(&self) -> Option<f64> {
        match (
            self.wall_ms("spider_bufreader"),
            self.wall_ms("spider_block"),
        ) {
            (Some(old), Some(new)) if new > 0.0 => Some(old / new),
            _ => None,
        }
    }

    /// Verified-over-raw wall-clock ratio: the price of per-frame CRC
    /// verification (1.0 = free).
    fn checksum_overhead(&self) -> Option<f64> {
        match (
            self.wall_ms("spider_block"),
            self.wall_ms("spider_checksum"),
        ) {
            (Some(raw), Some(verified)) if raw > 0.0 => Some(verified / raw),
            _ => None,
        }
    }
}

/// One sorter measured over a full-database export (every attribute,
/// extract → sort → dedup → write).
struct SorterResult {
    sorter: &'static str,
    wall_ms: f64,
    /// alloc/realloc calls for one whole export pass.
    allocs: u64,
    peak_alloc_bytes: u64,
    /// Spill runs summed over all attributes (0 = fully in-memory).
    runs: usize,
    /// Peak budget-charged sorter footprint (arena + index capacity);
    /// 0 for the legacy shape, which has no arena.
    arena_bytes: u64,
}

/// One point of the export-phase memory-budget sweep: the arena sorter
/// forced through multi-run spills at a tiny budget.
struct BudgetSweepPoint {
    memory_budget: usize,
    wall_ms: f64,
    runs: usize,
    allocs: u64,
}

/// The export-phase trajectory for one dataset: the frozen legacy sorter
/// shape vs the arena sorter on identical inputs (byte-identical output
/// files asserted before timing), plus the spill sweep.
struct ExportResult {
    attributes: usize,
    /// Non-null occurrences pushed through each sorter (whole database).
    pushed: u64,
    export_bytes: u64,
    memory_budget: usize,
    /// Workers of the `export_parallel` row ([`ind_storage::default_workers`]);
    /// 1 means the row was skipped.
    workers: usize,
    /// [`host_parallel_speedup`] taken right before the `export_parallel`
    /// row (1.0 when that row was skipped).
    host_parallel_speedup: f64,
    sorters: Vec<SorterResult>,
    sweep: Vec<BudgetSweepPoint>,
}

impl ExportResult {
    fn sorter(&self, name: &str) -> Option<&SorterResult> {
        self.sorters.iter().find(|s| s.sorter == name)
    }

    fn alloc_reduction(&self) -> Option<f64> {
        match (self.sorter("legacy"), self.sorter("arena")) {
            (Some(old), Some(new)) if new.allocs > 0 => Some(old.allocs as f64 / new.allocs as f64),
            _ => None,
        }
    }

    /// Both rows are one worker: the frozen legacy sorter is serial, and
    /// the `arena` row is one sorter in one loop.
    fn speedup_arena_vs_legacy(&self) -> Option<f64> {
        match (self.sorter("legacy"), self.sorter("arena")) {
            (Some(old), Some(new)) if new.wall_ms > 0.0 => Some(old.wall_ms / new.wall_ms),
            _ => None,
        }
    }

    /// The library's whole export (workers, segments, trailers) on
    /// every core against the same export on one worker; `None` on a
    /// one-core host, where the parallel row is skipped.
    fn speedup_export_parallel_vs_serial(&self) -> Option<f64> {
        match (self.sorter("export_serial"), self.sorter("export_parallel")) {
            (Some(one), Some(all)) if all.wall_ms > 0.0 => Some(one.wall_ms / all.wall_ms),
            _ => None,
        }
    }
}

struct DatasetResult {
    name: &'static str,
    tables: usize,
    attributes: usize,
    candidates: usize,
    engines: Vec<EngineResult>,
    /// Counters of `IndFinder::discover` with spider over the same sets.
    finder: RunMetrics,
    disk: DiskResult,
    export: ExportResult,
}

/// One level of the n-ary section: candidates-generated vs
/// candidates-enumerable is the apriori saving, satisfied the yield.
struct NaryLevelRow {
    arity: usize,
    enumerable: u64,
    generated: u64,
    pruned_projection: u64,
    satisfied: u64,
    wall_ms: f64,
}

/// The levelwise pipeline over the chains dataset (the datagen schema with
/// a genuine composite FK).
struct NaryResult {
    dataset: &'static str,
    max_arity: usize,
    tables: usize,
    attributes: usize,
    unary_satisfied: usize,
    composite_satisfied: usize,
    wall_ms: f64,
    levels: Vec<NaryLevelRow>,
}

fn bench_nary(scale: usize) -> Result<NaryResult, String> {
    const MAX_ARITY: usize = 3;
    let db = generate_chains(&ChainsConfig {
        structures: scale,
        ..Default::default()
    });
    let finder = NaryFinder::with_max_arity(MAX_ARITY);
    let run = || -> Result<NaryDiscovery, String> {
        finder.discover_in_memory(&db).map_err(|e| e.to_string())
    };
    // Counts are deterministic; only the per-level wall times vary, so the
    // best-of loop keeps the fastest total and the matching level times.
    let first = run()?; // warm-up
    let mut best_ms = f64::INFINITY;
    let mut best = first;
    for _ in 0..ENGINE_RUNS {
        let start = Instant::now();
        let d = run()?;
        let wall = start.elapsed().as_secs_f64() * 1e3;
        if d.satisfied != best.satisfied || d.unary != best.unary {
            return Err("[nary] levelwise discovery diverged between runs".into());
        }
        if wall < best_ms {
            best_ms = wall;
            best = d;
        }
    }
    println!(
        "[nary] chains scale={scale}: {} unary INDs, {} composite INDs, {best_ms:.2} ms",
        best.unary.len(),
        best.satisfied.len()
    );
    for level in &best.levels {
        println!(
            "[nary]   arity {}: enumerable={} generated={} proj_pruned={} satisfied={}",
            level.arity,
            level.enumerable,
            level.generated,
            level.pruned_projection,
            level.satisfied
        );
    }
    Ok(NaryResult {
        dataset: "chains",
        max_arity: MAX_ARITY,
        tables: db.table_count(),
        attributes: db.attribute_count(),
        unary_satisfied: best.unary.len(),
        composite_satisfied: best.satisfied.len(),
        wall_ms: best_ms,
        levels: best
            .levels
            .iter()
            .map(|l| NaryLevelRow {
                arity: l.arity,
                enumerable: l.enumerable,
                generated: l.generated,
                pruned_projection: l.pruned_projection,
                satisfied: l.satisfied,
                wall_ms: l.elapsed.as_secs_f64() * 1e3,
            })
            .collect(),
    })
}

/// The crash-and-resume row (schema v7): a cold export, the same export
/// killed at its last batch's commit, and the resume run that finishes the
/// job from the segment trailers — reusing the batches committed before
/// the crash instead of re-sorting them.
struct ResumeResult {
    dataset: &'static str,
    attributes: usize,
    exports_reused: u64,
    exports_redone: u64,
    orphans_swept: u64,
    cold_wall_ms: f64,
    resumed_wall_ms: f64,
}

/// The resume row's input is sized from `BATCH_MAX_BYTES`, not from
/// `--scale`: batches commit by bytes, so only an export of several
/// batches has committed work for a crash to spare. Two batches' worth of
/// 4 KiB payloads put `blob_store` (key, payload) in the first batch and
/// `blob_ref` (key, note) in the second.
fn bench_resume(memory_budget: usize) -> Result<ResumeResult, String> {
    use ind_valueset::{FaultPlan, ResumeMode, BATCH_MAX_BYTES};
    use std::sync::Arc;

    let db = generate_wide(&WideConfig {
        rows: (2 * BATCH_MAX_BYTES / 4096) as usize,
        value_bytes: 4096,
        seed: 42,
    });
    // Serial export: streams are written in id order and segments are
    // named in commit order, so a crash at the last segment's rename (it
    // counts as a write of its `.tmp`) leaves every earlier batch durable
    // (segment renamed into place, its trailer fsynced with it) and the last
    // one an orphan stage for the resume to sweep.
    let options = |resume: ResumeMode| {
        let mut o = ExportOptions::with_threads(1).resume(resume);
        o.sort.memory_budget_bytes = memory_budget;
        o
    };

    let mut cold_wall_ms = f64::INFINITY;
    let mut resumed_wall_ms = f64::INFINITY;
    let mut attributes = 0usize;
    let (mut reused, mut redone, mut orphans) = (0u64, 0u64, 0u64);
    for _ in 0..ENGINE_RUNS {
        let cold_dir = TempDir::new("bench-resume-cold");
        let start = Instant::now();
        let cold = ExportedDatabase::export(&db, cold_dir.path(), &options(ResumeMode::Off))
            .map_err(|e| e.to_string())?;
        cold_wall_ms = cold_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        attributes = cold.attributes().len();

        let segment = |i: usize| cold.attributes()[i].path.file().file_name();
        let (first, last) = (segment(0), segment(attributes - 1));
        let Some(last) = last.filter(|_| first != last) else {
            return Err("[resume] the export no longer spans two batches".into());
        };
        let dir = TempDir::new("bench-resume");
        let mut faulted = options(ResumeMode::Off);
        faulted.sort.io = IoOptions::default().with_fault(Arc::new(
            FaultPlan::parse(&format!("write:{}.tmp:crash=1", last.to_string_lossy()))
                .map_err(|e| e.to_string())?,
        ));
        if ExportedDatabase::export(&db, dir.path(), &faulted).is_ok() {
            return Err("[resume] the last-batch crash fault never fired".into());
        }
        let start = Instant::now();
        let resumed = ExportedDatabase::export(&db, dir.path(), &options(ResumeMode::Reuse))
            .map_err(|e| e.to_string())?;
        resumed_wall_ms = resumed_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        // The counters are deterministic across cycles; keep the last.
        reused = resumed.exports_reused();
        redone = resumed.exports_redone();
        orphans = resumed.orphans_swept();
    }
    println!(
        "[resume] wide rows={}: {attributes} attributes, reused={reused} \
         redone={redone} orphans={orphans}, cold {cold_wall_ms:.2} ms vs resumed \
         {resumed_wall_ms:.2} ms",
        db.total_rows()
    );
    Ok(ResumeResult {
        dataset: "wide",
        attributes,
        exports_reused: reused,
        exports_redone: redone,
        orphans_swept: orphans,
        cold_wall_ms,
        resumed_wall_ms,
    })
}

impl DatasetResult {
    fn wall_ms(&self, engine: &str) -> Option<f64> {
        self.engines
            .iter()
            .find(|e| e.engine == engine)
            .map(|e| e.wall_ms)
    }

    fn speedup_spider_vs_legacy(&self) -> Option<f64> {
        match (self.wall_ms("legacy"), self.wall_ms("spider")) {
            (Some(old), Some(new)) if new > 0.0 => Some(old / new),
            _ => None,
        }
    }
}

/// Times `run` over [`DISK_ENGINE_RUNS`] repetitions (after one warm-up),
/// returning the best wall time and the last run's output.
fn best_of_runs<T>(mut run: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    run()?; // warm-up
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..DISK_ENGINE_RUNS {
        let start = Instant::now();
        let out = run()?;
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    Ok((best_ms, last.expect("at least one measured run")))
}

fn bench_disk(
    name: &'static str,
    db: &ind_storage::Database,
    candidates: &[Candidate],
    expected: &[Candidate],
    expected_metrics: &RunMetrics,
    block_size: usize,
) -> Result<DiskResult, String> {
    let dir = TempDir::new(&format!("bench-spider-disk-{name}"));
    // Set-up, not a measured row: one worker, like every serial export
    // this harness times.
    let setup = ExportOptions {
        threads: 1,
        ..ExportOptions::with_block_size(block_size)
    };
    let mut export = ExportedDatabase::export(db, dir.path(), &setup).map_err(|e| e.to_string())?;
    // Sizes recorded at write time — exact, no per-file stat.
    let export_bytes: u64 = export.attributes().iter().map(|a| a.file_bytes).sum();

    // Byte-identical streams: the disk run must reproduce the in-memory
    // results *and* I/O metrics exactly before anything is timed.
    let assert_agrees = |engine: &str, got: &[Candidate], m: &RunMetrics| -> Result<(), String> {
        if got != expected {
            return Err(format!("[{name}] {engine} disagrees with in-memory spider"));
        }
        if (m.items_read, m.value_bytes_read, m.comparisons)
            != (
                expected_metrics.items_read,
                expected_metrics.value_bytes_read,
                expected_metrics.comparisons,
            )
        {
            return Err(format!(
                "[{name}] {engine} read different I/O: items={} bytes={} cmp={} vs \
                 items={} bytes={} cmp={}",
                m.items_read,
                m.value_bytes_read,
                m.comparisons,
                expected_metrics.items_read,
                expected_metrics.value_bytes_read,
                expected_metrics.comparisons,
            ));
        }
        Ok(())
    };

    let mut engines = Vec::new();

    // (a) The frozen pre-block-layer reader shape: BufReader + 2 read_exact
    // calls per record.
    {
        let provider = LegacyDiskProvider::new(&export);
        let (wall_ms, (satisfied, metrics, read_calls, os_read_calls)) = best_of_runs(|| {
            provider.counters().reset();
            let mut m = RunMetrics::new();
            let out = run_spider(&provider, candidates, &mut m).map_err(|e| e.to_string())?;
            let counters = provider.counters();
            m.read_calls = counters.read_requests();
            Ok((out, m, counters.read_requests(), counters.os_read_calls()))
        })?;
        assert_agrees("spider_bufreader", &satisfied, &metrics)?;
        println!(
            "[{name}]  disk spider_bufreader: {wall_ms:8.2} ms  read_calls={read_calls} \
             os_read_calls={os_read_calls}"
        );
        let mut io = IoCounters::zero();
        io.read_calls = read_calls;
        engines.push(DiskEngineResult {
            engine: "spider_bufreader",
            wall_ms,
            satisfied: satisfied.len(),
            metrics,
            io,
            os_read_calls,
        });
    }

    // (b) The block reader, swept over the fixed block sizes plus the
    // configured one. Each configuration is measured exactly once — the
    // headline `spider_block` row is the sweep point at `block_size`, so
    // the two can never drift apart through duplicated measurement.
    // Checksum verification is off here: this row is the raw framed-read
    // baseline, trajectory-comparable with pre-v2 schemas; the verified
    // configuration gets its own `spider_checksum` row below.
    let mut sweep_sizes: Vec<usize> = SWEEP_BLOCK_SIZES.to_vec();
    if !sweep_sizes.contains(&block_size) {
        sweep_sizes.push(block_size);
        sweep_sizes.sort_unstable();
    }
    let mut sweep = Vec::new();
    let mut headline: Option<DiskEngineResult> = None;
    for sweep_block in sweep_sizes {
        export.set_io_options(IoOptions::with_block_size(sweep_block).verify(false));
        let (wall_ms, (satisfied, metrics, io)) = best_of_runs(|| {
            export.reset_read_calls();
            let mut m = RunMetrics::new();
            let out = run_spider(&export, candidates, &mut m).map_err(|e| e.to_string())?;
            m.read_calls = export.read_calls();
            Ok((out, m, IoCounters::snapshot(&export)))
        })?;
        assert_agrees("spider_block", &satisfied, &metrics)?;
        println!(
            "[{name}]  disk spider_block block={sweep_block:>7}: {wall_ms:8.2} ms  \
             read_calls={}",
            io.read_calls
        );
        if sweep_block == block_size {
            headline = Some(DiskEngineResult {
                engine: "spider_block",
                wall_ms,
                satisfied: satisfied.len(),
                metrics,
                io,
                os_read_calls: io.read_calls,
            });
        }
        if SWEEP_BLOCK_SIZES.contains(&sweep_block) {
            sweep.push(SweepPoint {
                block_size: sweep_block,
                wall_ms,
                read_calls: io.read_calls,
            });
        }
    }
    engines.push(headline.expect("configured block size was swept"));

    // (b2) The same block reader with per-frame CRC verification on — the
    // production default since format v2. Every payload byte is hashed on
    // fill and the footer cross-checked at end of stream; results and read
    // calls must be identical to the raw row (verification never changes
    // what or how much is read), `checksum_failures` must stay zero on
    // healthy files, and the wall-clock delta is the committed price of
    // self-verifying value files.
    {
        export.set_io_options(IoOptions::with_block_size(block_size).verify(true));
        let (wall_ms, (satisfied, metrics, io)) = best_of_runs(|| {
            export.reset_read_calls();
            let mut m = RunMetrics::new();
            let out = run_spider(&export, candidates, &mut m).map_err(|e| e.to_string())?;
            m.read_calls = export.read_calls();
            m.io_retries = export.io_retries();
            m.checksum_failures = export.checksum_failures();
            Ok((out, m, IoCounters::snapshot(&export)))
        })?;
        assert_agrees("spider_checksum", &satisfied, &metrics)?;
        println!(
            "[{name}]  disk spider_checksum: {wall_ms:8.2} ms  read_calls={} \
             checksum_failures={}",
            io.read_calls, io.checksum_failures
        );
        engines.push(DiskEngineResult {
            engine: "spider_checksum",
            wall_ms,
            satisfied: satisfied.len(),
            metrics,
            io,
            os_read_calls: io.read_calls,
        });
    }

    export.set_io_options(IoOptions::with_block_size(block_size));

    Ok(DiskResult {
        block_size,
        export_bytes,
        engines,
        sweep,
    })
}

/// What the host gives two threads right now: wall-clock of a fixed
/// dependent-multiply spin on one thread over the same spin split across
/// two, best of three each. About 2 on two free cores; about 1 when the
/// second core exists only in name — a neighbour holds it, or (seen on the
/// 2-vCPU sandbox this baseline is committed from) the guest scheduler keeps
/// every thread of a process on its parent's vCPU for seconds at a time.
/// Recorded beside the `export_parallel` row, so a reader can tell a host
/// that withheld its second core from an export that did not use it.
fn host_parallel_speedup() -> f64 {
    fn spin(iterations: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..iterations {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        x
    }
    const ITERATIONS: u64 = 30_000_000;
    let best_ms = |threads: u64| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(move || spin(ITERATIONS / threads));
                    }
                });
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    best_ms(1) / best_ms(2)
}

/// The export-phase sweep: tiny budgets that force multi-run spills (the
/// smallest spills on virtually every column, even at check scale).
const BUDGET_SWEEP: [usize; 3] = [256, 4096, 64 * 1024];

/// Measures the export phase (extract → sort → spill → merge → write, every
/// attribute of `db`) through the frozen legacy sorter shape and the arena
/// sorter, verifying byte-identical value streams before timing anything.
fn bench_export(
    name: &'static str,
    db: &ind_storage::Database,
    memory_budget: usize,
) -> Result<ExportResult, String> {
    let dir = TempDir::new(&format!("bench-spider-export-{name}"));
    // The arena pass reads the stored cells like the export manager; the
    // frozen legacy shape renders typed values, so it gets the `Value` view.
    let tables = db.tables().iter();
    let cells: Vec<&ind_storage::Column> = tables
        .clone()
        .flat_map(|t| t.iter_cells().map(|(_, _, column)| column))
        .collect();
    let columns: Vec<&[ind_storage::Value]> = tables
        .flat_map(|t| t.iter_columns().map(|(_, _, column)| column))
        .collect();

    // Output paths (legacy files) and stream names (arena segments) are
    // preformatted outside the measured region.
    type Paths = Vec<std::path::PathBuf>;
    let paths_under = |out: &std::path::Path| -> Paths {
        (0..columns.len())
            .map(|i| out.join(format!("attr-{i:05}.indv")))
            .collect()
    };
    let names: Vec<String> = (0..columns.len()).map(|i| format!("attr-{i:05}")).collect();
    // What each stream's trailer entry names: the column, its type, its
    // table's rows.
    let identities: Vec<(ind_storage::QualifiedName, ind_storage::DataType, u64)> = db
        .tables()
        .iter()
        .flat_map(|t| {
            t.iter_cells().map(|(_, schema, _)| {
                let name = ind_storage::QualifiedName::new(t.name(), schema.name.clone());
                (name, schema.data_type, t.row_count() as u64)
            })
        })
        .collect();
    // What a pass leaves: each attribute's sort stats and where its stream
    // lies.
    type Written = Vec<(SortStats, Extent)>;

    // One full export pass through the arena sorter: one sorter reused for
    // every attribute, its streams written back to back into segments of
    // `BATCH_MAX_BYTES`, each closed by its trailer and published by one
    // group commit (the export manager's shape).
    let arena_pass = |budget: usize, out: &std::path::Path, _: &Paths| -> Result<Written, String> {
        let err = |e: ind_valueset::ValueSetError| e.to_string();
        let mut sorter =
            ExternalSorter::new(&out.join("spill"), SortOptions::with_memory_budget(budget))
                .map_err(err)?;
        let io = sorter.options().io.clone();
        let mut written = Vec::with_capacity(columns.len());
        let mut segment: Option<SegmentWriter> = None;
        let mut segments = 0;
        for (id, ((column, name), (qn, data_type, rows))) in
            cells.iter().zip(&names).zip(&identities).enumerate()
        {
            let open = match segment.take() {
                Some(open) => open,
                None => {
                    segments += 1;
                    let path = out.join(format!("seg-00-{:04}.indv", segments - 1));
                    SegmentWriter::create(&path, &io).map_err(err)?
                }
            };
            let open = segment.insert(open);
            let mut writer = open.stream(Some(name));
            let stat = extract_with_sorter(column, &mut sorter, &mut writer).map_err(err)?;
            let entry = TrailerEntry::new(id as u32, qn, *data_type, *rows, &stat);
            let extent = open.seal(writer, Some(entry)).map_err(err)?;
            written.push((stat, extent));
            if open.is_full() {
                if let Some(full) = segment.take() {
                    full.publish().map_err(err)?;
                }
            }
        }
        if let Some(last) = segment {
            last.publish().map_err(err)?;
        }
        Ok(written)
    };
    // One full export pass through the frozen legacy shape: a fresh sorter
    // and a scratch render buffer per attribute, one heap vector per value,
    // one plain file per attribute.
    let legacy_pass =
        |budget: usize, out: &std::path::Path, paths: &Paths| -> Result<Written, String> {
            let mut written = Vec::with_capacity(columns.len());
            for (column, path) in columns.iter().zip(paths) {
                let stat = legacy_extract_to_file(
                    column,
                    path,
                    &out.join("spill"),
                    SortOptions::with_memory_budget(budget),
                )
                .map_err(|e| e.to_string())?;
                written.push((stat, Extent::from(path)));
            }
            Ok(written)
        };
    // The bytes of a stream `len` bytes long at `extent`.
    let stream_bytes = |extent: &Extent, len: u64| -> Result<Vec<u8>, String> {
        let file = std::fs::read(extent.file()).map_err(|e| e.to_string())?;
        let start = extent.offset() as usize;
        file.get(start..start + len as usize)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| format!("{} ends before its stream", extent.display()))
    };

    // Reference output: arena sorter, fully in-memory. Every other
    // configuration must reproduce these streams byte for byte.
    let ref_dir = dir.join("reference");
    std::fs::create_dir_all(&ref_dir).map_err(|e| e.to_string())?;
    let reference = arena_pass(SortOptions::DEFAULT_MEMORY_BUDGET, &ref_dir, &Vec::new())?;
    let export_bytes: u64 = reference.iter().map(|(s, _)| s.file_bytes).sum();
    let pushed: u64 = reference.iter().map(|(s, _)| s.pushed).sum();

    let assert_agrees = |config: &str, got: &Written| -> Result<(), String> {
        if got.len() != reference.len() {
            return Err(format!(
                "[{name}] export {config}: attribute count diverged"
            ));
        }
        for (i, ((g, g_at), (r, r_at))) in got.iter().zip(&reference).enumerate() {
            if (g.pushed, g.distinct, g.file_bytes, &g.min, &g.max)
                != (r.pushed, r.distinct, r.file_bytes, &r.min, &r.max)
            {
                return Err(format!(
                    "[{name}] export {config}: attribute {i} stats diverged \
                 (pushed={} distinct={} bytes={} vs pushed={} distinct={} bytes={})",
                    g.pushed, g.distinct, g.file_bytes, r.pushed, r.distinct, r.file_bytes
                ));
            }
            if stream_bytes(g_at, g.file_bytes)? != stream_bytes(r_at, r.file_bytes)? {
                return Err(format!(
                    "[{name}] export {config}: attribute {i} value stream diverged"
                ));
            }
        }
        Ok(())
    };

    // Measures one configuration: verify against the reference first, then
    // best-of-N wall clock with minimum allocation count (the counts are
    // deterministic; the minimum shrugs off allocator noise).
    type Pass<'a> = &'a dyn Fn(usize, &std::path::Path, &Paths) -> Result<Written, String>;
    let measure = |config: &'static str,
                   budget: usize,
                   pass: Pass<'_>|
     -> Result<(f64, AllocDelta, Vec<SortStats>), String> {
        let out = dir.join(config);
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let paths = paths_under(&out);
        let written = pass(budget, &out, &paths)?; // warm-up + verification pass
        assert_agrees(config, &written)?;
        let stats: Vec<SortStats> = written.into_iter().map(|(s, _)| s).collect();
        let mut best_ms = f64::INFINITY;
        let mut best_delta = AllocDelta {
            calls: u64::MAX,
            peak_bytes: 0,
        };
        let mut last = stats;
        for _ in 0..ENGINE_RUNS {
            let start = Instant::now();
            let (out_stats, delta) = measure_allocs(|| pass(budget, &out, &paths));
            let wall = start.elapsed().as_secs_f64() * 1e3;
            last = out_stats?.into_iter().map(|(s, _)| s).collect();
            best_ms = best_ms.min(wall);
            if delta.calls < best_delta.calls {
                best_delta = delta;
            }
        }
        Ok((best_ms, best_delta, last))
    };

    let mut sorters = Vec::new();
    for (label, pass) in [("legacy", &legacy_pass as Pass<'_>), ("arena", &arena_pass)] {
        let (wall_ms, delta, stats) = measure(label, SortOptions::DEFAULT_MEMORY_BUDGET, pass)?;
        let runs: usize = stats.iter().map(|s| s.runs).sum();
        let arena_bytes = stats.iter().map(|s| s.arena_bytes).max().unwrap_or(0);
        println!(
            "[{name}] export {label:>6}: {wall_ms:8.2} ms  pushed={pushed} allocs={} \
             peak_alloc_bytes={} runs={runs}",
            delta.calls, delta.peak_bytes
        );
        sorters.push(SorterResult {
            sorter: label,
            wall_ms,
            allocs: delta.calls,
            peak_alloc_bytes: delta.peak_bytes,
            runs,
            arena_bytes,
        });
    }

    // The self-verifying round trip: one arena export pass plus a full
    // checksummed read-back of every emitted value file — every frame CRC
    // and the footer re-verified against what was just written. The wall
    // delta over the plain arena row is the cost of proving an export
    // landed intact.
    {
        let checksum_pass =
            |budget: usize, out: &std::path::Path, paths: &Paths| -> Result<Written, String> {
                let written = arena_pass(budget, out, paths)?;
                for (_, extent) in &written {
                    let mut reader = ValueFileReader::open(extent).map_err(|e| e.to_string())?;
                    while reader.advance().map_err(|e| e.to_string())? {}
                }
                Ok(written)
            };
        let (wall_ms, delta, stats) = measure(
            "export_checksum",
            SortOptions::DEFAULT_MEMORY_BUDGET,
            &checksum_pass,
        )?;
        let runs: usize = stats.iter().map(|s| s.runs).sum();
        let arena_bytes = stats.iter().map(|s| s.arena_bytes).max().unwrap_or(0);
        println!(
            "[{name}] export export_checksum: {wall_ms:8.2} ms  allocs={} runs={runs}",
            delta.calls
        );
        sorters.push(SorterResult {
            sorter: "export_checksum",
            wall_ms,
            allocs: delta.calls,
            peak_alloc_bytes: delta.peak_bytes,
            runs,
            arena_bytes,
        });
    }

    // The export as the library runs it — `ExportedDatabase::export`:
    // work-stealing workers, segments, trailers — on one worker and on
    // every core. Same streams as the reference, byte for byte, at both.
    let workers = ind_storage::default_workers();
    let mut host_speedup = 1.0;
    for (label, threads) in [("export_parallel", workers), ("export_serial", 1)] {
        if label == "export_parallel" {
            if workers < 2 {
                println!("[{name}] export export_parallel: skipped, one core");
                continue;
            }
            host_speedup = host_parallel_speedup();
            println!("[{name}] host: two spinning threads run {host_speedup:.2}x one");
        }
        let manager_pass =
            |budget: usize, out: &std::path::Path, _: &Paths| -> Result<Written, String> {
                let options = ExportOptions {
                    threads,
                    ..ExportOptions::with_memory_budget(budget)
                };
                let export =
                    ExportedDatabase::export(db, out, &options).map_err(|e| e.to_string())?;
                Ok(export
                    .attributes()
                    .iter()
                    .map(|a| {
                        let stats = SortStats {
                            pushed: a.non_null,
                            distinct: a.distinct,
                            runs: 0,
                            file_bytes: a.file_bytes,
                            arena_bytes: 0,
                            arena_grows: 0,
                            key_compares: 0,
                            memcmp_compares: 0,
                            min: a.min.clone(),
                            max: a.max.clone(),
                            source_hash: 0,
                        };
                        (stats, a.path.clone())
                    })
                    .collect())
            };
        let (wall_ms, delta, _) =
            measure(label, SortOptions::DEFAULT_MEMORY_BUDGET, &manager_pass)?;
        println!(
            "[{name}] export {label}: {wall_ms:8.2} ms  workers={threads} allocs={}",
            delta.calls
        );
        sorters.push(SorterResult {
            sorter: label,
            wall_ms,
            allocs: delta.calls,
            peak_alloc_bytes: delta.peak_bytes,
            runs: 0,
            arena_bytes: 0,
        });
    }

    // The configured budget as its own row when it differs from the
    // default — the spill-merge path under the exact CLI knob.
    if memory_budget != SortOptions::DEFAULT_MEMORY_BUDGET {
        let (wall_ms, delta, stats) = measure("arena_budget", memory_budget, &arena_pass)?;
        let runs: usize = stats.iter().map(|s| s.runs).sum();
        let arena_bytes = stats.iter().map(|s| s.arena_bytes).max().unwrap_or(0);
        println!(
            "[{name}] export  arena budget={memory_budget}: {wall_ms:8.2} ms  allocs={} runs={runs}",
            delta.calls
        );
        sorters.push(SorterResult {
            sorter: "arena_budget",
            wall_ms,
            allocs: delta.calls,
            peak_alloc_bytes: delta.peak_bytes,
            runs,
            arena_bytes,
        });
    }

    // Spill sweep: tiny budgets force multi-run spills through the
    // keyed merge tree; every point must stay byte-identical.
    let mut sweep = Vec::new();
    for budget in BUDGET_SWEEP {
        let label: &'static str = match budget {
            256 => "sweep-256",
            4096 => "sweep-4096",
            _ => "sweep-64k",
        };
        let (wall_ms, delta, stats) = measure(label, budget, &arena_pass)?;
        let runs: usize = stats.iter().map(|s| s.runs).sum();
        println!(
            "[{name}] export  arena budget={budget:>6}: {wall_ms:8.2} ms  runs={runs} allocs={}",
            delta.calls
        );
        sweep.push(BudgetSweepPoint {
            memory_budget: budget,
            wall_ms,
            runs,
            allocs: delta.calls,
        });
    }

    Ok(ExportResult {
        attributes: columns.len(),
        pushed,
        export_bytes,
        memory_budget,
        workers,
        host_parallel_speedup: host_speedup,
        sorters,
        sweep,
    })
}

fn bench_dataset(
    name: &'static str,
    db: &ind_storage::Database,
    block_size: usize,
    memory_budget: usize,
) -> Result<DatasetResult, String> {
    let (profiles, provider) = memory_export(db);
    let mut gen_metrics = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen_metrics);
    println!(
        "[{name}] {} tables, {} attributes, {} candidates",
        db.table_count(),
        db.attribute_count(),
        candidates.len()
    );

    // Agreement gate: never time a wrong answer.
    let mut expected_metrics = RunMetrics::new();
    let expected =
        run_spider(&provider, &candidates, &mut expected_metrics).map_err(|e| e.to_string())?;
    let mut m = RunMetrics::new();
    let legacy = run_legacy_spider(&provider, &candidates, &mut m).map_err(|e| e.to_string())?;
    if legacy != expected {
        return Err(format!("[{name}] legacy engine disagrees with spider"));
    }
    // The finder merges one representative per class of equal value sets
    // and must still give the full-candidate answer.
    let finder = IndFinder::with_algorithm(Algorithm::Spider)
        .discover(&profiles, &provider)
        .map_err(|e| e.to_string())?;
    let mut sorted_expected = expected.clone();
    sorted_expected.sort();
    if finder.satisfied != sorted_expected {
        return Err(format!(
            "[{name}] IndFinder::discover disagrees with run_spider over every candidate"
        ));
    }
    println!(
        "[{name}] finder: {} value-set classes, cursor_opens={} items_read={} \
         parked_reads={} (full candidates: cursor_opens={} items_read={})",
        finder.metrics.value_set_classes,
        finder.metrics.cursor_opens,
        finder.metrics.items_read,
        finder.metrics.parked_reads,
        expected_metrics.cursor_opens,
        expected_metrics.items_read
    );

    let mut engines = Vec::new();
    type Runner<'a> =
        Box<dyn Fn() -> ind_valueset::Result<(Vec<ind_core::Candidate>, RunMetrics)> + 'a>;
    let runners: Vec<(&'static str, Runner<'_>)> = vec![
        (
            "legacy",
            Box::new(|| {
                let mut m = RunMetrics::new();
                run_legacy_spider(&provider, &candidates, &mut m).map(|s| (s, m))
            }),
        ),
        (
            "spider",
            Box::new(|| {
                let mut m = RunMetrics::new();
                run_spider(&provider, &candidates, &mut m).map(|s| (s, m))
            }),
        ),
        (
            // The observability-cost row: the same merge as `spider` with
            // ind-trace spans, counters, and histograms live. The warm-up
            // run also warms the thread's event ring, so the measured runs
            // see tracing's steady state (reset clears contents, capacity
            // stays).
            "spider_traced",
            Box::new(|| {
                ind_trace::reset();
                ind_trace::enable();
                let mut m = RunMetrics::new();
                let result = run_spider(&provider, &candidates, &mut m).map(|s| (s, m));
                ind_trace::disable();
                result
            }),
        ),
    ];

    for (engine, run) in &runners {
        // Warm-up (also populates caches fairly for every engine).
        let _ = run().map_err(|e| e.to_string())?;
        let mut best_ms = f64::INFINITY;
        let mut last: Option<(Vec<ind_core::Candidate>, RunMetrics)> = None;
        let mut allocs = u64::MAX;
        let mut peak = 0u64;
        for _ in 0..ENGINE_RUNS {
            let start = Instant::now();
            let (out, delta) = measure_allocs(run);
            let wall = start.elapsed().as_secs_f64() * 1e3;
            let out = out.map_err(|e| e.to_string())?;
            best_ms = best_ms.min(wall);
            // Allocation counts are deterministic per engine; keep the
            // minimum to shrug off incidental allocator noise (e.g. stdout).
            if delta.calls < allocs {
                allocs = delta.calls;
                peak = delta.peak_bytes;
            }
            last = Some(out);
        }
        let (satisfied, metrics) = last.expect("at least one measured run");
        if satisfied != expected {
            return Err(format!("[{name}] {engine} diverged during measurement"));
        }
        println!(
            "[{name}] {engine:>9}: {best_ms:8.2} ms  items_read={} value_bytes={} \
             comparisons={} allocs={allocs} peak_alloc_bytes={peak}",
            metrics.items_read, metrics.value_bytes_read, metrics.comparisons
        );
        engines.push(EngineResult {
            engine,
            wall_ms: best_ms,
            metrics,
            allocs,
            peak_alloc_bytes: peak,
            satisfied: satisfied.len(),
        });
    }

    let disk = bench_disk(
        name,
        db,
        &candidates,
        &expected,
        &expected_metrics,
        block_size,
    )?;
    let export = bench_export(name, db, memory_budget)?;

    Ok(DatasetResult {
        name,
        tables: db.table_count(),
        attributes: db.attribute_count(),
        candidates: candidates.len(),
        engines,
        finder: finder.metrics,
        disk,
        export,
    })
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// `x` rounded to `places` decimals, as the committed file records times
/// (3 places) and reduction ratios (1 place); a ratio whose rows are
/// missing is `null`.
fn rounded(x: impl Into<Option<f64>>, places: i32) -> Json {
    let scale = 10f64.powi(places);
    x.into()
        .map_or(Json::Null, |x| Json::Num((x * scale).round() / scale))
}

fn engine_json(e: &EngineResult) -> Json {
    Json::obj([
        ("engine", e.engine.into()),
        ("wall_ms", rounded(e.wall_ms, 3)),
        ("items_read", e.metrics.items_read.into()),
        ("value_bytes_read", e.metrics.value_bytes_read.into()),
        ("comparisons", e.metrics.comparisons.into()),
        ("key_compares", e.metrics.key_compares.into()),
        ("memcmp_compares", e.metrics.memcmp_compares.into()),
        ("cursor_opens", e.metrics.cursor_opens.into()),
        ("allocs", e.allocs.into()),
        ("peak_alloc_bytes", e.peak_alloc_bytes.into()),
        ("satisfied", e.satisfied.into()),
    ])
}

fn disk_engine_json(e: &DiskEngineResult) -> Json {
    Json::obj([
        ("engine", e.engine.into()),
        ("wall_ms", rounded(e.wall_ms, 3)),
        ("items_read", e.metrics.items_read.into()),
        ("value_bytes_read", e.metrics.value_bytes_read.into()),
        ("comparisons", e.metrics.comparisons.into()),
        ("key_compares", e.metrics.key_compares.into()),
        ("memcmp_compares", e.metrics.memcmp_compares.into()),
        ("read_calls", e.io.read_calls.into()),
        ("os_read_calls", e.os_read_calls.into()),
        ("file_opens", e.io.file_opens.into()),
        ("io_retries", e.io.io_retries.into()),
        ("checksum_failures", e.io.checksum_failures.into()),
        ("satisfied", e.satisfied.into()),
    ])
}

fn dataset_json(d: &DatasetResult) -> Json {
    let (disk, export) = (&d.disk, &d.export);
    let block_sweep = disk.sweep.iter().map(|s| {
        Json::obj([
            ("block_size", s.block_size.into()),
            ("wall_ms", rounded(s.wall_ms, 3)),
            ("read_calls", s.read_calls.into()),
        ])
    });
    let sorters = export.sorters.iter().map(|s| {
        Json::obj([
            ("sorter", s.sorter.into()),
            ("wall_ms", rounded(s.wall_ms, 3)),
            ("allocs", s.allocs.into()),
            ("peak_alloc_bytes", s.peak_alloc_bytes.into()),
            ("runs", s.runs.into()),
            ("arena_bytes", s.arena_bytes.into()),
        ])
    });
    let budget_sweep = export.sweep.iter().map(|s| {
        Json::obj([
            ("memory_budget", s.memory_budget.into()),
            ("wall_ms", rounded(s.wall_ms, 3)),
            ("runs", s.runs.into()),
            ("allocs", s.allocs.into()),
        ])
    });
    let parallel = match export.speedup_export_parallel_vs_serial() {
        Some(speedup) => rounded(speedup, 3),
        None => "skipped: one core".into(),
    };
    Json::obj([
        ("name", d.name.into()),
        ("tables", d.tables.into()),
        ("attributes", d.attributes.into()),
        ("candidates", d.candidates.into()),
        (
            "speedup_spider_vs_legacy",
            rounded(d.speedup_spider_vs_legacy(), 3),
        ),
        (
            "engines",
            Json::Arr(d.engines.iter().map(engine_json).collect()),
        ),
        (
            "disk",
            Json::obj([
                ("block_size", disk.block_size.into()),
                ("export_bytes", disk.export_bytes.into()),
                (
                    "read_call_reduction",
                    rounded(disk.read_call_reduction(), 1),
                ),
                (
                    "speedup_block_vs_bufreader",
                    rounded(disk.speedup_block_vs_bufreader(), 3),
                ),
                ("checksum_overhead", rounded(disk.checksum_overhead(), 3)),
                (
                    "engines",
                    Json::Arr(disk.engines.iter().map(disk_engine_json).collect()),
                ),
                ("block_size_sweep", Json::Arr(block_sweep.collect())),
            ]),
        ),
        (
            "export",
            Json::obj([
                ("attributes", export.attributes.into()),
                ("pushed", export.pushed.into()),
                ("export_bytes", export.export_bytes.into()),
                ("memory_budget", export.memory_budget.into()),
                ("alloc_reduction", rounded(export.alloc_reduction(), 1)),
                (
                    "speedup_arena_vs_legacy",
                    rounded(export.speedup_arena_vs_legacy(), 3),
                ),
                ("export_workers", export.workers.into()),
                (
                    "host_parallel_speedup",
                    rounded(export.host_parallel_speedup, 3),
                ),
                ("speedup_export_parallel_vs_serial", parallel),
                ("sorters", Json::Arr(sorters.collect())),
                ("budget_sweep", Json::Arr(budget_sweep.collect())),
            ]),
        ),
    ])
}

fn bench_json(
    scale: usize,
    block_size: usize,
    memory_budget: usize,
    check: bool,
    datasets: &[DatasetResult],
    nary: &NaryResult,
    resume: &ResumeResult,
) -> Json {
    let levels = nary.levels.iter().map(|l| {
        Json::obj([
            ("arity", l.arity.into()),
            ("enumerable", l.enumerable.into()),
            ("generated", l.generated.into()),
            ("pruned_projection", l.pruned_projection.into()),
            ("satisfied", l.satisfied.into()),
            ("wall_ms", rounded(l.wall_ms, 3)),
        ])
    });
    Json::obj([
        ("schema_version", 10u64.into()),
        ("harness", "bench_spider".into()),
        ("scale", scale.into()),
        ("block_size", block_size.into()),
        ("memory_budget", memory_budget.into()),
        ("check_mode", check.into()),
        (
            "datasets",
            Json::Arr(datasets.iter().map(dataset_json).collect()),
        ),
        (
            "nary",
            Json::obj([
                ("dataset", nary.dataset.into()),
                ("max_arity", nary.max_arity.into()),
                ("tables", nary.tables.into()),
                ("attributes", nary.attributes.into()),
                ("unary_satisfied", nary.unary_satisfied.into()),
                ("composite_satisfied", nary.composite_satisfied.into()),
                ("wall_ms", rounded(nary.wall_ms, 3)),
                ("levels", Json::Arr(levels.collect())),
            ]),
        ),
        (
            "resume",
            Json::obj([
                ("dataset", resume.dataset.into()),
                ("attributes", resume.attributes.into()),
                ("exports_reused", resume.exports_reused.into()),
                ("exports_redone", resume.exports_redone.into()),
                ("orphans_swept", resume.orphans_swept.into()),
                ("cold_wall_ms", rounded(resume.cold_wall_ms, 3)),
                ("resumed_wall_ms", rounded(resume.resumed_wall_ms, 3)),
            ]),
        ),
    ])
}

/// The keys downstream tooling reads; each must appear somewhere in the
/// parsed document.
const REQUIRED_KEYS: &str = "schema_version datasets engine wall_ms items_read value_bytes_read \
    key_compares memcmp_compares allocs disk read_calls os_read_calls file_opens io_retries \
    checksum_failures checksum_overhead block_size_sweep export export_workers \
    host_parallel_speedup speedup_export_parallel_vs_serial sorter arena_bytes budget_sweep \
    memory_budget nary levels enumerable pruned_projection resume exports_reused \
    exports_redone orphans_swept cold_wall_ms resumed_wall_ms";

fn has_key(json: &Json, key: &str) -> bool {
    match json {
        Json::Obj(fields) => fields.iter().any(|(k, v)| k == key || has_key(v, key)),
        Json::Arr(items) => items.iter().any(|v| has_key(v, key)),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} requires a value")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let scale: usize = flag_value(&args, "--scale")?
        .map(|s| s.parse().map_err(|e| format!("--scale: {e}")))
        .transpose()?
        .unwrap_or(if check { 12 } else { 200 });
    let block_size: usize = flag_value(&args, "--block-size")?
        .map(|s| s.parse().map_err(|e| format!("--block-size: {e}")))
        .transpose()?
        .unwrap_or(DEFAULT_BLOCK_SIZE);
    let memory_budget: usize = flag_value(&args, "--memory-budget")?
        .map(|s| s.parse().map_err(|e| format!("--memory-budget: {e}")))
        .transpose()?
        .unwrap_or(SortOptions::DEFAULT_MEMORY_BUDGET);
    // Check mode defaults under target/ so the CI smoke (and anyone running
    // the README's `--check` line) can never clobber the committed
    // repo-root baseline with tiny-scale data.
    let out_path = flag_value(&args, "--out")?.unwrap_or_else(|| {
        if check {
            "target/BENCH_spider_check.json".to_string()
        } else {
            "BENCH_spider.json".to_string()
        }
    });

    // The CLI's `generate pdb <dir> --scale N` configuration, plus the
    // biosql (UniProt-shaped) instance at the same scale knob.
    let pdb = generate_pdb(&OpenMmsConfig {
        entries: scale * 4,
        base_rows: scale * 3,
        seed: 42,
        ..OpenMmsConfig::small_fraction()
    });
    let biosql = generate_uniprot(&BiosqlConfig {
        bioentries: scale * 8,
        ..Default::default()
    });
    // The wide-values dataset: few rows, fat payloads — the export dwarfs
    // any reasonable memory budget, driving the spill/merge and overlapped
    // read paths with real bigger-than-budget value files.
    let wide = generate_wide(&WideConfig {
        rows: scale * 4,
        value_bytes: 512,
        seed: 42,
    });

    let datasets = vec![
        bench_dataset("pdb", &pdb, block_size, memory_budget)?,
        bench_dataset("biosql", &biosql, block_size, memory_budget)?,
        bench_dataset("wide", &wide, block_size, memory_budget)?,
    ];
    let nary = bench_nary(scale)?;
    let resume = bench_resume(memory_budget)?;

    for d in &datasets {
        if let Some(speedup) = d.speedup_spider_vs_legacy() {
            println!("[{}] spider vs legacy wall-clock: {speedup:.2}x", d.name);
        }
        if let Some(reduction) = d.disk.read_call_reduction() {
            println!(
                "[{}] disk read_calls: bufreader/block = {reduction:.1}x fewer",
                d.name
            );
        }
        if let Some(speedup) = d.disk.speedup_block_vs_bufreader() {
            println!(
                "[{}] disk spider: block vs bufreader wall-clock: {speedup:.2}x",
                d.name
            );
        }
        if let Some(reduction) = d.export.alloc_reduction() {
            println!(
                "[{}] export allocs: legacy/arena = {reduction:.1}x fewer",
                d.name
            );
        }
        if let Some(speedup) = d.export.speedup_arena_vs_legacy() {
            println!(
                "[{}] export wall-clock: arena vs legacy = {speedup:.2}x",
                d.name
            );
        }
        if let Some(speedup) = d.export.speedup_export_parallel_vs_serial() {
            println!(
                "[{}] export wall-clock: {} workers vs one = {speedup:.2}x",
                d.name, d.export.workers
            );
        }
    }

    let json = bench_json(
        scale,
        block_size,
        memory_budget,
        check,
        &datasets,
        &nary,
        &resume,
    );
    std::fs::write(&out_path, json.pretty()).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("[written to {out_path}]");

    if check {
        let read_back = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("re-reading {out_path}: {e}"))?;
        let parsed = parse(&read_back).map_err(|e| format!("{out_path}: {e}"))?;
        if let Some(key) = REQUIRED_KEYS
            .split_whitespace()
            .find(|key| !has_key(&parsed, key))
        {
            return Err(format!("{out_path}: missing key \"{key}\""));
        }
        // Zero-allocation gate: the current engine's allocation count must
        // be a small constant (setup vectors only), not O(items_read) like
        // the legacy shape. The bound is generous — the engine itself does
        // ~a dozen setup allocations.
        for d in &datasets {
            let spider = d
                .engines
                .iter()
                .find(|e| e.engine == "spider")
                .ok_or("missing spider row")?;
            if spider.allocs > 2_000 {
                return Err(format!(
                    "[{}] spider performed {} allocations — steady-state loop is no longer \
                     allocation-free (items_read={})",
                    d.name, spider.allocs, spider.metrics.items_read
                ));
            }
            // Observability gates (schema v6): the traced merge must stay
            // allocation-free (the event ring is warmed before measuring)
            // and cost at most 10% + 2 ms over the traced-off run — the
            // "zero-overhead when off, near-zero when on" contract.
            // Byte-identity with `expected` was already enforced when the
            // row was measured.
            let traced = d
                .engines
                .iter()
                .find(|e| e.engine == "spider_traced")
                .ok_or("missing spider_traced row")?;
            if traced.allocs > 2_000 {
                return Err(format!(
                    "[{}] traced spider performed {} allocations — tracing broke the \
                     allocation-free merge (items_read={})",
                    d.name, traced.allocs, traced.metrics.items_read
                ));
            }
            if traced.wall_ms > spider.wall_ms * 1.10 + 2.0 {
                return Err(format!(
                    "[{}] traced spider costs {:.2} ms vs {:.2} ms untraced — span \
                     recording is no longer near-free",
                    d.name, traced.wall_ms, spider.wall_ms
                ));
            }
            // Comparator-split sanity: the tournament tree must be doing
            // (and counting) real work in the merge.
            let compares = spider.metrics.key_compares + spider.metrics.memcmp_compares;
            if compares == 0 {
                return Err(format!(
                    "[{}] spider reported no key/memcmp compares — the comparator \
                     split is not being counted",
                    d.name
                ));
            }
            // Comparison-count gate, exact on every host: each value read
            // costs one leaf-to-root replay (a match per level) plus the test
            // that puts it in its group, with one level of slack; the tree's
            // build plays at most a path per cursor; and deciding whether a
            // member stays open reads at most one other cursor per candidate
            // it refutes. A binary heap's pop + push per value read fails it
            // on pdb (19.6 per value against a bound of 12).
            let height = u64::from(
                spider
                    .metrics
                    .cursor_opens
                    .max(1)
                    .next_power_of_two()
                    .ilog2(),
            );
            let refuted = (d.candidates - spider.satisfied) as u64;
            let bound = spider.metrics.items_read * (height + 2)
                + spider.metrics.cursor_opens * height
                + refuted;
            if compares > bound {
                return Err(format!(
                    "[{}] spider made {compares} value comparisons for {} values read over {} \
                     cursors (bound {bound}) — the merge no longer pays one tree replay per \
                     value read",
                    d.name, spider.metrics.items_read, spider.metrics.cursor_opens
                ));
            }
            // Equal-set classes gate, exact on every host: the finder's merge
            // opens one cursor per class (its IND set was already held to
            // the full-candidate `run_spider` set).
            if d.finder.cursor_opens != d.finder.value_set_classes {
                return Err(format!(
                    "[{}] the finder's merge opened {} cursors for {} value-set classes",
                    d.name, d.finder.cursor_opens, d.finder.value_set_classes
                ));
            }
            // Merge wall-clock gate: the one timing assertion that is not
            // traced-vs-untraced of the same engine. The frozen legacy
            // engine runs in the same process on the same data, so the
            // ratio calibrates the machine away; it was 3.30 at PR 2, fell
            // to 1.82 when the comparator started re-deriving both keys on
            // every call, and no ratio between two rows of the current
            // engine could see that. Enforced once the merge is long
            // enough to time (several milliseconds on pdb from scale 100 up).
            if d.name == "pdb" && scale >= MERGE_GATE_MIN_SCALE {
                let speedup = d
                    .speedup_spider_vs_legacy()
                    .ok_or("missing legacy/spider rows")?;
                if speedup < MERGE_GATE_MIN_SPEEDUP {
                    return Err(format!(
                        "[pdb] spider is only {speedup:.2}x the frozen legacy engine \
                         (required {MERGE_GATE_MIN_SPEEDUP}x at scale {scale}) — the merge \
                         loop's per-comparison cost regressed"
                    ));
                }
            }
            let legacy = d
                .engines
                .iter()
                .find(|e| e.engine == "legacy")
                .ok_or("missing legacy row")?;
            // Exact-read gate, the same on every host: parked references
            // read without a tree replay, but the engine must still read,
            // compare and open exactly what the frozen gather-then-decide
            // engine does.
            let io = |m: &RunMetrics| {
                (
                    m.items_read,
                    m.value_bytes_read,
                    m.comparisons,
                    m.cursor_opens,
                )
            };
            if io(&spider.metrics) != io(&legacy.metrics) {
                return Err(format!(
                    "[{}] spider read (items, bytes, comparisons, cursor opens) = {:?}, \
                     the frozen legacy engine {:?}",
                    d.name,
                    io(&spider.metrics),
                    io(&legacy.metrics)
                ));
            }
            if legacy.allocs <= spider.allocs {
                return Err(format!(
                    "[{}] legacy engine allocated no more than spider ({} vs {}) — \
                     counting allocator is not measuring",
                    d.name, legacy.allocs, spider.allocs
                ));
            }
            // Block-layer gate: the block reader must issue several times
            // fewer read calls than the per-record legacy shape (the
            // committed scale-200 baseline shows > 10x), and bigger blocks
            // must never need more fills.
            let reduction = d
                .disk
                .read_call_reduction()
                .ok_or("missing disk read-call rows")?;
            if reduction < 4.0 {
                return Err(format!(
                    "[{}] block reader read_calls only {reduction:.1}x below the per-record \
                     BufReader shape — the block layer is no longer amortising reads",
                    d.name
                ));
            }
            if !d
                .disk
                .sweep
                .windows(2)
                .all(|w| w[0].read_calls >= w[1].read_calls)
            {
                return Err(format!(
                    "[{}] sweep read_calls grew with block size: {:?}",
                    d.name,
                    d.disk
                        .sweep
                        .iter()
                        .map(|s| (s.block_size, s.read_calls))
                        .collect::<Vec<_>>()
                ));
            }
            let block = d
                .disk
                .engines
                .iter()
                .find(|e| e.engine == "spider_block")
                .ok_or("missing spider_block row")?;
            // Checksum gate (schema v5): the verified row must read exactly
            // what the raw row reads, detect nothing on healthy files, and
            // cost at most 50% over the raw framed read even at noisy check
            // scales — the committed scale-200 baseline shows low single
            // digits.
            let verified = d
                .disk
                .engine("spider_checksum")
                .ok_or("missing spider_checksum row")?;
            if verified.io.checksum_failures != 0 || verified.io.io_retries != 0 {
                return Err(format!(
                    "[{}] healthy files tripped the robustness counters: \
                     {} checksum failures, {} retries",
                    d.name, verified.io.checksum_failures, verified.io.io_retries
                ));
            }
            if verified.io.read_calls != block.io.read_calls {
                return Err(format!(
                    "[{}] checksum verification changed read_calls: {} vs {}",
                    d.name, verified.io.read_calls, block.io.read_calls
                ));
            }
            if verified.wall_ms > block.wall_ms * 1.5 + 5.0 {
                return Err(format!(
                    "[{}] per-frame verification costs {:.2} ms vs {:.2} ms raw — \
                     checksums are no longer close to free",
                    d.name, verified.wall_ms, block.wall_ms
                ));
            }
            // Export-phase gates: the arena sorter's in-memory path must
            // stay steady-state allocation-free (a small constant per
            // attribute — arena/index warm-up, one writer block, min/max —
            // never O(values pushed)), and the frozen legacy shape must
            // allocate at least 10x more on identical inputs.
            let arena = d.export.sorter("arena").ok_or("missing export arena row")?;
            if arena.runs != 0 {
                return Err(format!(
                    "[{}] arena row must be the in-memory path, spilled {} runs",
                    d.name, arena.runs
                ));
            }
            let alloc_bound = (d.export.attributes as u64) * 32 + 512;
            if arena.allocs > alloc_bound {
                return Err(format!(
                    "[{}] arena export performed {} allocations for {} attributes \
                     (bound {alloc_bound}) — the export pipeline is no longer \
                     steady-state allocation-free (pushed={})",
                    d.name, arena.allocs, d.export.attributes, d.export.pushed
                ));
            }
            // The reduction is an asymptotic claim — legacy allocates
            // O(values pushed), the arena sorter O(attributes) — so the
            // full 10x is enforced once the per-attribute constants (one
            // writer block, min/max, file create) have data to amortise
            // over (>= 100 values per attribute; the committed scale-200
            // baseline is far past this). Toy scales keep a 3x floor.
            let reduction = d
                .export
                .alloc_reduction()
                .ok_or("missing export sorter rows")?;
            let dense = d.export.pushed >= 100 * d.export.attributes as u64;
            let min_reduction = if dense { 10.0 } else { 3.0 };
            if reduction < min_reduction {
                return Err(format!(
                    "[{}] legacy sorter allocated only {reduction:.1}x more than the arena \
                     sorter (required {min_reduction}x at pushed={}, attributes={}) — the \
                     arena rewrite is no longer paying off",
                    d.name, d.export.pushed, d.export.attributes
                ));
            }
            // Round-trip gate: the export_checksum row (arena export + full
            // verified read-back) must exist and stay on the in-memory
            // path, like the arena row it extends.
            let round_trip = d
                .export
                .sorter("export_checksum")
                .ok_or("missing export_checksum row")?;
            if round_trip.runs != 0 {
                return Err(format!(
                    "[{}] export_checksum row must be the in-memory path, spilled {} runs",
                    d.name, round_trip.runs
                ));
            }
            // Spill gates: the smallest sweep budget must actually force
            // multi-run spills (so the spill-merge path is exercised every
            // check run), and runs must not increase with the budget.
            let smallest = d
                .export
                .sweep
                .first()
                .ok_or("missing export budget sweep")?;
            if smallest.runs == 0 {
                return Err(format!(
                    "[{}] a {}-byte budget produced no spill runs — the sweep no longer \
                     exercises the merge path",
                    d.name, smallest.memory_budget
                ));
            }
            if !d.export.sweep.windows(2).all(|w| w[0].runs >= w[1].runs) {
                return Err(format!(
                    "[{}] sweep runs grew with the memory budget: {:?}",
                    d.name,
                    d.export
                        .sweep
                        .iter()
                        .map(|s| (s.memory_budget, s.runs))
                        .collect::<Vec<_>>()
                ));
            }
            // The configured budget must appear as its own measured row
            // whenever it differs from the default (the CI smoke passes
            // --memory-budget 4096 to drive the spill merge end to end).
            if memory_budget != SortOptions::DEFAULT_MEMORY_BUDGET
                && d.export.sorter("arena_budget").is_none()
            {
                return Err(format!(
                    "[{}] --memory-budget {memory_budget} was set but the arena_budget \
                     row is missing",
                    d.name
                ));
            }
        }
        // n-ary gates: the levelwise pipeline must find the chains schema's
        // composite FK, and apriori generation must engage — arity-2
        // candidates generated strictly below the count enumerable without
        // projection pruning (all attribute-pair pairs).
        let level2 = nary
            .levels
            .iter()
            .find(|l| l.arity == 2)
            .ok_or("nary section is missing level 2")?;
        if level2.satisfied == 0 {
            return Err("[nary] the chains composite FK was not found".into());
        }
        if level2.generated >= level2.enumerable {
            return Err(format!(
                "[nary] apriori pruning is not engaging: {} arity-2 candidates generated \
                 of {} enumerable",
                level2.generated, level2.enumerable
            ));
        }
        // Resume gates (schema v7): the last-batch crash must leave at
        // least half the exports reusable, every attribute must be
        // accounted for, and the unpublished segment's `.tmp` must be
        // swept. The
        // two wall times are recorded but not compared: both are bound by
        // fsync latency, which belongs to the disk.
        if resume.exports_reused < resume.attributes as u64 / 2 {
            return Err(format!(
                "[resume] only {} of {} exports were reused after the last-batch crash — \
                 the trailers are no longer preserving published work",
                resume.exports_reused, resume.attributes
            ));
        }
        if resume.exports_reused + resume.exports_redone != resume.attributes as u64 {
            return Err(format!(
                "[resume] reused {} + redone {} != {} attributes",
                resume.exports_reused, resume.exports_redone, resume.attributes
            ));
        }
        if resume.orphans_swept == 0 {
            return Err("[resume] the unpublished segment stage was never swept".into());
        }
        println!(
            "[check ok: JSON valid, zero-allocation property holds, reads equal the legacy \
             engine's, block reads amortised, nary level-2 generation {}x below enumeration, resume reused {} of {} exports]",
            (level2.enumerable / level2.generated.max(1)),
            resume.exports_reused,
            resume.attributes
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
