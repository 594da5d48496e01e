//! Perf-trajectory harness for the SPIDER merge engine, the value-file
//! reader and the export.
//!
//! ```text
//! cargo run --release -p ind-bench --bin bench_spider -- \
//!     [--scale N] [--block-size BYTES] [--memory-budget BYTES] [--out PATH] [--check]
//! ```
//!
//! Three sections per dataset (scale-N PDB, biosql/UniProt-shaped, and
//! wide-values datagen databases), plus a whole-run `nary` section over the
//! chains dataset (a genuine composite foreign key; per-level candidates
//! enumerable / generated / satisfied) and a crash-and-`resume` row:
//!
//! * **memory** — `spider` over in-memory value sets against the frozen
//!   gather-then-decide engine (`ind_bench::legacy_spider`), with
//!   allocation counts from the counting allocator installed *in this
//!   binary only*, and a `spider_traced` row that re-runs the merge with
//!   `ind-trace` spans and counters on;
//! * **disk** — `spider` over an on-disk export through the block reader,
//!   which verifies every frame CRC: `spider_block` (block size from
//!   `--block-size`) and a block-size sweep. `read_calls` is every `pread`
//!   made, counted where it is made;
//! * **export** — the library's own `ExportedDatabase::export` (extract →
//!   sort → spill → merge → write, segments and trailers) over every
//!   attribute: `export_serial` (one worker), `export_parallel` (every
//!   core, beside `host_parallel_speedup`), `export_checksum` (one worker
//!   plus a verified read-back of every stream), the configured
//!   `--memory-budget` as `export_budget` when it is not the default, and a
//!   256 B / 4 KiB / 64 KiB spill sweep, each holding the one-worker
//!   reference's streams byte for byte.
//!
//! Everything lands in `BENCH_spider.json` (default: the current
//! directory). Results are cross-checked before anything is timed.
//! `--check` (CI) defaults `--scale` to 12 and `--out` under `target/`,
//! re-parses the file and fails on any gate: exact counts (spider reads
//! what the legacy engine reads; at most one tournament replay per value
//! read; one cursor per value-set class; block reads amortised against the
//! per-record count `4·cursor_opens + 2·items_read`; no spill and at most
//! `32·attributes + 512` allocations for `export_serial`), allocation-free
//! merges, traced runs close to their plain twins, healthy files tripping
//! no checksum failure or retry, spills at the smallest sweep budget,
//! apriori pruning and resume reuse. At `--scale >= 100` the pdb merge must
//! also run >= 2.5x the legacy engine timed in the same run. No gate
//! compares two durable exports' wall times: both are bound by fsync
//! latency, which belongs to the disk.

use ind_bench::legacy_spider::run_legacy_spider;
use ind_core::{
    generate_candidates, memory_export, run_spider, Algorithm, Candidate, IndFinder, NaryDiscovery,
    PretestConfig, RunMetrics,
};
use ind_datagen::{
    generate_chains, generate_pdb, generate_uniprot, generate_wide, BiosqlConfig, ChainsConfig,
    OpenMmsConfig, WideConfig,
};
use ind_testkit::TempDir;
use ind_trace::json::{parse, Json};
use ind_valueset::{
    ExportOptions, ExportedAttribute, ExportedDatabase, IoOptions, SortOptions, ValueCursor,
    ValueFileReader, DEFAULT_BLOCK_SIZE,
};

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
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
/// The disk-section sweep: small, medium, and the default block.
const SWEEP_BLOCK_SIZES: [usize; 3] = [8 * 1024, 64 * 1024, 256 * 1024];
/// The export-phase sweep: tiny budgets that force multi-run spills (the
/// smallest spills on virtually every column, even at check scale).
const BUDGET_SWEEP: [usize; 3] = [256, 4096, 64 * 1024];

/// What [`timed`] measured.
struct Timed<T> {
    /// Best wall-clock of the measured runs.
    wall_ms: f64,
    /// Fewest alloc/realloc calls of one measured run: the counts are
    /// deterministic, the minimum shrugs off allocator noise (stdout).
    allocs: u64,
    /// Live-byte high-water mark of that run.
    peak_alloc_bytes: u64,
    /// The last run's output.
    out: T,
}

/// Runs `run` once to warm up, then `runs` times under the clock and the
/// counting allocator.
fn timed<T>(runs: usize, mut run: impl FnMut() -> Result<T, String>) -> Result<Timed<T>, String> {
    run()?;
    let (mut wall_ms, mut allocs, mut peak_alloc_bytes, mut last) =
        (f64::INFINITY, u64::MAX, 0, None);
    for _ in 0..runs {
        let start = Instant::now();
        let (out, delta) = measure_allocs(&mut run);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if delta.calls < allocs {
            allocs = delta.calls;
            peak_alloc_bytes = delta.peak_bytes;
        }
        last = Some(out?);
    }
    Ok(Timed {
        wall_ms,
        allocs,
        peak_alloc_bytes,
        out: last.expect("at least one measured run"),
    })
}

struct EngineResult {
    engine: &'static str,
    wall_ms: f64,
    metrics: RunMetrics,
    allocs: u64,
    peak_alloc_bytes: u64,
    satisfied: usize,
}

/// Snapshot of the export's shared I/O counters after a measured run.
struct IoCounters {
    /// `pread`s issued, counted where each is made.
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
    wall_ms: f64,
    metrics: RunMetrics,
    io: IoCounters,
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
    /// The `spider_block` row: the sweep point at `block_size`.
    block: DiskEngineResult,
    sweep: Vec<SweepPoint>,
}

/// One timed configuration of the library's export over every attribute.
struct ExportPass {
    pass: &'static str,
    wall_ms: f64,
    /// alloc/realloc calls for one whole export.
    allocs: u64,
    peak_alloc_bytes: u64,
    /// Spill runs the traced verification pass wrote (0 = in memory).
    spill_runs: u64,
}

/// The export-phase trajectory for one dataset.
struct ExportResult {
    attributes: usize,
    /// Non-null occurrences sorted (whole database).
    pushed: u64,
    export_bytes: u64,
    memory_budget: usize,
    /// Workers of the `export_parallel` row ([`ind_storage::default_workers`]);
    /// 1 means the row was skipped.
    workers: usize,
    /// [`host_parallel_speedup`] taken right before the `export_parallel`
    /// row (1.0 when that row was skipped).
    host_parallel_speedup: f64,
    passes: Vec<ExportPass>,
    /// The [`BUDGET_SWEEP`] passes, each beside its memory budget.
    sweep: Vec<(usize, ExportPass)>,
}

impl ExportResult {
    fn pass(&self, name: &str) -> Option<&ExportPass> {
        self.passes.iter().find(|p| p.pass == name)
    }

    /// The export on every core against the same export on one worker;
    /// `None` on a one-core host, where the parallel row is skipped.
    fn speedup_export_parallel_vs_serial(&self) -> Option<f64> {
        match (self.pass("export_serial"), self.pass("export_parallel")) {
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

impl DatasetResult {
    fn engine(&self, engine: &str) -> Result<&EngineResult, String> {
        self.engines
            .iter()
            .find(|e| e.engine == engine)
            .ok_or_else(|| format!("[{}] missing {engine} row", self.name))
    }

    fn speedup_spider_vs_legacy(&self) -> Option<f64> {
        match (self.engine("legacy"), self.engine("spider")) {
            (Ok(old), Ok(new)) if new.wall_ms > 0.0 => Some(old.wall_ms / new.wall_ms),
            _ => None,
        }
    }
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
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let run = || -> Result<NaryDiscovery, String> {
        finder
            .discover_nary_in_memory(&db, ind_storage::default_workers(), MAX_ARITY)
            .map_err(|e| e.to_string())
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

    // One `spider_block` run over the export read through `io`. The disk
    // run must reproduce the in-memory results *and* I/O metrics exactly:
    // streams are byte-identical to the in-memory sets.
    let mut run = |io: IoOptions| -> Result<DiskEngineResult, String> {
        export.set_io_options(io);
        let t = timed(DISK_ENGINE_RUNS, || {
            export.reset_read_calls();
            let mut m = RunMetrics::new();
            let out = run_spider(&export, candidates, &mut m).map_err(|e| e.to_string())?;
            let io = IoCounters::snapshot(&export);
            m.read_calls = io.read_calls;
            m.io_retries = io.io_retries;
            m.checksum_failures = io.checksum_failures;
            Ok((out, m, io))
        })?;
        let (satisfied, metrics, io) = t.out;
        if satisfied != expected {
            return Err(format!(
                "[{name}] spider_block disagrees with in-memory spider"
            ));
        }
        let reads = |m: &RunMetrics| (m.items_read, m.value_bytes_read, m.comparisons);
        if reads(&metrics) != reads(expected_metrics) {
            return Err(format!(
                "[{name}] spider_block read (items, bytes, comparisons) = {:?}, in memory {:?}",
                reads(&metrics),
                reads(expected_metrics)
            ));
        }
        Ok(DiskEngineResult {
            wall_ms: t.wall_ms,
            metrics,
            io,
            satisfied: satisfied.len(),
        })
    };

    // The block reader, swept over the fixed block sizes plus the
    // configured one. Each configuration is measured exactly once — the
    // headline `spider_block` row is the sweep point at `block_size`.
    let mut sweep_sizes: Vec<usize> = SWEEP_BLOCK_SIZES.to_vec();
    if !sweep_sizes.contains(&block_size) {
        sweep_sizes.push(block_size);
        sweep_sizes.sort_unstable();
    }
    let mut sweep = Vec::new();
    let mut block = None;
    for sweep_block in sweep_sizes {
        let row = run(IoOptions::with_block_size(sweep_block))?;
        println!(
            "[{name}]  disk spider_block block={sweep_block:>7}: {:8.2} ms  read_calls={}",
            row.wall_ms, row.io.read_calls
        );
        if SWEEP_BLOCK_SIZES.contains(&sweep_block) {
            sweep.push(SweepPoint {
                block_size: sweep_block,
                wall_ms: row.wall_ms,
                read_calls: row.io.read_calls,
            });
        }
        if sweep_block == block_size {
            block = Some(row);
        }
    }

    Ok(DiskResult {
        block_size,
        export_bytes,
        block: block.expect("the sweep holds the configured block size"),
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

/// Every value stream of `export`, in attribute order (each segment is
/// read once).
fn stream_bytes(export: &ExportedDatabase) -> Result<Vec<Vec<u8>>, String> {
    let mut files: HashMap<&Path, Vec<u8>> = HashMap::new();
    let mut streams = Vec::new();
    for a in export.attributes() {
        let file = match files.entry(a.path.file()) {
            Entry::Occupied(file) => file.into_mut(),
            Entry::Vacant(slot) => {
                slot.insert(std::fs::read(a.path.file()).map_err(|e| e.to_string())?)
            }
        };
        let start = a.path.offset() as usize;
        let stream = file
            .get(start..start + a.file_bytes as usize)
            .ok_or_else(|| format!("{} ends before its stream", a.path.display()))?;
        streams.push(stream.to_vec());
    }
    Ok(streams)
}

/// Measures the library's export (`ExportedDatabase::export`: extract →
/// sort → spill → merge → write, segments and trailers) of every attribute
/// of `db`. Each configuration first runs once off the clock and traced,
/// so the spill runs it writes are counted, and is held to the one-worker
/// reference's trailer figures and streams byte for byte; only then is it
/// timed, untraced, so the allocation counts are the export's own.
fn bench_export(
    name: &'static str,
    db: &ind_storage::Database,
    memory_budget: usize,
) -> Result<ExportResult, String> {
    let dir = TempDir::new(&format!("bench-spider-export-{name}"));
    let export = |threads: usize, budget: usize, out: &Path, read_back: bool| {
        let options = ExportOptions {
            threads,
            ..ExportOptions::with_memory_budget(budget)
        };
        let export = ExportedDatabase::export(db, out, &options).map_err(|e| e.to_string())?;
        if read_back {
            // Every frame CRC and footer re-verified against what was just
            // written: the self-verifying round trip.
            for a in export.attributes() {
                let mut reader = ValueFileReader::open(&a.path).map_err(|e| e.to_string())?;
                while reader.advance().map_err(|e| e.to_string())? {}
            }
        }
        Ok::<_, String>(export)
    };
    let default_budget = SortOptions::DEFAULT_MEMORY_BUDGET;
    let reference = export(1, default_budget, &dir.join("reference"), false)?;
    let reference_streams = stream_bytes(&reference)?;
    let figures = |a: &ExportedAttribute| {
        (
            a.non_null,
            a.distinct,
            a.file_bytes,
            a.min.clone(),
            a.max.clone(),
        )
    };
    let reference_figures: Vec<_> = reference.attributes().iter().map(figures).collect();

    let measure = |pass: &'static str, threads: usize, budget: usize, read_back: bool| {
        let out = dir.join(pass);
        ind_trace::reset();
        ind_trace::enable();
        let verified = export(threads, budget, &out, read_back);
        ind_trace::disable();
        let spill_runs = ind_trace::progress().spill_runs;
        let verified = verified?;
        let got: Vec<_> = verified.attributes().iter().map(figures).collect();
        if got != reference_figures || stream_bytes(&verified)? != reference_streams {
            return Err(format!(
                "[{name}] export {pass}: trailer figures or streams diverged from the \
                 one-worker reference"
            ));
        }
        // Its readers' descriptors close before the timed passes rewrite
        // the directory.
        drop(verified);
        let t = timed(ENGINE_RUNS, || {
            export(threads, budget, &out, read_back).map(drop)
        })?;
        println!(
            "[{name}] export {pass:>15}: {:8.2} ms  workers={threads} allocs={} spill_runs={spill_runs}",
            t.wall_ms, t.allocs
        );
        Ok::<_, String>(ExportPass {
            pass,
            wall_ms: t.wall_ms,
            allocs: t.allocs,
            peak_alloc_bytes: t.peak_alloc_bytes,
            spill_runs,
        })
    };

    let workers = ind_storage::default_workers();
    let mut host_speedup = 1.0;
    let mut passes = Vec::new();
    if workers < 2 {
        println!("[{name}] export export_parallel: skipped, one core");
    } else {
        host_speedup = host_parallel_speedup();
        println!("[{name}] host: two spinning threads run {host_speedup:.2}x one");
        passes.push(measure("export_parallel", workers, default_budget, false)?);
    }
    passes.push(measure("export_serial", 1, default_budget, false)?);
    passes.push(measure("export_checksum", 1, default_budget, true)?);
    // The configured budget as its own row when it differs from the
    // default — the spill-merge path under the exact CLI knob.
    if memory_budget != default_budget {
        passes.push(measure("export_budget", 1, memory_budget, false)?);
    }
    let mut sweep = Vec::new();
    for budget in BUDGET_SWEEP {
        let label = match budget {
            256 => "sweep-256",
            4096 => "sweep-4096",
            _ => "sweep-64k",
        };
        sweep.push((budget, measure(label, 1, budget, false)?));
    }

    let attributes = reference.attributes();
    Ok(ExportResult {
        attributes: attributes.len(),
        pushed: attributes.iter().map(|a| a.non_null).sum(),
        export_bytes: attributes.iter().map(|a| a.file_bytes).sum(),
        memory_budget,
        workers,
        host_parallel_speedup: host_speedup,
        passes,
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
        let t = timed(ENGINE_RUNS, || run().map_err(|e| e.to_string()))?;
        let (satisfied, metrics) = t.out;
        if satisfied != expected {
            return Err(format!("[{name}] {engine} diverged during measurement"));
        }
        println!(
            "[{name}] {engine:>9}: {:8.2} ms  items_read={} value_bytes={} \
             comparisons={} allocs={} peak_alloc_bytes={}",
            t.wall_ms,
            metrics.items_read,
            metrics.value_bytes_read,
            metrics.comparisons,
            t.allocs,
            t.peak_alloc_bytes
        );
        engines.push(EngineResult {
            engine,
            wall_ms: t.wall_ms,
            metrics,
            allocs: t.allocs,
            peak_alloc_bytes: t.peak_alloc_bytes,
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
/// and ratios (3 places); a ratio whose rows are missing is `null`.
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
        ("engine", "spider_block".into()),
        ("wall_ms", rounded(e.wall_ms, 3)),
        ("items_read", e.metrics.items_read.into()),
        ("value_bytes_read", e.metrics.value_bytes_read.into()),
        ("comparisons", e.metrics.comparisons.into()),
        ("key_compares", e.metrics.key_compares.into()),
        ("memcmp_compares", e.metrics.memcmp_compares.into()),
        ("cursor_opens", e.metrics.cursor_opens.into()),
        ("read_calls", e.io.read_calls.into()),
        ("file_opens", e.io.file_opens.into()),
        ("io_retries", e.io.io_retries.into()),
        ("checksum_failures", e.io.checksum_failures.into()),
        ("satisfied", e.satisfied.into()),
    ])
}

fn export_pass_json(p: &ExportPass) -> Json {
    Json::obj([
        ("pass", p.pass.into()),
        ("wall_ms", rounded(p.wall_ms, 3)),
        ("allocs", p.allocs.into()),
        ("peak_alloc_bytes", p.peak_alloc_bytes.into()),
        ("spill_runs", p.spill_runs.into()),
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
    let budget_sweep = export.sweep.iter().map(|(budget, p)| {
        Json::obj([
            ("memory_budget", (*budget).into()),
            ("wall_ms", rounded(p.wall_ms, 3)),
            ("spill_runs", p.spill_runs.into()),
            ("allocs", p.allocs.into()),
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
                ("engines", Json::Arr(vec![disk_engine_json(&disk.block)])),
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
                ("export_workers", export.workers.into()),
                (
                    "host_parallel_speedup",
                    rounded(export.host_parallel_speedup, 3),
                ),
                ("speedup_export_parallel_vs_serial", parallel),
                (
                    "passes",
                    Json::Arr(export.passes.iter().map(export_pass_json).collect()),
                ),
                ("budget_sweep", Json::Arr(budget_sweep.collect())),
            ]),
        ),
    ])
}

fn bench_json(
    args: &Args,
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
        ("schema_version", 12u64.into()),
        ("harness", "bench_spider".into()),
        ("scale", args.scale.into()),
        ("block_size", args.block_size.into()),
        ("memory_budget", args.memory_budget.into()),
        ("check_mode", args.check.into()),
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
    key_compares memcmp_compares cursor_opens allocs disk read_calls file_opens io_retries \
    checksum_failures block_size_sweep export export_workers \
    host_parallel_speedup speedup_export_parallel_vs_serial passes pass spill_runs budget_sweep \
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

const USAGE: &str =
    "bench_spider [--scale N] [--block-size BYTES] [--memory-budget BYTES] [--out PATH] [--check]";

/// The command line, parsed.
struct Args {
    scale: usize,
    block_size: usize,
    memory_budget: usize,
    out: String,
    check: bool,
}

/// Parses the command line before anything is generated: every argument
/// must be one of the five flags, each at most once, so a typo cannot turn
/// into a full run that overwrites the committed baseline.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: [(&str, Option<&str>); 4] = [
        ("--scale", None),
        ("--block-size", None),
        ("--memory-budget", None),
        ("--out", None),
    ];
    let mut check = false;
    let mut seen: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if seen.contains(&arg.as_str()) {
            return Err(format!("{arg} given twice (usage: {USAGE})"));
        }
        seen.push(arg);
        if arg == "--check" {
            check = true;
            continue;
        }
        let Some((_, value)) = values.iter_mut().find(|(flag, _)| flag == arg) else {
            return Err(format!("unknown argument {arg:?} (usage: {USAGE})"));
        };
        let next = args.next().filter(|v| !v.starts_with("--"));
        *value = Some(next.ok_or_else(|| format!("{arg} requires a value"))?);
    }
    let number = |(flag, value): (&str, Option<&str>), default: usize| {
        value.map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        })
    };
    Ok(Args {
        scale: number(values[0], if check { 12 } else { 200 })?,
        block_size: number(values[1], DEFAULT_BLOCK_SIZE)?,
        memory_budget: number(values[2], SortOptions::DEFAULT_MEMORY_BUDGET)?,
        // Check mode defaults under target/ so the CI smoke (and anyone
        // running the README's `--check` line) never clobbers the
        // committed repo-root baseline with tiny-scale data.
        out: values[3]
            .1
            .unwrap_or(if check {
                "target/BENCH_spider_check.json"
            } else {
                "BENCH_spider.json"
            })
            .to_string(),
        check,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args(&std::env::args().skip(1).collect::<Vec<_>>())?;
    let (scale, block_size, memory_budget) = (args.scale, args.block_size, args.memory_budget);
    let out_path = &args.out;

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
    // The wide-values dataset: few rows, fat payloads — value files far
    // larger than a read block.
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
        if let Some(speedup) = d.export.speedup_export_parallel_vs_serial() {
            println!(
                "[{}] export wall-clock: {} workers vs one = {speedup:.2}x",
                d.name, d.export.workers
            );
        }
    }

    let json = bench_json(&args, &datasets, &nary, &resume);
    std::fs::write(out_path, json.pretty()).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("[written to {out_path}]");
    if !args.check {
        return Ok(());
    }

    let read_back =
        std::fs::read_to_string(out_path).map_err(|e| format!("re-reading {out_path}: {e}"))?;
    let parsed = parse(&read_back).map_err(|e| format!("{out_path}: {e}"))?;
    if let Some(key) = REQUIRED_KEYS
        .split_whitespace()
        .find(|key| !has_key(&parsed, key))
    {
        return Err(format!("{out_path}: missing key \"{key}\""));
    }
    for d in &datasets {
        check_dataset(d, scale, memory_budget)?;
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
    // Resume gates: the last-batch crash must leave at least half the
    // exports reusable, every attribute must be accounted for, and the
    // unpublished segment's `.tmp` must be swept. The two wall times are
    // recorded but not compared: both are bound by fsync latency, which
    // belongs to the disk.
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
         engine's, block reads amortised, nary level-2 generation {}x below enumeration, \
         resume reused {} of {} exports]",
        (level2.enumerable / level2.generated.max(1)),
        resume.exports_reused,
        resume.attributes
    );
    Ok(())
}

/// The `--check` gates of one dataset.
fn check_dataset(d: &DatasetResult, scale: usize, memory_budget: usize) -> Result<(), String> {
    let name = d.name;
    // Zero-allocation gate: the current engine's allocation count must be
    // a small constant (setup vectors only), not O(items_read) like the
    // legacy shape. The bound is generous — the engine itself does ~a
    // dozen setup allocations.
    let (spider, legacy) = (d.engine("spider")?, d.engine("legacy")?);
    if spider.allocs > 2_000 {
        return Err(format!(
            "[{name}] spider performed {} allocations — steady-state loop is no longer \
             allocation-free (items_read={})",
            spider.allocs, spider.metrics.items_read
        ));
    }
    // Observability gates: the traced merge must stay allocation-free (the
    // event ring is warmed before measuring) and cost at most 10% + 2 ms
    // over the traced-off run — the "zero-overhead when off, near-zero
    // when on" contract.
    let traced = d.engine("spider_traced")?;
    if traced.allocs > 2_000 {
        return Err(format!(
            "[{name}] traced spider performed {} allocations — tracing broke the \
             allocation-free merge (items_read={})",
            traced.allocs, traced.metrics.items_read
        ));
    }
    if traced.wall_ms > spider.wall_ms * 1.10 + 2.0 {
        return Err(format!(
            "[{name}] traced spider costs {:.2} ms vs {:.2} ms untraced — span \
             recording is no longer near-free",
            traced.wall_ms, spider.wall_ms
        ));
    }
    // Comparator-split sanity: the tournament tree must be doing (and
    // counting) real work in the merge.
    let compares = spider.metrics.key_compares + spider.metrics.memcmp_compares;
    if compares == 0 {
        return Err(format!(
            "[{name}] spider reported no key/memcmp compares — the comparator split is \
             not being counted"
        ));
    }
    // Comparison-count gate, exact on every host: each value read costs
    // one leaf-to-root replay (a match per level) plus the test that puts
    // it in its group, with one level of slack; the tree's build plays at
    // most a path per cursor; and deciding whether a member stays open
    // reads at most one other cursor per candidate it refutes. A binary
    // heap's pop + push per value read fails it on pdb (19.6 per value
    // against a bound of 12).
    let m = &spider.metrics;
    let height = u64::from(m.cursor_opens.max(1).next_power_of_two().ilog2());
    let refuted = (d.candidates - spider.satisfied) as u64;
    let bound = m.items_read * (height + 2) + m.cursor_opens * height + refuted;
    if compares > bound {
        return Err(format!(
            "[{name}] spider made {compares} value comparisons for {} values read over {} \
             cursors (bound {bound}) — the merge no longer pays one tree replay per value \
             read",
            m.items_read, m.cursor_opens
        ));
    }
    // Equal-set classes gate, exact on every host: the finder's merge opens
    // one cursor per class (its IND set was already held to the
    // full-candidate `run_spider` set).
    if d.finder.cursor_opens != d.finder.value_set_classes {
        return Err(format!(
            "[{name}] the finder's merge opened {} cursors for {} value-set classes",
            d.finder.cursor_opens, d.finder.value_set_classes
        ));
    }
    // Merge wall-clock gate: the frozen legacy engine runs in the same
    // process on the same data, so the ratio calibrates the machine away;
    // it was 3.30 at PR 2, fell to 1.82 when the comparator started
    // re-deriving both keys on every call, and no ratio between two rows
    // of the current engine could see that. Enforced once the merge is
    // long enough to time (several milliseconds on pdb from scale 100 up).
    if name == "pdb" && scale >= MERGE_GATE_MIN_SCALE {
        let speedup = d
            .speedup_spider_vs_legacy()
            .ok_or("missing legacy/spider rows")?;
        if speedup < MERGE_GATE_MIN_SPEEDUP {
            return Err(format!(
                "[pdb] spider is only {speedup:.2}x the frozen legacy engine (required \
                 {MERGE_GATE_MIN_SPEEDUP}x at scale {scale}) — the merge loop's \
                 per-comparison cost regressed"
            ));
        }
    }
    // Exact-read gate, the same on every host: parked references read
    // without a tree replay, but the engine must still read, compare and
    // open exactly what the frozen gather-then-decide engine does.
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
            "[{name}] spider read (items, bytes, comparisons, cursor opens) = {:?}, the \
             frozen legacy engine {:?}",
            io(&spider.metrics),
            io(&legacy.metrics)
        ));
    }
    if legacy.allocs <= spider.allocs {
        return Err(format!(
            "[{name}] legacy engine allocated no more than spider ({} vs {}) — counting \
             allocator is not measuring",
            legacy.allocs, spider.allocs
        ));
    }
    // Read-call gate, exact on every host: a reader that reads each record
    // with two `read_exact`s over a buffered file makes 4 calls per cursor
    // (header and footer) plus 2 per value read; the block reader must
    // issue at least 4x fewer. Bigger blocks must never need more fills.
    let block = &d.disk.block;
    let per_record = 4 * block.metrics.cursor_opens + 2 * block.metrics.items_read;
    if 4 * block.io.read_calls > per_record {
        return Err(format!(
            "[{name}] read-call gate: spider_block made {} read calls, more than a quarter \
             of the per-record shape's {per_record} (4 per cursor + 2 per value read) — \
             the block layer is no longer amortising reads",
            block.io.read_calls
        ));
    }
    if !d
        .disk
        .sweep
        .windows(2)
        .all(|w| w[0].read_calls >= w[1].read_calls)
    {
        let sweep: Vec<_> = d
            .disk
            .sweep
            .iter()
            .map(|s| (s.block_size, s.read_calls))
            .collect();
        return Err(format!(
            "[{name}] sweep read_calls grew with block size: {sweep:?}"
        ));
    }
    // Robustness gate: the verified reads of healthy files detect nothing
    // and retry nothing.
    if block.io.checksum_failures != 0 || block.io.io_retries != 0 {
        return Err(format!(
            "[{name}] healthy files tripped the robustness counters: {} checksum \
             failures, {} retries",
            block.io.checksum_failures, block.io.io_retries
        ));
    }
    // Export gates: at the default budget the one-worker export (and its
    // verified round trip) stays in memory, and it allocates a small
    // constant per attribute (index and arena warm-up, one writer block,
    // min/max, the trailer entry), never O(values pushed).
    let export = &d.export;
    for pass in ["export_serial", "export_checksum"] {
        let row = export
            .pass(pass)
            .ok_or_else(|| format!("missing {pass} row"))?;
        if row.spill_runs != 0 {
            return Err(format!(
                "[{name}] {pass} must be the in-memory path, spilled {} runs",
                row.spill_runs
            ));
        }
    }
    let serial = export
        .pass("export_serial")
        .ok_or("missing export_serial row")?;
    let alloc_bound = (export.attributes as u64) * 32 + 512;
    if serial.allocs > alloc_bound {
        return Err(format!(
            "[{name}] export_serial performed {} allocations for {} attributes (bound \
             {alloc_bound}) — the export is no longer steady-state allocation-free \
             (pushed={})",
            serial.allocs, export.attributes, export.pushed
        ));
    }
    // Spill gates: the smallest sweep budget must actually force multi-run
    // spills (so the spill-merge path is exercised every check run), and
    // runs must not increase with the budget.
    let (smallest, first) = export.sweep.first().ok_or("missing export budget sweep")?;
    if first.spill_runs == 0 {
        return Err(format!(
            "[{name}] a {smallest}-byte budget produced no spill runs — the sweep no \
             longer exercises the merge path"
        ));
    }
    if !export
        .sweep
        .windows(2)
        .all(|w| w[0].1.spill_runs >= w[1].1.spill_runs)
    {
        let sweep: Vec<_> = export
            .sweep
            .iter()
            .map(|(b, p)| (*b, p.spill_runs))
            .collect();
        return Err(format!(
            "[{name}] sweep runs grew with the memory budget: {sweep:?}"
        ));
    }
    // The configured budget must appear as its own measured row whenever it
    // differs from the default (the CI smoke passes --memory-budget 4096 to
    // drive the spill merge end to end).
    if memory_budget != SortOptions::DEFAULT_MEMORY_BUDGET && export.pass("export_budget").is_none()
    {
        return Err(format!(
            "[{name}] --memory-budget {memory_budget} was set but the export_budget row is \
             missing"
        ));
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
