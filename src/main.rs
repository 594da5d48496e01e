//! `spider-ind` — command-line schema discovery.
//!
//! ```text
//! spider-ind generate <uniprot|scop|pdb|chains|wide> <dir> [--scale N] [--seed N]
//!                           [--value-bytes SIZE]
//! spider-ind profile  <dir>
//! spider-ind discover <dir> [--algorithm bf|bfpar|sp|spider|blockwise]
//!                           [--threads N] [--max-files N] [--max-pretest] [--names]
//!                           [--on-disk] [--block-size SIZE] [--memory-budget SIZE]
//!                           [--workdir DIR] [--max-arity N]
//!                           [--keep-going] [--fault-plan SPEC]
//!                           [--resume [verify]] [--deadline DUR]
//!                           [--report FILE] [--trace-folded FILE] [--progress]
//! spider-ind fks      <dir>
//! ```
//!
//! `SIZE` arguments accept bare byte counts or human-readable binary units
//! (`8KiB`, `64M`, `1gb`). Every command rejects any `--flag` it does not
//! know, so a typo fails instead of being ignored.
//!
//! `--keep-going` (on-disk only) quarantines unreadable or corrupt
//! attributes instead of aborting, prints a machine-readable
//! `degraded: {...}` JSON line, and exits with status 2 when anything was
//! actually quarantined. `--fault-plan` injects I/O faults for testing
//! (see `ind_valueset::FaultPlan`).
//!
//! `--resume` (on-disk, needs an explicit `--workdir`) reuses value files
//! a previous run already published — verified against the trailer of
//! the segment holding each — and re-exports only what is missing or stale;
//! `--resume verify` additionally re-walks every reused file's checksums.
//! `--deadline DUR` (`500ms`, `30s`, `2m`) cancels the run cooperatively
//! when the budget expires; SIGINT does the same. A cancelled run flushes
//! its `--report` with a `cancelled` section, leaves the workdir
//! resumable, and exits with status 3.
//!
//! Databases are directories in the TSV format of `ind_storage::tsv`
//! (`schema.txt` + one `.tsv` per table); `generate` creates them.

use spider_ind::core::{
    Algorithm, DegradedReport, FinderConfig, IndFinder, NaryConfig, NaryFinder, PretestConfig,
    RunMetrics,
};
use spider_ind::datagen::{BiosqlConfig, ChainsConfig, OpenMmsConfig, ScopConfig, WideConfig};
use spider_ind::discovery::{
    evaluate_composite_foreign_keys, evaluate_foreign_keys, find_accession_candidates,
    fk_guesses_filtered, identify_primary_relation, AccessionRules,
};
use spider_ind::storage::{table_stats, tsv, Database};
use spider_ind::trace::json::Json;
use std::path::Path;
use std::process::ExitCode;

/// Writes to stdout ignoring broken pipes (`spider-ind … | head`).
fn emit(text: &str) {
    use std::io::Write;
    // lint: allow(swallowed_result) — a closed stdout is the reader's choice, not an error
    let _ = std::io::stdout().lock().write_all(text.as_bytes());
}

/// `writeln!` into a `String` cannot fail; this wrapper keeps report
/// building free of ignored `Result`s.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// Exit status of a `--keep-going` run that completed but had to
/// quarantine at least one attribute: distinct from both success (0) and
/// hard failure (1) so scripts can tell a degraded answer from a dead one.
const EXIT_DEGRADED: u8 = 2;

/// Exit status of a run stopped by `--deadline` expiry or SIGINT: the
/// answer is incomplete but the workdir was drained to a consistent state
/// and can be finished with `--resume`.
const EXIT_CANCELLED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | None => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        Some(name) => match COMMANDS.iter().find(|(command, ..)| *command == name) {
            Some((command, flags, run)) => {
                check_flags(command, flags, &args[1..]).and_then(|()| run(&args[1..]))
            }
            None => Err(format!("unknown command `{name}` (try `spider-ind help`)")),
        },
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "spider-ind — unary inclusion dependency discovery (ICDE 2006 reproduction)\n\n\
         USAGE:\n\
         \x20 spider-ind generate <uniprot|scop|pdb|chains|wide> <dir> [--scale N] [--seed N]\n\
         \x20                     [--value-bytes SIZE]\n\
         \x20     Generate a synthetic database and save it as TSV\n\
         \x20     (`chains` carries a composite two-column foreign key;\n\
         \x20     `wide` has few columns with `--value-bytes`-byte values:\n\
         \x20     value files far larger than the readers' blocks).\n\
         \x20 spider-ind profile <dir>\n\
         \x20     Per-attribute statistics (rows, distinct, nulls, uniqueness).\n\
         \x20 spider-ind discover <dir> [--algorithm bf|bfpar|sp|spider|blockwise]\n\
         \x20                     [--threads N] [--max-files N] [--max-pretest] [--names]\n\
         \x20                     [--on-disk] [--block-size SIZE] [--memory-budget SIZE]\n\
         \x20                     [--workdir DIR] [--max-arity N]\n\
         \x20                     [--resume [verify]] [--deadline DUR]\n\
         \x20     Discover all satisfied INDs. `--threads` sets the workers\n\
         \x20     that load the tables and extract the value sets, on every\n\
         \x20     algorithm (default: all cores); for bfpar it is also the\n\
         \x20     number of merge shards.\n\
         \x20     `--on-disk` runs the paper's actual pipeline over sorted\n\
         \x20     value files (exported under `--workdir`, default a fresh\n\
         \x20     temp dir) read through `--block-size`-byte I/O blocks;\n\
         \x20     `--memory-budget` caps what each export worker's sorter\n\
         \x20     allocates before it spills sorted runs to disk: 16 bytes\n\
         \x20     per non-NULL row of a column (cells are sorted where the\n\
         \x20     loaded table stores them, not copied), plus the encoded\n\
         \x20     tuples for `--max-arity`. SIZE flags accept bare bytes or\n\
         \x20     binary units (8KiB, 64M, 1gb).\n\
         \x20     Value files are read synchronously, one block reader per\n\
         \x20     cursor; every byte is checked against its frame CRC.\n\
         \x20     An unknown flag is an error.\n\
         \x20     `--max-arity N` (N >= 2) switches to the levelwise n-ary\n\
         \x20     pipeline: composite INDs up to arity N, validated by the\n\
         \x20     SPIDER engine over tuple-encoded value streams.\n\
         \x20     `--keep-going` (on-disk only) quarantines unreadable or\n\
         \x20     corrupt attributes instead of aborting, prints a\n\
         \x20     `degraded: {{...}}` JSON line, and exits with status 2\n\
         \x20     when anything was quarantined. `--fault-plan SPEC`\n\
         \x20     injects I/O faults for testing, e.g.\n\
         \x20     `read:attr-00001:flip=40,write:*:eintr@3`.\n\
         \x20     `--resume` (on-disk, explicit `--workdir`) reuses the\n\
         \x20     value files a previous run already published, as its\n\
         \x20     segments' trailers describe them, and re-exports only\n\
         \x20     what is missing or stale; `--resume verify` re-walks every\n\
         \x20     reused file's checksums first. `--deadline DUR` (500ms,\n\
         \x20     30s, 2m) cancels the run when the budget expires, as\n\
         \x20     does SIGINT; a cancelled run flushes `--report` with a\n\
         \x20     `cancelled` section, leaves the workdir resumable, and\n\
         \x20     exits with status 3.\n\
         \x20     Observability: `--report FILE` writes a versioned JSON\n\
         \x20     run report (phase span tree + all counters),\n\
         \x20     `--trace-folded FILE` writes flamegraph-compatible\n\
         \x20     folded stacks, `--progress` prints a throttled\n\
         \x20     heartbeat to stderr while the run is in flight.\n\
         \x20 spider-ind fks <dir>\n\
         \x20     Foreign-key guesses, accession candidates, primary relation."
    );
}

fn flag_value(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{name} requires a value"))?
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// Parses a human-readable byte size: a bare integer (`4096`) or an
/// integer with a unit suffix (`8KiB`, `64M`, `1gb`). Units are
/// case-insensitive and binary — `K`/`KB`/`KiB` all mean ×1024, likewise
/// the M and G families.
fn parse_size(text: &str) -> Result<u64, String> {
    let trimmed = text.trim();
    let digits_end = trimmed
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(trimmed.len());
    let (digits, suffix) = trimmed.split_at(digits_end);
    if digits.is_empty() {
        return Err(format!(
            "`{text}`: expected a byte size like 4096, 8KiB, or 1GiB"
        ));
    }
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("`{text}`: number out of range"))?;
    let shift = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 0u32,
        "k" | "kb" | "kib" => 10,
        "m" | "mb" | "mib" => 20,
        "g" | "gb" | "gib" => 30,
        other => {
            return Err(format!(
                "`{text}`: unknown size unit `{other}` (use B, K/KB/KiB, M/MB/MiB, or G/GB/GiB)"
            ))
        }
    };
    value
        .checked_mul(1u64 << shift)
        .ok_or_else(|| format!("`{text}`: size overflows 64 bits"))
}

/// Parses a human-readable duration: a bare integer means seconds
/// (`30`), or an integer with a unit suffix — `ms`, `s`, or `m`
/// (`500ms`, `30s`, `2m`). Case-insensitive.
fn parse_duration(text: &str) -> Result<std::time::Duration, String> {
    let trimmed = text.trim();
    let digits_end = trimmed
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(trimmed.len());
    let (digits, suffix) = trimmed.split_at(digits_end);
    if digits.is_empty() {
        return Err(format!(
            "`{text}`: expected a duration like 500ms, 30s, or 2m"
        ));
    }
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("`{text}`: number out of range"))?;
    match suffix.trim().to_ascii_lowercase().as_str() {
        "ms" => Ok(std::time::Duration::from_millis(value)),
        "" | "s" => Ok(std::time::Duration::from_secs(value)),
        "m" | "min" => value
            .checked_mul(60)
            .map(std::time::Duration::from_secs)
            .ok_or_else(|| format!("`{text}`: duration overflows 64 bits")),
        other => Err(format!(
            "`{text}`: unknown duration unit `{other}` (use ms, s, or m)"
        )),
    }
}

/// Parses `--resume [verify]`: absent means off, bare `--resume` reuses
/// the exports segment trailers describe after a cheap header/footer check, and
/// `--resume verify` re-walks every reused file's frame checksums first.
fn parse_resume(args: &[String]) -> Result<spider_ind::valueset::ResumeMode, String> {
    use spider_ind::valueset::ResumeMode;
    match args.iter().position(|a| a == "--resume") {
        None => Ok(ResumeMode::Off),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("verify") => Ok(ResumeMode::Verify),
            // The database directory is always the first operand, so a
            // non-flag token right after `--resume` can only be a typo'd
            // mode — reject it instead of silently ignoring it.
            Some(other) if !other.starts_with("--") => Err(format!(
                "--resume: unknown mode `{other}` (use bare `--resume` or `--resume verify`)"
            )),
            _ => Ok(ResumeMode::Reuse),
        },
    }
}

/// Builds the run's [`spider_ind::valueset::CancelToken`]: armed with the
/// `--deadline` budget when given, and always watching SIGINT so Ctrl-C
/// drains the pipeline to a consistent, resumable stop instead of killing
/// it mid-write.
fn cancel_token_from_args(args: &[String]) -> Result<spider_ind::valueset::CancelToken, String> {
    let token = match flag_str_value(args, "--deadline")? {
        Some(text) => spider_ind::valueset::CancelToken::with_deadline(
            parse_duration(text).map_err(|e| format!("--deadline: {e}"))?,
        ),
        None => spider_ind::valueset::CancelToken::new(),
    };
    token.watch_sigint();
    Ok(token)
}

/// [`flag_value`] accepting [`parse_size`]-style human-readable sizes.
fn flag_size_value(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} requires a value"))?;
            parse_size(raw)
                .map(Some)
                .map_err(|e| format!("{name}: {e}"))
        }
    }
}

/// [`flag_value`] for free-form string values (rejects a missing or
/// flag-shaped operand instead of swallowing the next flag).
fn flag_str_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Ok(Some(value)),
            _ => Err(format!("{name} requires a value")),
        },
    }
}

/// `--threads N`: the workers that load tables and extract value sets on
/// every algorithm, and the merge shards of `bfpar`. Every core when absent.
fn workers_from_args(args: &[String]) -> Result<usize, String> {
    Ok(flag_value(args, "--threads")?
        .map_or_else(spider_ind::storage::default_workers, |n| n.max(1) as usize))
}

/// Builds the disk-pipeline [`ExportOptions`] from the shared flags:
/// `--threads`, `--block-size` / `--memory-budget` (human-readable sizes),
/// the robustness mode `--keep-going`, and the test-only `--fault-plan`
/// injector.
fn export_options_from_args(
    args: &[String],
) -> Result<spider_ind::valueset::ExportOptions, String> {
    let mut options = spider_ind::valueset::ExportOptions::with_threads(workers_from_args(args)?);
    if let Some(block_size) = flag_size_value(args, "--block-size")? {
        options.sort.io = spider_ind::valueset::IoOptions::with_block_size(block_size as usize);
    }
    if let Some(budget) = flag_size_value(args, "--memory-budget")? {
        options.sort.memory_budget_bytes = budget as usize;
    }
    if let Some(spec) = flag_str_value(args, "--fault-plan")? {
        let plan = spider_ind::valueset::FaultPlan::parse(spec)
            .map_err(|e| format!("--fault-plan: {e}"))?;
        options.sort.io = options
            .sort
            .io
            .clone()
            .with_fault(std::sync::Arc::new(plan));
    }
    Ok(options.keep_going(args.iter().any(|a| a == "--keep-going")))
}

/// The keep-going degradation summary — the machine-readable contract
/// scripted consumers parse from the `degraded:` line (compact) and the
/// report; its shape is pinned by a unit test.
fn degraded_json(report: &DegradedReport) -> Json {
    let quarantined = report.quarantined.iter().map(|f| {
        Json::obj([
            ("id", f.id.into()),
            ("name", Json::Str(f.name.to_string())),
            ("error", f.error.as_str().into()),
        ])
    });
    Json::obj([
        ("quarantined", Json::Arr(quarantined.collect())),
        ("io_retries", report.io_retries.into()),
        ("checksum_failures", report.checksum_failures.into()),
    ])
}

/// Version stamp of the `--report` JSON shape. Bump on any breaking
/// change to the report's keys (2: the overlapped-I/O counters left
/// `metrics`; 3: so did the transitivity-inference counters; 4:
/// `pruned_sampling` left `metrics`, and `spans` holds a `load` root before
/// the `discover` one; 5: `pruned_min_value` left `metrics`). The `cancelled` section is additive — present only
/// on cancelled runs — so it does not bump the version.
const REPORT_VERSION: u64 = 5;

/// How far a cancelled run got before it drained to a stop: recorded in
/// the report's `cancelled` section so scripts can tell a run that died
/// during export from one that died mid-merge.
struct CancelledInfo {
    phase: String,
    attributes_exported: u64,
    candidates_surviving: u64,
}

impl CancelledInfo {
    fn capture(cancel: &spider_ind::valueset::CancelToken) -> CancelledInfo {
        let progress = spider_ind::trace::progress();
        CancelledInfo {
            phase: cancel.phase().unwrap_or("unknown").to_string(),
            attributes_exported: progress.attributes_exported,
            candidates_surviving: progress.candidates_live,
        }
    }
}

/// The observability flags shared by every discover path: `--report FILE`
/// (versioned JSON run report), `--trace-folded FILE` (flamegraph folded
/// stacks), and `--progress` (throttled stderr heartbeat). Any of them
/// turns tracing on for the run; none of them leaves the hot paths at
/// their disabled-cost (one relaxed load per gate).
struct TraceArgs {
    report: Option<std::path::PathBuf>,
    folded: Option<std::path::PathBuf>,
    progress: bool,
}

impl TraceArgs {
    fn from_args(args: &[String]) -> Result<TraceArgs, String> {
        Ok(TraceArgs {
            report: flag_str_value(args, "--report")?.map(std::path::PathBuf::from),
            folded: flag_str_value(args, "--trace-folded")?.map(std::path::PathBuf::from),
            progress: args.iter().any(|a| a == "--progress"),
        })
    }

    fn active(&self) -> bool {
        self.report.is_some() || self.folded.is_some() || self.progress
    }

    /// Enables tracing (when any flag is set) and starts the heartbeat
    /// thread (when `--progress` is set). The returned session must be
    /// [`TraceSession::finish`]ed after the run.
    fn begin(&self) -> TraceSession {
        if !self.active() {
            return TraceSession {
                enabled: false,
                heartbeat: None,
            };
        }
        spider_ind::trace::reset();
        spider_ind::trace::enable();
        let heartbeat = self.progress.then(|| {
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = std::sync::Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                let mut last = spider_ind::trace::progress();
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    let now = spider_ind::trace::progress();
                    if now != last {
                        eprintln!(
                            "progress: items={} bytes={} attrs={} spills={} candidates={}",
                            now.items_read,
                            now.value_bytes_read,
                            now.attributes_exported,
                            now.spill_runs,
                            now.candidates_live
                        );
                        last = now;
                    }
                }
            });
            (stop, handle)
        });
        TraceSession {
            enabled: true,
            heartbeat,
        }
    }

    /// Writes the requested output files from a finished run.
    fn write_outputs(
        &self,
        trace: &spider_ind::trace::Trace,
        metrics: &RunMetrics,
        degraded: Option<&DegradedReport>,
        cancelled: Option<&CancelledInfo>,
        dir: &str,
        args: &[String],
    ) -> Result<(), String> {
        if let Some(path) = &self.report {
            let report = run_report_json(trace, metrics, degraded, cancelled, dir, args);
            std::fs::write(path, report.pretty())
                .map_err(|e| format!("writing report {}: {e}", path.display()))?;
        }
        if let Some(path) = &self.folded {
            std::fs::write(path, spider_ind::trace::folded(trace))
                .map_err(|e| format!("writing folded stacks {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// A live tracing session: stops the heartbeat and collects the span tree
/// when the run is over.
struct TraceSession {
    enabled: bool,
    heartbeat: Option<(
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<()>,
    )>,
}

impl TraceSession {
    /// Stops the heartbeat, turns tracing off, and returns the collected
    /// trace — `None` when no observability flag was given.
    fn finish(self) -> Option<spider_ind::trace::Trace> {
        if let Some((stop, handle)) = self.heartbeat {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            if handle.join().is_err() {
                eprintln!("warning: progress heartbeat thread panicked");
            }
        }
        if !self.enabled {
            return None;
        }
        let trace = spider_ind::trace::collect();
        spider_ind::trace::disable();
        Some(trace)
    }
}

/// Assembles the versioned `--report` JSON document: config echo, the
/// full [`RunMetrics`] vocabulary, the degradation summary (or `null`),
/// histogram buckets, ring-overflow count, and the phase span tree.
fn run_report_json(
    trace: &spider_ind::trace::Trace,
    metrics: &RunMetrics,
    degraded: Option<&DegradedReport>,
    cancelled: Option<&CancelledInfo>,
    dir: &str,
    args: &[String],
) -> Json {
    let mut report = vec![
        ("report_version", REPORT_VERSION.into()),
        ("database", dir.into()),
        (
            "argv",
            Json::Arr(args.iter().map(|a| a.as_str().into()).collect()),
        ),
        ("metrics", metrics.to_json()),
        ("degraded", degraded.map_or(Json::Null, degraded_json)),
    ];
    if let Some(c) = cancelled {
        report.push((
            "cancelled",
            Json::obj([
                ("phase", c.phase.as_str().into()),
                ("attributes_exported", c.attributes_exported.into()),
                ("candidates_surviving", c.candidates_surviving.into()),
            ]),
        ));
    }
    let histograms = spider_ind::trace::histograms().map(|hist| {
        let buckets = hist.bucket_counts().iter().map(|&n| n.into()).collect();
        (hist.name(), Json::Arr(buckets))
    });
    report.extend([
        ("dropped_events", trace.dropped_events.into()),
        ("histograms", Json::obj(histograms)),
        ("spans", spider_ind::trace::spans_json(trace)),
    ]);
    Json::obj(report)
}

fn load(dir: &str) -> Result<Database, String> {
    load_with(dir, spider_ind::storage::default_workers())
}

fn load_with(dir: &str, workers: usize) -> Result<Database, String> {
    tsv::load_database_with(Path::new(dir), workers).map_err(|e| format!("loading {dir}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<ExitCode, String> {
    let kind = args.first().ok_or("generate: missing database kind")?;
    let dir = args.get(1).ok_or("generate: missing output directory")?;
    let scale = flag_value(args, "--scale")?.unwrap_or(100) as usize;
    let seed = flag_value(args, "--seed")?.unwrap_or(42);
    let db = match kind.as_str() {
        "uniprot" => spider_ind::datagen::generate_uniprot(&BiosqlConfig {
            bioentries: scale * 8,
            seed,
            ..Default::default()
        }),
        "scop" => spider_ind::datagen::generate_scop(&ScopConfig {
            nodes: scale * 15,
            seed,
            ..Default::default()
        }),
        "pdb" => spider_ind::datagen::generate_pdb(&OpenMmsConfig {
            entries: scale * 4,
            base_rows: scale * 3,
            seed,
            ..OpenMmsConfig::small_fraction()
        }),
        "chains" => spider_ind::datagen::generate_chains(&ChainsConfig {
            structures: scale,
            seed,
        }),
        "wide" => spider_ind::datagen::generate_wide(&WideConfig {
            rows: scale * 4,
            value_bytes: flag_size_value(args, "--value-bytes")?.unwrap_or(4096) as usize,
            seed,
        }),
        other => return Err(format!("generate: unknown kind `{other}`")),
    };
    tsv::save_database(&db, Path::new(dir)).map_err(|e| format!("saving: {e}"))?;
    println!(
        "wrote {} ({} tables, {} attributes, {} rows) to {dir}",
        db.name(),
        db.table_count(),
        db.attribute_count(),
        db.total_rows()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(args: &[String]) -> Result<ExitCode, String> {
    let dir = args.first().ok_or("profile: missing database directory")?;
    let db = load(dir)?;
    let mut out = String::new();
    outln!(
        out,
        "database {}: {} tables, {} attributes, {} rows\n",
        db.name(),
        db.table_count(),
        db.attribute_count(),
        db.total_rows()
    );
    outln!(
        out,
        "{:<44} {:>8} {:>9} {:>7} {:>7}  key?",
        "attribute",
        "rows",
        "distinct",
        "nulls",
        "type"
    );
    for table in db.tables() {
        for (cs, st) in table.schema().columns.iter().zip(table_stats(table)) {
            outln!(
                out,
                "{:<44} {:>8} {:>9} {:>7} {:>7}  {}",
                format!("{}.{}", table.name(), cs.name),
                st.rows,
                st.distinct,
                st.rows - st.non_null,
                cs.data_type.name(),
                if st.is_unique() { "unique" } else { "" }
            );
        }
    }
    emit(&out);
    Ok(ExitCode::SUCCESS)
}

fn parse_algorithm(args: &[String]) -> Result<Algorithm, String> {
    let max_files = flag_value(args, "--max-files")?.unwrap_or(512);
    if max_files < 2 {
        return Err(format!("--max-files must be at least 2, got {max_files}"));
    }
    match flag_str_value(args, "--algorithm")?.unwrap_or("spider") {
        "bf" => Ok(Algorithm::BruteForce),
        "bfpar" => Ok(Algorithm::BruteForceParallel {
            threads: workers_from_args(args)?,
        }),
        "sp" => Ok(Algorithm::SinglePass),
        "spider" => Ok(Algorithm::Spider),
        "blockwise" => Ok(Algorithm::Blockwise {
            max_open_files: max_files as usize,
        }),
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

/// The flags a command accepts, each with whether it takes a value.
type Flags = &'static [(&'static str, bool)];

const GENERATE_FLAGS: Flags = &[("--scale", true), ("--seed", true), ("--value-bytes", true)];

/// `--resume`'s `verify` is optional; see [`parse_resume`].
const DISCOVER_FLAGS: Flags = &[
    ("--algorithm", true),
    ("--threads", true),
    ("--max-files", true),
    ("--max-pretest", false),
    ("--names", false),
    ("--on-disk", false),
    ("--block-size", true),
    ("--memory-budget", true),
    ("--workdir", true),
    ("--max-arity", true),
    ("--keep-going", false),
    ("--fault-plan", true),
    ("--resume", true),
    ("--deadline", true),
    ("--report", true),
    ("--trace-folded", true),
    ("--progress", false),
];

type Command = fn(&[String]) -> Result<ExitCode, String>;

/// Every command with the flags it accepts; argv is checked against the
/// list by [`check_flags`] before the command runs.
const COMMANDS: &[(&str, Flags, Command)] = &[
    ("generate", GENERATE_FLAGS, cmd_generate),
    ("profile", &[], cmd_profile),
    ("discover", DISCOVER_FLAGS, cmd_discover),
    ("fks", &[], cmd_fks),
];

/// Rejects the first `--flag` in `args` that `accepted` does not list. A
/// value-taking flag skips its operand, unless that operand is itself
/// flag-shaped (the flag's own parser reports the missing value).
fn check_flags(command: &str, accepted: Flags, args: &[String]) -> Result<(), String> {
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(&(_, takes_value)) = accepted.iter().find(|(name, _)| name == arg) else {
            return Err(format!("{command}: unknown flag `{arg}`"));
        };
        if takes_value {
            rest.next_if(|value| !value.starts_with("--"));
        }
    }
    Ok(())
}

fn cmd_discover(args: &[String]) -> Result<ExitCode, String> {
    let dir = args.first().ok_or("discover: missing database directory")?;
    let on_disk = args.iter().any(|a| a == "--on-disk");
    if !on_disk
        && (args.iter().any(|a| a == "--keep-going") || args.iter().any(|a| a == "--fault-plan"))
    {
        return Err("discover: --keep-going and --fault-plan require --on-disk".into());
    }
    let resume = parse_resume(args)?;
    if resume != spider_ind::valueset::ResumeMode::Off {
        if !on_disk {
            return Err("discover: --resume requires --on-disk".into());
        }
        if !args.iter().any(|a| a == "--workdir") {
            return Err("discover: --resume needs an explicit --workdir \
                 (a fresh temp export leaves nothing to resume)"
                .into());
        }
    }
    let cancel = cancel_token_from_args(args)?;
    let _ambient = spider_ind::valueset::cancel::set_ambient(Some(cancel.clone()));
    let workers = workers_from_args(args)?;
    let algorithm = parse_algorithm(args)?;
    let max_arity = flag_value(args, "--max-arity")?.filter(|&arity| arity >= 2);
    let tracing = TraceArgs::from_args(args)?;
    // The trace covers the load too: its own `load` span, then the
    // finder's `discover` root.
    let session = tracing.begin();
    let loaded = {
        let _span = spider_ind::trace::start(spider_ind::trace::LOAD);
        load_with(dir, workers)
    };
    let db = match loaded {
        Ok(db) => db,
        Err(message) => {
            session.finish();
            return Err(message);
        }
    };
    if let Some(max_arity) = max_arity {
        let max_arity = max_arity as usize;
        return cmd_discover_nary(&db, args, max_arity, &cancel, resume, &tracing, session);
    }
    let mut config = FinderConfig::with_algorithm(algorithm);
    if args.iter().any(|a| a == "--max-pretest") {
        config.pretests = PretestConfig::with_max_value();
    }
    let finder = IndFinder::new(config);
    let result = if on_disk {
        on_disk_run(args, &cancel, resume, |workdir, options| {
            finder.discover_on_disk_with(&db, workdir, options)
        })
    } else {
        finder
            .discover_in_memory_with(&db, workers)
            .map_err(|e| format!("discovery failed: {e}"))
    };
    finish_discover(
        result,
        session,
        &cancel,
        &tracing,
        args,
        |d| (&d.metrics, d.degraded.as_ref()),
        |discovery, out| {
            outln!(
                out,
                "{} candidates ({} pairs considered), {} satisfied INDs, {:?}\n",
                discovery.metrics.candidates(),
                discovery.metrics.pairs_considered,
                discovery.ind_count(),
                discovery.metrics.elapsed
            );
            for (dep, refd) in discovery.satisfied_named() {
                outln!(out, "{dep} <= {refd}");
            }
        },
    )
}

/// Runs the levelwise n-ary pipeline (`discover --max-arity N`, N ≥ 2) and
/// prints per-level candidate counts — the apriori saving made visible —
/// followed by the composite INDs and, when the schema declares composite
/// gold keys, their evaluation. `session` has traced the load already.
fn cmd_discover_nary(
    db: &spider_ind::storage::Database,
    args: &[String],
    max_arity: usize,
    cancel: &spider_ind::valueset::CancelToken,
    resume: spider_ind::valueset::ResumeMode,
    tracing: &TraceArgs,
    session: TraceSession,
) -> Result<ExitCode, String> {
    let mut config = NaryConfig {
        max_arity,
        ..Default::default()
    };
    if args.iter().any(|a| a == "--max-pretest") {
        config.pretests = PretestConfig::with_max_value();
    }
    let finder = NaryFinder::new(config);
    let result = if args.iter().any(|a| a == "--on-disk") {
        on_disk_run(args, cancel, resume, |workdir, options| {
            finder.discover_on_disk(db, workdir, options)
        })
    } else {
        finder
            .discover_in_memory_with(db, workers_from_args(args)?)
            .map_err(|e| format!("discovery failed: {e}"))
    };
    finish_discover(
        result,
        session,
        cancel,
        tracing,
        args,
        |d| (&d.metrics, d.degraded.as_ref()),
        |discovery, out| {
            outln!(
                out,
                "{} unary INDs, {} composite INDs (max arity found {}), {:?}\n",
                discovery.unary.len(),
                discovery.satisfied.len(),
                discovery.max_arity_found(),
                discovery.metrics.elapsed
            );
            outln!(
                out,
                "{:>5} {:>14} {:>10} {:>12} {:>10} {:>10}",
                "arity",
                "enumerable",
                "generated",
                "proj-pruned",
                "satisfied",
                "ms"
            );
            for level in &discovery.levels {
                outln!(
                    out,
                    "{:>5} {:>14} {:>10} {:>12} {:>10} {:>10.2}",
                    level.arity,
                    level.enumerable,
                    level.generated,
                    level.pruned_projection,
                    level.satisfied,
                    level.elapsed.as_secs_f64() * 1e3
                );
            }
            outln!(out);
            for (dep, refd) in discovery.satisfied_named() {
                let join = |side: &[spider_ind::storage::QualifiedName]| {
                    side.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                outln!(out, "({}) <= ({})", join(&dep), join(&refd));
            }
            if !db.gold_composite_foreign_keys().is_empty() {
                let eval = evaluate_composite_foreign_keys(db, discovery);
                outln!(
                    out,
                    "\nagainst declared composite FKs: {} found, {} missed, {} extras",
                    eval.found.len(),
                    eval.missed.len(),
                    eval.extras.len()
                );
            }
        },
    )
}

/// The tail of every discover run, unary or n-ary: stop tracing, route a
/// failure through [`finish_run_error`], write `--report` /
/// `--trace-folded`, then print `body`'s text, the `degraded:` line and,
/// under `--names`, the metrics line. `summary` picks a result's metrics
/// and degradation report. Exits [`EXIT_DEGRADED`] when anything was
/// quarantined.
fn finish_discover<D>(
    result: Result<D, String>,
    session: TraceSession,
    cancel: &spider_ind::valueset::CancelToken,
    tracing: &TraceArgs,
    args: &[String],
    summary: impl Fn(&D) -> (&RunMetrics, Option<&DegradedReport>),
    body: impl FnOnce(&D, &mut String),
) -> Result<ExitCode, String> {
    let dir = args.first().map(String::as_str).unwrap_or("");
    let trace = session.finish();
    let discovery = match result {
        Ok(discovery) => discovery,
        Err(message) => {
            return finish_run_error(cancel, tracing, trace.as_ref(), dir, args, message)
        }
    };
    let (metrics, degraded) = summary(&discovery);
    if let Some(trace) = &trace {
        tracing.write_outputs(trace, metrics, degraded, None, dir, args)?;
    }
    let mut out = String::new();
    body(&discovery, &mut out);
    let mut code = ExitCode::SUCCESS;
    if let Some(report) = degraded {
        outln!(out, "\ndegraded: {}", degraded_json(report).compact());
        if !report.is_clean() {
            code = ExitCode::from(EXIT_DEGRADED);
        }
    }
    if args.iter().any(|a| a == "--names") {
        outln!(out, "\nmetrics: {metrics}");
    }
    emit(&out);
    Ok(code)
}

/// Terminal handling for a failed discover run: a cooperative
/// cancellation (deadline expiry or SIGINT) is not a hard failure — it
/// still flushes the requested `--report` (with a `cancelled` section
/// recording how far the run got), tells the user the workdir is
/// resumable, and exits with the distinct [`EXIT_CANCELLED`] status. Any
/// other failure propagates unchanged.
fn finish_run_error(
    cancel: &spider_ind::valueset::CancelToken,
    tracing: &TraceArgs,
    trace: Option<&spider_ind::trace::Trace>,
    dir: &str,
    args: &[String],
    message: String,
) -> Result<ExitCode, String> {
    if !cancel.is_cancelled() {
        return Err(message);
    }
    let info = CancelledInfo::capture(cancel);
    if let Some(trace) = trace {
        // Discovery produced no final metrics; the report still carries
        // the span tree, histograms, and the cancellation snapshot.
        tracing.write_outputs(trace, &RunMetrics::new(), None, Some(&info), dir, args)?;
    }
    eprintln!(
        "cancelled during {}: {} attributes exported, {} candidates still alive \
         (workdir left resumable; finish with --resume)",
        info.phase, info.attributes_exported, info.candidates_surviving
    );
    Ok(ExitCode::from(EXIT_CANCELLED))
}

/// Resolves `--workdir`: an explicit directory (kept for inspection) or a
/// fresh process-scoped temp directory (removed by the caller). The bool
/// says whether the directory is temporary.
fn resolve_workdir(args: &[String]) -> Result<(std::path::PathBuf, bool), String> {
    match args.iter().position(|a| a == "--workdir") {
        None => Ok((
            std::env::temp_dir().join(format!("spider-ind-export-{}", std::process::id())),
            true,
        )),
        Some(i) => match args.get(i + 1) {
            // Reject a missing/flag-shaped value instead of silently
            // falling back to (and then deleting) a temp export.
            Some(dir) if !dir.starts_with("--") => Ok((std::path::PathBuf::from(dir), false)),
            _ => Err("--workdir requires a directory value".into()),
        },
    }
}

/// Runs a disk-backed pipeline, unary or n-ary: `run` exports to sorted
/// value files under `--workdir` (default: a fresh process-scoped temp
/// directory, removed afterwards; an explicit `--workdir` is kept for
/// inspection) with the export options the flags give, and reads them back
/// through `--block-size`-byte blocks.
fn on_disk_run<D>(
    args: &[String],
    cancel: &spider_ind::valueset::CancelToken,
    resume: spider_ind::valueset::ResumeMode,
    run: impl FnOnce(&Path, &spider_ind::valueset::ExportOptions) -> spider_ind::valueset::Result<D>,
) -> Result<D, String> {
    let options = export_options_from_args(args)?
        .with_cancel(cancel.clone())
        .resume(resume);
    let (workdir, temp) = resolve_workdir(args)?;
    let result = run(&workdir, &options).map_err(|e| format!("discovery failed: {e}"));
    if temp {
        // lint: allow(swallowed_result) — best-effort temp-dir cleanup after the run
        let _ = std::fs::remove_dir_all(&workdir);
    }
    result
}

fn cmd_fks(args: &[String]) -> Result<ExitCode, String> {
    let dir = args.first().ok_or("fks: missing database directory")?;
    let db = load(dir)?;
    let discovery = IndFinder::with_algorithm(Algorithm::Spider)
        .discover_in_memory(&db)
        .map_err(|e| format!("discovery failed: {e}"))?;

    let mut out = String::new();
    outln!(out, "foreign-key guesses ({} INDs):", discovery.ind_count());
    for guess in fk_guesses_filtered(&db, &discovery) {
        outln!(
            out,
            "  {} -> {}{}",
            guess.dep,
            guess.refd,
            if guess.flagged_surrogate {
                "   [flagged: surrogate-range coincidence]"
            } else {
                ""
            }
        );
    }

    if !db.gold_foreign_keys().is_empty() {
        let eval = evaluate_foreign_keys(&db, &discovery);
        outln!(
            out,
            "\nagainst declared FKs: {} found, {} missed (empty tables), {} missed otherwise, {} unexplained extras",
            eval.found.len(),
            eval.missed_empty.len(),
            eval.missed_other.len(),
            eval.unexplained().len()
        );
    }

    let rules = AccessionRules::strict();
    let acc = find_accession_candidates(&db, &rules);
    outln!(out, "\naccession-number candidates:");
    for a in &acc {
        outln!(out, "  {a}");
    }
    let primary = identify_primary_relation(&db, &discovery, &rules);
    outln!(
        out,
        "\nprimary relation candidates: {:?}",
        primary.primary_candidates
    );
    emit(&out);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_size_accepts_bare_integers() {
        for n in [0u64, 1, 16, 4096, 256 * 1024, u64::MAX] {
            assert_eq!(parse_size(&n.to_string()), Ok(n), "bare `{n}` round-trips");
        }
    }

    #[test]
    fn parse_size_understands_binary_units_in_any_case() {
        for (text, expected) in [
            ("8KiB", 8 * 1024),
            ("8k", 8 * 1024),
            ("8KB", 8 * 1024),
            ("64M", 64 * 1024 * 1024),
            ("64mib", 64 * 1024 * 1024),
            ("1GiB", 1024 * 1024 * 1024),
            ("1gb", 1024 * 1024 * 1024),
            ("2 MiB", 2 * 1024 * 1024),
            ("512b", 512),
        ] {
            assert_eq!(parse_size(text), Ok(expected), "{text}");
        }
    }

    #[test]
    fn parse_size_rejects_garbage_and_overflow() {
        for bad in [
            "",
            "KiB",
            "8XB",
            "1.5G",
            "-4k",
            "8 8",
            "99999999999999999999",
        ] {
            assert!(parse_size(bad).is_err(), "`{bad}` must not parse");
        }
        assert!(
            parse_size("999999999999G").is_err(),
            "unit multiplication must be overflow-checked"
        );
    }

    #[test]
    fn flag_size_value_reads_flags_and_reports_context() {
        let a = args(&["discover", "x", "--block-size", "8KiB"]);
        assert_eq!(flag_size_value(&a, "--block-size"), Ok(Some(8192)));
        assert_eq!(flag_size_value(&a, "--memory-budget"), Ok(None));
        let missing = args(&["discover", "x", "--block-size"]);
        let err = flag_size_value(&missing, "--block-size").unwrap_err();
        assert!(err.contains("--block-size"), "{err}");
        let bad = args(&["discover", "x", "--block-size", "8XB"]);
        let err = flag_size_value(&bad, "--block-size").unwrap_err();
        assert!(err.contains("--block-size") && err.contains("8XB"), "{err}");
    }

    #[test]
    fn export_options_pick_up_robustness_flags() {
        let a = args(&[
            "discover",
            "x",
            "--on-disk",
            "--keep-going",
            "--fault-plan",
            "read:attr-00001:flip=40,write:*:eintr@3",
        ]);
        let options = export_options_from_args(&a).unwrap();
        assert!(options.keep_going);
        assert!(options.sort.io.fault.is_some());
        let plain = export_options_from_args(&args(&["discover", "x", "--on-disk"])).unwrap();
        assert!(!plain.keep_going);
        assert!(plain.sort.io.fault.is_none());
        let bad = args(&["discover", "x", "--on-disk", "--fault-plan", "nonsense"]);
        let err = export_options_from_args(&bad).unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
        let dangling = args(&["discover", "x", "--on-disk", "--fault-plan", "--names"]);
        let err = export_options_from_args(&dangling).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn degraded_json_shape_is_stable_and_escaped() {
        use spider_ind::valueset::FailedAttribute;
        let clean = DegradedReport::default();
        assert_eq!(
            degraded_json(&clean).compact(),
            "{\"quarantined\":[],\"io_retries\":0,\"checksum_failures\":0}"
        );
        let report = DegradedReport {
            quarantined: vec![FailedAttribute {
                id: 7,
                name: spider_ind::storage::QualifiedName::new("t", "c"),
                error: "bad \"frame\"\nat byte 12".to_string(),
            }],
            io_retries: 3,
            checksum_failures: 1,
        };
        assert_eq!(
            degraded_json(&report).compact(),
            "{\"quarantined\":[{\"id\":7,\"name\":\"t.c\",\"error\":\
             \"bad \\\"frame\\\"\\nat byte 12\"}],\"io_retries\":3,\"checksum_failures\":1}"
        );
    }

    #[test]
    fn parse_duration_understands_units() {
        use std::time::Duration;
        for (text, expected) in [
            ("500ms", Duration::from_millis(500)),
            ("1ms", Duration::from_millis(1)),
            ("30s", Duration::from_secs(30)),
            ("30", Duration::from_secs(30)),
            ("2m", Duration::from_secs(120)),
            ("2MIN", Duration::from_secs(120)),
            ("0ms", Duration::ZERO),
        ] {
            assert_eq!(parse_duration(text), Ok(expected), "{text}");
        }
        for bad in ["", "ms", "1.5s", "-4s", "5h", "99999999999999999999s"] {
            assert!(parse_duration(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn parse_resume_reads_optional_mode() {
        use spider_ind::valueset::ResumeMode;
        let none = args(&["discover", "db", "--on-disk"]);
        assert_eq!(parse_resume(&none), Ok(ResumeMode::Off));
        let bare = args(&["discover", "db", "--resume"]);
        assert_eq!(parse_resume(&bare), Ok(ResumeMode::Reuse));
        let next_flag = args(&["discover", "db", "--resume", "--workdir", "w"]);
        assert_eq!(parse_resume(&next_flag), Ok(ResumeMode::Reuse));
        let verify = args(&["discover", "db", "--resume", "verify"]);
        assert_eq!(parse_resume(&verify), Ok(ResumeMode::Verify));
        let typo = args(&["discover", "db", "--resume", "verfy"]);
        let err = parse_resume(&typo).unwrap_err();
        assert!(err.contains("verfy"), "{err}");
    }

    #[test]
    fn cancelled_report_section_is_emitted_only_when_cancelled() {
        let info = CancelledInfo {
            phase: "merge".to_string(),
            attributes_exported: 7,
            candidates_surviving: 12,
        };
        let trace = spider_ind::trace::Trace {
            roots: Vec::new(),
            dropped_events: 0,
        };
        let metrics = RunMetrics::new();
        let a = args(&["discover", "db"]);
        let with = run_report_json(&trace, &metrics, None, Some(&info), "db", &a).pretty();
        assert!(
            with.contains(
                "\"cancelled\": {\"phase\": \"merge\", \"attributes_exported\": 7, \
                 \"candidates_surviving\": 12}"
            ),
            "{with}"
        );
        let without = run_report_json(&trace, &metrics, None, None, "db", &a).pretty();
        assert!(!without.contains("\"cancelled\""), "{without}");
    }

    #[test]
    fn export_options_pick_up_size_and_thread_flags() {
        let a = args(&[
            "discover",
            "x",
            "--on-disk",
            "--block-size",
            "64K",
            "--memory-budget",
            "1MiB",
            "--threads",
            "3",
        ]);
        let options = export_options_from_args(&a).unwrap();
        assert_eq!(options.threads, 3);
        assert_eq!(options.sort.io.effective_block_size(), 64 * 1024);
        assert_eq!(options.sort.memory_budget_bytes, 1024 * 1024);
        let plain = export_options_from_args(&args(&["discover", "x", "--on-disk"])).unwrap();
        assert_eq!(
            plain.threads,
            spider_ind::storage::default_workers(),
            "no --threads: every core, on every algorithm"
        );
        assert_eq!(plain.sort.io, spider_ind::valueset::IoOptions::default());
    }

    #[test]
    fn discover_flag_check_accepts_every_listed_flag_and_skips_values() {
        // (tests/cli.rs checks the rejections end to end.)
        let mut all = vec!["db"];
        for &(name, value) in DISCOVER_FLAGS {
            all.push(name);
            if value {
                all.push("1");
            }
        }
        assert_eq!(check_flags("discover", DISCOVER_FLAGS, &args(&all)), Ok(()));
        // Bare `--resume` and `--resume verify` both pass, and a
        // flag-shaped operand is still checked as a flag.
        let ok = args(&[
            "db",
            "--resume",
            "--workdir",
            "w",
            "--fault-plan",
            "read:*:eintr",
        ]);
        assert_eq!(check_flags("discover", DISCOVER_FLAGS, &ok), Ok(()));
        let ok = args(&["db", "--resume", "verify", "--names"]);
        assert_eq!(check_flags("discover", DISCOVER_FLAGS, &ok), Ok(()));
        let hidden = args(&["db", "--workdir", "--on-dsik"]);
        assert!(check_flags("discover", DISCOVER_FLAGS, &hidden)
            .unwrap_err()
            .contains("--on-dsik"));
    }
}
