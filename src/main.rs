//! `spider-ind` — command-line schema discovery.
//!
//! `spider-ind help` prints every command's synopsis and one line per flag.
//! Both are generated from the argument tables in [`COMMANDS`], the same
//! rows the parser reads argv against, so help, parsing and the
//! unknown-flag errors cannot drift apart.
//!
//! Databases are directories in the TSV format of `ind_storage::tsv`
//! (`schema.txt` + one `.tsv` per table); `generate` creates them.

use spider_ind::core::{
    Algorithm, Backend, DegradedReport, Discovery, FinderConfig, IndFinder, PretestConfig,
    RunMetrics,
};
use spider_ind::datagen::{BiosqlConfig, ChainsConfig, OpenMmsConfig, ScopConfig, WideConfig};
use spider_ind::discovery::{
    evaluate_composite_foreign_keys, evaluate_foreign_keys, find_accession_candidates,
    fk_guesses_filtered, identify_primary_relation, AccessionRules,
};
use spider_ind::storage::{table_stats, tsv, Database};
use spider_ind::trace::json::Json;
use spider_ind::valueset::{
    CancelToken, ExportOptions, FaultPlan, ResumeMode, MAX_COMPOSITE_ARITY,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

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
            emit(&usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(name) => match COMMANDS.iter().find(|command| command.name == name) {
            Some(command) => command
                .parse(&args[1..])
                .and_then(|cli| (command.run)(&cli)),
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

/// A command line parsed against its command's table: the operands, and
/// every flag's typed value (its default when the flag is absent).
#[derive(Debug)]
struct Cli {
    /// The arguments after the command, as given (`--report` echoes them).
    argv: Vec<String>,
    operands: Vec<String>,
    scale: usize,
    seed: u64,
    value_bytes: usize,
    /// The engine, given the rest of the command line (`bfpar` shards over
    /// the threads, `blockwise` holds `--max-files` cursors).
    algorithm: fn(&Cli) -> Algorithm,
    max_files: usize,
    pretests: PretestConfig,
    names: bool,
    on_disk: bool,
    workdir: Option<PathBuf>,
    max_arity: usize,
    /// The run's cancel token, armed with the `--deadline` budget.
    cancel: CancelToken,
    /// The worker count of every algorithm (`threads`) and the on-disk
    /// export's options.
    export: ExportOptions,
    trace: TraceArgs,
}

impl Cli {
    fn new(argv: &[String]) -> Cli {
        Cli {
            argv: argv.to_vec(),
            operands: Vec::new(),
            scale: 100,
            seed: 42,
            value_bytes: 4096,
            algorithm: |_| Algorithm::Spider,
            max_files: 512,
            pretests: PretestConfig::default(),
            names: false,
            on_disk: false,
            workdir: None,
            max_arity: 1,
            cancel: CancelToken::new(),
            export: ExportOptions::default(),
            trace: TraceArgs::default(),
        }
    }

    fn workers(&self) -> usize {
        self.export.threads
    }
}

/// How a flag takes its operand, and where the parsed value goes.
#[derive(Clone, Copy)]
enum Set {
    /// No operand.
    Switch(fn(&mut Cli)),
    /// A required operand, shown as the metavar.
    Value(&'static str, fn(&mut Cli, &str) -> Result<(), String>),
    /// An operand that may be left out.
    Optional(
        &'static str,
        fn(&mut Cli, Option<&str>) -> Result<(), String>,
    ),
}

use Set::{Optional, Switch, Value};

/// One row of a command's argument table: the flag, its operand and
/// setter, and its one-line help.
type Flag = (&'static str, Set, &'static str);

struct Command {
    name: &'static str,
    /// Each operand as the synopsis shows it, and what a missing one is.
    operands: &'static [(&'static str, &'static str)],
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Cli) -> Result<ExitCode, String>,
}

fn number(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())
}

fn size(text: &str) -> Result<usize, String> {
    parse_size(text).map(|bytes| bytes as usize)
}

fn path(text: &str) -> Result<Option<PathBuf>, String> {
    Ok(Some(PathBuf::from(text)))
}

/// The engine `--algorithm` names, given the rest of the command line.
fn algorithm(name: &str) -> Result<fn(&Cli) -> Algorithm, String> {
    Ok(match name {
        "bf" => |_| Algorithm::BruteForce,
        "bfpar" => |c| Algorithm::BruteForceParallel {
            threads: c.workers(),
        },
        "sp" => |_| Algorithm::SinglePass,
        "spider" => |_| Algorithm::Spider,
        "blockwise" => |c| Algorithm::Blockwise {
            max_open_files: c.max_files,
        },
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

/// `--max-arity`: an arity in 1..=[`MAX_COMPOSITE_ARITY`].
fn arity(text: &str) -> Result<usize, String> {
    match number(text)? {
        n @ 1.. if n <= MAX_COMPOSITE_ARITY as u64 => Ok(n as usize),
        n => Err(format!("{n} is outside 1..={MAX_COMPOSITE_ARITY}")),
    }
}

fn resume(mode: Option<&str>) -> Result<ResumeMode, String> {
    match mode {
        None => Ok(ResumeMode::Reuse),
        Some("verify") => Ok(ResumeMode::Verify),
        Some(other) => Err(format!(
            "unknown mode `{other}` (use bare `--resume` or `--resume verify`)"
        )),
    }
}

/// Every command with its argument table.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        operands: &[("<uniprot|scop|pdb|chains|wide>", "database kind"), ("<dir>", "output directory")],
        about: "Generate a synthetic database and save it as TSV (`chains` carries a\n\
                composite two-column foreign key; `wide` has few columns of\n\
                `--value-bytes`-byte values: value files far larger than the\n\
                readers' blocks).",
        flags: &[
            ("--scale", Value("N", |c, v| number(v).map(|n| c.scale = n as usize)),
                "size of the database (default 100)"),
            ("--seed", Value("N", |c, v| number(v).map(|n| c.seed = n)),
                "random seed (default 42)"),
            ("--value-bytes", Value("SIZE", |c, v| size(v).map(|n| c.value_bytes = n)),
                "bytes per `wide` payload value (default 4KiB)"),
        ],
        run: cmd_generate,
    },
    Command {
        name: "profile",
        operands: &[("<dir>", "database directory")],
        about: "Per-attribute statistics (rows, distinct, nulls, uniqueness).",
        flags: &[],
        run: cmd_profile,
    },
    Command {
        name: "discover",
        operands: &[("<dir>", "database directory")],
        about: "Discover all satisfied INDs. SIZE is bytes or binary units (8KiB, 64M,\n\
                1gb); DUR is 500ms, 30s or 2m. A cancelled run (deadline or SIGINT)\n\
                flushes --report with a `cancelled` section, leaves the workdir\n\
                resumable and exits 3.",
        flags: &[
            ("--algorithm", Value("bf|bfpar|sp|spider|blockwise", |c, v| algorithm(v).map(|a| c.algorithm = a)),
                "the engine (default spider)"),
            ("--threads", Value("N", |c, v| number(v).map(|n| c.export.threads = n.max(1) as usize)),
                "load and extract workers, and bfpar's shards (default all cores)"),
            ("--max-files", Value("N", |c, v| number(v).map(|n| c.max_files = n as usize)),
                "cursors blockwise holds at once, at least 2 (default 512)"),
            ("--max-pretest", Switch(|c| c.pretests = PretestConfig::with_max_value()),
                "also prune candidates by their max values (Sec. 4.1)"),
            ("--names", Switch(|c| c.names = true),
                "end with a `metrics:` line of the run's key=value counters"),
            ("--on-disk", Switch(|c| c.on_disk = true),
                "run the paper's pipeline over sorted value files"),
            ("--block-size", Value("SIZE", |c, v| size(v).map(|n| c.export.sort.io.block_size = n)),
                "I/O block of every value file written and read"),
            ("--memory-budget", Value("SIZE", |c, v| size(v).map(|n| c.export.sort.memory_budget_bytes = n)),
                "sort memory of each export worker before it spills to disk"),
            ("--workdir", Value("DIR", |c, v| path(v).map(|p| c.workdir = p)),
                "keep the value files here (default: a temp dir, removed)"),
            ("--max-arity", Value("N", |c, v| arity(v).map(|n| c.max_arity = n)),
                "levelwise discovery up to arity N, 1 to 16 (default 1: unary)"),
            ("--keep-going", Switch(|c| c.export.keep_going = true),
                "quarantine failing attributes, print `degraded:`; exit 2 if any"),
            ("--fault-plan", Value("SPEC", |c, v| FaultPlan::parse(v).map(|p| c.export.sort.io.fault = Some(p.into()))),
                "inject I/O faults for testing, e.g. `read:attr-00001:flip=40`"),
            ("--resume", Optional("verify", |c, v| resume(v).map(|mode| c.export.resume = mode)),
                "reuse the value files in --workdir; `verify` re-walks their CRCs"),
            ("--deadline", Value("DUR", |c, v| parse_duration(v).map(|d| c.cancel = CancelToken::with_deadline(d))),
                "cancel the run when the budget expires"),
            ("--report", Value("FILE", |c, v| path(v).map(|p| c.trace.report = p)),
                "write a versioned JSON run report (counters and span tree)"),
            ("--trace-folded", Value("FILE", |c, v| path(v).map(|p| c.trace.folded = p)),
                "write the span tree as flamegraph folded stacks"),
            ("--progress", Switch(|c| c.trace.progress = true),
                "print a throttled counter heartbeat to stderr"),
        ],
        run: cmd_discover,
    },
    Command {
        name: "fks",
        operands: &[("<dir>", "database directory")],
        about: "Foreign-key guesses, accession candidates, primary relation.",
        flags: &[],
        run: cmd_fks,
    },
];

impl Command {
    /// Parses `args` against this command's table before anything runs.
    /// An unknown flag is reported first; then a value flag with nothing
    /// after it, or with another `--flag` after it, fails with `<flag>
    /// requires a value`, and a malformed value fails naming its flag.
    fn parse(&self, args: &[String]) -> Result<Cli, String> {
        let find = |arg: &str| self.flags.iter().find(|(name, ..)| *name == arg);
        if let Some(unknown) = args
            .iter()
            .find(|a| a.starts_with("--") && find(a).is_none())
        {
            return Err(format!("{}: unknown flag `{unknown}`", self.name));
        }
        let mut cli = Cli::new(args);
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            let Some(&(name, set, _)) = find(arg) else {
                cli.operands.push(arg.clone());
                continue;
            };
            let mut operand = || rest.next_if(|v| !v.starts_with("--")).map(String::as_str);
            match set {
                Switch(set) => set(&mut cli),
                Value(_, set) => {
                    let value = operand().ok_or_else(|| format!("{name} requires a value"))?;
                    set(&mut cli, value).map_err(|e| format!("{name}: {e}"))?;
                }
                Optional(_, set) => set(&mut cli, operand()).map_err(|e| format!("{name}: {e}"))?,
            }
        }
        if let Some((_, what)) = self.operands.get(cli.operands.len()) {
            return Err(format!("{}: missing {what}", self.name));
        }
        if let Some(extra) = cli.operands.get(self.operands.len()) {
            return Err(format!("{}: unexpected operand `{extra}`", self.name));
        }
        Ok(cli)
    }

    /// The synopsis lines: `spider-ind <command>`, the operands, then each
    /// flag in brackets, wrapped under the first operand.
    fn synopsis(&self) -> Vec<String> {
        let words = self.operands.iter().map(|(form, _)| form.to_string());
        let flags = self
            .flags
            .iter()
            .map(|flag| format!("[{}]", flag_form(flag)));
        let mut lines = Vec::new();
        let mut line = format!("spider-ind {}", self.name);
        let indent = line.len();
        for word in words.chain(flags) {
            if line.len() + 1 + word.len() > SYNOPSIS_WIDTH {
                lines.push(std::mem::replace(&mut line, " ".repeat(indent)));
            }
            line.push(' ');
            line.push_str(&word);
        }
        lines.push(line);
        lines
    }
}

/// The width README's `## CLI` block wraps every synopsis at.
const SYNOPSIS_WIDTH: usize = 80;

/// `--flag`, `--flag META` or `--flag [META]`.
fn flag_form((name, set, _): &Flag) -> String {
    match set {
        Switch(_) => name.to_string(),
        Value(meta, _) => format!("{name} {meta}"),
        Optional(meta, _) => format!("{name} [{meta}]"),
    }
}

/// The width of the flag column in `help`; a longer flag puts its help
/// text on the next line.
const FLAG_COLUMN: usize = 20;

/// The `help` text, generated from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from(
        "spider-ind — unary inclusion dependency discovery (ICDE 2006 reproduction)\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        for line in command.synopsis() {
            outln!(out, "  {line}");
        }
        for line in command.about.lines() {
            outln!(out, "      {line}");
        }
        for flag in command.flags {
            let form = flag_form(flag);
            if form.len() > FLAG_COLUMN {
                outln!(out, "      {form}\n      {:FLAG_COLUMN$}  {}", "", flag.2);
            } else {
                outln!(out, "      {form:FLAG_COLUMN$}  {}", flag.2);
            }
        }
    }
    out
}

/// Splits `text` into its leading integer and its lower-cased unit;
/// `expected` says what `text` should look like.
fn number_and_unit(text: &str, expected: &str) -> Result<(u64, String), String> {
    let trimmed = text.trim();
    let digits_end = trimmed
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(trimmed.len());
    let (digits, unit) = trimmed.split_at(digits_end);
    if digits.is_empty() {
        return Err(format!("`{text}`: expected {expected}"));
    }
    let value = digits
        .parse()
        .map_err(|_| format!("`{text}`: number out of range"))?;
    Ok((value, unit.trim().to_ascii_lowercase()))
}

/// Parses a human-readable byte size: a bare integer (`4096`) or an
/// integer with a unit suffix (`8KiB`, `64M`, `1gb`). Units are
/// case-insensitive and binary — `K`/`KB`/`KiB` all mean ×1024, likewise
/// the M and G families.
fn parse_size(text: &str) -> Result<u64, String> {
    let (value, unit) = number_and_unit(text, "a byte size like 4096, 8KiB, or 1GiB")?;
    let shift = match unit.as_str() {
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
fn parse_duration(text: &str) -> Result<Duration, String> {
    let (value, unit) = number_and_unit(text, "a duration like 500ms, 30s, or 2m")?;
    match unit.as_str() {
        "ms" => Ok(Duration::from_millis(value)),
        "" | "s" => Ok(Duration::from_secs(value)),
        "m" | "min" => value
            .checked_mul(60)
            .map(Duration::from_secs)
            .ok_or_else(|| format!("`{text}`: duration overflows 64 bits")),
        other => Err(format!(
            "`{text}`: unknown duration unit `{other}` (use ms, s, or m)"
        )),
    }
}

/// The keep-going degradation summary — the machine-readable contract
/// scripted consumers parse from the `degraded:` line (compact) and the
/// report: the quarantined attributes, then the run's fault counters. Its
/// shape is pinned by a unit test.
fn degraded_json(report: &DegradedReport, metrics: &RunMetrics) -> Json {
    let quarantined = report.quarantined.iter().map(|f| {
        Json::obj([
            ("id", f.id.into()),
            ("name", Json::Str(f.name.to_string())),
            ("error", f.error.as_str().into()),
        ])
    });
    Json::obj([
        ("quarantined", Json::Arr(quarantined.collect())),
        ("io_retries", metrics.io_retries.into()),
        ("checksum_failures", metrics.checksum_failures.into()),
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
    fn capture(cancel: &CancelToken) -> CancelledInfo {
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
#[derive(Debug, Default)]
struct TraceArgs {
    report: Option<PathBuf>,
    folded: Option<PathBuf>,
    progress: bool,
}

impl TraceArgs {
    /// Enables tracing (when any flag is set) and starts the heartbeat
    /// thread (when `--progress` is set). The returned session must be
    /// [`TraceSession::finish`]ed after the run.
    fn begin(&self) -> TraceSession {
        let enabled = self.report.is_some() || self.folded.is_some() || self.progress;
        if enabled {
            spider_ind::trace::reset();
            spider_ind::trace::enable();
        }
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
        TraceSession { enabled, heartbeat }
    }
}

/// Writes the output files `cli` asks for from a finished run.
fn write_outputs(
    cli: &Cli,
    trace: &spider_ind::trace::Trace,
    metrics: &RunMetrics,
    degraded: Option<&DegradedReport>,
    cancelled: Option<&CancelledInfo>,
) -> Result<(), String> {
    if let Some(path) = &cli.trace.report {
        let report = run_report_json(trace, metrics, degraded, cancelled, cli);
        std::fs::write(path, report.pretty())
            .map_err(|e| format!("writing report {}: {e}", path.display()))?;
    }
    if let Some(path) = &cli.trace.folded {
        std::fs::write(path, spider_ind::trace::folded(trace))
            .map_err(|e| format!("writing folded stacks {}: {e}", path.display()))?;
    }
    Ok(())
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
    cli: &Cli,
) -> Json {
    let argv = cli.argv.iter().map(|a| a.as_str().into());
    let mut report = vec![
        ("report_version", REPORT_VERSION.into()),
        ("database", cli.operands[0].as_str().into()),
        ("argv", Json::Arr(argv.collect())),
        ("metrics", metrics.to_json()),
        (
            "degraded",
            degraded.map_or(Json::Null, |report| degraded_json(report, metrics)),
        ),
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

fn load(dir: &str, workers: usize) -> Result<Database, String> {
    tsv::load_database_with(Path::new(dir), workers).map_err(|e| format!("loading {dir}: {e}"))
}

fn cmd_generate(cli: &Cli) -> Result<ExitCode, String> {
    let (kind, dir) = (&cli.operands[0], &cli.operands[1]);
    let (scale, seed) = (cli.scale, cli.seed);
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
            value_bytes: cli.value_bytes,
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

fn cmd_profile(cli: &Cli) -> Result<ExitCode, String> {
    let db = load(&cli.operands[0], cli.workers())?;
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

fn cmd_discover(cli: &Cli) -> Result<ExitCode, String> {
    let export = &cli.export;
    if !cli.on_disk && (export.keep_going || export.sort.io.fault.is_some()) {
        return Err("discover: --keep-going and --fault-plan require --on-disk".into());
    }
    if export.resume != ResumeMode::Off {
        if !cli.on_disk {
            return Err("discover: --resume requires --on-disk".into());
        }
        if cli.workdir.is_none() {
            return Err("discover: --resume needs an explicit --workdir \
                 (a fresh temp export leaves nothing to resume)"
                .into());
        }
    }
    if cli.max_files < 2 {
        return Err(format!(
            "--max-files must be at least 2, got {}",
            cli.max_files
        ));
    }
    // SIGINT cancels the run like the deadline does, so Ctrl-C drains the
    // pipeline to a consistent, resumable stop instead of killing it
    // mid-write.
    cli.cancel.watch_sigint();
    let _ambient = spider_ind::valueset::cancel::set_ambient(Some(cli.cancel.clone()));
    // The trace covers the load too: its own `load` span, then the
    // finder's `discover` root.
    let session = cli.trace.begin();
    let loaded = {
        let _span = spider_ind::trace::start(spider_ind::trace::LOAD);
        load(&cli.operands[0], cli.workers())
    };
    let db = match loaded {
        Ok(db) => db,
        Err(message) => {
            session.finish();
            return Err(message);
        }
    };
    let finder = IndFinder::new(FinderConfig {
        algorithm: (cli.algorithm)(cli),
        pretests: cli.pretests.clone(),
    });
    let result = run_finder(cli, &finder, &db);
    finish_discover(result, session, cli, |discovery, out| {
        if cli.max_arity >= 2 {
            print_levels(&db, discovery, out);
            return;
        }
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
    })
}

/// The levelwise run's text (`discover --max-arity N`, N ≥ 2): per-level
/// candidate counts — the apriori saving made visible — then the composite
/// INDs and, when the schema declares composite gold keys, their
/// evaluation.
fn print_levels(db: &Database, discovery: &Discovery, out: &mut String) {
    outln!(
        out,
        "{} unary INDs, {} composite INDs (max arity found {}), {:?}\n",
        discovery.satisfied.len(),
        discovery.composite.len(),
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
    for (dep, refd) in discovery.composite_named() {
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
}

/// The tail of every discover run: stop tracing, route a failure through
/// [`finish_run_error`], write `--report` / `--trace-folded`, then print
/// `body`'s text, the `degraded:` line and, under `--names`, the metrics
/// line. Exits [`EXIT_DEGRADED`] when anything was quarantined.
fn finish_discover(
    result: Result<Discovery, String>,
    session: TraceSession,
    cli: &Cli,
    body: impl FnOnce(&Discovery, &mut String),
) -> Result<ExitCode, String> {
    let trace = session.finish();
    let discovery = match result {
        Ok(discovery) => discovery,
        Err(message) => return finish_run_error(cli, trace.as_ref(), message),
    };
    let (metrics, degraded) = (&discovery.metrics, discovery.degraded.as_ref());
    if let Some(trace) = &trace {
        write_outputs(cli, trace, metrics, degraded, None)?;
    }
    let mut out = String::new();
    body(&discovery, &mut out);
    let mut code = ExitCode::SUCCESS;
    if let Some(report) = degraded {
        outln!(
            out,
            "\ndegraded: {}",
            degraded_json(report, metrics).compact()
        );
        if !report.is_clean() {
            code = ExitCode::from(EXIT_DEGRADED);
        }
    }
    if cli.names {
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
    cli: &Cli,
    trace: Option<&spider_ind::trace::Trace>,
    message: String,
) -> Result<ExitCode, String> {
    if !cli.cancel.is_cancelled() {
        return Err(message);
    }
    let info = CancelledInfo::capture(&cli.cancel);
    if let Some(trace) = trace {
        // Discovery produced no final metrics; the report still carries
        // the span tree, histograms, and the cancellation snapshot.
        write_outputs(cli, trace, &RunMetrics::new(), None, Some(&info))?;
    }
    eprintln!(
        "cancelled during {}: {} attributes exported, {} candidates still alive \
         (workdir left resumable; finish with --resume)",
        info.phase, info.attributes_exported, info.candidates_surviving
    );
    Ok(ExitCode::from(EXIT_CANCELLED))
}

/// Runs `finder` over `db` up to `--max-arity`, where the flags ask: in
/// memory on the `--threads` workers, or `--on-disk`, exporting to sorted
/// value files under `--workdir` with the export options the flags give and
/// reading them back through `--block-size`-byte blocks. Without
/// `--workdir` the files go to a fresh process-scoped temp directory,
/// removed afterwards; an explicit one is kept for inspection.
fn run_finder(cli: &Cli, finder: &IndFinder, db: &Database) -> Result<Discovery, String> {
    let options = cli.export.clone().with_cancel(cli.cancel.clone());
    let temp = std::env::temp_dir().join(format!("spider-ind-export-{}", std::process::id()));
    let workdir = cli.workdir.as_ref().unwrap_or(&temp);
    let backend = if cli.on_disk {
        Backend::disk(workdir, &options)
    } else {
        Backend::Memory {
            threads: cli.workers(),
        }
    };
    let result = finder.run(db, &backend, cli.max_arity);
    if cli.on_disk && cli.workdir.is_none() {
        // lint: allow(swallowed_result) — best-effort temp-dir cleanup after the run
        let _ = std::fs::remove_dir_all(&temp);
    }
    result.map_err(|e| format!("discovery failed: {e}"))
}

fn cmd_fks(cli: &Cli) -> Result<ExitCode, String> {
    let db = load(&cli.operands[0], cli.workers())?;
    let discovery = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
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

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("a command")
    }

    /// `spider-ind discover <list…>`, parsed.
    fn discover(list: &[&str]) -> Result<Cli, String> {
        command("discover").parse(&args(list))
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
    fn size_flags_read_values_and_report_context() {
        let cli = discover(&["x", "--block-size", "8KiB"]).unwrap();
        assert_eq!(cli.export.sort.io.block_size, 8192);
        assert_eq!(
            cli.export.sort.memory_budget_bytes,
            ExportOptions::default().sort.memory_budget_bytes
        );
        let err = discover(&["x", "--block-size"]).unwrap_err();
        assert_eq!(err, "--block-size requires a value");
        let err = discover(&["x", "--block-size", "8XB"]).unwrap_err();
        assert!(err.starts_with("--block-size: `8XB`"), "{err}");
        // Without --on-disk too: every value is checked before anything runs.
        let err = discover(&["x", "--memory-budget", "1XB"]).unwrap_err();
        assert!(err.starts_with("--memory-budget: `1XB`"), "{err}");
    }

    #[test]
    fn every_value_flag_names_itself_when_its_value_is_missing() {
        for command in COMMANDS {
            for &(name, set, _) in command.flags {
                let next = command.flags.iter().find(|f| f.0 != name);
                let (Value(..), Some(&(next, ..))) = (set, next) else {
                    continue;
                };
                for tail in [&[name][..], &[name, next]] {
                    let operands: Vec<&str> = command.operands.iter().map(|_| "x").collect();
                    let argv = [&operands[..], tail].concat();
                    let err = command.parse(&args(&argv)).unwrap_err();
                    assert_eq!(err, format!("{name} requires a value"));
                }
            }
        }
    }

    #[test]
    fn export_options_pick_up_robustness_flags() {
        let cli = discover(&[
            "x",
            "--on-disk",
            "--keep-going",
            "--fault-plan",
            "read:attr-00001:flip=40,write:*:eintr@3",
        ])
        .unwrap();
        assert!(cli.export.keep_going);
        assert!(cli.export.sort.io.fault.is_some());
        let plain = discover(&["x", "--on-disk"]).unwrap();
        assert!(!plain.export.keep_going);
        assert!(plain.export.sort.io.fault.is_none());
        let err = discover(&["x", "--on-disk", "--fault-plan", "nonsense"]).unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
        let err = discover(&["x", "--on-disk", "--fault-plan", "--names"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn degraded_json_shape_is_stable_and_escaped() {
        use spider_ind::valueset::FailedAttribute;
        let clean = DegradedReport::default();
        assert_eq!(
            degraded_json(&clean, &RunMetrics::new()).compact(),
            "{\"quarantined\":[],\"io_retries\":0,\"checksum_failures\":0}"
        );
        let report = DegradedReport {
            quarantined: vec![FailedAttribute {
                id: 7,
                name: spider_ind::storage::QualifiedName::new("t", "c"),
                error: "bad \"frame\"\nat byte 12".to_string(),
            }],
        };
        let metrics = RunMetrics {
            io_retries: 3,
            checksum_failures: 1,
            ..RunMetrics::new()
        };
        assert_eq!(
            degraded_json(&report, &metrics).compact(),
            "{\"quarantined\":[{\"id\":7,\"name\":\"t.c\",\"error\":\
             \"bad \\\"frame\\\"\\nat byte 12\"}],\"io_retries\":3,\"checksum_failures\":1}"
        );
    }

    #[test]
    fn parse_duration_understands_units() {
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
        let resume = |list: &[&str]| discover(list).map(|cli| cli.export.resume);
        assert_eq!(resume(&["db", "--on-disk"]), Ok(ResumeMode::Off));
        assert_eq!(resume(&["db", "--resume"]), Ok(ResumeMode::Reuse));
        let next_flag = resume(&["db", "--resume", "--workdir", "w"]);
        assert_eq!(next_flag, Ok(ResumeMode::Reuse));
        assert_eq!(
            resume(&["db", "--resume", "verify"]),
            Ok(ResumeMode::Verify)
        );
        let err = resume(&["db", "--resume", "verfy"]).unwrap_err();
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
        let (metrics, cli) = (RunMetrics::new(), discover(&["db"]).unwrap());
        let with = run_report_json(&trace, &metrics, None, Some(&info), &cli).pretty();
        assert!(
            with.contains(
                "\"cancelled\": {\"phase\": \"merge\", \"attributes_exported\": 7, \
                 \"candidates_surviving\": 12}"
            ),
            "{with}"
        );
        let without = run_report_json(&trace, &metrics, None, None, &cli).pretty();
        assert!(!without.contains("\"cancelled\""), "{without}");
    }

    #[test]
    fn export_options_pick_up_size_and_thread_flags() {
        let cli = discover(&[
            "x",
            "--on-disk",
            "--block-size",
            "64K",
            "--memory-budget",
            "1MiB",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(cli.export.threads, 3);
        assert_eq!(cli.export.sort.io.effective_block_size(), 64 * 1024);
        assert_eq!(cli.export.sort.memory_budget_bytes, 1024 * 1024);
        let plain = discover(&["x", "--on-disk"]).unwrap();
        assert_eq!(
            plain.export.threads,
            spider_ind::storage::default_workers(),
            "no --threads: every core, on every algorithm"
        );
        assert_eq!(
            plain.export.sort.io,
            spider_ind::valueset::IoOptions::default()
        );
        let bfpar = discover(&["x", "--algorithm", "bfpar", "--threads", "0"]).unwrap();
        let expected = Algorithm::BruteForceParallel { threads: 1 };
        assert_eq!((bfpar.algorithm)(&bfpar), expected);
    }

    #[test]
    fn discover_flag_check_accepts_every_listed_flag_and_skips_values() {
        // (tests/cli.rs checks the rejections end to end.)
        let mut all = vec!["db"];
        for (name, set, _) in command("discover").flags {
            all.push(name);
            all.extend(match (name, set) {
                (_, Switch(_) | Optional(..)) => None,
                (&"--algorithm", _) => Some("bf"),
                (&"--fault-plan", _) => Some("read:*:eintr"),
                (&"--deadline", _) => Some("1s"),
                _ => Some("2"),
            });
        }
        let cli = discover(&all).unwrap();
        assert_eq!(cli.operands, ["db"]);
        assert_eq!(cli.argv.len(), all.len(), "argv is kept for the report");
        // Bare `--resume` and `--resume verify` both pass, and a
        // flag-shaped operand is still checked as a flag.
        let ok = discover(&[
            "db",
            "--resume",
            "--workdir",
            "w",
            "--fault-plan",
            "read:*:eintr",
        ]);
        assert_eq!(ok.unwrap().workdir, Some(PathBuf::from("w")));
        assert!(discover(&["db", "--resume", "verify", "--names"]).is_ok());
        let hidden = discover(&["db", "--workdir", "--on-dsik"]).unwrap_err();
        assert_eq!(hidden, "discover: unknown flag `--on-dsik`");
        let extra = discover(&["db", "--names", "5"]).unwrap_err();
        assert_eq!(extra, "discover: unexpected operand `5`");
        let err = command("generate").parse(&args(&["pdb"])).unwrap_err();
        assert_eq!(err, "generate: missing output directory");
    }

    #[test]
    fn help_names_every_flag_of_every_command() {
        let help = usage();
        for command in COMMANDS {
            let synopsis = command.synopsis().join("\n");
            assert!(
                synopsis.lines().all(|l| l.len() <= SYNOPSIS_WIDTH),
                "{synopsis}"
            );
            for flag in command.flags {
                let form = flag_form(flag);
                assert!(synopsis.contains(&format!("[{form}]")), "{form}");
                assert!(help.contains(&format!("      {form}")), "{form}");
                assert!(help.contains(flag.2), "{form}");
            }
        }
    }
}
