//! The parent side: set up a workload, run trials one child process at a
//! time for the measuring period, check every result against the oracle,
//! and reduce the samples to the metrics `BENCHMARK.json` names.

use crate::catalog::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, TRACE_OVERHEAD, WORKLOADS};
use crate::inputs::{prepare, Prepared};
use crate::json::{self, Json};
use crate::procstat::{environment, spread_subdirectories};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median. A traced run does
/// not report `setup_s` and sets up once.
const SETUP_REPEATS: usize = 5;
/// `IndFinder::discover` repeats after each trial's discover section.
const VALIDATE_REPEATS: usize = 5;

/// Oracle self-test: which trials drop one IND from each of their results.
/// Every op of such a trial must count as failed and contribute no number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    OddTrials,
    EveryTrial,
}

/// One measured run of one workload.
#[derive(Debug)]
pub struct MeasureArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measuring period; trials start while another one is expected to fit.
    pub seconds: f64,
    /// Per-layer metrics from traced trials instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and exactly two rounds (smoke test; same code path).
    pub quick: bool,
    pub inject: Inject,
}

/// A metric with the samples its median is taken from.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    fn to_json(&self) -> Json {
        let (q1, q3) = quartiles(&self.samples);
        Json::obj([
            ("unit", Json::str(self.unit)),
            ("median", Json::Num(self.median())),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(self.samples.len() as f64)),
            ("samples", Json::nums(&self.samples)),
        ])
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// One op = one trial's discover section or one validate repeat.
    pub attempted: u64,
    /// Ops whose child failed or whose IND set differed from the oracle's;
    /// a failed op contributes no timing.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub environment: Json,
    pub diagnostics: Json,
}

impl Outcome {
    /// The line the driver contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.median())),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .to_line()
    }

    /// Everything, samples included, for result files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, m.to_json()))),
            ),
            ("diagnostics", self.diagnostics.clone()),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self, workload: &str, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        for m in &self.metrics {
            let (q1, q3) = quartiles(&m.samples);
            writeln!(
                out,
                "{workload:<15} {:<46} {:>16.6} {:<6} q1 {q1:.6} q3 {q3:.6} n={}",
                m.name,
                m.median(),
                m.unit,
                m.samples.len()
            )?;
        }
        writeln!(
            out,
            "{workload:<15} ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        )
    }
}

/// Where everything the benchmark writes goes: cargo's target directory
/// when the caller set one (the driver does), else `target/benchmark`.
pub fn output_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// Removes a run's work directory when the run ends, however it ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("warning: could not remove {}: {e}", self.0.display());
            }
        }
    }
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Samples of one run, by metric name.
#[derive(Default)]
struct Samples {
    attempted: u64,
    failed: u64,
    by_name: BTreeMap<String, Vec<f64>>,
    spans: Vec<Json>,
}

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        self.by_name
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn take(&mut self, name: &str) -> Vec<f64> {
        self.by_name.remove(name).unwrap_or_default()
    }
}

/// One run's state while its trials execute.
struct Session<'a> {
    args: &'a MeasureArgs,
    prepared: Prepared,
    input: PathBuf,
    run_dir: PathBuf,
    samples: Samples,
    next_id: u64,
}

impl Session<'_> {
    /// Runs one child trial in a directory of its own and folds its ops
    /// into the samples; a trial whose discover section failed contributes
    /// no number.
    fn trial(&mut self, traced: bool, repeats: usize) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        // The name picks the trial's block group (`spread_subdirectories`),
        // so it differs from run to run as well as from trial to trial.
        let trial_dir = &self
            .run_dir
            .join(format!("trial-{}-{id}", std::process::id()));
        let Session {
            args,
            prepared,
            input,
            samples,
            ..
        } = self;
        let _cleanup = RemoveOnDrop(trial_dir.to_path_buf());
        std::fs::create_dir_all(trial_dir).map_err(|e| format!("{}: {e}", trial_dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
        let mut command = Command::new(exe);
        command
            .arg("trial")
            .args(["--workload", args.workload.name])
            .arg("--input")
            .arg(input)
            .arg("--dir")
            .arg(trial_dir)
            .args(["--repeats", &repeats.to_string()])
            .args(["--id", &id.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if traced {
            command.arg("--traced");
        }
        let corrupt = match args.inject {
            Inject::None => false,
            Inject::OddTrials => id % 2 == 1,
            Inject::EveryTrial => true,
        };
        if corrupt {
            command.args(["--inject", "drop-ind"]);
        }
        // `output` waits for the child: one child at a time, none left behind.
        let output = command
            .output()
            .map_err(|e| format!("spawning a trial: {e}"))?;
        let expected_ops = 1 + repeats as u64;
        let report = String::from_utf8_lossy(&output.stdout)
            .lines()
            .last()
            .filter(|_| output.status.success())
            .and_then(|line| json::parse(line).ok());
        let Some(report) = report else {
            eprintln!("trial {id} failed ({})", output.status);
            samples.attempted += expected_ops;
            samples.failed += expected_ops;
            return Ok(());
        };

        let correct = |op: &Json| {
            prepared.gold_covered
                && op.get("digest").and_then(Json::as_str) == Some(prepared.oracle_digest.as_str())
        };
        let ops = report.get("ops").and_then(Json::as_arr).unwrap_or_default();
        let mut discover_ok = false;
        for op in ops {
            samples.attempted += 1;
            if !correct(op) {
                samples.failed += 1;
                continue;
            }
            let wall_s = op.get("wall_s").and_then(Json::as_f64).unwrap_or(f64::NAN);
            match (op.get("kind").and_then(Json::as_str), traced) {
                (Some("discover"), false) => {
                    discover_ok = true;
                    samples.push("discover_wall_s", wall_s);
                }
                (Some("discover"), true) => {
                    discover_ok = true;
                    samples.push("traced_wall_s", wall_s);
                }
                (Some("validate"), _) => samples.push("validate_wall_s", wall_s),
                _ => {
                    return Err(format!(
                        "trial {id} reported an unknown op: {}",
                        op.to_line()
                    ))
                }
            }
        }
        if !discover_ok {
            return Ok(());
        }
        if traced {
            let layer_sum_s = report
                .get("layer_sum_s")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let wall_s = samples.by_name["traced_wall_s"]
                .last()
                .copied()
                .unwrap_or(f64::NAN);
            samples.push("layer_coverage", layer_sum_s / wall_s);
            for (name, value) in report
                .get("layers")
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                samples.push(name, value.as_f64().unwrap_or(f64::NAN));
            }
            samples.spans.extend(
                report
                    .get("spans")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        } else {
            for name in ["discover_cpu_s", "peak_rss_mb"] {
                samples.push(
                    name,
                    report.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN),
                );
            }
            let export_bytes = report
                .get("export_bytes")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            samples.push(
                "export_bytes_per_input_byte",
                export_bytes / prepared.input_bytes as f64,
            );
        }
        Ok(())
    }
}

/// One measured run: set up, run trials for the measuring period, reduce.
pub fn measure(args: &MeasureArgs) -> Result<Outcome, String> {
    let root = output_root();
    let run_dir = root
        .join("work")
        .join(format!("{}-{}", args.workload.name, std::process::id()));
    let _cleanup = RemoveOnDrop(run_dir.clone());
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let environment = environment(&run_dir, spread_subdirectories(&run_dir));

    // Set-up, several times over where its time is reported so that it has
    // a median; the last one's input and oracle serve the trials. Never
    // inside a trial.
    let input = run_dir.join("input");
    let mut samples = Samples::default();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        let done = prepare(args.workload, args.quick, args.seed, &input)?;
        samples.push("setup_s", done.setup_s);
        prepared = Some(done);
    }
    let prepared = prepared.expect("at least one set-up ran");
    if !prepared.gold_covered {
        eprintln!(
            "oracle IND set misses one of {} discoverable gold foreign keys: every op will count as failed",
            prepared.gold_keys
        );
    }
    let mut session = Session {
        args,
        prepared,
        input,
        run_dir,
        samples,
        next_id: 0,
    };

    // A round is one trial, or with --trace 1 an untraced trial (no
    // validate repeats) and a traced one, alternating which goes first, so
    // that `trace.overhead_rel` compares like with like inside one run.
    let min_rounds = if args.quick { 2 } else { 3 };
    let started = Instant::now();
    let mut round_s: Vec<f64> = Vec::new();
    loop {
        let rounds = round_s.len();
        if rounds >= min_rounds
            && (args.quick || started.elapsed().as_secs_f64() + median(&round_s) > args.seconds)
        {
            break;
        }
        let round_start = Instant::now();
        match (args.trace, rounds % 2) {
            (false, _) => session.trial(false, VALIDATE_REPEATS)?,
            (true, 0) => {
                session.trial(false, 0)?;
                session.trial(true, 0)?;
            }
            (true, _) => {
                session.trial(true, 0)?;
                session.trial(false, 0)?;
            }
        }
        round_s.push(round_start.elapsed().as_secs_f64());
    }
    let Session {
        prepared,
        mut samples,
        ..
    } = session;
    let measured_s = started.elapsed().as_secs_f64();

    let mut metrics = Vec::new();
    let mut diagnostics = vec![
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("rounds", Json::Num(round_s.len() as f64)),
        ("measured_s", Json::Num(measured_s)),
        ("input_bytes", Json::Num(prepared.input_bytes as f64)),
        ("oracle_digest", Json::str(&prepared.oracle_digest)),
        ("gold_keys_required", Json::Num(prepared.gold_keys as f64)),
    ];
    if args.trace {
        let untraced = samples.take("discover_wall_s");
        let traced = samples.take("traced_wall_s");
        samples.push(TRACE_OVERHEAD, median(&traced) / median(&untraced) - 1.0);
        for layer in PER_LAYER {
            metrics.push(Metric {
                name: layer.name,
                unit: layer.unit,
                samples: samples.take(layer.name),
            });
        }
        diagnostics.push(("untraced_discover_wall_s", Json::nums(&untraced)));
        diagnostics.push(("traced_discover_wall_s", Json::nums(&traced)));
        // Share of each traced trial's discover wall its layer spans cover.
        diagnostics.push((
            "layer_coverage",
            Json::nums(&samples.take("layer_coverage")),
        ));
        let trace_path = root.join(format!("trace-{}.json", args.workload.name));
        write_file(&trace_path, &Json::Arr(std::mem::take(&mut samples.spans)))?;
    } else {
        for m in END_TO_END {
            metrics.push(Metric {
                name: m.name,
                unit: m.unit,
                samples: samples.take(m.name),
            });
        }
    }
    // A run whose ops all failed still reports its counts; a metric without
    // a sample reads `null`.
    for empty in metrics.iter().filter(|m| m.samples.is_empty()) {
        eprintln!(
            "no sample of {} on {}: {} of {} ops failed",
            empty.name, args.workload.name, samples.failed, samples.attempted
        );
    }
    let outcome = Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        metrics,
        environment,
        diagnostics: Json::obj(diagnostics),
    };
    // Raw samples of this run, so that a disputed median can be re-derived.
    let samples_path = root.join("samples").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    let mut doc = vec![("environment".to_string(), outcome.environment.clone())];
    if let Json::Obj(fields) = outcome.to_json() {
        doc.extend(fields);
    }
    write_file(&samples_path, &Json::Obj(doc))?;
    Ok(outcome)
}

/// The whole benchmark: every workload untraced, then traced; prints every
/// metric by name with its unit and writes the result file `compare` reads.
pub fn run_all(seed: u64, quick: bool, out: &Path) -> Result<bool, String> {
    let mut workloads = Vec::new();
    // The first run's record: its load average predates the whole run.
    let mut environment = None;
    let mut all_correct = true;
    let stdout = &mut std::io::stdout();
    for workload in WORKLOADS {
        let mut sections = vec![("name", Json::str(workload.name))];
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let outcome = measure(&MeasureArgs {
                workload,
                seed,
                seconds: RUN_SECONDS as f64,
                trace,
                quick,
                inject: Inject::None,
            })?;
            outcome
                .print_table(workload.name, stdout)
                .map_err(|e| format!("stdout: {e}"))?;
            all_correct &= outcome.failed == 0;
            sections.push((section, outcome.to_json()));
            environment.get_or_insert(outcome.environment);
        }
        workloads.push(Json::obj(sections));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("ind-benchmark")),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("quick", Json::Bool(quick)),
        ("environment", environment.unwrap_or(Json::Null)),
        ("workloads", Json::Arr(workloads)),
    ]);
    write_file(out, &doc)?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}
