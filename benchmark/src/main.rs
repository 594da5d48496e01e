//! `ind-benchmark`: the repository's end-to-end discovery benchmark
//! (load → export → candidates → merge). See `README.md` beside this
//! package for the metrics, the workloads and how to read a run.

use ind_benchmark::{catalog, compare, driver, trial};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
ind-benchmark — end-to-end discovery benchmark for spider-ind

USAGE:
  ind-benchmark measure --workload NAME --seed N --seconds N --trace 0|1 [--quick]
      One measured run of one workload (what BENCHMARK.json's command
      runs). Prints diagnostics to stderr and, as the last line of stdout,
      one JSON object: correct, attempted, failed, metrics. --trace 0
      reports the end-to-end metrics, --trace 1 the per-layer ones.
  ind-benchmark run [--seed N] [--quick] [--out FILE]
      Every workload, untraced then traced; prints every metric by name
      with its unit and writes the result file `compare` reads
      (default: <output root>/results.json).
  ind-benchmark compare PARENT.json CHANGE.json
      Verdict (same / better / worse / unresolved) for every end-to-end
      metric on every workload; exits 1 on any `worse`.
  ind-benchmark spec
      Prints BENCHMARK.json as rendered from the metric catalogue.
  ind-benchmark describe
      Prints the workload, metric and moves tables of README.md.

Everything is written under $CARGO_TARGET_DIR (else target/benchmark):
work/ (removed after each trial), samples/, trace-<workload>.json.";

/// Flags after the subcommand: `--name value` pairs plus bare switches.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, name: &str) -> Result<Option<&'a str>, String> {
        match self.args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => self
                .args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value")),
        }
    }

    fn required(&self, name: &str) -> Result<&'a str, String> {
        self.value(name)?.ok_or_else(|| format!("missing {name}"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    fn switch(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn workload(&self) -> Result<&'static catalog::Workload, String> {
        let name = self.required("--workload")?;
        catalog::workload(name).ok_or_else(|| {
            let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }

    fn inject(&self) -> Result<driver::Inject, String> {
        match self.value("--inject")? {
            None => Ok(driver::Inject::None),
            Some("drop-ind") => Ok(driver::Inject::OddTrials),
            Some("drop-ind-always") => Ok(driver::Inject::EveryTrial),
            Some(other) => Err(format!("--inject: unknown fault `{other}`")),
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or("missing subcommand")?;
    let flags = Flags { args: rest };
    let pass = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match command.as_str() {
        "measure" => {
            let workload = flags.workload()?;
            let trace = match flags.required("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
            };
            let seconds: f64 = flags.parsed("--seconds")?.ok_or("missing --seconds")?;
            if !(seconds > 0.0 && seconds <= 3600.0) {
                return Err(format!("--seconds: {seconds} is out of range"));
            }
            let outcome = driver::measure(&driver::MeasureArgs {
                workload,
                seed: flags.parsed("--seed")?.ok_or("missing --seed")?,
                seconds,
                trace,
                quick: flags.switch("--quick"),
                inject: flags.inject()?,
            })?;
            eprintln!("environment: {}", outcome.environment.to_line());
            eprintln!("diagnostics: {}", outcome.diagnostics.to_line());
            outcome
                .print_table(workload.name, &mut std::io::stderr())
                .map_err(|e| format!("stderr: {e}"))?;
            // A wrong result is reported in the line, not by the exit code:
            // the run itself completed.
            println!("{}", outcome.contract_line());
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let out = flags
                .value("--out")?
                .map(PathBuf::from)
                .unwrap_or_else(|| driver::output_root().join("results.json"));
            let all_correct = driver::run_all(
                flags.parsed("--seed")?.unwrap_or(42),
                flags.switch("--quick"),
                &out,
            )?;
            Ok(pass(all_correct))
        }
        "trial" => {
            let report = trial::run(&trial::TrialArgs {
                workload: flags.workload()?,
                input: PathBuf::from(flags.required("--input")?),
                dir: PathBuf::from(flags.required("--dir")?),
                repeats: flags.parsed("--repeats")?.unwrap_or(0),
                traced: flags.switch("--traced"),
                id: flags.parsed("--id")?.unwrap_or(0),
                drop_ind: flags.inject()? != driver::Inject::None,
            })?;
            println!("{}", report.to_line());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => match rest {
            [parent, change] => compare::compare(Path::new(parent), Path::new(change)).map(pass),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        "spec" => {
            print!("{}", catalog::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        "describe" => {
            print!("{}", catalog::describe_markdown());
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message} (`ind-benchmark help` prints the usage)");
            ExitCode::from(2)
        }
    }
}
