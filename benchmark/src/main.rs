//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! benchmark --all --seed <u64> [--out <path>]
//! benchmark compare <A.json> <B.json>
//! benchmark golden
//! ```
//!
//! A `--workload` run prints one `<workload> <metric> <value> <unit>` line
//! per metric (with ` n=<samples>` after a percentile or rate, and
//! ` exact` after a value that is deterministic for the seed), then the
//! result as one JSON object on the last line. `--trace 0` reports the
//! end-to-end metrics of that workload; `--trace 1` is the traced run and
//! reports every workload's per-layer metrics. `--smoke` runs three ops on
//! shrunken inputs and skips the golden warm-up.
//!
//! `--all` runs every workload [`ALL_RUNS`] times for [`ALL_SECONDS`] each
//! in child processes (seeds `seed`, `seed + 1`, ...), then one traced run,
//! and writes the lot to `out/results.json`. `compare` judges two such
//! files against the bounds in `BENCHMARK.json`. `golden` prints the
//! default-seed fingerprints that `golden/fingerprints.txt` commits.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;
use sustain_benchmark::compare::{self, entries};
use sustain_benchmark::golden::Golden;
use sustain_benchmark::measure::{Outcome, RunConfig, THREADS};
use sustain_benchmark::workloads::{self, ALL};
use sustain_benchmark::{metric_line, result_json};
use sustain_par::ParPool;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
  benchmark --all --seed <u64> [--out <path>]
  benchmark compare <A.json> <B.json>
  benchmark golden";

/// Runs per workload and seconds per run of `--all`: ten runs give
/// quartiles steady enough to judge a 25% bound, and each run is as long
/// as `run_seconds` in `BENCHMARK.json`.
const ALL_RUNS: u64 = 10;
const ALL_SECONDS: f64 = 30.0;

fn main() -> ExitCode {
    // Every pool the program creates with `ParPool::current()` gets the
    // benchmark's thread count, whatever `SUSTAIN_THREADS` says.
    ParPool::set_threads(THREADS);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("golden") if args.len() == 1 => workloads::golden_fingerprints().map(|golden| {
            print!("{}", golden.render());
            true
        }),
        _ => Flags::parse(&args).and_then(|flags| match flags.workload {
            Some(_) => run_one(&flags),
            None => run_all(&flags),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("benchmark: {err}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed flags of a `--workload` or `--all` invocation.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            workload: None,
            all: false,
            seed: None,
            seconds: None,
            trace: false,
            smoke: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => flags.workload = Some(value(arg)?.clone()),
                "--all" => flags.all = true,
                "--seed" => flags.seed = Some(number(arg, value(arg)?)?),
                "--seconds" => {
                    let seconds: f64 = number(arg, value(arg)?)?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err("--seconds must be positive".to_owned());
                    }
                    flags.seconds = Some(seconds);
                }
                "--trace" => {
                    flags.trace = match value(arg)?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--smoke" => flags.smoke = true,
                "--out" => flags.out = Some(PathBuf::from(value(arg)?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if flags.seed.is_none() {
            return Err("--seed is required".to_owned());
        }
        match (&flags.workload, flags.all) {
            (Some(name), false) if workloads::find(name).is_some() => {
                if flags.seconds.is_none() && !flags.smoke {
                    return Err("--seconds is required".to_owned());
                }
                Ok(flags)
            }
            (Some(name), false) => Err(format!("unknown workload `{name}`")),
            (None, true) if flags.seconds.is_none() => Ok(flags),
            (None, true) => Err("--seconds goes with --workload".to_owned()),
            _ => Err("give exactly one of --workload and --all".to_owned()),
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a number, not `{text}`"))
}

/// One workload run: metric lines, then the result JSON as the last line.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().unwrap_or_default();
    let workload = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
    let golden = if flags.smoke {
        None
    } else {
        Some(Golden::load(&Golden::committed_dir())?)
    };
    let cfg = RunConfig {
        seed: flags.seed.unwrap_or_default(),
        seconds: flags.seconds.unwrap_or(1.0),
        smoke: flags.smoke,
        golden,
    };
    let outcome: Outcome = if flags.trace {
        workloads::profile_all(&cfg)
    } else {
        workload.measure(&cfg)
    };
    for metric in outcome.metrics.iter().chain(&outcome.diagnostics) {
        println!("{}", metric_line(name, metric));
    }
    let json = serde_json::to_string(&result_json(&outcome)).map_err(|err| err.to_string())?;
    println!("{json}");
    Ok(true)
}

/// One child run's record, as `results.json` stores it.
fn child_run(exe: &Path, workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &ALL_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output();
    let stdout = output
        .as_ref()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .pop()
        .and_then(|last| serde_json::parse(last).ok())
        .unwrap_or(Value::Null);
    let flag = |key: &str| result.get(key).cloned().unwrap_or(Value::Null);
    let metrics = lines
        .iter()
        .filter_map(|line| parse_metric_line(line))
        .collect();
    Value::Object(vec![
        ("seed".to_owned(), Value::Int(i128::from(seed))),
        ("correct".to_owned(), flag("correct")),
        ("attempted".to_owned(), flag("attempted")),
        ("failed".to_owned(), flag("failed")),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
}

/// Reads a metric line back into a `results.json` entry.
fn parse_metric_line(line: &str) -> Option<(String, Value)> {
    let mut words = line.split(' ');
    let (_, name, value, unit) = (words.next()?, words.next()?, words.next()?, words.next()?);
    let (mut samples, mut exact) = (0, false);
    for word in words {
        match word.strip_prefix("n=") {
            Some(n) => samples = n.parse().ok()?,
            None if word == "exact" => exact = true,
            None => return None,
        }
    }
    let entry = Value::Object(vec![
        ("value".to_owned(), Value::Float(value.parse().ok()?)),
        ("unit".to_owned(), Value::Str(unit.to_owned())),
        ("samples".to_owned(), Value::Int(samples)),
        ("exact".to_owned(), Value::Bool(exact)),
    ]);
    Some((name.to_owned(), entry))
}

/// Every workload [`ALL_RUNS`] times plus one traced run, in child processes.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find own binary: {err}"))?;
    let seed = flags.seed.unwrap_or_default();
    // Round-robin over the workloads, so a slow phase of a shared host
    // lands on a few runs of each workload rather than on all runs of one.
    let mut runs: Vec<Vec<Value>> = vec![Vec::new(); ALL.len()];
    for run in 0..ALL_RUNS {
        for (workload, into) in ALL.iter().zip(&mut runs) {
            into.push(child_run(&exe, workload.name, seed + run, false));
        }
    }
    let mut ok = true;
    let mut per_workload = Vec::new();
    for (workload, runs) in ALL.iter().zip(runs) {
        ok &= report_runs(workload.name, &runs);
        per_workload.push((workload.name.to_owned(), Value::Array(runs)));
    }
    let traced = child_run(&exe, ALL[0].name, seed, true);
    ok &= report_runs("traced", std::slice::from_ref(&traced));

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let meta = Value::Object(vec![
        ("nproc".to_owned(), Value::Int(nproc as i128)),
        ("threads".to_owned(), Value::Int(THREADS as i128)),
        ("seed".to_owned(), Value::Int(i128::from(seed))),
        ("runs".to_owned(), Value::Int(i128::from(ALL_RUNS))),
        ("seconds".to_owned(), Value::Float(ALL_SECONDS)),
        (
            "profile".to_owned(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
    ]);
    let results = Value::Object(vec![
        ("meta".to_owned(), meta),
        ("workloads".to_owned(), Value::Object(per_workload)),
        ("traced".to_owned(), traced),
    ]);
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(&results).map_err(|err| err.to_string())?;
    std::fs::write(&out, json + "\n").map_err(|err| format!("{}: {err}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(ok)
}

/// Prints each metric's median over `runs` as a metric line; returns
/// whether every run was correct.
fn report_runs(label: &str, runs: &[Value]) -> bool {
    let Some(first) = runs.first() else {
        return false;
    };
    for (name, metric) in entries(first.get("metrics")) {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        println!(
            "{label} {name} {} {unit} runs={}",
            sustain_benchmark::stats::median(&values),
            values.len()
        );
    }
    runs.iter()
        .all(|run| run.get("correct") == Some(&Value::Bool(true)))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".to_owned());
    };
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
        serde_json::parse(&text).map_err(|err| format!("{path}: {err}"))
    };
    let benchmark = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))?;
    let specs = compare::specs(&benchmark)?;
    let (report, pass) = compare::compare(&specs, &read(a)?, &read(b)?);
    print!("{report}");
    Ok(pass)
}
