//! Prints every reproduced figure/experiment table in paper order — or, with
//! `--only <name>`, one family or one table.
//!
//! `<name>` is a family — `extensions`, `faults` (the robustness tables,
//! committed as `faults_output.txt`) or `stream` (the streaming-ingestion
//! tables, committed as `stream_output.txt`) — or one table's span name
//! without its `figure.` prefix, such as `fig07_waterfall`. Without
//! `--only` the run prints the paper figures, the prose experiments and the
//! extension studies, committed as `figures_output.txt`.
//!
//! Tables fan out on the deterministic `sustain-par` pool; `--threads <n>`
//! (or `SUSTAIN_THREADS`) picks the worker count and stdout is byte-identical
//! for any choice, including 1.
//!
//! With `--cache <dir>` the run memoizes tables content-addressed under
//! `<dir>` through `sustain-cache`: a cold run computes and stores every
//! table, a warm run serves them from disk, and stdout stays byte-identical
//! either way (a corrupted entry silently degrades to a recompute). Without
//! `--cache` every table is recomputed. Cache statistics go to stderr.
//!
//! With `--obs <dir>` the run is additionally profiled through `sustain-obs`
//! on a wall clock: every table regenerator records a `figure.<name>` span,
//! each pool task a `par.task` span, every cache lookup a `cache.lookup`
//! span settling as a `cache.hit`/`cache.miss` event, the instrumented
//! simulators (fleet phases, chaos, telemetry faults, gap imputation, FL
//! rounds, carbon tracker) report through the same recorder — the ones no
//! printed table reaches run afterwards in [`figs::coverage_sweep`] — and
//! five exports land in `<dir>`:
//!
//! * `events.jsonl` — the structured event log,
//! * `trace.json` — Chrome trace-event JSON (open in Perfetto),
//! * `metrics.prom` — Prometheus text exposition of all counters/gauges/
//!   histograms,
//! * `profile.txt` — the `sustain-prof` hotspot report (per-span-name self
//!   time, calls, min/median/max, critical path),
//! * `flame.folded` — collapsed stacks for any stock flamegraph renderer.
//!
//! `--obs-clock wall` (the default) stamps spans with real elapsed time —
//! the profile finds actual hotspots. `--obs-clock sim` stamps spans from
//! the deterministic work clock instead: durations count work units, the
//! profile conserves, and `profile.txt`, `flame.folded` and `metrics.prom`
//! are byte-identical across thread counts and runs — the default run's
//! profile is the committed `work_profile.txt`.
//!
//! Stdout is byte-identical with and without `--obs`; the observability
//! summary goes to stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use sustain_bench::figs::{self, NamedFigure};
use sustain_cache::Cache;
use sustain_obs::{Obs, ObsConfig};
use sustain_par::ParPool;

struct Args {
    obs_dir: Option<PathBuf>,
    sim_clock: bool,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    tables: Vec<NamedFigure>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: all_figures [--obs <dir>] [--obs-clock wall|sim] [--threads <n>] \
                 [--cache <dir>] [--only <name>]"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(threads) = args.threads {
        ParPool::set_threads(threads);
    }
    let cache = match &args.cache_dir {
        Some(dir) => match Cache::at_dir(dir) {
            Ok(cache) => Some(cache),
            Err(err) => {
                eprintln!(
                    "all_figures: cannot open cache dir {}: {err}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let obs = args.obs_dir.as_ref().map(|_| {
        if args.sim_clock {
            ObsConfig::enabled().build() // deterministic work clock
        } else {
            ObsConfig::enabled().with_wall_clock().build()
        }
    });

    let pool = ParPool::current();
    let run = || {
        for table in figs::fan_out(&pool, &args.tables, cache.as_ref()) {
            println!("{table}");
        }
        if obs.is_some() {
            figs::coverage_sweep(&pool, &args.tables)
        } else {
            0
        }
    };
    // The recording is scoped to this thread's run; the pool forks it into
    // each task and adopts the forks back.
    let swept = match &obs {
        Some(obs) => sustain_obs::with_task_handle(obs, run),
        None => run(),
    };
    if let (Some(dir), Some(cache)) = (&args.cache_dir, &cache) {
        eprintln!(
            "all_figures: cache {}: {} hits, {} misses",
            dir.display(),
            cache.hits(),
            cache.misses(),
        );
    }
    let (Some(dir), Some(obs)) = (args.obs_dir, obs) else {
        return ExitCode::SUCCESS;
    };

    // Every traced regenerator bumps `figures_generated_total` exactly once
    // and every cache hit skips exactly one regenerator (adopting a fork
    // folds its counters into the parent) — so after the sweep, generated
    // plus cache-served must equal the printed tables plus the swept ones,
    // whatever the threads.
    let expected = (args.tables.len() + swept) as f64;
    let generated = obs.counter("figures_generated_total").value();
    let served = cache.as_ref().map_or(0.0, |c| c.hits() as f64);
    assert!(
        (generated + served - expected).abs() < 0.5,
        "figures_generated_total = {generated} + cache hits = {served}, expected {expected}: \
         a figure was skipped or double-counted under the pool"
    );

    if let Err(err) = write_exports(&obs, &dir) {
        eprintln!("all_figures: failed to write obs exports: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "all_figures: wrote {} records and {} instruments to {} ({} figures, {} pool threads)",
        obs.event_count(),
        obs.registry().len(),
        dir.display(),
        generated,
        pool.threads(),
    );
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        obs_dir: None,
        sim_clock: false,
        threads: None,
        cache_dir: None,
        tables: figs::catalogue(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => match args.next() {
                Some(dir) => parsed.obs_dir = Some(PathBuf::from(dir)),
                None => return Err("--obs requires an output directory".to_string()),
            },
            "--obs-clock" => match args.next().as_deref() {
                Some("wall") => parsed.sim_clock = false,
                Some("sim") => parsed.sim_clock = true,
                _ => return Err("--obs-clock requires `wall` or `sim`".to_string()),
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parsed.threads = Some(n),
                _ => return Err("--threads requires a positive integer".to_string()),
            },
            "--cache" => match args.next() {
                Some(dir) => parsed.cache_dir = Some(PathBuf::from(dir)),
                None => return Err("--cache requires a cache directory".to_string()),
            },
            "--only" => {
                let name = args
                    .next()
                    .ok_or_else(|| "--only requires a family or table name".to_string())?;
                parsed.tables = select(&name)
                    .ok_or_else(|| format!("--only: no family or table named `{name}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The tables `--only <name>` prints: the `extensions`, `faults` or `stream`
/// family, or the one table whose span name is `figure.<name>`.
fn select(name: &str) -> Option<Vec<NamedFigure>> {
    let tables = match name {
        "extensions" => figs::extensions::TABLES.to_vec(),
        "faults" => figs::faults::TABLES.to_vec(),
        "stream" => figs::stream::TABLES.to_vec(),
        _ => figs::catalogue()
            .into_iter()
            .chain(figs::faults::TABLES.iter().copied())
            .chain(figs::stream::TABLES.iter().copied())
            .filter(|(span, _)| span.strip_prefix("figure.") == Some(name))
            .collect(),
    };
    (!tables.is_empty()).then_some(tables)
}

/// Hotspot rows printed in `profile.txt` — every span name this workspace
/// records fits well inside this, so nothing is silently truncated.
const PROFILE_TOP_K: usize = 64;

fn write_exports(obs: &Obs, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("events.jsonl"), obs.export_jsonl())?;
    std::fs::write(dir.join("trace.json"), obs.export_chrome_trace())?;
    std::fs::write(dir.join("metrics.prom"), obs.export_prometheus())?;
    let tree = sustain_prof::SpanTree::from_records(&obs.events());
    let profile = sustain_prof::Profile::from_tree(&tree);
    std::fs::write(
        dir.join("profile.txt"),
        sustain_prof::report::render(&profile, PROFILE_TOP_K),
    )?;
    std::fs::write(dir.join("flame.folded"), sustain_prof::to_folded(&tree))?;
    Ok(())
}
