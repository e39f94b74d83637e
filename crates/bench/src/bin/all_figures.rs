//! Prints every reproduced figure/experiment table in paper order.
//!
//! Figures fan out on the deterministic `sustain-par` pool; `--threads <n>`
//! (or `SUSTAIN_THREADS`) picks the worker count and stdout is byte-identical
//! for any choice, including 1.
//!
//! With `--cache <dir>` the run memoizes figure tables content-addressed
//! under `<dir>` through `sustain-cache`: a cold run computes and stores
//! every table, a warm run serves them from disk, and stdout stays
//! byte-identical either way (a corrupted entry silently degrades to a
//! recompute). `--no-cache` forces recomputation even when `--cache` is
//! given. Cache statistics go to stderr.
//!
//! With `--obs <dir>` the run is additionally profiled through `sustain-obs`
//! on a wall clock: every figure regenerator records a `figure.<name>` span,
//! each pool task a `par.task` span, every cache lookup a `cache.lookup`
//! span settling as a `cache.hit`/`cache.miss` event, the instrumented
//! simulators (fleet phases, chaos, telemetry faults, gap imputation, FL
//! rounds, carbon tracker) report through the same recorder, and five
//! exports land in `<dir>`:
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
//! are byte-identical across thread counts and runs — CI diffs the profile
//! against the committed `work_profile.txt`.
//!
//! Stdout is byte-identical with and without `--obs`; the observability
//! summary goes to stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use sustain_cache::Cache;
use sustain_obs::{Obs, ObsConfig};
use sustain_par::ParPool;

struct Args {
    obs_dir: Option<PathBuf>,
    sim_clock: bool,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: all_figures [--obs <dir>] [--obs-clock wall|sim] [--threads <n>] \
                 [--cache <dir>] [--no-cache]"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(threads) = args.threads {
        ParPool::set_threads(threads);
    }
    let cache = match (&args.cache_dir, args.no_cache) {
        (Some(dir), false) => match Cache::at_dir(dir) {
            Ok(cache) => Some((dir.clone(), cache)),
            Err(err) => {
                eprintln!(
                    "all_figures: cannot open cache dir {}: {err}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        },
        _ => None,
    };
    let print_all = |cache: Option<&Cache>| {
        for table in sustain_bench::figs::all_with_pool_cached(&ParPool::current(), cache) {
            println!("{table}");
        }
    };
    let report_cache = |cache: &Option<(PathBuf, Cache)>| {
        if let Some((dir, cache)) = cache {
            eprintln!(
                "all_figures: cache {}: {} hits, {} misses",
                dir.display(),
                cache.hits(),
                cache.misses(),
            );
        }
    };

    let Some(dir) = args.obs_dir else {
        print_all(cache.as_ref().map(|(_, c)| c));
        report_cache(&cache);
        return ExitCode::SUCCESS;
    };

    let obs = if args.sim_clock {
        ObsConfig::enabled().build() // deterministic work clock
    } else {
        ObsConfig::enabled().with_wall_clock().build()
    };
    sustain_obs::install(&obs);
    print_all(cache.as_ref().map(|(_, c)| c));
    coverage_sweep();
    report_cache(&cache);

    // Every traced regenerator bumps `figures_generated_total` exactly once
    // and every cache hit skips exactly one regenerator (adopting a fork
    // folds its counters into the parent) — so after the sweep, generated
    // plus cache-served must equal the full catalogue, whatever the threads.
    let expected = (sustain_bench::figs::FIGURES.len()
        + sustain_bench::figs::extras::TABLES.len()
        + sustain_bench::figs::extensions::TABLES.len()
        + sustain_bench::figs::faults::TABLES.len()) as f64;
    let generated = obs.counter("figures_generated_total").value();
    let served = cache.as_ref().map_or(0.0, |(_, c)| c.hits() as f64);
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
        ParPool::current().threads(),
    );
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        obs_dir: None,
        sim_clock: false,
        threads: None,
        cache_dir: None,
        no_cache: false,
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
            "--no-cache" => parsed.no_cache = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Exercises the instrumented subsystems the printed figures do not reach
/// (the robustness tables live in the separate `fig_faults` binary, and no
/// paper figure builds a `CarbonTracker`), so the exports cover the whole
/// instrumented surface. Runs under the same pool as the figures, and never
/// through the cache — the sweep exists to exercise the simulators, so
/// serving it from disk would defeat it. Nothing is printed: stdout stays
/// byte-identical.
fn coverage_sweep() {
    use sustain_core::intensity::{AccountingBasis, CarbonIntensity};
    use sustain_core::lifecycle::MlPhase;
    use sustain_core::operational::OperationalAccount;
    use sustain_core::pue::Pue;
    use sustain_core::units::{Energy, TimeSpan};
    use sustain_telemetry::tracker::CarbonTracker;

    // Fleet phases, chaos recovery, Monte Carlo replicas, fault injection,
    // and gap imputation — fanned out on the pool like the paper figures.
    for table in sustain_bench::figs::faults::all() {
        let _ = table.to_string();
    }

    // Job-level carbon tracking.
    let account = OperationalAccount::new(
        CarbonIntensity::US_AVERAGE_2021,
        // lint:allow(panic-discipline) fixed, known-good PUE
        Pue::new(1.1).expect("valid PUE"),
    );
    let tracker = CarbonTracker::new("obs-coverage", account);
    tracker.record_energy(
        "gpu0",
        MlPhase::OfflineTraining,
        Energy::from_kilowatt_hours(10.0),
    );
    tracker.record_machine_time(TimeSpan::from_hours(2.0));
    let _ = tracker.report(AccountingBasis::LocationBased);
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
