//! `figures`: the paper-reproduction path. One op is the full figure
//! fan-out on the benchmark's pool plus rendering all 26 tables, checked
//! byte for byte against the committed `figures_output.txt`. The figures
//! are pinned to `sustain_bench::SEED`, so this workload ignores `--seed`.

use std::path::Path;
use std::time::Instant;

use sustain_bench::figs::{self, NamedFigure};
use sustain_bench::Table;
use sustain_obs::Obs;
use sustain_par::ParPool;

use crate::measure::{
    self, drive, ensure, Chunk, Driven, Metric, Outcome, Plan, RunConfig, Tracer, THREADS,
};

/// Workload name.
pub const NAME: &str = "figures";

/// Set-up repetitions per run; set-up is one serial fan-out of about
/// 25 ms, and 40 of them leave four above the 90th percentile.
const SETUP_REPS: usize = 40;

/// The generators behind each per-layer metric (the rest are `figs.other`).
const FIG07: &str = "figure.fig07_waterfall";
const FIG10: &str = "figure.fig10_histogram";
const FIG11: &str = "figure.fig11_federated";

/// Every table `all_with_pool` produces, in print order.
fn catalogue() -> Vec<NamedFigure> {
    figs::FIGURES
        .iter()
        .chain(figs::extras::TABLES)
        .chain(figs::extensions::TABLES)
        .copied()
        .collect()
}

/// The tables exactly as `all_figures` prints them.
fn render(tables: &[Table]) -> String {
    tables.iter().map(|table| format!("{table}\n")).collect()
}

/// Set-up: loads the committed output and checks that a serial (1-thread)
/// fan-out reproduces it, so the pooled ops are checked against a file
/// proven to be what this code prints.
fn setup() -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../figures_output.txt");
    let expected = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let serial = render(&figs::all_with_pool(&ParPool::new(1)));
    ensure(serial == expected, || {
        "a serial fan-out differs from figures_output.txt".to_owned()
    })?;
    Ok(expected)
}

/// One op: fan-out plus render, checked byte for byte. On an enabled
/// handle, the op is followed by one pass over the generators run one at
/// a time, so each generator's self time is free of pool contention.
fn op(expected: &str, obs: &Obs, op_ms: &mut Vec<f64>) -> Result<Chunk<()>, String> {
    let started = Instant::now();
    {
        let _op = obs.span("bench.figures.op");
        let tables = {
            let _fanout = obs.span("par.fanout");
            figs::all_with_pool(&ParPool::new(THREADS))
        };
        let _render = obs.span("figs.render");
        ensure(render(&tables) == expected, || {
            "figure output differs from figures_output.txt".to_owned()
        })?;
    }
    let seconds = started.elapsed().as_secs_f64();
    op_ms.push(seconds * 1e3);
    if obs.enabled() {
        let _pass = obs.span("bench.figures.generators");
        for (name, generate) in catalogue() {
            let _generator = obs.span(name);
            std::hint::black_box(generate());
        }
    }
    Ok(Chunk { value: (), seconds })
}

fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Driven<String, ()> {
    let plan = Plan {
        setup_reps: SETUP_REPS,
        setup_batch: 1,
        ops_per_chunk: 1,
        work_per_chunk: catalogue().len() as f64,
    };
    drive(
        cfg,
        plan,
        tracer,
        |_| setup(),
        |expected, obs, _, op_ms| op(expected, obs, op_ms),
    )
}

/// The untraced run behind the end-to-end metrics.
pub fn measure(cfg: &RunConfig) -> Outcome {
    run(cfg, None).outcome()
}

/// The traced run.
pub fn profile(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::default();
    let mut driven = run(cfg, Some(&tracer));
    let profile = tracer.profile();
    let passes = driven.traced_ms.len().max(1) as f64;
    let catalogue = catalogue();
    let median_ms = |name: &str| {
        profile
            .stats(name)
            .map_or(0.0, |s| s.median.as_secs() * 1e3)
    };
    let per_pass_ms = |keep: &dyn Fn(&str) -> bool| {
        catalogue
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(name, _)| measure::total_ms(&profile, name))
            .sum::<f64>()
            / passes
    };
    let fanout_ms = median_ms("par.fanout");
    let longest_ms = catalogue
        .iter()
        .map(|(name, _)| median_ms(name))
        .fold(0.0, f64::max);
    let n = driven.traced_ms.len();
    let ms = |name: &str, value: f64| Metric::new(name, value, "ms").over(n);
    let mut metrics = vec![
        ms("figures.optim.fig07_ms", measure::self_ms(&profile, FIG07)),
        ms("figures.edge.fig11_ms", measure::self_ms(&profile, FIG11)),
        ms("figures.fleet.fig10_ms", measure::self_ms(&profile, FIG10)),
        ms(
            "figures.figs.other_ms",
            per_pass_ms(&|name| ![FIG07, FIG10, FIG11].contains(&name)),
        ),
        ms(
            "figures.figs.render_ms",
            measure::self_ms(&profile, "figs.render"),
        ),
        Metric::new(
            "figures.par.critical_share",
            longest_ms / fanout_ms,
            "ratio",
        )
        .over(n),
        Metric::new(
            "figures.par.busy_share",
            per_pass_ms(&|_| true) / (THREADS as f64 * fanout_ms),
            "ratio",
        )
        .over(n),
    ];
    metrics.extend(measure::traced_common(NAME, &profile, &mut driven));
    Outcome::new(metrics, driven.tally)
}
