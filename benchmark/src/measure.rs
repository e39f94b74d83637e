//! What every workload shares: run settings, failure accounting, the
//! measured loop and the metrics it yields, and the traced-run
//! bookkeeping.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sustain_obs::{Obs, ObsConfig};
use sustain_prof::Profile;

use crate::golden::Golden;
use crate::stats;

/// Worker threads of every pool the benchmark drives. Set explicitly
/// (never read from `SUSTAIN_THREADS`) so the load is the same on every
/// host and commit; matches the two cores of the reference host.
pub const THREADS: usize = 2;

/// Seed of the committed golden fingerprints.
pub const DEFAULT_SEED: u64 = 1;

/// Ops per workload in a `--smoke` run, which ignores `--seconds`.
pub const SMOKE_OPS: usize = 3;

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall seconds of the measured loop.
    pub seconds: f64,
    /// Run [`SMOKE_OPS`] ops on shrunken inputs instead of `seconds`.
    pub smoke: bool,
    /// Fingerprints the default-seed warm-up op must reproduce; `None`
    /// skips the warm-up op.
    pub golden: Option<Golden>,
}

impl RunConfig {
    /// The same settings with the measured loop cut to `share` of it.
    pub fn with_share(&self, share: f64) -> RunConfig {
        RunConfig {
            seconds: self.seconds * share,
            ..self.clone()
        }
    }
}

/// Attempted and failed ops. A check that returns `Err` or panics is a
/// failed op; neither stops the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops whose output was wrong or that panicked.
    pub failed: u64,
}

impl Tally {
    /// Runs `op` as `weight` attempted ops, all failed if it returns `Err`
    /// or panics; returns its value on success.
    pub fn run<T>(
        &mut self,
        weight: u64,
        what: &str,
        op: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += weight;
        let outcome = catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_owned());
            Err(format!("panicked: {message}"))
        });
        match outcome {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += weight;
                eprintln!("benchmark: {what} failed: {err}");
                None
            }
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// `Ok(())` when `ok`, else `Err` carrying `message`.
pub fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (0 for a single measurement).
    pub samples: usize,
    /// Whether the value is a pure function of the seed, so two runs of
    /// the same code must agree exactly.
    pub exact: bool,
}

impl Metric {
    /// A measured value.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 0,
            exact: false,
        }
    }

    /// Records the sample count behind the value.
    pub fn over(mut self, samples: usize) -> Metric {
        self.samples = samples;
        self
    }

    /// Marks the value as deterministic for a given seed.
    pub fn exact(mut self) -> Metric {
        self.exact = true;
        self
    }
}

/// A run's metrics and op accounting.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` declares, in its order.
    pub metrics: Vec<Metric>,
    /// Further numbers printed beside them but left out of the result
    /// line, such as the latency tail.
    pub diagnostics: Vec<Metric>,
    /// Attempted and failed ops.
    pub tally: Tally,
}

impl Outcome {
    /// An outcome with metrics only.
    pub fn new(metrics: Vec<Metric>, tally: Tally) -> Outcome {
        Outcome {
            metrics,
            diagnostics: Vec::new(),
            tally,
        }
    }
}

/// The shape of a workload's measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-up repetitions per run, spread evenly through the loop.
    pub setup_reps: usize,
    /// Set-ups run back to back in one repetition, whose time is divided
    /// by this count: it makes a sub-millisecond set-up long enough to
    /// time steadily.
    pub setup_batch: usize,
    /// Ops in one chunk, the unit the loop repeats (an op, a batch of
    /// replicas, a pipeline run).
    pub ops_per_chunk: usize,
    /// Units of work one chunk completes (tables, replica-hours, samples,
    /// replicas).
    pub work_per_chunk: f64,
}

/// What one chunk returns: its value and its wall seconds (which may
/// leave out clean-up that is not part of the workload).
#[derive(Debug)]
pub struct Chunk<C> {
    /// The chunk's result.
    pub value: C,
    /// Wall seconds of the chunk's work.
    pub seconds: f64,
}

/// Everything one measured loop recorded.
#[derive(Debug)]
pub struct Driven<S, C> {
    /// The set-up result, if set-up succeeded.
    pub setup: Option<S>,
    /// Wall seconds of one set-up, per repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced op, in milliseconds.
    pub untraced_ms: Vec<f64>,
    /// Latency of each traced op, in milliseconds.
    pub traced_ms: Vec<f64>,
    /// Work per second of each untraced chunk.
    pub rates: Vec<f64>,
    /// The result of chunk 0, whose inputs depend only on the seed.
    pub first: Option<C>,
    /// Attempted and failed ops.
    pub tally: Tally,
}

impl<S, C> Driven<S, C> {
    /// The end-to-end metrics of an untraced run, with the fast end and
    /// the median of the op latency as diagnostics.
    ///
    /// On a shared host, other tenants slow ops in phases of seconds to
    /// minutes. The slow end of each distribution is the host's saturated
    /// state, which every run reaches and which reads the same from run to
    /// run; how often the fast end is reached depends on the neighbours. So
    /// the bounded metrics read the slow end: the 90th-percentile set-up
    /// and op latency, and the 10th-percentile chunk throughput, the rate
    /// nine chunks in ten reach.
    pub fn outcome(&self) -> Outcome {
        let ops = self.untraced_ms.len();
        let latency = |p: f64| {
            let value = stats::percentile(&self.untraced_ms, p);
            Metric::new(format!("op_p{:.0}_ms", p * 100.0), value, "ms").over(ops)
        };
        Outcome {
            metrics: vec![
                Metric::new("setup_s", stats::percentile(&self.setup_s, 0.9), "s")
                    .over(self.setup_s.len()),
                latency(0.9),
                Metric::new("work_per_s", stats::percentile(&self.rates, 0.1), "1/s")
                    .over(self.rates.len()),
                Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
            diagnostics: vec![latency(0.1), latency(0.5)],
            tally: self.tally,
        }
    }
}

/// Runs a workload's measured loop.
///
/// `setup` runs once before the loop and again at evenly spaced points
/// through it, so the reported set-up time sees the same host as the
/// ops; each of these repetitions runs it `plan.setup_batch` times back to
/// back and keeps the last result. `chunk(setup, obs, index, latencies)` runs chunk `index`, pushing
/// each op's latency; with a `tracer`, chunks alternate between a
/// disabled handle and the tracer's recorder, and at least one traced
/// chunk runs. A `--smoke` run stops after [`SMOKE_OPS`] ops and sets up
/// once.
pub fn drive<S, C>(
    cfg: &RunConfig,
    plan: Plan,
    tracer: Option<&Tracer>,
    mut setup: impl FnMut(&Obs) -> Result<S, String>,
    mut chunk: impl FnMut(&S, &Obs, u64, &mut Vec<f64>) -> Result<Chunk<C>, String>,
) -> Driven<S, C> {
    let off = Obs::disabled();
    let setup_obs = tracer.map_or(&off, Tracer::obs);
    let mut d = Driven {
        setup: None,
        setup_s: Vec::new(),
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        rates: Vec::new(),
        first: None,
        tally: Tally::default(),
    };
    let batch = plan.setup_batch;
    let mut timed_setup = |d: &mut Driven<S, C>| {
        let started = Instant::now();
        let result = d.tally.run(1, "set-up", || {
            (1..batch).try_fold(setup(setup_obs)?, |_, _| setup(setup_obs))
        });
        d.setup_s
            .push(started.elapsed().as_secs_f64() / batch as f64);
        result
    };
    let Some(s) = timed_setup(&mut d) else {
        return d;
    };
    let reps = if cfg.smoke { 1 } else { plan.setup_reps };
    let started = Instant::now();
    let mut index = 0u64;
    loop {
        let ops = d.untraced_ms.len() + d.traced_ms.len();
        let elapsed = started.elapsed().as_secs_f64();
        let more = if cfg.smoke {
            ops < SMOKE_OPS
        } else {
            elapsed < cfg.seconds
        };
        if !(more || tracer.is_some() && d.traced_ms.is_empty()) {
            break;
        }
        if d.setup_s.len() < reps && elapsed >= d.setup_s.len() as f64 * cfg.seconds / reps as f64 {
            timed_setup(&mut d);
        }
        let traced = tracer.is_some() && index % 2 == 1;
        let (obs, into) = match tracer {
            Some(tracer) if traced => (tracer.obs(), &mut d.traced_ms),
            _ => (&off, &mut d.untraced_ms),
        };
        let out = d.tally.run(plan.ops_per_chunk as u64, "op", || {
            chunk(&s, obs, index, into)
        });
        if let Some(out) = out {
            if !traced {
                d.rates.push(plan.work_per_chunk / out.seconds);
            }
            if index == 0 {
                d.first = Some(out.value);
            }
        }
        index += 1;
    }
    d.setup = Some(s);
    d
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB; NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The benchmark-owned recorder of a traced run: a wall-clock obs handle
/// that only the benchmark's own spans write to. The program's ambient
/// handle stays disabled.
#[derive(Debug)]
pub struct Tracer {
    obs: Obs,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            obs: ObsConfig::enabled().with_wall_clock().build(),
        }
    }
}

impl Tracer {
    /// The recorder.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The self-time profile of everything recorded so far.
    pub fn profile(&self) -> Profile {
        sustain_prof::profile_records(&self.obs.events())
    }
}

/// Per-call self time of span `name`, in milliseconds (0 if absent).
pub fn self_ms(profile: &Profile, name: &str) -> f64 {
    profile.stats(name).map_or(0.0, |s| {
        s.self_time.as_secs() * 1e3 / (s.calls.max(1) as f64)
    })
}

/// Summed inclusive time of span `name`, in milliseconds.
pub fn total_ms(profile: &Profile, name: &str) -> f64 {
    profile.stats(name).map_or(0.0, |s| s.total.as_secs() * 1e3)
}

/// The metrics every workload's traced run reports: the tracing overhead
/// on its op latency and the share of recorded time spent in named layer
/// spans rather than in the benchmark's own `bench.*` glue around them.
/// Also counts the profile's self-time conservation as a checked op.
pub fn traced_common<S, C>(
    workload: &str,
    profile: &Profile,
    driven: &mut Driven<S, C>,
) -> [Metric; 2] {
    driven.tally.run(1, "profile conservation", || {
        ensure(profile.conserves(), || {
            format!(
                "self time {:.6} s does not conserve root total {:.6} s ({} clamped spans)",
                profile.self_total().as_secs(),
                profile.root_total().as_secs(),
                profile.clamped_spans()
            )
        })
    });
    let glue: f64 = profile
        .by_name()
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, s)| s.self_time.as_secs())
        .sum();
    let overhead = stats::median(&driven.traced_ms) / stats::median(&driven.untraced_ms) - 1.0;
    let n = driven.traced_ms.len();
    [
        Metric::new(
            format!("{workload}.obs.trace_overhead_pct"),
            overhead * 100.0,
            "%",
        )
        .over(n),
        Metric::new(
            format!("{workload}.prof.attributed_share"),
            1.0 - glue / profile.root_total().as_secs(),
            "ratio",
        )
        .over(n),
    ]
}
