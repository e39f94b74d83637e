//! `sweep_cache`: a Monte Carlo re-run session against a fresh cache, so
//! the `cache` layer is measured writing beside reading. One op is one
//! session on the Appendix-B chaos fleet:
//!
//! 1. a fresh in-memory `Cache` plus [`COLD`] replicas: every lookup misses,
//!    and every report is encoded and stored (the cold pass);
//! 2. the same handle plus [`GROWN`] replicas: the first [`COLD`] are hits,
//!    decoded from the store, the rest new misses (the grow pass);
//! 3. the same handle plus the same [`GROWN`] replicas: all hits (the warm
//!    pass).
//!
//! Every pass is checked against an uncached reference built at set-up.
//!
//! The timed session keeps its cache in memory: on a disk cache every miss
//! ends in an `fsync`, and on a shared virtual disk that made session times
//! spread 28–45% over ten runs, past any bound, where the in-memory session
//! stayed as steady as the other workloads. The traced run measures the
//! disk store per layer: after each chunk it runs the cold pass on
//! `Cache::at_dir` and the grow pass on a fresh handle on the same
//! directory, so the grow pass's first [`COLD`] lookups are disk reads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sustain_cache::Cache;
use sustain_core::intensity::GridRegion;
use sustain_core::units::{Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::sim::{FleetSim, FleetSimReport};
use sustain_fleet::utilization::UtilizationModel;
use sustain_obs::Obs;
use sustain_workload::training::{JobClass, JobGenerator};

use crate::golden::fingerprint;
use crate::measure::{
    self, drive, ensure, Chunk, Driven, Metric, Outcome, Plan, RunConfig, Tracer, DEFAULT_SEED,
};

/// Workload name.
pub const NAME: &str = "sweep_cache";

/// Replicas of the cold pass.
const COLD: usize = 64;
/// Replicas of the grow and warm passes.
const GROWN: usize = 128;
/// Replicas one session returns.
const PER_SESSION: usize = COLD + 2 * GROWN;
/// Set-up repetitions per run; set-up computes the uncached reference in
/// about 45 ms, and 40 of them leave four above the 90th percentile.
const SETUP_REPS: usize = 40;

/// The fleet and reference of one run.
#[derive(Debug)]
struct Setup {
    sim: FleetSim,
    chaos: ChaosConfig,
    base_seed: u64,
    reference: Vec<FleetSimReport>,
}

/// The Appendix-B fleet of the chaos tables: 20 servers over 30 days.
fn fleet() -> Result<FleetSim, String> {
    Ok(FleetSim::new(
        Cluster::gpu_training(20),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).map_err(|err| err.to_string())?,
        UtilizationModel::research_cluster(),
        20.0,
        TimeSpan::from_days(30.0),
    ))
}

/// Builds the fleet and its uncached [`GROWN`]-replica reference; the
/// replicas run on `ParPool::current()`, which the benchmark pins to its
/// thread count.
fn setup(base_seed: u64) -> Result<Setup, String> {
    let sim = fleet()?;
    let chaos = ChaosConfig::datacenter_default();
    let reference = sim.run_replicas_with_chaos(GROWN, base_seed, &chaos);
    Ok(Setup {
        sim,
        chaos,
        base_seed,
        reference,
    })
}

/// The hits and misses of a session's grow and warm passes, the passes
/// that re-run replicas the cache has seen.
#[derive(Debug, Clone, Copy)]
struct Session {
    hits: u64,
    misses: u64,
}

/// `n` replicas through `cache`, checked against the reference prefix and
/// against the hit and miss counts the pass must add.
fn pass(
    s: &Setup,
    cache: &Cache,
    n: usize,
    hits: u64,
    misses: u64,
) -> Result<Vec<FleetSimReport>, String> {
    let (hits_before, misses_before) = (cache.hits(), cache.misses());
    let reports = s
        .sim
        .clone()
        .with_cache(cache)
        .run_replicas_with_chaos(n, s.base_seed, &s.chaos);
    let added = (cache.hits() - hits_before, cache.misses() - misses_before);
    ensure(added == (hits, misses), || {
        format!("{n}-replica pass: {added:?} hits/misses, expected ({hits}, {misses})")
    })?;
    ensure(reports[..] == s.reference[..n], || {
        format!("{n}-replica pass differs from the uncached reference")
    })?;
    Ok(reports)
}

/// The timed session: three passes on one in-memory cache.
fn session(obs: &Obs, s: &Setup) -> Result<Session, String> {
    let _session = obs.span("bench.sweep_cache.session");
    let cache = Cache::in_memory();
    {
        let _span = obs.span("cache.cold_pass");
        pass(s, &cache, COLD, 0, COLD as u64)?;
    }
    {
        let _span = obs.span("cache.grow_pass");
        pass(s, &cache, GROWN, COLD as u64, (GROWN - COLD) as u64)?;
    }
    let _span = obs.span("cache.warm_pass");
    pass(s, &cache, GROWN, GROWN as u64, 0)?;
    // The cold pass checked that it added exactly COLD misses.
    Ok(Session {
        hits: cache.hits(),
        misses: cache.misses() - COLD as u64,
    })
}

/// The disk passes a traced run adds after each chunk, outside the timed
/// session, in the empty directory `dir`: the cold pass on `Cache::at_dir`,
/// then the grow pass on a fresh handle, which reads the cold pass's
/// entries back from disk. Returns the bytes of the entries written.
fn disk_passes(obs: &Obs, s: &Setup, dir: &Path) -> Result<u64, String> {
    let open = || Cache::at_dir(dir).map_err(|err| format!("cache at {}: {err}", dir.display()));
    let _session = obs.span("bench.sweep_cache.disk");
    {
        let _span = obs.span("cache.disk_cold_pass");
        pass(s, &open()?, COLD, 0, COLD as u64)?;
    }
    let _span = obs.span("cache.disk_grow_pass");
    pass(s, &open()?, GROWN, COLD as u64, (GROWN - COLD) as u64)?;
    Ok(bytes_on_disk(dir))
}

/// A working directory inside the benchmark's own `out/` directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("work-{NAME}-{}", std::process::id()))
}

/// Bytes of every entry file in `dir`.
fn bytes_on_disk(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok()?.metadata().ok())
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The default-seed reference fingerprint the golden file commits.
pub fn golden_fingerprint() -> Result<u64, String> {
    Ok(fingerprint(&setup(DEFAULT_SEED)?.reference))
}

/// The uncached cold pass and the disk passes a traced run adds after
/// each chunk; returns the bytes the disk passes wrote.
fn probe(obs: &Obs, s: &Setup, dir: &Path) -> Result<u64, String> {
    {
        let _root = obs.span("bench.sweep_cache.uncached");
        let _span = obs.span("fleet.uncached_pass");
        s.sim.run_replicas_with_chaos(COLD, s.base_seed, &s.chaos);
    }
    let bytes = disk_passes(obs, s, dir);
    let _ = std::fs::remove_dir_all(dir);
    bytes
}

/// The measured loop: one in-memory session per chunk; a traced run
/// follows each with [`probe`].
fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Driven<Setup, (Session, u64)> {
    let plan = Plan {
        setup_reps: SETUP_REPS,
        setup_batch: 1,
        ops_per_chunk: 1,
        work_per_chunk: PER_SESSION as f64,
    };
    let root = work_dir();
    let driven = drive(
        cfg,
        plan,
        tracer,
        |_| setup(cfg.seed),
        |s, obs, index, op_ms| {
            let started = Instant::now();
            let session = session(obs, s)?;
            let seconds = started.elapsed().as_secs_f64();
            op_ms.push(seconds * 1e3);
            let bytes = match tracer {
                Some(tracer) => probe(tracer.obs(), s, &root.join(format!("session-{index}")))?,
                None => 0,
            };
            Ok(Chunk {
                value: (session, bytes),
                seconds,
            })
        },
    );
    let _ = std::fs::remove_dir_all(&root);
    driven
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
    let n = driven.traced_ms.len();
    let per_call =
        |name: &str, span: &str| Metric::new(name, measure::self_ms(&profile, span), "ms").over(n);
    let mut metrics = vec![
        per_call("sweep_cache.cache.cold_pass_ms", "cache.cold_pass"),
        per_call("sweep_cache.cache.grow_pass_ms", "cache.grow_pass"),
        per_call("sweep_cache.cache.warm_pass_ms", "cache.warm_pass"),
        per_call(
            "sweep_cache.cache.disk_cold_pass_ms",
            "cache.disk_cold_pass",
        ),
        per_call(
            "sweep_cache.cache.disk_grow_pass_ms",
            "cache.disk_grow_pass",
        ),
        per_call("sweep_cache.fleet.uncached_pass_ms", "fleet.uncached_pass"),
    ];
    if let Some((session, bytes)) = driven.first {
        let lookups = (session.hits + session.misses) as f64;
        metrics.extend([
            Metric::new(
                "sweep_cache.cache.hit_ratio",
                session.hits as f64 / lookups,
                "ratio",
            )
            .exact(),
            Metric::new("sweep_cache.cache.bytes_on_disk", bytes as f64, "bytes").exact(),
        ]);
    }
    metrics.extend(measure::traced_common(NAME, &profile, &mut driven));
    Outcome::new(metrics, driven.tally)
}
