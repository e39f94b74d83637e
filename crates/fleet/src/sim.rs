//! Event-driven fleet simulation.
//!
//! [`FleetSim`] ties the workspace together: calibrated job arrivals
//! ([`JobGenerator`]) land on a GPU [`Cluster`] inside a [`DataCenter`];
//! per-GPU utilizations come from the Figure 10 distribution; energy is
//! integrated hourly through the SKU power models; and the result is a full
//! [`CarbonFootprint`] (operational under both accounting bases + amortized
//! embodied carbon) plus queueing/utilization statistics.
//!
//! A [`Scenario`] holds what a run adds to the fleet: the chaos harness
//! ([`ChaosConfig::none`] unless set) and an optional hourly intensity feed.
//! [`FleetSim::simulate`] runs one scenario and
//! [`FleetSim::simulate_replicas`] runs a Monte Carlo batch of it; both go
//! through one event-driven core.
//!
//! The run loop sits on the [`sustain_des`] discrete-event engine: each
//! simulated hour is a train of events at the hour boundary — `JobArrival`,
//! `HostCrash`/`SdcDetected` (chaos runs only), `CheckpointTick` (progress
//! and busy-energy integration), the `JobCompletion` events it schedules,
//! and an `IntensityTick` that rolls the hour's energy into the carbon
//! accounts and schedules the next hour. Stable `(timestamp, seq)` ordering
//! makes the event train replay the retired hour-stepped loop draw for
//! draw, which [`FleetSim::run_reference`] (the loop, kept verbatim) and
//! the `des_equivalence` differential suite pin down byte-for-byte.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use sustain_cache::{Cache, CacheKey, CacheValue, KeyEncoder};
use sustain_core::footprint::CarbonFootprint;
use sustain_core::intensity::AccountingBasis;
use sustain_core::quality::DataQualityReport;
use sustain_core::stats::Poisson;
use sustain_core::units::{Co2e, Energy, Fraction, TimeSpan};
use sustain_des::{Engine, Event, EventKind, Timeline};
use sustain_obs::Obs;
use sustain_telemetry::device::PowerModel;
use sustain_telemetry::faults::{FaultInjector, ImputationPolicy};
use sustain_telemetry::meter::FaultTolerantIntegrator;
use sustain_workload::training::JobGenerator;

use crate::chaos::ChaosConfig;
use crate::cluster::Cluster;
use crate::datacenter::DataCenter;
use crate::scheduler::IntensitySeries;
use crate::utilization::UtilizationModel;

/// Seconds per simulated hour — the event-time granularity of the hourly
/// rollup adapter.
const SECS_PER_HOUR: u64 = 3600;

/// Configuration of a fleet simulation run.
#[derive(Debug, Clone)]
pub struct FleetSim {
    cluster: Cluster,
    datacenter: DataCenter,
    jobs: JobGenerator,
    utilization: UtilizationModel,
    arrivals_per_day: f64,
    horizon: TimeSpan,
    // lint:allow(cache-key-completeness) observability sink: recording spans
    // cannot change the simulated energy/carbon results being cached
    obs: Obs,
    // lint:allow(cache-key-completeness) the cache handle stores results; it
    // is not an input to them, so keying on it would defeat reuse
    cache: Option<Cache>,
}

#[derive(Debug, Clone, Copy)]
struct RunningJob {
    gpus: u32,
    total_gpu_hours: f64,
    remaining_gpu_hours: f64,
    utilization: Fraction,
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSimReport {
    /// Total IT energy consumed by the cluster (busy + idle GPUs).
    pub it_energy: Energy,
    /// Location-based operational emissions.
    pub operational_location: Co2e,
    /// Market-based operational emissions.
    pub operational_market: Co2e,
    /// Embodied carbon amortized over the simulated horizon (time-share).
    pub embodied: Co2e,
    /// Jobs completed within the horizon.
    pub jobs_completed: u64,
    /// Jobs still queued or running at the end.
    pub jobs_outstanding: u64,
    /// Mean fraction of GPUs allocated to jobs over the run.
    pub mean_allocation: Fraction,
    /// Mean achieved utilization across allocated GPU-hours.
    pub mean_busy_utilization: Fraction,
    /// Host crash/restart events injected by the chaos harness.
    pub host_crashes: u64,
    /// Silent-data-corruption events injected by the chaos harness.
    pub sdc_events: u64,
    /// GPU-hours of completed work recomputed after crashes and SDC re-runs
    /// — real extra energy and carbon already folded into `it_energy`.
    pub recomputed_gpu_hours: f64,
    /// Hours where the grid-intensity feed had a gap (variable-intensity
    /// chaos runs only).
    pub intensity_gap_hours: u64,
    /// Data-quality accounting of the fleet's own power metering, present
    /// when the chaos harness injected telemetry faults. `it_energy` is the
    /// simulation's ground truth; `quality.accounted_energy()` is what the
    /// degraded meter reported.
    pub quality: Option<DataQualityReport>,
}

impl FleetSimReport {
    /// The combined footprint under a basis (embodied is basis-independent).
    pub fn footprint(&self, basis: AccountingBasis) -> CarbonFootprint {
        let op = match basis {
            AccountingBasis::LocationBased => self.operational_location,
            AccountingBasis::MarketBased => self.operational_market,
        };
        CarbonFootprint::new(op, self.embodied)
    }
}

/// Deterministic reduction of a batch of replica reports: every statistic
/// is a fold over the reports in replica order, so the summary is as
/// thread-count-independent as the replicas themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSummary {
    /// Number of replicas reduced.
    pub replicas: u64,
    /// Mean IT energy across replicas.
    pub mean_it_energy: Energy,
    /// Lowest replica IT energy.
    pub min_it_energy: Energy,
    /// Highest replica IT energy.
    pub max_it_energy: Energy,
    /// Mean location-based operational emissions across replicas.
    pub mean_operational_location: Co2e,
    /// Mean jobs completed across replicas.
    pub mean_jobs_completed: f64,
    /// Mean GPU-hours recomputed after crashes/SDC re-runs.
    pub mean_recomputed_gpu_hours: f64,
    /// Host crashes summed over every replica.
    pub total_host_crashes: u64,
    /// SDC events summed over every replica.
    pub total_sdc_events: u64,
}

impl ReplicaSummary {
    /// Reduces replica reports (e.g. from [`FleetSim::simulate_replicas`]).
    /// Returns `None` for an empty batch.
    // lint:allow(obs-coverage) pure in-memory fold over at most a few hundred
    // replica reports; the producing simulate_replicas span already brackets it
    pub fn from_reports(reports: &[FleetSimReport]) -> Option<ReplicaSummary> {
        let first = reports.first()?;
        let n = reports.len() as f64;
        let mut min_it = first.it_energy;
        let mut max_it = first.it_energy;
        for r in reports {
            min_it = min_it.min(r.it_energy);
            max_it = max_it.max(r.it_energy);
        }
        Some(ReplicaSummary {
            replicas: reports.len() as u64,
            mean_it_energy: reports.iter().map(|r| r.it_energy).sum::<Energy>() / n,
            min_it_energy: min_it,
            max_it_energy: max_it,
            mean_operational_location: reports.iter().map(|r| r.operational_location).sum::<Co2e>()
                / n,
            mean_jobs_completed: reports.iter().map(|r| r.jobs_completed as f64).sum::<f64>() / n,
            mean_recomputed_gpu_hours: reports.iter().map(|r| r.recomputed_gpu_hours).sum::<f64>()
                / n,
            total_host_crashes: reports.iter().map(|r| r.host_crashes).sum(),
            total_sdc_events: reports.iter().map(|r| r.sdc_events).sum(),
        })
    }
}

/// What a run adds to the fleet: the failure processes the chaos harness
/// injects ([`ChaosConfig::none`] unless set) and, optionally, an hourly
/// grid-intensity feed. Without a feed, energy is converted at the
/// datacenter region's static intensity.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    chaos: ChaosConfig,
    intensity: Option<IntensitySeries>,
}

impl Scenario {
    /// Injects `chaos`: host crashes (recovered via the configured
    /// checkpoint policy — the recomputed GPU-hours are real extra energy
    /// and carbon), wear-out SDC re-runs, intensity-feed gaps, and telemetry
    /// faults on the fleet's power metering. [`ChaosConfig::none`]
    /// reproduces the undisturbed run exactly.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Scenario {
        self.chaos = chaos;
        self
    }

    /// Converts each hour's energy at that hour's intensity in `series`
    /// (e.g. from [`crate::renewable::VariableIntensity`]), which is how
    /// carbon-aware operation is actually accounted. Hours where the chaos
    /// harness opens a feed gap fall back to the region's static intensity
    /// and — because renewable matching cannot be proven without the feed —
    /// are charged at full location intensity in the market basis.
    #[must_use]
    pub fn with_intensity(mut self, series: IntensitySeries) -> Scenario {
        self.intensity = Some(series);
        self
    }
}

impl CacheKey for Scenario {
    fn namespace(&self) -> &'static str {
        "scenario"
    }

    /// Encodes the chaos config field by field, then the intensity series
    /// by its value rendering (absence encoded distinctly).
    fn encode_key(&self, enc: &mut KeyEncoder) {
        self.chaos.encode_key(enc);
        enc.write_option(self.intensity.as_ref(), |enc, series| {
            enc.write_debug(series)
        });
    }
}

impl FleetSim {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the hourly arrival rate `arrivals_per_day / 24` is not a
    /// valid Poisson mean (finite and positive; a daily rate so small that
    /// the division underflows to zero counts as zero), or if the horizon
    /// is not finite and positive.
    pub fn new(
        cluster: Cluster,
        datacenter: DataCenter,
        jobs: JobGenerator,
        utilization: UtilizationModel,
        arrivals_per_day: f64,
        horizon: TimeSpan,
    ) -> FleetSim {
        assert!(
            Poisson::new(arrivals_per_day / 24.0).is_ok(),
            "hourly arrival rate must be finite and positive"
        );
        assert!(
            horizon.as_secs().is_finite() && horizon.as_secs() > 0.0,
            "horizon must be finite and positive"
        );
        FleetSim {
            cluster,
            datacenter,
            jobs,
            utilization,
            arrivals_per_day,
            horizon,
            obs: sustain_obs::handle(),
            cache: None,
        }
    }

    /// Replaces the observability handle captured at construction (the
    /// process-global handle, disabled by default). Hour-by-hour phase spans
    /// and fleet counters are recorded through it; the simulation itself is
    /// unaffected — observability never draws from the RNG.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> FleetSim {
        self.obs = obs.clone();
        self
    }

    /// Attaches a `sustain-cache` handle: [`FleetSim::simulate_replicas`]
    /// then serves unchanged replicas content-addressed by (simulation
    /// config, scenario, derived seed). Like the obs handle, the cache is
    /// orthogonal to the simulation itself — a cached replica report is
    /// byte-for-byte the report a fresh run would produce — and is excluded
    /// from the [`CacheKey`] encoding.
    #[must_use]
    pub fn with_cache(mut self, cache: &Cache) -> FleetSim {
        self.cache = Some(cache.clone());
        self
    }

    /// Runs `scenario` over the horizon, one event-driven hour at a time.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's chaos crash rate is negative, infinite or
    /// NaN (see [`ChaosConfig::with_crash_rate`]).
    pub fn simulate<R: Rng + ?Sized>(&self, scenario: &Scenario, rng: &mut R) -> FleetSimReport {
        self.simulate_with(rng, &scenario.chaos, scenario.intensity.as_ref())
    }

    /// Runs `n` independent Monte Carlo replicas of `scenario` on
    /// [`ParPool::current`](sustain_par::ParPool::current), one whole-sim
    /// replica per task.
    ///
    /// Replica `i` is seeded with [`sustain_par::task_seed`]`(base_seed, i)`
    /// and reports are joined in replica order, so the result is
    /// byte-identical for any thread count (including 1). Each replica
    /// records through its task's forked obs handle, not the handle captured
    /// at construction — parallel replicas must not interleave their span
    /// streams. Reduce the reports with [`ReplicaSummary::from_reports`].
    ///
    /// # Panics
    ///
    /// Panics on the invalid crash rates [`FleetSim::simulate`] rejects.
    pub fn simulate_replicas(
        &self,
        scenario: &Scenario,
        n: usize,
        base_seed: u64,
    ) -> Vec<FleetSimReport> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        sustain_par::ParPool::current().map_seeded(n, base_seed, |_, seed| {
            let compute = || {
                let replica = self.clone().with_obs(&sustain_obs::handle());
                replica.simulate(scenario, &mut StdRng::seed_from_u64(seed))
            };
            match &self.cache {
                Some(cache) => cache.get_or_compute(
                    &ReplicaKey {
                        sim: self,
                        scenario,
                        seed,
                    },
                    compute,
                ),
                None => compute(),
            }
        })
    }

    /// [`FleetSim::simulate`] under `chaos` and the intensity feed `series`,
    /// borrowed rather than copied into a [`Scenario`].
    ///
    /// # Panics
    ///
    /// Panics on the invalid crash rates [`FleetSim::simulate`] rejects.
    pub fn run_with_chaos_and_intensity<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: &IntensitySeries,
        chaos: &ChaosConfig,
    ) -> FleetSimReport {
        self.simulate_with(rng, chaos, Some(series))
    }

    /// [`FleetSim::simulate_replicas`] under `chaos`, without an intensity
    /// feed.
    ///
    /// # Panics
    ///
    /// Panics on the invalid crash rates [`FleetSim::simulate`] rejects.
    pub fn run_replicas_with_chaos(
        &self,
        n: usize,
        base_seed: u64,
        chaos: &ChaosConfig,
    ) -> Vec<FleetSimReport> {
        self.simulate_replicas(&Scenario::default().with_chaos(*chaos), n, base_seed)
    }

    /// Runs the retired hour-stepped loop, kept verbatim as the executable
    /// specification of the hourly-rollup adapter: for any seed, intensity
    /// series, and chaos config, [`FleetSim::simulate`] must reproduce this
    /// report byte-for-byte (see `tests/des_equivalence` at the workspace
    /// root). `chaos: None` is the undisturbed loop, which a scenario with
    /// [`ChaosConfig::none`] must reproduce; `series` applies the
    /// market-basis gap formula.
    pub fn run_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: Option<&IntensitySeries>,
        chaos: Option<&ChaosConfig>,
    ) -> FleetSimReport {
        let (mut report, gap_co2) = self.run_hourly(rng, series, chaos);
        if series.is_some() {
            let matched = report.operational_location - gap_co2;
            report.operational_market = matched
                * self
                    .datacenter
                    .account()
                    .renewable_matching()
                    .complement()
                    .value()
                + gap_co2;
        }
        report
    }

    fn run_hourly<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        variable_intensity: Option<&IntensitySeries>,
        chaos: Option<&ChaosConfig>,
    ) -> (FleetSimReport, Co2e) {
        let step = TimeSpan::from_hours(1.0);
        let steps = self.horizon.as_hours().ceil() as usize;
        let total_gpus = self.cluster.total_gpus() as f64;
        // lint:allow(panic-discipline) unreachable: `new` checks this exact λ
        let arrivals = Poisson::new(self.arrivals_per_day / 24.0).expect("positive arrival rate");

        let mut queue: VecDeque<RunningJob> = VecDeque::new();
        let mut running: Vec<RunningJob> = Vec::new();
        let mut free_gpus = self.cluster.total_gpus();

        let mut it_energy = Energy::ZERO;
        let mut completed = 0u64;
        let mut allocation_acc = 0.0;
        let mut busy_util_acc = 0.0;
        let mut busy_gpu_hours = 0.0;

        let per_gpu = |sku_power: &dyn PowerModel, u: Fraction| sku_power.power(u);
        let gpus_per_server = self.cluster.sku().accelerators().max(1) as f64;

        let account = self.datacenter.account();
        let mut variable_co2 = Co2e::ZERO;

        // Chaos machinery — every piece is inert (no RNG draws, exact ×1.0
        // derate) when `chaos` is absent or zero-rate, so the undisturbed
        // simulation is reproduced bit-for-bit.
        let servers = self.cluster.servers() as f64;
        let crash_dist = chaos.and_then(|c| {
            let per_hour = c.crash_rate_per_server_day * servers / 24.0;
            (per_hour > 0.0)
                .then(|| Poisson::new(per_hour).ok())
                .flatten()
        });
        let sdc_dist = chaos.and_then(|c| {
            let per_hour = c.sdc_rate_per_server_hour() * servers;
            (per_hour > 0.0)
                .then(|| Poisson::new(per_hour).ok())
                .flatten()
        });
        let progress_derate = match chaos {
            Some(c) => 1.0 / (1.0 + c.checkpoint.overhead.value()),
            None => 1.0,
        };
        let mut meter = chaos.and_then(|c| {
            (!c.telemetry.is_none()).then(|| {
                (
                    FaultInjector::new(&c.telemetry, "fleet-power").with_obs(&self.obs),
                    FaultTolerantIntegrator::new(step, ImputationPolicy::LastObservation),
                )
            })
        });
        let mut host_crashes = 0u64;
        let mut sdc_events = 0u64;
        let mut recomputed_gpu_hours = 0.0f64;
        let mut intensity_gap_hours = 0u64;
        let mut gap_co2 = Co2e::ZERO;
        let mut jobs_arrived = 0u64;

        let obs = &self.obs;
        obs.set_time(TimeSpan::ZERO);
        let run_span = obs.span("fleet_sim.run");

        for hour in 0..steps {
            obs.set_time(step * hour as f64);
            let mut hour_energy = Energy::ZERO;
            // Arrivals.
            {
                let _phase = obs.span("fleet_sim.arrivals");
                let count = arrivals.sample_count(rng);
                jobs_arrived += count;
                for _ in 0..count {
                    let job = self.jobs.sample(rng);
                    let gpu_hours = job.gpu_days() * 24.0;
                    queue.push_back(RunningJob {
                        gpus: job.gpus().min(self.cluster.total_gpus()),
                        total_gpu_hours: gpu_hours,
                        remaining_gpu_hours: gpu_hours,
                        utilization: self.utilization.sample(rng),
                    });
                }
            }
            // Placement (FIFO).
            {
                let _phase = obs.span("fleet_sim.placement");
                while let Some(job) = queue.front() {
                    if job.gpus <= free_gpus {
                        // lint:allow(panic-discipline) loop condition checked front()
                        let job = queue.pop_front().expect("front exists");
                        free_gpus -= job.gpus;
                        running.push(job);
                    } else {
                        break;
                    }
                }
            }
            // Chaos: host crashes roll victims back to their last checkpoint
            // (half an interval of progress lost on average); SDC events
            // re-run a fraction of everything the victim had completed.
            if let Some(c) = chaos {
                let _phase = obs.span("fleet_sim.chaos_recovery");
                if let Some(dist) = &crash_dist {
                    for _ in 0..dist.sample_count(rng) {
                        host_crashes += 1;
                        if running.is_empty() {
                            continue; // the crash hit an idle server
                        }
                        let victim = rng.gen_index(running.len());
                        let job = &mut running[victim];
                        let done = (job.total_gpu_hours - job.remaining_gpu_hours).max(0.0);
                        let rate = job.gpus as f64 * job.utilization.value() * progress_derate;
                        let lost = (0.5 * c.checkpoint.interval.as_hours() * rate).min(done);
                        job.remaining_gpu_hours += lost;
                        recomputed_gpu_hours += lost;
                        obs.event("chaos.crash", &[("lost_gpu_hours", lost.into())]);
                    }
                }
                if let Some(dist) = &sdc_dist {
                    for _ in 0..dist.sample_count(rng) {
                        sdc_events += 1;
                        if running.is_empty() {
                            continue;
                        }
                        let victim = rng.gen_index(running.len());
                        let job = &mut running[victim];
                        let done = (job.total_gpu_hours - job.remaining_gpu_hours).max(0.0);
                        let lost = c.sdc_rerun.value() * done;
                        job.remaining_gpu_hours += lost;
                        recomputed_gpu_hours += lost;
                        obs.event("chaos.sdc", &[("lost_gpu_hours", lost.into())]);
                    }
                }
            }
            // Advance running jobs one hour and integrate energy.
            {
                let _phase = obs.span("fleet_sim.integrate");
                let mut still_running = Vec::with_capacity(running.len());
                for mut job in running.drain(..) {
                    let gpu_hours = job.gpus as f64;
                    let power = per_gpu(self.cluster.sku().power_model(), job.utilization);
                    // Per-GPU share of the server power envelope.
                    hour_energy += power * step * (job.gpus as f64 / gpus_per_server);
                    busy_util_acc += job.utilization.value() * gpu_hours;
                    busy_gpu_hours += gpu_hours;
                    job.remaining_gpu_hours -=
                        gpu_hours * job.utilization.value() * progress_derate;
                    if job.remaining_gpu_hours <= 0.0 {
                        completed += 1;
                        free_gpus += job.gpus;
                    } else {
                        still_running.push(job);
                    }
                }
                running = still_running;
                // Idle servers draw idle power.
                let idle_fraction = free_gpus as f64 / total_gpus;
                let idle_servers = self.cluster.servers() as f64 * idle_fraction;
                hour_energy += self.cluster.sku().power(Fraction::ZERO) * step * idle_servers;
                allocation_acc += 1.0 - idle_fraction;
                it_energy += hour_energy;
                if obs.enabled() {
                    obs.histogram("fleet_hour_energy_kwh")
                        .record(hour_energy.as_kilowatt_hours());
                    obs.gauge("fleet_free_gpus").set(free_gpus as f64);
                }
            }
            // Chaos: the fleet's own metering sees a corrupted view of the
            // hour's mean power; the degraded-but-tolerant reading path
            // accounts it. The simulation keeps integrating the truth.
            if let Some((inj, integ)) = meter.as_mut() {
                let at = step * hour as f64;
                match inj.corrupt(at, step, hour_energy / step) {
                    Some((t, p)) => integ.push_traced(t, Some(p), obs),
                    None => integ.push_traced(at, None, obs),
                };
            }
            if let Some(series) = variable_intensity {
                let facility = account.pue().facility_energy(hour_energy);
                let feed_gap = chaos.is_some_and(|c| {
                    c.intensity_gap > Fraction::ZERO && rng.gen_bool(c.intensity_gap.value())
                });
                if feed_gap {
                    // Feed missing: fall back to the region's static average
                    // intensity; the hour cannot be renewably matched.
                    let co2 = account.location_based(hour_energy);
                    variable_co2 += co2;
                    gap_co2 += co2;
                    intensity_gap_hours += 1;
                    obs.event("fleet_sim.intensity_gap", &[("hour", (hour as u64).into())]);
                } else {
                    variable_co2 += series.at(hour).emissions(facility);
                }
            }
        }

        obs.set_time(step * steps as f64);
        drop(run_span);
        if obs.enabled() {
            obs.counter("fleet_jobs_arrived_total")
                .add(jobs_arrived as f64);
            obs.counter("fleet_jobs_completed_total")
                .add(completed as f64);
            obs.counter("fleet_host_crashes_total")
                .add(host_crashes as f64);
            obs.counter("fleet_sdc_events_total").add(sdc_events as f64);
            obs.counter("fleet_intensity_gap_hours_total")
                .add(intensity_gap_hours as f64);
        }

        // Embodied carbon on a time-share basis: the whole cluster exists for
        // the whole horizon, whoever used it.
        let embodied = self.cluster.total_embodied()
            * (self.horizon / self.cluster.sku().embodied().lifetime());

        let operational_location = if variable_intensity.is_some() {
            variable_co2
        } else {
            account.location_based(it_energy)
        };
        let quality = meter.map(|(inj, mut integ)| {
            integ.merge_faults(&inj.counts());
            let mut q = integ.report();
            q.faults.host_crashes += host_crashes;
            q
        });
        let report = FleetSimReport {
            it_energy,
            operational_location,
            operational_market: account.market_based(it_energy),
            embodied,
            jobs_completed: completed,
            jobs_outstanding: (queue.len() + running.len()) as u64,
            mean_allocation: Fraction::saturating(allocation_acc / steps as f64),
            mean_busy_utilization: if busy_gpu_hours > 0.0 {
                Fraction::saturating(busy_util_acc / busy_gpu_hours)
            } else {
                Fraction::ZERO
            },
            host_crashes,
            sdc_events,
            recomputed_gpu_hours,
            intensity_gap_hours,
            quality,
        };
        (report, gap_co2)
    }

    /// The event-driven run loop behind every entry point: builds a
    /// [`sustain_des::Engine`] whose event train replays the hour-stepped
    /// loop draw for draw (see the module docs for the per-hour event
    /// order), drains it, and rolls the accumulated state up into the same
    /// [`FleetSimReport`] the reference loop produces.
    fn simulate_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        chaos: &ChaosConfig,
        variable_intensity: Option<&IntensitySeries>,
    ) -> FleetSimReport {
        crate::chaos::assert_valid_crash_rate(chaos.crash_rate_per_server_day);
        let step = TimeSpan::from_hours(1.0);
        let steps = self.horizon.as_hours().ceil() as usize;
        // lint:allow(panic-discipline) unreachable: `new` checks this exact λ
        let arrivals = Poisson::new(self.arrivals_per_day / 24.0).expect("positive arrival rate");

        // Chaos machinery — every piece is inert (no scheduled events, no
        // RNG draws, exact ×1.0 derate) under a zero-rate config, so the
        // undisturbed simulation is reproduced bit-for-bit. A zero rate
        // builds no Poisson process.
        let servers = self.cluster.servers() as f64;
        let crash_dist = Poisson::new(chaos.crash_rate_per_server_day * servers / 24.0).ok();
        let sdc_dist = Poisson::new(chaos.sdc_rate_per_server_hour() * servers).ok();
        let meter = (!chaos.telemetry.is_none()).then(|| {
            (
                FaultInjector::new(&chaos.telemetry, "fleet-power").with_obs(&self.obs),
                FaultTolerantIntegrator::new(step, ImputationPolicy::LastObservation),
            )
        });

        let obs = &self.obs;
        obs.set_time(TimeSpan::ZERO);
        let run_span = obs.span("fleet_sim.run");

        let mut state = DesRun {
            sim: self,
            rng,
            series: variable_intensity,
            chaos,
            step,
            steps,
            total_gpus: self.cluster.total_gpus() as f64,
            gpus_per_server: self.cluster.sku().accelerators().max(1) as f64,
            arrivals,
            crash_dist,
            sdc_dist,
            progress_derate: 1.0 / (1.0 + chaos.checkpoint.overhead.value()),
            meter,
            queue: VecDeque::new(),
            running: Vec::new(),
            free_gpus: self.cluster.total_gpus(),
            pending_completions: VecDeque::new(),
            next_completion: 0,
            hour_energy: Energy::ZERO,
            it_energy: Energy::ZERO,
            completed: 0,
            allocation_acc: 0.0,
            busy_util_acc: 0.0,
            busy_gpu_hours: 0.0,
            variable_co2: Co2e::ZERO,
            host_crashes: 0,
            sdc_events: 0,
            recomputed_gpu_hours: 0.0,
            intensity_gap_hours: 0,
            gap_co2: Co2e::ZERO,
            jobs_arrived: 0,
        };

        let mut engine: Engine<'_, DesRun<'_, R>> = Engine::with_obs(obs);
        engine.on(EventKind::JobArrival, des_arrival::<R>);
        engine.on(EventKind::HostCrash, des_host_crash::<R>);
        engine.on(EventKind::SdcDetected, des_sdc::<R>);
        engine.on(EventKind::CheckpointTick, des_checkpoint::<R>);
        engine.on(EventKind::JobCompletion, des_completion::<R>);
        engine.on(EventKind::IntensityTick, des_rollup::<R>);

        // Hour 0's head events; each hour's IntensityTick schedules the
        // next hour, so the queue drains exactly at the horizon.
        engine.schedule_at(0, Event::JobArrival { id: 0 });
        if state.crash_dist.is_some() {
            engine.schedule_at(0, Event::HostCrash { id: 0 });
        }
        if state.sdc_dist.is_some() {
            engine.schedule_at(0, Event::SdcDetected { id: 0 });
        }
        engine.schedule_at(0, Event::CheckpointTick { id: 0 });
        engine.run(&mut state);

        obs.set_time(step * steps as f64);
        drop(run_span);
        if obs.enabled() {
            obs.counter("fleet_jobs_arrived_total")
                .add(state.jobs_arrived as f64);
            obs.counter("fleet_jobs_completed_total")
                .add(state.completed as f64);
            obs.counter("fleet_host_crashes_total")
                .add(state.host_crashes as f64);
            obs.counter("fleet_sdc_events_total")
                .add(state.sdc_events as f64);
            obs.counter("fleet_intensity_gap_hours_total")
                .add(state.intensity_gap_hours as f64);
        }

        // Embodied carbon on a time-share basis: the whole cluster exists for
        // the whole horizon, whoever used it.
        let embodied = self.cluster.total_embodied()
            * (self.horizon / self.cluster.sku().embodied().lifetime());

        let account = self.datacenter.account();
        let (operational_location, operational_market) = match variable_intensity {
            // Feed-gap hours were charged at the static location intensity
            // and cannot be proven renewable-matched: only the rest is.
            Some(_) => (
                state.variable_co2,
                (state.variable_co2 - state.gap_co2)
                    * account.renewable_matching().complement().value()
                    + state.gap_co2,
            ),
            None => (
                account.location_based(state.it_energy),
                account.market_based(state.it_energy),
            ),
        };
        let quality = state.meter.map(|(inj, mut integ)| {
            integ.merge_faults(&inj.counts());
            let mut q = integ.report();
            q.faults.host_crashes += state.host_crashes;
            q
        });
        FleetSimReport {
            it_energy: state.it_energy,
            operational_location,
            operational_market,
            embodied,
            jobs_completed: state.completed,
            jobs_outstanding: (state.queue.len() + state.running.len()) as u64,
            mean_allocation: Fraction::saturating(state.allocation_acc / steps as f64),
            mean_busy_utilization: if state.busy_gpu_hours > 0.0 {
                Fraction::saturating(state.busy_util_acc / state.busy_gpu_hours)
            } else {
                Fraction::ZERO
            },
            host_crashes: state.host_crashes,
            sdc_events: state.sdc_events,
            recomputed_gpu_hours: state.recomputed_gpu_hours,
            intensity_gap_hours: state.intensity_gap_hours,
            quality,
        }
    }
}

/// Shared state threaded through the DES handlers: the simulation config,
/// the caller's RNG (the *only* randomness source — handlers draw from it
/// in a fixed per-hour order so the event train replays the hour-stepped
/// loop exactly), and every accumulator of the retired loop.
struct DesRun<'a, R: Rng + ?Sized> {
    sim: &'a FleetSim,
    rng: &'a mut R,
    series: Option<&'a IntensitySeries>,
    chaos: &'a ChaosConfig,
    step: TimeSpan,
    steps: usize,
    total_gpus: f64,
    gpus_per_server: f64,
    arrivals: Poisson,
    crash_dist: Option<Poisson>,
    sdc_dist: Option<Poisson>,
    progress_derate: f64,
    meter: Option<(FaultInjector, FaultTolerantIntegrator)>,
    queue: VecDeque<RunningJob>,
    running: Vec<RunningJob>,
    free_gpus: u32,
    pending_completions: VecDeque<u32>,
    next_completion: u64,
    hour_energy: Energy,
    it_energy: Energy,
    completed: u64,
    allocation_acc: f64,
    busy_util_acc: f64,
    busy_gpu_hours: f64,
    variable_co2: Co2e,
    host_crashes: u64,
    sdc_events: u64,
    recomputed_gpu_hours: f64,
    intensity_gap_hours: u64,
    gap_co2: Co2e,
    jobs_arrived: u64,
}

/// `JobArrival`: samples the hour's Poisson arrival batch, then places
/// queued jobs FIFO onto free GPUs.
fn des_arrival<R: Rng + ?Sized>(
    state: &mut DesRun<'_, R>,
    _event: Event,
    _timeline: &mut Timeline,
) {
    let obs = state.sim.obs.clone();
    {
        let _phase = obs.span("fleet_sim.arrivals");
        let count = state.arrivals.sample_count(&mut *state.rng);
        state.jobs_arrived += count;
        for _ in 0..count {
            let job = state.sim.jobs.sample(&mut *state.rng);
            let gpu_hours = job.gpu_days() * 24.0;
            let utilization = state.sim.utilization.sample(&mut *state.rng);
            state.queue.push_back(RunningJob {
                gpus: job.gpus().min(state.sim.cluster.total_gpus()),
                total_gpu_hours: gpu_hours,
                remaining_gpu_hours: gpu_hours,
                utilization,
            });
        }
    }
    {
        let _phase = obs.span("fleet_sim.placement");
        while let Some(job) = state.queue.front() {
            if job.gpus <= state.free_gpus {
                // lint:allow(panic-discipline) loop condition checked front()
                let job = state.queue.pop_front().expect("front exists");
                state.free_gpus -= job.gpus;
                state.running.push(job);
            } else {
                break;
            }
        }
    }
}

/// `HostCrash`: crashes roll victims back to their last checkpoint — half
/// an interval of progress lost on average, recomputed as real energy.
fn des_host_crash<R: Rng + ?Sized>(
    state: &mut DesRun<'_, R>,
    _event: Event,
    _timeline: &mut Timeline,
) {
    let obs = state.sim.obs.clone();
    let _phase = obs.span("fleet_sim.chaos_recovery");
    let interval_hours = state.chaos.checkpoint.interval.as_hours();
    let count = match &state.crash_dist {
        Some(dist) => dist.sample_count(&mut *state.rng),
        None => return,
    };
    for _ in 0..count {
        state.host_crashes += 1;
        if state.running.is_empty() {
            continue; // the crash hit an idle server
        }
        let victim = state.rng.gen_index(state.running.len());
        if let Some(job) = state.running.get_mut(victim) {
            let done = (job.total_gpu_hours - job.remaining_gpu_hours).max(0.0);
            let rate = job.gpus as f64 * job.utilization.value() * state.progress_derate;
            let lost = (0.5 * interval_hours * rate).min(done);
            job.remaining_gpu_hours += lost;
            state.recomputed_gpu_hours += lost;
            obs.event("chaos.crash", &[("lost_gpu_hours", lost.into())]);
        }
    }
}

/// `SdcDetected`: silent data corruption re-runs a fraction of everything
/// the victim had completed.
fn des_sdc<R: Rng + ?Sized>(state: &mut DesRun<'_, R>, _event: Event, _timeline: &mut Timeline) {
    let obs = state.sim.obs.clone();
    let _phase = obs.span("fleet_sim.chaos_recovery");
    let rerun = state.chaos.sdc_rerun.value();
    let count = match &state.sdc_dist {
        Some(dist) => dist.sample_count(&mut *state.rng),
        None => return,
    };
    for _ in 0..count {
        state.sdc_events += 1;
        if state.running.is_empty() {
            continue;
        }
        let victim = state.rng.gen_index(state.running.len());
        if let Some(job) = state.running.get_mut(victim) {
            let done = (job.total_gpu_hours - job.remaining_gpu_hours).max(0.0);
            let lost = rerun * done;
            job.remaining_gpu_hours += lost;
            state.recomputed_gpu_hours += lost;
            obs.event("chaos.sdc", &[("lost_gpu_hours", lost.into())]);
        }
    }
}

/// `CheckpointTick`: advances every running job one hour, integrating busy
/// energy and progress; finished jobs become `JobCompletion` events at the
/// same timestamp, and the hour's `IntensityTick` is scheduled after them
/// so the rollup sees the freed GPUs.
fn des_checkpoint<R: Rng + ?Sized>(
    state: &mut DesRun<'_, R>,
    event: Event,
    timeline: &mut Timeline,
) {
    let obs = state.sim.obs.clone();
    let _phase = obs.span("fleet_sim.integrate");
    let step = state.step;
    let mut running = std::mem::take(&mut state.running);
    let mut still_running = Vec::with_capacity(running.len());
    for mut job in running.drain(..) {
        let gpu_hours = job.gpus as f64;
        let power = state.sim.cluster.sku().power_model().power(job.utilization);
        // Per-GPU share of the server power envelope.
        state.hour_energy += power * step * (job.gpus as f64 / state.gpus_per_server);
        state.busy_util_acc += job.utilization.value() * gpu_hours;
        state.busy_gpu_hours += gpu_hours;
        job.remaining_gpu_hours -= gpu_hours * job.utilization.value() * state.progress_derate;
        if job.remaining_gpu_hours <= 0.0 {
            let id = state.next_completion;
            state.next_completion += 1;
            state.pending_completions.push_back(job.gpus);
            timeline.schedule_at(timeline.now(), Event::JobCompletion { id });
        } else {
            still_running.push(job);
        }
    }
    state.running = still_running;
    timeline.schedule_at(timeline.now(), Event::IntensityTick { id: event.id() });
}

/// `JobCompletion`: retires one finished job and returns its GPUs to the
/// free pool. Completions pop in scheduling order (stable seq tie-break),
/// so the FIFO hand-off from [`des_checkpoint`] is exact.
fn des_completion<R: Rng + ?Sized>(
    state: &mut DesRun<'_, R>,
    _event: Event,
    _timeline: &mut Timeline,
) {
    if let Some(gpus) = state.pending_completions.pop_front() {
        state.completed += 1;
        state.free_gpus += gpus;
    }
}

/// `IntensityTick`: the hourly rollup adapter. Adds idle power, folds the
/// hour's energy into the run totals and the carbon accounts (at the
/// hour's feed intensity when one is attached, with chaos feed gaps falling
/// back to the static average), pushes the metered view through the fault
/// injector, and schedules the next hour's head events.
fn des_rollup<R: Rng + ?Sized>(state: &mut DesRun<'_, R>, event: Event, timeline: &mut Timeline) {
    let obs = state.sim.obs.clone();
    let _phase = obs.span("fleet_sim.rollup");
    let step = state.step;
    let hour = event.id() as usize;
    // Idle servers draw idle power.
    let idle_fraction = state.free_gpus as f64 / state.total_gpus;
    let idle_servers = state.sim.cluster.servers() as f64 * idle_fraction;
    state.hour_energy += state.sim.cluster.sku().power(Fraction::ZERO) * step * idle_servers;
    state.allocation_acc += 1.0 - idle_fraction;
    state.it_energy += state.hour_energy;
    if obs.enabled() {
        obs.histogram("fleet_hour_energy_kwh")
            .record(state.hour_energy.as_kilowatt_hours());
        obs.gauge("fleet_free_gpus").set(state.free_gpus as f64);
    }
    // Chaos: the fleet's own metering sees a corrupted view of the hour's
    // mean power; the degraded-but-tolerant reading path accounts it. The
    // simulation keeps integrating the truth.
    let hour_energy = state.hour_energy;
    if let Some((inj, integ)) = state.meter.as_mut() {
        let at = step * hour as f64;
        match inj.corrupt(at, step, hour_energy / step) {
            Some((t, p)) => integ.push_traced(t, Some(p), &obs),
            None => integ.push_traced(at, None, &obs),
        };
    }
    if let Some(series) = state.series {
        let account = state.sim.datacenter.account();
        let facility = account.pue().facility_energy(hour_energy);
        let gap = state.chaos.intensity_gap;
        let feed_gap = gap > Fraction::ZERO && state.rng.gen_bool(gap.value());
        if feed_gap {
            // Feed missing: fall back to the region's static average
            // intensity; the hour cannot be renewably matched.
            let co2 = account.location_based(hour_energy);
            state.variable_co2 += co2;
            state.gap_co2 += co2;
            state.intensity_gap_hours += 1;
            obs.event("fleet_sim.intensity_gap", &[("hour", (hour as u64).into())]);
        } else {
            state.variable_co2 += series.at(hour).emissions(facility);
        }
    }
    state.hour_energy = Energy::ZERO;
    let next = hour + 1;
    if next < state.steps {
        let at = next as u64 * SECS_PER_HOUR;
        timeline.schedule_at(at, Event::JobArrival { id: next as u64 });
        if state.crash_dist.is_some() {
            timeline.schedule_at(at, Event::HostCrash { id: next as u64 });
        }
        if state.sdc_dist.is_some() {
            timeline.schedule_at(at, Event::SdcDetected { id: next as u64 });
        }
        timeline.schedule_at(at, Event::CheckpointTick { id: next as u64 });
    }
}

impl CacheKey for FleetSim {
    fn namespace(&self) -> &'static str {
        "fleet-sim"
    }

    /// Encodes the simulation configuration — cluster, datacenter, job
    /// generator, utilization model, arrival rate, horizon. The obs and
    /// cache handles are deliberately excluded: neither can change a
    /// report (observability never draws from the RNG).
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.write_debug(&self.cluster);
        enc.write_debug(&self.datacenter);
        enc.write_debug(&self.jobs);
        enc.write_debug(&self.utilization);
        enc.write_f64(self.arrivals_per_day);
        enc.write_f64(self.horizon.as_secs());
    }
}

/// Cache key of one Monte Carlo replica: the simulation config, the whole
/// scenario, and the replica's derived seed. Because
/// [`sustain_par::task_seed`] is a pure function of (base seed, replica
/// index), a replica keeps its fingerprint when the batch grows or shrinks
/// around it — shrinking `n` re-serves a strict prefix of the cached batch.
struct ReplicaKey<'a> {
    sim: &'a FleetSim,
    scenario: &'a Scenario,
    seed: u64,
}

impl CacheKey for ReplicaKey<'_> {
    fn namespace(&self) -> &'static str {
        "replica"
    }

    fn encode_key(&self, enc: &mut KeyEncoder) {
        self.sim.encode_key(enc);
        self.scenario.encode_key(enc);
        enc.write_u64(self.seed);
    }
}

/// Replica reports are stored as their `serde` JSON rendering. The shim's
/// float formatting is shortest-roundtrip, so a decoded report is
/// bit-identical to the computed one — required for the `PartialEq`
/// comparisons the differential tests make.
impl CacheValue for FleetSimReport {
    fn to_cache_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .map(String::into_bytes)
            .unwrap_or_default()
    }

    fn from_cache_bytes(bytes: &[u8]) -> Option<FleetSimReport> {
        let text = std::str::from_utf8(bytes).ok()?;
        serde_json::from_str(text).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustain_core::intensity::GridRegion;
    use sustain_core::units::Power;
    use sustain_workload::training::JobClass;

    fn sim(servers: u32, arrivals_per_day: f64, days: f64) -> FleetSim {
        FleetSim::new(
            Cluster::gpu_training(servers),
            DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
            JobGenerator::calibrated(JobClass::Research).unwrap(),
            UtilizationModel::research_cluster(),
            arrivals_per_day,
            TimeSpan::from_days(days),
        )
    }

    #[test]
    #[should_panic(expected = "hourly arrival rate must be finite and positive")]
    fn infinite_arrival_rate_is_rejected_at_construction() {
        sim(10, f64::INFINITY, 10.0);
    }

    #[test]
    #[should_panic(expected = "hourly arrival rate must be finite and positive")]
    fn arrival_rate_underflowing_per_hour_is_rejected_at_construction() {
        // Positive per day, but `1e-323 / 24.0` rounds to 0.0 per hour.
        sim(10, 1e-323, 10.0);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and positive")]
    fn infinite_horizon_is_rejected_at_construction() {
        sim(10, 10.0, f64::INFINITY);
    }

    #[test]
    fn busy_fleet_completes_jobs_and_burns_energy() {
        let mut rng = StdRng::seed_from_u64(1);
        let report = sim(50, 40.0, 30.0).simulate(&Scenario::default(), &mut rng);
        assert!(
            report.jobs_completed > 100,
            "completed {}",
            report.jobs_completed
        );
        assert!(report.it_energy > Energy::ZERO);
        assert!(report.operational_location > Co2e::ZERO);
        // Hyperscale DC fully matches renewables.
        assert!(report.operational_market.is_zero());
    }

    #[test]
    fn embodied_scales_with_horizon() {
        let mut rng = StdRng::seed_from_u64(2);
        let short = sim(10, 10.0, 10.0).simulate(&Scenario::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(2);
        let long = sim(10, 10.0, 40.0).simulate(&Scenario::default(), &mut rng);
        assert!((long.embodied / short.embodied - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_busy_utilization_matches_fig10_band() {
        let mut rng = StdRng::seed_from_u64(3);
        let report = sim(50, 40.0, 30.0).simulate(&Scenario::default(), &mut rng);
        let u = report.mean_busy_utilization.value();
        assert!((0.3..0.5).contains(&u), "mean busy utilization {u}");
    }

    #[test]
    fn overloaded_fleet_builds_backlog() {
        let mut rng = StdRng::seed_from_u64(4);
        // 2 servers (16 GPUs) with 100 jobs/day: hopeless backlog.
        let report = sim(2, 100.0, 10.0).simulate(&Scenario::default(), &mut rng);
        assert!(report.jobs_outstanding > 50);
        assert!(report.mean_allocation.value() > 0.9);
    }

    #[test]
    fn idle_fleet_still_draws_energy() {
        let mut rng = StdRng::seed_from_u64(5);
        // Tiny arrival rate: fleet nearly idle but idle power accrues.
        let report = sim(20, 0.05, 10.0).simulate(&Scenario::default(), &mut rng);
        assert!(report.mean_allocation.value() < 0.3);
        // 20 servers × 420 W idle × 240 h ≈ 2 MWh floor.
        assert!(report.it_energy.as_megawatt_hours() > 1.5);
    }

    #[test]
    fn footprint_combines_bases() {
        let mut rng = StdRng::seed_from_u64(6);
        let report = sim(10, 10.0, 10.0).simulate(&Scenario::default(), &mut rng);
        let loc = report.footprint(AccountingBasis::LocationBased);
        let market = report.footprint(AccountingBasis::MarketBased);
        assert!(loc.total() > market.total());
        assert_eq!(loc.embodied(), market.embodied());
        // With 100% matching, market-based fleet carbon is pure embodied.
        assert!((market.embodied_share().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variable_intensity_accounting_brackets_constant() {
        use crate::scheduler::IntensitySeries;
        use sustain_core::intensity::CarbonIntensity;
        // A flat series must agree exactly with the constant-intensity path;
        // a solar series must land between its min and max hourly intensity.
        let config = sim(10, 10.0, 5.0);
        let flat =
            IntensitySeries::new(vec![
                CarbonIntensity::from_grams_per_kwh(config_intensity_g());
                200
            ]);
        let a = config.simulate(
            &Scenario::default().with_intensity(flat),
            &mut StdRng::seed_from_u64(9),
        );
        let b = sim(10, 10.0, 5.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(9));
        assert!(
            (a.operational_location.as_grams() - b.operational_location.as_grams()).abs()
                < b.operational_location.as_grams() * 1e-9,
            "flat series must match constant accounting"
        );
        // Market basis stays zero under 100% matching.
        assert!(a.operational_market.is_zero());

        let solar = IntensitySeries::solar_day(6);
        let c = sim(10, 10.0, 5.0).simulate(
            &Scenario::default().with_intensity(solar),
            &mut StdRng::seed_from_u64(9),
        );
        let lo = c.it_energy.as_kilowatt_hours() * 1.1 * 100.0;
        let hi = c.it_energy.as_kilowatt_hours() * 1.1 * 600.0;
        let got = c.operational_location.as_grams();
        assert!(
            got > lo && got < hi,
            "solar-accounted CO2 {got} outside [{lo}, {hi}]"
        );
    }

    fn config_intensity_g() -> f64 {
        GridRegion::UsAverage.intensity().as_grams_per_kwh()
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = sim(10, 10.0, 5.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(7));
        let b = sim(10, 10.0, 5.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "crash rate must be non-negative and finite")]
    fn nan_crash_rate_field_is_rejected_before_the_run() {
        let mut chaos = crate::chaos::ChaosConfig::none();
        chaos.crash_rate_per_server_day = f64::NAN;
        sim(10, 10.0, 5.0).simulate(
            &Scenario::default().with_chaos(chaos),
            &mut StdRng::seed_from_u64(7),
        );
    }

    #[test]
    fn chaos_burns_extra_energy_through_recovery() {
        use crate::chaos::ChaosConfig;
        let chaos = ChaosConfig::datacenter_default()
            .with_telemetry(sustain_telemetry::faults::FaultPlan::none())
            .with_crash_rate(0.5)
            .with_wearout(
                crate::lifetime::WearoutModel::fleet_processor(),
                TimeSpan::from_years(8.0),
            );
        let plain =
            sim(20, 20.0, 30.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(11));
        let chaotic = sim(20, 20.0, 30.0).simulate(
            &Scenario::default().with_chaos(chaos),
            &mut StdRng::seed_from_u64(11),
        );
        assert!(
            chaotic.host_crashes > 50,
            "crashes {}",
            chaotic.host_crashes
        );
        assert!(chaotic.sdc_events > 0, "sdc {}", chaotic.sdc_events);
        assert!(chaotic.recomputed_gpu_hours > 0.0);
        // Recovery re-runs + checkpoint overhead leave fewer jobs done.
        assert!(
            chaotic.jobs_completed <= plain.jobs_completed,
            "chaotic {} vs plain {}",
            chaotic.jobs_completed,
            plain.jobs_completed
        );
        assert!(chaotic.quality.is_none(), "telemetry disabled here");
    }

    #[test]
    fn degraded_metering_reports_quality_but_not_truth() {
        use crate::chaos::ChaosConfig;
        use sustain_telemetry::faults::FaultPlan;
        let chaos = ChaosConfig::none()
            .with_telemetry(FaultPlan::degraded().with_seed(3).with_dropout(0.2));
        let report = sim(10, 10.0, 30.0).simulate(
            &Scenario::default().with_chaos(chaos),
            &mut StdRng::seed_from_u64(13),
        );
        let q = report.quality.expect("telemetry plan attaches quality");
        assert!(q.coverage().value() < 1.0, "coverage {}", q.coverage());
        assert!(q.imputed_energy > Energy::ZERO);
        assert!(q.measured_energy > Energy::ZERO);
        // Metered (measured + imputed) is close to, but not exactly, truth.
        let metered = q.accounted_energy();
        let err = ((metered / report.it_energy) - 1.0).abs();
        assert!(err < 0.25, "metering error {err}");
        assert!(err > 0.0, "degraded metering cannot be exact");
        // The chaos-free simulation state (jobs, true energy) is untouched:
        // the injector draws from its own stream.
        let plain =
            sim(10, 10.0, 30.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(13));
        assert_eq!(plain.it_energy, report.it_energy);
        assert_eq!(plain.jobs_completed, report.jobs_completed);
    }

    #[test]
    fn intensity_gaps_degrade_market_accounting() {
        use crate::chaos::ChaosConfig;
        use crate::scheduler::IntensitySeries;
        let series = IntensitySeries::solar_day(6);
        let chaos = ChaosConfig::none().with_intensity_gap(Fraction::saturating(0.3));
        let clean = sim(10, 10.0, 30.0).simulate(
            &Scenario::default().with_intensity(series.clone()),
            &mut StdRng::seed_from_u64(17),
        );
        let gappy = sim(10, 10.0, 30.0).simulate(
            &Scenario::default().with_chaos(chaos).with_intensity(series),
            &mut StdRng::seed_from_u64(17),
        );
        assert_eq!(clean.intensity_gap_hours, 0);
        assert!(
            gappy.intensity_gap_hours > 100,
            "gaps {}",
            gappy.intensity_gap_hours
        );
        // Hyperscale DC fully matches renewables: market is zero with a
        // clean feed, strictly positive once gap hours cannot be proven.
        assert!(clean.operational_market.is_zero());
        assert!(gappy.operational_market > Co2e::ZERO);
    }

    #[test]
    fn chaos_run_is_deterministic() {
        use crate::chaos::ChaosConfig;
        let chaos = Scenario::default().with_chaos(ChaosConfig::datacenter_default());
        let a = sim(10, 10.0, 10.0).simulate(&chaos, &mut StdRng::seed_from_u64(23));
        let b = sim(10, 10.0, 10.0).simulate(&chaos, &mut StdRng::seed_from_u64(23));
        assert_eq!(a, b);
    }

    #[test]
    fn replicas_are_independent_of_thread_count() {
        use sustain_par::ParPool;
        let fleet = sim(10, 10.0, 5.0);
        ParPool::set_threads(1);
        let serial = fleet.simulate_replicas(&Scenario::default(), 6, 29);
        ParPool::set_threads(4);
        let parallel = fleet.simulate_replicas(&Scenario::default(), 6, 29);
        ParPool::set_threads(0);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
        // Distinct seeds must actually vary the outcomes.
        assert!(
            serial.windows(2).any(|pair| pair[0] != pair[1]),
            "replicas all identical — seed derivation is broken"
        );
        // Each replica matches a direct run under its derived seed.
        let direct = fleet.simulate(
            &Scenario::default(),
            &mut StdRng::seed_from_u64(sustain_par::task_seed(29, 2)),
        );
        assert_eq!(serial[2], direct);
    }

    #[test]
    fn replica_summary_reduces_deterministically() {
        use crate::chaos::ChaosConfig;
        let fleet = sim(10, 10.0, 5.0);
        let reports = fleet.simulate_replicas(
            &Scenario::default().with_chaos(ChaosConfig::datacenter_default()),
            4,
            7,
        );
        let summary = ReplicaSummary::from_reports(&reports).expect("non-empty batch");
        assert_eq!(summary.replicas, 4);
        assert!(summary.min_it_energy <= summary.mean_it_energy);
        assert!(summary.mean_it_energy <= summary.max_it_energy);
        assert_eq!(
            summary,
            ReplicaSummary::from_reports(&reports).expect("same batch"),
        );
        assert!(ReplicaSummary::from_reports(&[]).is_none());
    }
}
