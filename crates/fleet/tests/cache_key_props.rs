//! Property tests for the `sustain-cache` key encodings of [`FleetSim`]
//! and [`ChaosConfig`].
//!
//! The fingerprint contract under test: *content-addressed means content*.
//! Two semantically identical configurations share a fingerprint whatever
//! construction order produced them; any single-field perturbation the
//! strategies generate lands on a different fingerprint; and the global
//! `SUSTAIN_THREADS` / `ParPool::set_threads` override — which must never
//! reach any result byte — never reaches a fingerprint either.

use proptest::prelude::*;

use sustain_cache::CacheKey;
use sustain_core::intensity::GridRegion;
use sustain_core::units::{Fraction, Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::disaggregation::CheckpointPolicy;
use sustain_fleet::lifetime::WearoutModel;
use sustain_fleet::sim::FleetSim;
use sustain_fleet::utilization::UtilizationModel;
use sustain_telemetry::faults::FaultPlan;
use sustain_workload::training::{JobClass, JobGenerator};

fn sim(servers: u32, arrivals_per_day: f64, days: f64) -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(servers),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        arrivals_per_day,
        TimeSpan::from_days(days),
    )
}

/// One chaos configuration: struct-update syntax over the chaos-free
/// preset, then the intensity-gap builder.
fn chaos_from_parts(
    crash: f64,
    age_years: f64,
    sdc_rerun: f64,
    gap: f64,
    telemetry_seed: u64,
) -> ChaosConfig {
    ChaosConfig {
        crash_rate_per_server_day: crash,
        wearout: Some(WearoutModel::fleet_processor()),
        fleet_age: TimeSpan::from_years(age_years),
        telemetry: FaultPlan::degraded().with_seed(telemetry_seed),
        checkpoint: CheckpointPolicy {
            interval: TimeSpan::from_hours(6.0),
            overhead: Fraction::saturating(sdc_rerun * 0.1),
        },
        ..ChaosConfig::none()
    }
    .with_intensity_gap(Fraction::saturating(gap))
}

proptest! {
    #[test]
    fn chaos_fingerprint_invariant_under_construction_order(
        crash in 0.0f64..1.0,
        age_years in 0.0f64..10.0,
        sdc_rerun in 0.0f64..0.6,
        gap in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        // Same field values, three construction routes: the gap builder
        // last, the gap builder first, and a struct literal.
        let a = chaos_from_parts(crash, age_years, sdc_rerun, gap, seed);
        let b = ChaosConfig {
            checkpoint: CheckpointPolicy {
                interval: TimeSpan::from_hours(6.0),
                overhead: Fraction::saturating(sdc_rerun * 0.1),
            },
            telemetry: FaultPlan::degraded().with_seed(seed),
            wearout: Some(WearoutModel::fleet_processor()),
            fleet_age: TimeSpan::from_years(age_years),
            crash_rate_per_server_day: crash,
            ..ChaosConfig::none().with_intensity_gap(Fraction::saturating(gap))
        };
        let c = ChaosConfig {
            crash_rate_per_server_day: crash,
            checkpoint: CheckpointPolicy {
                interval: TimeSpan::from_hours(6.0),
                overhead: Fraction::saturating(sdc_rerun * 0.1),
            },
            wearout: Some(WearoutModel::fleet_processor()),
            fleet_age: TimeSpan::from_years(age_years),
            sdc_rerun: a.sdc_rerun,
            intensity_gap: Fraction::saturating(gap),
            telemetry: FaultPlan::degraded().with_seed(seed),
        };
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn chaos_fingerprint_distinct_under_single_field_perturbation(
        crash in 0.0f64..1.0,
        age_years in 0.0f64..10.0,
        sdc_rerun in 0.0f64..0.6,
        gap in 0.0f64..0.5,
        seed in any::<u64>(),
        which in any::<u64>(),
    ) {
        let base = chaos_from_parts(crash, age_years, sdc_rerun, gap, seed);
        let mut bumped = base;
        match which % 7 {
            0 => bumped.crash_rate_per_server_day = crash + 0.25,
            1 => bumped.checkpoint.interval += TimeSpan::from_hours(1.0),
            2 => bumped.wearout = None,
            3 => bumped.fleet_age += TimeSpan::from_years(1.5),
            4 => bumped.sdc_rerun = Fraction::saturating(sdc_rerun * 0.5 + 0.7),
            5 => bumped.intensity_gap = Fraction::saturating(gap + 0.5),
            _ => bumped.telemetry = FaultPlan::degraded().with_seed(seed.wrapping_add(1)),
        }
        prop_assert_ne!(
            base.fingerprint(),
            bumped.fingerprint(),
            "perturbing field class {} must change the fingerprint",
            which % 7
        );
    }

    #[test]
    fn sim_fingerprint_distinct_under_single_field_perturbation(
        servers in 1u32..200,
        arrivals in 0.5f64..100.0,
        days in 0.5f64..60.0,
        which in any::<u64>(),
    ) {
        let base = sim(servers, arrivals, days);
        prop_assert_eq!(base.fingerprint(), sim(servers, arrivals, days).fingerprint());
        let bumped = match which % 3 {
            0 => sim(servers + 1, arrivals, days),
            1 => sim(servers, arrivals + 0.25, days),
            _ => sim(servers, arrivals, days + 0.5),
        };
        prop_assert_ne!(base.fingerprint(), bumped.fingerprint());
    }
}

/// The global thread override is the one piece of ambient state a key
/// computation could plausibly (and must not) observe. Confined to one
/// test fn because the knob is process-global.
#[test]
fn fingerprints_are_stable_across_thread_overrides() {
    use sustain_par::ParPool;
    let fleet = sim(20, 20.0, 30.0);
    let chaos = ChaosConfig::datacenter_default();
    ParPool::set_threads(1);
    let (f1, c1) = (fleet.fingerprint(), chaos.fingerprint());
    ParPool::set_threads(4);
    let (f4, c4) = (fleet.fingerprint(), chaos.fingerprint());
    ParPool::set_threads(0);
    assert_eq!(f1, f4);
    assert_eq!(c1, c4);
}

/// Observability and cache attachments are excluded from the key: a
/// replica's report does not depend on them, so neither may its address.
#[test]
fn obs_and_cache_handles_do_not_reach_the_fingerprint() {
    let plain = sim(10, 10.0, 5.0);
    let fp = plain.fingerprint();
    let obs = sustain_obs::ObsConfig::enabled().build();
    let cache = sustain_cache::Cache::in_memory();
    let dressed = sim(10, 10.0, 5.0).with_obs(&obs).with_cache(&cache);
    assert_eq!(fp, dressed.fingerprint());
}

/// `ChaosConfig::none()` absent vs present must address different entries
/// even though both run the undisturbed simulation: the cache layer keys
/// on configuration, not on behavioral equivalence.
#[test]
fn absent_chaos_and_zero_chaos_have_distinct_namespaced_keys() {
    let none = ChaosConfig::none();
    let default = ChaosConfig::datacenter_default();
    assert_ne!(none.fingerprint(), default.fingerprint());
}
