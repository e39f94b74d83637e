//! Differential tests for cached Monte Carlo replicas and the
//! `ReplicaSummary` / `simulate_replicas` edge cases.
//!
//! The contract: attaching a [`Cache`] to a [`FleetSim`] must be
//! *invisible* in every report — cached and uncached batches compare equal
//! with `PartialEq` (exact f64 equality), at any thread count, across
//! handle reuse, and under chaos. Replica keys derive from (config,
//! scenario, per-index seed), so shrinking a batch re-serves a strict prefix
//! and growing one only computes the new tail.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustain_cache::Cache;
use sustain_core::intensity::GridRegion;
use sustain_core::units::{Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::scheduler::IntensitySeries;
use sustain_fleet::sim::{FleetSim, ReplicaSummary, Scenario};
use sustain_fleet::utilization::UtilizationModel;
use sustain_workload::training::{JobClass, JobGenerator};

fn sim() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(4),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        8.0,
        TimeSpan::from_days(2.0),
    )
}

#[test]
fn zero_replicas_is_empty_everywhere() {
    let cache = Cache::in_memory();
    let reports = sim().simulate_replicas(&Scenario::default(), 0, 17);
    assert!(reports.is_empty());
    let cached = sim()
        .with_cache(&cache)
        .simulate_replicas(&Scenario::default(), 0, 17);
    assert!(cached.is_empty());
    assert_eq!((cache.hits(), cache.misses()), (0, 0));
    assert!(ReplicaSummary::from_reports(&reports).is_none());
}

#[test]
fn single_replica_matches_direct_run_and_hits_when_warm() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let cold = fleet.simulate_replicas(&Scenario::default(), 1, 23);
    assert_eq!(cold.len(), 1);
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    // The cached single replica equals a direct, cache-free run under the
    // derived seed.
    let direct = sim().simulate(
        &Scenario::default(),
        &mut StdRng::seed_from_u64(sustain_par::task_seed(23, 0)),
    );
    assert_eq!(cold[0], direct);

    let warm = fleet.simulate_replicas(&Scenario::default(), 1, 23);
    assert_eq!(warm, cold);
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    let summary = ReplicaSummary::from_reports(&warm).expect("one replica");
    assert_eq!(summary.replicas, 1);
    assert_eq!(summary.min_it_energy, summary.max_it_energy);
    assert_eq!(summary.mean_it_energy, warm[0].it_energy);
}

#[test]
fn shrinking_a_cached_batch_serves_a_strict_prefix() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let six = fleet.simulate_replicas(&Scenario::default(), 6, 29);
    assert_eq!((cache.hits(), cache.misses()), (0, 6));

    let four = fleet.simulate_replicas(&Scenario::default(), 4, 29);
    assert_eq!(four.as_slice(), &six[..4], "shrunk batch must be a prefix");
    assert_eq!(
        (cache.hits(), cache.misses()),
        (4, 6),
        "every replica of the smaller batch must be served from cache"
    );
}

#[test]
fn growing_a_cached_batch_computes_only_the_tail() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let four = fleet.simulate_replicas(&Scenario::default(), 4, 31);
    assert_eq!((cache.hits(), cache.misses()), (0, 4));

    let seven = fleet.simulate_replicas(&Scenario::default(), 7, 31);
    assert_eq!(&seven[..4], four.as_slice());
    assert_eq!(
        (cache.hits(), cache.misses()),
        (4, 7),
        "growing 4 -> 7 must hit the cached prefix and compute 3 new replicas"
    );
    // The uncached batch agrees exactly.
    assert_eq!(seven, sim().simulate_replicas(&Scenario::default(), 7, 31));
}

#[test]
fn cached_batches_are_thread_count_independent() {
    use sustain_par::ParPool;
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    ParPool::set_threads(1);
    let serial = fleet.simulate_replicas(&Scenario::default(), 5, 37);
    ParPool::set_threads(4);
    let parallel = fleet.simulate_replicas(&Scenario::default(), 5, 37);
    ParPool::set_threads(0);
    assert_eq!(serial, parallel);
    assert_eq!(
        (cache.hits(), cache.misses()),
        (5, 5),
        "the 4-thread run must be served entirely from the 1-thread run's entries"
    );
}

#[test]
fn chaos_batches_cache_by_config() {
    let cache = Cache::in_memory();
    let fleet = sim().with_cache(&cache);
    let chaos = Scenario::default().with_chaos(ChaosConfig::datacenter_default());
    let a = fleet.simulate_replicas(&chaos, 3, 41);
    assert_eq!((cache.hits(), cache.misses()), (0, 3));

    // Same chaos config: all hits, equal to the uncached batch.
    let b = fleet.simulate_replicas(&chaos, 3, 41);
    assert_eq!(a, b);
    assert_eq!(a, sim().simulate_replicas(&chaos, 3, 41));
    assert_eq!((cache.hits(), cache.misses()), (3, 3));

    // No chaos at all under the same seeds: different keys, no stale
    // cross-service from the chaos entries.
    let plain = fleet.simulate_replicas(&Scenario::default(), 3, 41);
    assert_eq!((cache.hits(), cache.misses()), (3, 6));
    assert_eq!(plain, sim().simulate_replicas(&Scenario::default(), 3, 41));

    // Zero-rate chaos is the default scenario, so it is served from the
    // plain batch's entries.
    let zero = fleet.simulate_replicas(&Scenario::default().with_chaos(ChaosConfig::none()), 3, 41);
    assert_eq!((cache.hits(), cache.misses()), (6, 6));
    assert_eq!(zero, plain, "ChaosConfig::none() must reproduce plain runs");

    // An intensity feed is part of the scenario: its own entries again.
    let solar = Scenario::default().with_intensity(IntensitySeries::solar_day(2));
    let fed = fleet.simulate_replicas(&solar, 3, 41);
    assert_eq!((cache.hits(), cache.misses()), (6, 9));
    assert_eq!(fed, sim().simulate_replicas(&solar, 3, 41));
    assert_ne!(fed, plain, "the feed must change the accounting");
}

#[test]
fn disk_cached_replicas_round_trip_exactly() {
    let dir = std::env::temp_dir().join(format!("sustain-replica-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Cache::at_dir(&dir).expect("cache dir");
    let cold = sim()
        .with_cache(&cold_cache)
        .simulate_replicas(&Scenario::default(), 3, 43);
    assert_eq!((cold_cache.hits(), cold_cache.misses()), (0, 3));

    // A fresh handle on the same directory sees only the disk layer, so
    // equality here proves the serde round-trip is exact (PartialEq over
    // every f64 field).
    let warm_cache = Cache::at_dir(&dir).expect("cache dir");
    let warm = sim()
        .with_cache(&warm_cache)
        .simulate_replicas(&Scenario::default(), 3, 43);
    assert_eq!(warm, cold);
    assert_eq!((warm_cache.hits(), warm_cache.misses()), (3, 0));

    let summary_cold = ReplicaSummary::from_reports(&cold).expect("non-empty");
    let summary_warm = ReplicaSummary::from_reports(&warm).expect("non-empty");
    assert_eq!(summary_cold, summary_warm);
    let _ = std::fs::remove_dir_all(&dir);
}
