//! Parallel-execution determinism suite: the `sustain-par` contract says
//! thread count is a pure wall-time knob — figure bytes, Monte Carlo
//! replica reports, and (worker-attribute aside) observability exports are
//! identical at `--threads 1`, `--threads 4`, and the machine default.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustain_bench::figs;
use sustainai::core::intensity::GridRegion;
use sustainai::core::units::{Power, TimeSpan};
use sustainai::fleet::cluster::Cluster;
use sustainai::fleet::datacenter::DataCenter;
use sustainai::fleet::sim::{FleetSim, ReplicaSummary, Scenario};
use sustainai::fleet::utilization::UtilizationModel;
use sustainai::obs::ObsConfig;
use sustainai::par::{task_seed, ParPool};
use sustainai::workload::training::{JobClass, JobGenerator};

const SEED_A: u64 = 0xC0F_FEE;
const SEED_B: u64 = 41;

/// The exact bytes `all_figures` writes to stdout, generated on `pool`.
fn render(pool: &ParPool) -> String {
    figs::all_with_pool(pool)
        .iter()
        .map(|table| format!("{table}\n"))
        .collect()
}

fn sim() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(8),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(5.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        8.0,
        TimeSpan::from_days(7.0),
    )
}

/// Masks the one sanctioned scheduling artifact — the `worker` attribute on
/// `par.task` events — so JSONL exports can be compared across thread
/// counts byte-for-byte.
fn mask_workers(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    let mut rest = jsonl;
    while let Some(at) = rest.find("\"worker\":") {
        let value_start = at + "\"worker\":".len();
        out.push_str(&rest[..value_start]);
        out.push('0');
        rest = rest[value_start..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn figure_fan_out_is_byte_identical_across_thread_counts() {
    let serial = render(&ParPool::new(1));
    assert!(!serial.is_empty());
    for threads in [2, 4] {
        assert_eq!(
            serial,
            render(&ParPool::new(threads)),
            "figure bytes drifted at {threads} threads"
        );
    }
    // The machine default (whatever `available_parallelism` reports here)
    // must also reproduce the checked-in golden output.
    assert_eq!(serial, render(&ParPool::current()));
    let golden =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/figures_output.txt"))
            .expect("figures_output.txt at the workspace root");
    assert_eq!(
        serial, golden,
        "fan-out output drifted from figures_output.txt"
    );
}

/// The global knobs (`ParPool::set_threads`, the installed obs handle) live
/// in one test so parallel test threads never race on them.
#[test]
fn thread_count_never_leaks_into_recordings_or_replicas() {
    // (a) Observability: fork/adopt keeps the merged event log identical
    // across thread counts once the `worker` attribute is masked, and the
    // figure counter lands in the parent registry exactly once per table.
    let record = |threads: usize| {
        let obs = ObsConfig::enabled().build();
        let tables =
            sustainai::obs::with_task_handle(&obs, || figs::all_with_pool(&ParPool::new(threads)));
        assert!(!tables.is_empty());
        (
            mask_workers(&obs.export_jsonl()),
            obs.counter("figures_generated_total").value(),
        )
    };
    let (serial_log, serial_count) = record(1);
    let (parallel_log, parallel_count) = record(4);
    assert!(serial_count > 0.0, "traced figures must bump the counter");
    assert_eq!(serial_count, parallel_count);
    assert_eq!(
        serial_log, parallel_log,
        "worker-masked JSONL must not depend on thread count"
    );

    // (b) Monte Carlo replicas: `--threads` (via the process-wide override)
    // never changes replica reports, per-replica seeds, or the reduction.
    let fleet = sim();
    for base_seed in [SEED_A, SEED_B] {
        ParPool::set_threads(1);
        let serial = fleet.simulate_replicas(&Scenario::default(), 5, base_seed);
        ParPool::set_threads(4);
        let parallel = fleet.simulate_replicas(&Scenario::default(), 5, base_seed);
        ParPool::set_threads(0);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));

        // Any single replica is reproducible in isolation from its derived
        // seed — scheduling cannot have touched the RNG streams.
        let direct = fleet.simulate(
            &Scenario::default(),
            &mut StdRng::seed_from_u64(task_seed(base_seed, 3)),
        );
        assert_eq!(format!("{:?}", serial[3]), format!("{direct:?}"));

        let reduced = ReplicaSummary::from_reports(&serial).expect("non-empty batch");
        let reduced_parallel = ReplicaSummary::from_reports(&parallel).expect("non-empty batch");
        assert_eq!(format!("{reduced:?}"), format!("{reduced_parallel:?}"));
        assert_eq!(reduced.replicas, 5);
    }
}

#[test]
fn pool_joins_in_submission_order_and_surfaces_the_lowest_panic() {
    // Submission-order join even when completion order differs.
    let pool = ParPool::new(4);
    let out = pool.map_indexed((0..48usize).collect(), |index, value| {
        assert_eq!(index, value);
        let mut acc = value as u64;
        for _ in 0..(48 - index) * 500 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        (index, acc % 2 < 2)
    });
    assert_eq!(out.len(), 48);
    assert!(out.iter().enumerate().all(|(i, (index, _))| *index == i));

    // Panic propagation carries the lowest panicking task index.
    let caught = std::panic::catch_unwind(|| {
        ParPool::new(3).map_indexed((0..16usize).collect(), |index, value| {
            assert!(index < 9, "boom at {index}");
            value
        })
    })
    .expect_err("batch must fail");
    let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(message.contains("task 9"), "got {message:?}");

    // Edge cases: empty input, zero threads.
    let empty: Vec<usize> = ParPool::new(4).map_indexed(Vec::new(), |_, v| v);
    assert!(empty.is_empty());
    assert_eq!(ParPool::new(0).threads(), 1);
    let seeded = ParPool::new(0).map_seeded(4, SEED_B, |_, seed| seed);
    assert_eq!(
        seeded,
        (0..4).map(|i| task_seed(SEED_B, i)).collect::<Vec<_>>()
    );
}
