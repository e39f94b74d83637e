//! The benchmark's own checks: the smoke run emits exactly the metrics
//! `BENCHMARK.json` declares, the percentile helper leaves the right tail,
//! a tampered golden fails an op instead of panicking, and every traced
//! profile conserves self time.

use std::path::Path;
use std::process::Command;

use serde_json::Value;
use sustain_benchmark::compare::entries;
use sustain_benchmark::golden::Golden;
use sustain_benchmark::measure::{RunConfig, THREADS};
use sustain_benchmark::stats;
use sustain_benchmark::workloads::{self, sweep_cache, ALL};

fn smoke_config(golden: Option<Golden>) -> RunConfig {
    sustain_par::ParPool::set_threads(THREADS);
    RunConfig {
        seed: 3,
        seconds: 1.0,
        smoke: true,
        golden,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let benchmark = serde_json::parse(&text).expect("BENCHMARK.json parses");
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Value::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on a smoke run's result line.
fn smoke_run(workload: &str, trace: &str) -> Vec<(String, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        output.status.success(),
        "{workload} exited {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let result = serde_json::parse(stdout.lines().last().expect("a result line")).expect("json");
    let keys: Vec<&str> = entries(Some(&result))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {stdout}"
    );
    entries(result.get("metrics"))
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} {name} = {value:?}"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    for workload in ALL {
        assert_eq!(
            smoke_run(workload.name, "0"),
            end_to_end,
            "{}",
            workload.name
        );
    }
    let mut per_layer = declared("per_layer");
    let mut traced = smoke_run(ALL[0].name, "1");
    per_layer.sort();
    traced.sort();
    assert_eq!(traced, per_layer);
}

#[test]
fn p90_of_a_hundred_samples_leaves_ten_above() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let p90 = stats::percentile(&samples, 0.9);
    assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
    assert_eq!(stats::median(&samples), 50.5);
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&ten), [2.75, 5.5, 8.25]);
}

#[test]
fn tampered_golden_counts_as_a_failed_op() {
    let committed = Golden::load(&Golden::committed_dir()).expect("committed golden");
    let mut tampered = committed.clone();
    tampered.insert(sweep_cache::NAME, 0xdead_beef);

    let sweep = workloads::find(sweep_cache::NAME).expect("sweep_cache workload");
    let honest = sweep.measure(&smoke_config(Some(committed)));
    assert_eq!(honest.tally.failed, 0);
    let outcome = sweep.measure(&smoke_config(Some(tampered)));
    assert_eq!(outcome.tally.failed, 1, "only the golden op fails");
    assert_eq!(outcome.tally.attempted, honest.tally.attempted);
    let op_p90 = outcome.metrics.iter().find(|m| m.name == "op_p90_ms");
    assert!(op_p90.is_some_and(|m| m.value > 0.0), "the run carries on");
}

#[test]
fn every_traced_profile_conserves_self_time() {
    let outcome = workloads::profile_all(&smoke_config(None));
    // Each workload's profile counts a failed op unless its self times
    // sum to its root totals.
    assert_eq!(outcome.tally.failed, 0);
    for metric in &outcome.metrics {
        if metric.name.ends_with("prof.attributed_share") {
            assert!(
                metric.value > 0.0 && metric.value <= 1.0,
                "{} = {}",
                metric.name,
                metric.value
            );
        }
    }
}
