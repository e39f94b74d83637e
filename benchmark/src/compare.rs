//! `benchmark compare A.json B.json`: judges two sets of `--all` runs
//! against the bounds in `BENCHMARK.json`.
//!
//! For every workload and end-to-end metric it prints each side's median
//! and quartiles, B's change against A as a share of A's median, the bound,
//! and a verdict. A metric whose run-to-run spread (interquartile distance
//! over median, on either side) is wider than its bound is `unresolved`
//! unless every B run reads better than every A run. Per-layer metrics
//! that are deterministic for a seed must be identical on both sides.

use std::fmt::Write as _;

use serde_json::Value;

use crate::stats;

/// One end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than the bound.
    Better,
    /// B is worse by more than the bound.
    Worse,
    /// B is within the bound of A.
    Unchanged,
    /// The runs spread wider than the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B's change against A, positive when worse, as a share of A's median.
pub fn worse_by(spec: &Spec, a: &[f64], b: &[f64]) -> f64 {
    let change = (stats::median(b) - stats::median(a)) / stats::median(a).abs();
    if spec.lower_is_better {
        change
    } else {
        -change
    }
}

/// Judges B's runs against A's runs of one metric.
pub fn judge(spec: &Spec, a: &[f64], b: &[f64]) -> Verdict {
    let spread = stats::spread(a).max(stats::spread(b));
    let worse = worse_by(spec, a, b);
    let better_than = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
    // A NaN spread (too few runs) is never within the bound.
    if spread.is_nan() || spread > spec.bound {
        let all_better = b.iter().all(|&x| a.iter().all(|&y| better_than(x, y)));
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > spec.bound {
        Verdict::Worse
    } else if worse < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The end-to-end specs of a parsed `BENCHMARK.json`.
pub fn specs(benchmark: &Value) -> Result<Vec<Spec>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            Ok(Spec {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The object entries of `value` (empty for a non-object).
pub fn entries(value: Option<&Value>) -> &[(String, Value)] {
    match value {
        Some(Value::Object(entries)) => entries,
        _ => &[],
    }
}

/// Every run's value of `metric` for `workload` in a results file.
fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compares two results files; returns the report and whether B passes
/// (no `worse`, no `unresolved`, deterministic metrics identical).
pub fn compare(specs: &[Spec], a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for (workload, _) in entries(a.get("workloads")) {
        for spec in specs {
            let (va, vb) = (
                values(a, workload, &spec.name),
                values(b, workload, &spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{workload:<14} {:<12} missing", spec.name);
                pass = false;
                continue;
            }
            let verdict = judge(spec, &va, &vb);
            pass &= !matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            let quartiles = |v: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(v);
                format!("{q2:.4e} [{q1:.4e}, {q3:.4e}]")
            };
            let _ = writeln!(
                out,
                "{workload:<14} {:<12} {:>32} {:>32} {:>+7.2}% {:>5.1}%  {}",
                spec.name,
                quartiles(&va),
                quartiles(&vb),
                worse_by(spec, &va, &vb) * 100.0,
                spec.bound * 100.0,
                verdict.label()
            );
        }
    }
    let traced_b = b.get("traced").and_then(|t| t.get("metrics"));
    for (name, metric) in entries(a.get("traced").and_then(|t| t.get("metrics"))) {
        if metric.get("exact") != Some(&Value::Bool(true)) {
            continue;
        }
        let value = |m: Option<&Value>| m.and_then(|m| m.get("value")).and_then(Value::as_f64);
        let (va, vb) = (
            value(Some(metric)),
            value(traced_b.and_then(|t| t.get(name))),
        );
        let same = va.is_some() && va == vb;
        pass &= same;
        let _ = writeln!(
            out,
            "traced {name} {:?} vs {:?}: {}",
            va,
            vb,
            if same { "identical" } else { "differs" }
        );
    }
    (out, pass)
}
