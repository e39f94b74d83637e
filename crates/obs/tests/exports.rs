//! Exporter integration tests: the Chrome trace parses as JSON with the
//! trace-event shape, the JSONL log is one JSON object per line, and the
//! Prometheus exposition round-trips through a tiny text-format parser.

use sustain_obs::{Obs, ObsConfig};

/// A small recording touching every exporter feature: nested spans, an
/// instant event with attributes, and all three instrument kinds.
fn sample_recording() -> Obs {
    let obs = ObsConfig::enabled().build();
    {
        let _outer = obs.span("test.outer");
        obs.add_work(1);
        {
            let _inner = obs.span("test.inner");
            obs.event(
                "test.tick",
                &[("step", 3u64.into()), ("label", "unit \"x\"".into())],
            );
            obs.add_work(2);
        }
        obs.add_work(1);
    }
    obs.counter("test_ticks_total").add(3.0);
    obs.gauge("test_level").set(-2.5);
    let h = obs.histogram("test_latency_seconds");
    for s in [0.002, 0.004, 0.004, 1.5] {
        h.record(s);
    }
    obs
}

#[test]
fn chrome_trace_parses_and_has_trace_event_shape() {
    let obs = sample_recording();
    let trace = serde_json::parse(&obs.export_chrome_trace()).expect("trace must be valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // Two complete spans + one instant event.
    assert_eq!(events.len(), 3);
    let mut phases = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
        phases.push(ph.to_string());
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
        if ph == "X" {
            assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
        }
    }
    phases.sort();
    assert_eq!(phases, ["X", "X", "i"]);
    // The inner span's parent is the outer span's id.
    let inner = events
        .iter()
        .find(|ev| ev.get("name").and_then(|v| v.as_str()) == Some("test.inner"))
        .expect("inner span present");
    let args = inner.get("args").expect("args");
    assert_eq!(args.get("parent").and_then(|v| v.as_f64()), Some(0.0));
}

#[test]
fn jsonl_is_one_json_object_per_line() {
    let obs = sample_recording();
    let jsonl = obs.export_jsonl();
    let mut types = Vec::new();
    for line in jsonl.lines() {
        let v = serde_json::parse(line).expect("every JSONL line must parse");
        types.push(
            v.get("type")
                .and_then(|t| t.as_str())
                .expect("type field")
                .to_string(),
        );
    }
    assert_eq!(types, ["event", "span", "span"]);
}

// ---------------------------------------------------------------------------
// A tiny Prometheus text-format parser: enough of the exposition grammar to
// prove the export is machine-readable, not just string-shaped.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses `# TYPE` metadata and samples; panics (it's a test) on any line
/// that fits neither production.
fn parse_prometheus(text: &str) -> (Vec<(String, String)>, Vec<PromSample>) {
    let mut types = Vec::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{kind}");
            types.push((name.to_string(), kind.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let value: f64 = value.parse().expect("sample value must parse as f64");
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("unterminated label set");
                let labels = body
                    .split(',')
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').expect("label k=v");
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .expect("label value must be quoted");
                        (k.to_string(), v.to_string())
                    })
                    .collect();
                (name.to_string(), labels)
            }
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    (types, samples)
}

#[test]
fn prometheus_round_trips_through_text_parser() {
    let obs = sample_recording();
    let text = obs.export_prometheus();
    let (types, samples) = parse_prometheus(&text);

    assert_eq!(
        types,
        [
            ("test_latency_seconds".to_string(), "histogram".to_string()),
            ("test_level".to_string(), "gauge".to_string()),
            ("test_ticks_total".to_string(), "counter".to_string()),
        ],
        "instruments must export in name order with correct kinds"
    );

    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(find("test_ticks_total").value, 3.0);
    assert_eq!(find("test_level").value, -2.5);
    assert_eq!(find("test_latency_seconds_count").value, 4.0);
    assert!((find("test_latency_seconds_sum").value - 1.51).abs() < 1e-12);

    // Histogram buckets are cumulative, non-decreasing, and end at +Inf
    // with the total count.
    let buckets: Vec<&PromSample> = samples
        .iter()
        .filter(|s| s.name == "test_latency_seconds_bucket")
        .collect();
    assert!(buckets.len() > 2);
    for pair in buckets.windows(2) {
        assert!(pair[1].value >= pair[0].value, "buckets must be cumulative");
    }
    let last = buckets.last().expect("has buckets");
    assert_eq!(last.labels, [("le".to_string(), "+Inf".to_string())]);
    assert_eq!(last.value, 4.0);

    // The `le` edges parse as floats and strictly increase.
    let mut prev = f64::NEG_INFINITY;
    for b in &buckets[..buckets.len() - 1] {
        let le: f64 = b.labels[0].1.parse().expect("le edge parses");
        assert!(le > prev, "le edges must increase");
        prev = le;
    }
}

#[test]
fn exports_are_deterministic_across_identical_recordings() {
    let a = sample_recording();
    let b = sample_recording();
    assert_eq!(a.export_jsonl(), b.export_jsonl());
    assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
    assert_eq!(a.export_prometheus(), b.export_prometheus());
}
