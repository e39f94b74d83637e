//! Deterministic exporters over one recording.
//!
//! All three renderers are hand-rolled writers (no serializer dependency)
//! so the byte layout is fully under this crate's control: records are
//! walked in completion order, instruments in registry (name) order, and
//! floats are printed with Rust's shortest-round-trip `{:?}` formatting.
//! Two identical recordings therefore export identical bytes — the property
//! the determinism suite pins down.
//!
//! * [`Obs::export_jsonl`] — one JSON object per line, `type` is `"span"`
//!   or `"event"`; the machine-readable event log.
//! * [`Obs::export_chrome_trace`] — Chrome trace-event JSON (`ph: "X"`
//!   complete spans, `ph: "i"` instants), loadable in Perfetto or
//!   `chrome://tracing`; timestamps in integer microseconds.
//! * [`Obs::export_prometheus`] — Prometheus text exposition v0.0.4:
//!   `# TYPE` headers, cumulative `_bucket{le="…"}` histogram lines,
//!   `_sum` / `_count`.

use std::fmt::Write as _;

use crate::metrics::{Histogram, InstrumentView};
use crate::recorder::{AttrValue, EventRecord, Obs};

/// Shortest-round-trip float rendering (`{:?}`), the workspace convention
/// for deterministic float text.
fn fmt_f64(value: f64) -> String {
    format!("{value:?}")
}

/// Escapes a string for a JSON value position.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape_json(key));
        match value {
            AttrValue::F64(v) => out.push_str(&fmt_f64(*v)),
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(v) => {
                let _ = write!(out, "\"{}\"", escape_json(v));
            }
        }
    }
    out.push('}');
}

/// Microseconds on the trace timeline (Chrome trace convention), rounded
/// to an integer so the text form is stable.
fn micros(t: sustain_core::units::TimeSpan) -> u64 {
    (t.as_secs() * 1e6).round().max(0.0) as u64
}

impl Obs {
    /// Renders the recording as a JSONL event log, one record per line in
    /// completion order.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.events() {
            match record {
                EventRecord::Span {
                    id,
                    parent,
                    name,
                    start,
                    end,
                } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"span\",\"id\":{id},\"parent\":{},\"name\":\"{}\",\
                         \"start_s\":{},\"end_s\":{}}}",
                        parent.map_or("null".to_string(), |p| p.to_string()),
                        escape_json(name),
                        fmt_f64(start.as_secs()),
                        fmt_f64(end.as_secs()),
                    );
                }
                EventRecord::Instant {
                    parent,
                    name,
                    at,
                    attrs,
                } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"event\",\"parent\":{},\"name\":\"{}\",\"t_s\":{},\"attrs\":",
                        parent.map_or("null".to_string(), |p| p.to_string()),
                        escape_json(name),
                        fmt_f64(at.as_secs()),
                    );
                    write_attrs(&mut out, &attrs);
                    out.push('}');
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the recording as Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing` loadable).
    pub fn export_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, record) in self.events().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            match record {
                EventRecord::Span {
                    id,
                    parent,
                    name,
                    start,
                    end,
                } => {
                    let dur = micros(end).saturating_sub(micros(start));
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\
                         \"dur\":{dur},\"args\":{{\"id\":{id},\"parent\":{}}}}}",
                        escape_json(name),
                        micros(start),
                        parent.map_or("null".to_string(), |p| p.to_string()),
                    );
                }
                EventRecord::Instant {
                    parent,
                    name,
                    at,
                    attrs,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":{},\
                         \"s\":\"t\",\"args\":{{\"parent\":{},\"attrs\":",
                        escape_json(name),
                        micros(at),
                        parent.map_or("null".to_string(), |p| p.to_string()),
                    );
                    write_attrs(&mut out, &attrs);
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the metrics registry as a Prometheus text exposition
    /// (version 0.0.4), instruments in name order.
    pub fn export_prometheus(&self) -> String {
        let mut out = String::new();
        self.registry().visit(|name, view| match view {
            InstrumentView::Counter(value) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", fmt_f64(value));
            }
            InstrumentView::Gauge(value) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", fmt_f64(value));
            }
            InstrumentView::Histogram(hist) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                write_histogram(&mut out, name, hist);
            }
        });
        out
    }
}

fn write_histogram(out: &mut String, name: &str, hist: &Histogram) {
    let mut cumulative = 0u64;
    for (upper, count) in hist.buckets() {
        cumulative += count;
        let le = if upper.is_finite() {
            fmt_f64(upper)
        } else {
            "+Inf".to_string()
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_sum {}", fmt_f64(hist.sum()));
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ObsConfig;

    fn sample_recording() -> Obs {
        let obs = ObsConfig::enabled().build();
        {
            let _run = obs.span("demo.run");
            obs.add_work(1);
            obs.event(
                "demo.fault",
                &[("kind", "dropout".into()), ("count", 2u64.into())],
            );
            obs.counter("demo_iterations_total").add(3.0);
            obs.gauge("demo_free_gpus").set(7.0);
            obs.histogram("demo_hour_energy_kwh").record(0.25);
            obs.add_work(1);
        }
        obs
    }

    #[test]
    fn jsonl_has_one_record_per_line() {
        let jsonl = sample_recording().export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"name\":\"demo.run\""));
        assert!(lines[1].contains("\"end_s\":2.0"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let trace = sample_recording().export_chrome_trace();
        let value = serde_json::parse(&trace).expect("trace must parse as JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("one complete event");
        assert_eq!(span.get("name").and_then(|n| n.as_str()), Some("demo.run"));
        assert_eq!(span.get("dur").and_then(|d| d.as_f64()), Some(2_000_000.0));
    }

    #[test]
    fn prometheus_exposition_has_types_and_buckets() {
        let prom = sample_recording().export_prometheus();
        assert!(prom.contains("# TYPE demo_iterations_total counter"));
        assert!(prom.contains("demo_iterations_total 3.0"));
        assert!(prom.contains("# TYPE demo_free_gpus gauge"));
        assert!(prom.contains("# TYPE demo_hour_energy_kwh histogram"));
        assert!(prom.contains("demo_hour_energy_kwh_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("demo_hour_energy_kwh_count 1"));
    }

    #[test]
    fn exports_are_deterministic_for_identical_recordings() {
        let a = sample_recording();
        let b = sample_recording();
        assert_eq!(a.export_jsonl(), b.export_jsonl());
        assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
        assert_eq!(a.export_prometheus(), b.export_prometheus());
    }

    #[test]
    fn disabled_recording_exports_empty() {
        let obs = Obs::disabled();
        assert!(obs.export_jsonl().is_empty());
        assert!(obs.export_prometheus().is_empty());
        let trace = obs.export_chrome_trace();
        let value = serde_json::parse(&trace).expect("still valid JSON");
        assert_eq!(
            value
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(0)
        );
    }

    #[test]
    fn json_escaping_is_applied() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
