//! Deterministic top-k hotspot report.
//!
//! The report is a pure function of a [`Profile`]: fixed column layout,
//! fixed-precision duration formatting, hotspots ranked by self time with
//! name-order tie-breaks — two identical recordings render byte-identical
//! reports, so `profile.txt` can sit next to `figures_output.txt` under
//! the same drift checks.

use std::fmt::Write as _;

use sustain_core::units::TimeSpan;

use crate::profile::Profile;

/// Renders the profile as a text report: a header (span count, total,
/// conservation status), the top `top_k` hotspots by self time, and the
/// critical path.
pub fn render(profile: &Profile, top_k: usize) -> String {
    let mut out = String::new();
    let root = profile.root_total();
    let _ = writeln!(out, "# profile");
    let _ = writeln!(
        out,
        "spans: {}  names: {}  root total: {}",
        profile.span_count(),
        profile.by_name().len(),
        fmt_span(root),
    );
    if profile.conserves() {
        let _ = writeln!(out, "conservation: ok (sum of self times == root total)");
    } else {
        let _ = writeln!(
            out,
            "conservation: VIOLATED (self {} vs root {}, {} clamped spans)",
            fmt_span(profile.self_total()),
            fmt_span(root),
            profile.clamped_spans(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<40} {:>8} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "span", "calls", "self", "self%", "total", "min", "median", "max",
    );
    for (name, stats) in profile.hotspots().into_iter().take(top_k) {
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12}",
            name,
            stats.calls,
            fmt_span(stats.self_time),
            fmt_pct(stats.self_time, root),
            fmt_span(stats.total),
            fmt_span(stats.min),
            fmt_span(stats.median),
            fmt_span(stats.max),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "critical path (heaviest child at each depth):");
    for (depth, step) in profile.critical_path().iter().enumerate() {
        let _ = writeln!(
            out,
            "{}{} total {} self {}",
            "  ".repeat(depth + 1),
            step.name,
            fmt_span(step.total),
            fmt_span(step.self_time),
        );
    }
    out
}

/// Fixed-precision adaptive duration formatting: seconds above one
/// second, milliseconds above one millisecond, microseconds below.
/// Deterministic — no locale, no rounding modes beyond `{:.3}`.
fn fmt_span(span: TimeSpan) -> String {
    let secs = span.as_secs();
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.3}us", secs * 1e6)
    }
}

fn fmt_pct(part: TimeSpan, whole: TimeSpan) -> String {
    if whole.as_secs() > 0.0 {
        format!("{:.1}%", part.as_secs() / whole.as_secs() * 1e2)
    } else {
        "-".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SpanTree;
    use sustain_obs::ObsConfig;

    fn sample_profile() -> Profile {
        let obs = ObsConfig::enabled().build();
        {
            let _outer = obs.span("outer");
            obs.add_work(1);
            {
                let _inner = obs.span("inner");
                obs.add_work(8);
            }
            obs.add_work(1);
        }
        Profile::from_tree(&SpanTree::from_records(&obs.events()))
    }

    #[test]
    fn report_is_deterministic() {
        let a = render(&sample_profile(), 10);
        let b = render(&sample_profile(), 10);
        assert_eq!(a, b);
    }

    #[test]
    fn report_carries_header_hotspots_and_path() {
        let text = render(&sample_profile(), 10);
        assert!(text.contains("spans: 2"), "{text}");
        assert!(text.contains("conservation: ok"), "{text}");
        // inner (8s self) outranks outer (2s self).
        let inner_at = text.find("\ninner").expect("inner row");
        let outer_at = text.find("\nouter").expect("outer row");
        assert!(inner_at < outer_at, "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("  outer"), "{text}");
        assert!(text.contains("    inner"), "{text}");
    }

    #[test]
    fn top_k_truncates_rows() {
        let text = render(&sample_profile(), 1);
        assert!(text.contains("\ninner"), "{text}");
        assert!(!text.contains("\nouter "), "{text}");
    }

    #[test]
    fn violated_conservation_is_called_out() {
        let records = vec![
            sustain_obs::EventRecord::Span {
                id: 1,
                parent: Some(0),
                name: "child",
                start: TimeSpan::ZERO,
                end: TimeSpan::from_secs(5.0),
            },
            sustain_obs::EventRecord::Span {
                id: 0,
                parent: None,
                name: "parent",
                start: TimeSpan::ZERO,
                end: TimeSpan::from_secs(2.0),
            },
        ];
        let profile = Profile::from_tree(&SpanTree::from_records(&records));
        let text = render(&profile, 10);
        assert!(text.contains("conservation: VIOLATED"), "{text}");
        assert!(text.contains("1 clamped"), "{text}");
    }

    #[test]
    fn durations_format_adaptively() {
        assert_eq!(fmt_span(TimeSpan::from_secs(2.5)), "2.500s");
        assert_eq!(fmt_span(TimeSpan::from_secs(0.0042)), "4.200ms");
        assert_eq!(fmt_span(TimeSpan::from_secs(0.0000042)), "4.200us");
        assert_eq!(fmt_span(TimeSpan::ZERO), "0.000us");
    }

    #[test]
    fn percentages_guard_zero_totals() {
        assert_eq!(
            fmt_pct(TimeSpan::from_secs(1.0), TimeSpan::from_secs(4.0)),
            "25.0%"
        );
        assert_eq!(fmt_pct(TimeSpan::from_secs(1.0), TimeSpan::ZERO), "-");
    }
}
