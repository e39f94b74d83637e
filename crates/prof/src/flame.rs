//! Collapsed-stack ("folded") flamegraph export.
//!
//! The Brendan Gregg folded format is one line per unique stack:
//! `root;child;leaf <count>`. Any stock flamegraph renderer (flamegraph.pl,
//! inferno, speedscope) consumes it directly, so the profile of a figure
//! run can be inspected visually with no tooling added to this workspace.
//! Counts are **self-time microseconds** (clamped at zero), so the widths
//! in a rendered graph obey the same conservation invariant as the text
//! report: a parent's width equals its self time plus its children's.
//!
//! Lines are aggregated into a `BTreeMap` and emitted in stack order, so
//! the export is a pure function of the span tree — byte-identical for
//! byte-identical recordings.

use std::collections::BTreeMap;

use sustain_core::units::TimeSpan;

use crate::tree::SpanTree;

const MICROS_PER_SEC: f64 = 1e6;

/// Renders a span forest in collapsed-stack format. Returns one
/// `stack count\n` line per unique root-to-span path carrying nonzero
/// self time, sorted by stack.
pub fn to_folded(tree: &SpanTree) -> String {
    let mut counts: BTreeMap<String, u128> = BTreeMap::new();
    let mut frames: Vec<(usize, String)> = tree
        .roots()
        .iter()
        .rev()
        .map(|&r| (r, String::new()))
        .collect();
    while let Some((i, prefix)) = frames.pop() {
        let Some(node) = tree.nodes().get(i) else {
            continue;
        };
        let stack = if prefix.is_empty() {
            sanitize(&node.name)
        } else {
            format!("{prefix};{}", sanitize(&node.name))
        };
        let children: TimeSpan = node
            .children
            .iter()
            .filter_map(|&c| tree.nodes().get(c))
            .map(|c| c.total())
            .sum();
        let self_time = (node.total() - children).max(TimeSpan::ZERO);
        let micros = (self_time.as_secs() * MICROS_PER_SEC).round() as u128;
        if micros > 0 {
            *counts.entry(stack.clone()).or_insert(0) += micros;
        }
        for &c in node.children.iter().rev() {
            frames.push((c, stack.clone()));
        }
    }
    let mut out = String::new();
    for (stack, micros) in &counts {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&micros.to_string());
        out.push('\n');
    }
    out
}

/// Parses folded text back into `stack -> count`, merging duplicate
/// stacks. The inverse of [`to_folded`] up to aggregation order.
///
/// # Errors
///
/// Returns a message naming the first line without a trailing integer
/// count, or the line whose count overflows its stack's merged total.
pub fn parse_folded(text: &str) -> Result<BTreeMap<String, u128>, String> {
    let mut counts = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("folded line {}: missing count", lineno + 1))?;
        let count: u128 = count
            .parse()
            .map_err(|_| format!("folded line {}: non-integer count `{count}`", lineno + 1))?;
        let total = counts.entry(stack.to_owned()).or_insert(0u128);
        *total = total
            .checked_add(count)
            .ok_or_else(|| format!("folded line {}: count overflows `{stack}`", lineno + 1))?;
    }
    Ok(counts)
}

/// Folded stacks separate frames with `;` and the count with a space;
/// frame names must contain neither.
fn sanitize(name: &str) -> String {
    name.replace([';', ' '], "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SpanTree;
    use sustain_obs::ObsConfig;

    fn sample_tree() -> SpanTree {
        let obs = ObsConfig::enabled().build();
        {
            let _outer = obs.span("outer");
            obs.add_work(1);
            {
                let _a = obs.span("a");
                obs.add_work(3);
            }
            {
                let _b = obs.span("b");
                obs.add_work(5);
            }
            obs.add_work(1);
        }
        SpanTree::from_records(&obs.events())
    }

    #[test]
    fn folds_self_time_per_stack() {
        let folded = to_folded(&sample_tree());
        // outer self = 10 − (3 + 5) = 2s; a = 3s; b = 5s.
        assert_eq!(folded, "outer 2000000\nouter;a 3000000\nouter;b 5000000\n");
    }

    #[test]
    fn round_trips_through_parse() {
        let folded = to_folded(&sample_tree());
        let counts = parse_folded(&folded).expect("parses");
        assert_eq!(counts.get("outer;a"), Some(&3_000_000));
        assert_eq!(counts.get("outer;b"), Some(&5_000_000));
        assert_eq!(counts.get("outer"), Some(&2_000_000));
        assert_eq!(counts.len(), 3);
        // Re-render from parsed counts must reproduce the text.
        let rerendered: String = counts
            .iter()
            .map(|(stack, micros)| format!("{stack} {micros}\n"))
            .collect();
        assert_eq!(rerendered, folded);
    }

    #[test]
    fn repeated_stacks_aggregate() {
        let obs = ObsConfig::enabled().build();
        for _ in 0..3 {
            obs.add_work(8);
            let _s = obs.span("rep");
            obs.add_work(2);
        }
        let folded = to_folded(&SpanTree::from_records(&obs.events()));
        assert_eq!(folded, "rep 6000000\n");
    }

    #[test]
    fn names_are_sanitized() {
        let records = vec![sustain_obs::EventRecord::Span {
            id: 0,
            parent: None,
            name: "weird name;frame",
            start: TimeSpan::ZERO,
            end: TimeSpan::from_secs(1.0),
        }];
        let folded = to_folded(&SpanTree::from_records(&records));
        assert_eq!(folded, "weird_name_frame 1000000\n");
    }

    #[test]
    fn zero_self_time_stacks_are_omitted() {
        // Parent fully covered by its child: parent contributes no line.
        let records = vec![
            sustain_obs::EventRecord::Span {
                id: 1,
                parent: Some(0),
                name: "child",
                start: TimeSpan::ZERO,
                end: TimeSpan::from_secs(2.0),
            },
            sustain_obs::EventRecord::Span {
                id: 0,
                parent: None,
                name: "parent",
                start: TimeSpan::ZERO,
                end: TimeSpan::from_secs(2.0),
            },
        ];
        let folded = to_folded(&SpanTree::from_records(&records));
        assert_eq!(folded, "parent;child 2000000\n");
    }

    #[test]
    fn malformed_folded_reports_the_line() {
        let err = parse_folded("stack_without_count\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_folded("a 1\nb xyz\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_folded("a 340282366920938463463374607431768211455\na 1\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn empty_tree_folds_empty() {
        assert_eq!(to_folded(&SpanTree::default()), "");
        assert!(parse_folded("").expect("empty ok").is_empty());
    }
}
