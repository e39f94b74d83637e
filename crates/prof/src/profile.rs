//! Per-span-name aggregation with self-time conservation.
//!
//! The waterfall argument of the paper (Fig 7, >800× in aggregate) was only
//! possible because every layer's *own* cost was known — inclusive time
//! alone cannot rank optimization targets, because a parent "costs" all of
//! its children. [`Profile`] computes, for every span name, the calls,
//! inclusive total, and **self time** (`total − Σ direct children`), plus
//! min/median/max per-call durations, and extracts the critical path.
//!
//! Conservation is a structural invariant rather than a convention: for a
//! well-nested recording, the self times of every span sum to exactly the
//! root totals (`Σ self == Σ root totals`), so a hotspot report accounts
//! for 100% of the measured time with nothing double-counted. Recordings
//! that violate nesting (a child outliving its parent on a wall clock)
//! clamp the affected span's self time at zero and report how much was
//! clamped instead of silently skewing the ranking.

use std::collections::BTreeMap;

use sustain_core::units::TimeSpan;

use crate::tree::{SpanNode, SpanTree};

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Number of completed spans with this name.
    pub calls: u64,
    /// Summed inclusive duration.
    pub total: TimeSpan,
    /// Summed self time (inclusive minus direct children, clamped at zero).
    pub self_time: TimeSpan,
    /// Shortest single call (inclusive).
    pub min: TimeSpan,
    /// Median single call (inclusive; lower-middle for even counts).
    pub median: TimeSpan,
    /// Longest single call (inclusive).
    pub max: TimeSpan,
}

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Span name at this depth.
    pub name: String,
    /// The step's inclusive duration.
    pub total: TimeSpan,
    /// The step's self time.
    pub self_time: TimeSpan,
}

/// A computed profile over one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    by_name: BTreeMap<String, SpanStats>,
    critical_path: Vec<PathStep>,
    span_count: usize,
    root_total: TimeSpan,
    clamped: usize,
}

impl Profile {
    /// Computes the profile of a reconstructed span forest.
    pub fn from_tree(tree: &SpanTree) -> Profile {
        let nodes = tree.nodes();
        let self_times: Vec<TimeSpan> = nodes
            .iter()
            .map(|node| {
                let children: TimeSpan = node
                    .children
                    .iter()
                    .filter_map(|&c| nodes.get(c))
                    .map(SpanNode::total)
                    .sum();
                node.total() - children
            })
            .collect();
        let clamped = self_times.iter().filter(|s| **s < TimeSpan::ZERO).count();

        let mut durations: BTreeMap<&str, Vec<TimeSpan>> = BTreeMap::new();
        for node in nodes {
            durations.entry(&node.name).or_default().push(node.total());
        }
        let mut by_name = BTreeMap::new();
        for (name, mut totals) in durations {
            totals.sort_by(|a, b| a.as_secs().total_cmp(&b.as_secs()));
            let calls = totals.len() as u64;
            let stats = SpanStats {
                calls,
                total: totals.iter().sum(),
                self_time: TimeSpan::ZERO,
                min: totals.first().copied().unwrap_or(TimeSpan::ZERO),
                median: totals
                    .get(totals.len().saturating_sub(1) / 2)
                    .copied()
                    .unwrap_or(TimeSpan::ZERO),
                max: totals.last().copied().unwrap_or(TimeSpan::ZERO),
            };
            by_name.insert(name.to_owned(), stats);
        }
        for (node, self_time) in nodes.iter().zip(&self_times) {
            if let Some(stats) = by_name.get_mut(&node.name) {
                stats.self_time += (*self_time).max(TimeSpan::ZERO);
            }
        }

        Profile {
            by_name,
            critical_path: critical_path(tree, &self_times),
            span_count: nodes.len(),
            root_total: tree.root_total(),
            clamped,
        }
    }

    /// Statistics per span name, in name order.
    pub fn by_name(&self) -> &BTreeMap<String, SpanStats> {
        &self.by_name
    }

    /// Statistics for one span name.
    pub fn stats(&self, name: &str) -> Option<&SpanStats> {
        self.by_name.get(name)
    }

    /// Names ranked by descending self time (ties broken by name), the
    /// hotspot order of the text report.
    pub fn hotspots(&self) -> Vec<(&str, &SpanStats)> {
        let mut ranked: Vec<(&str, &SpanStats)> = self
            .by_name
            .iter()
            .map(|(name, stats)| (name.as_str(), stats))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.self_time
                .as_secs()
                .total_cmp(&a.1.self_time.as_secs())
                .then_with(|| a.0.cmp(b.0))
        });
        ranked
    }

    /// The heaviest root-to-leaf chain: starting from the root with the
    /// largest inclusive total, each step descends into the heaviest child.
    pub fn critical_path(&self) -> &[PathStep] {
        &self.critical_path
    }

    /// Number of spans profiled.
    pub fn span_count(&self) -> usize {
        self.span_count
    }

    /// Summed duration of all root spans — the denominator of every
    /// percentage in the report.
    pub fn root_total(&self) -> TimeSpan {
        self.root_total
    }

    /// Sum of all per-name self times.
    pub fn self_total(&self) -> TimeSpan {
        self.by_name.values().map(|s| s.self_time).sum()
    }

    /// Spans whose children summed past their own total (self time clamped
    /// at zero) — zero for every well-nested recording.
    pub fn clamped_spans(&self) -> usize {
        self.clamped
    }

    /// Whether self times conserve the root total: no span was clamped and
    /// `Σ self` equals `Σ root totals` up to float-summation tolerance.
    pub fn conserves(&self) -> bool {
        let root = self.root_total.as_secs();
        let diff = (self.self_total().as_secs() - root).abs();
        self.clamped == 0 && diff <= root.abs().max(1.0) * 1e-9
    }

    /// The fraction of `root` spent inside `inner` (by inclusive total):
    /// the attribution check "≥90% of fig07 is the cache simulation" reads
    /// directly off this. Returns 0 when either name is missing or the
    /// root total is zero.
    // lint:allow(test-only-pub) (b) the fig07 wall-clock profile test reads its attribution
    pub fn attribution(&self, root: &str, inner: &str) -> f64 {
        let Some(root_stats) = self.by_name.get(root) else {
            return 0.0;
        };
        let Some(inner_stats) = self.by_name.get(inner) else {
            return 0.0;
        };
        let denom = root_stats.total.as_secs();
        if denom <= 0.0 {
            return 0.0;
        }
        inner_stats.total.as_secs() / denom
    }
}

fn critical_path(tree: &SpanTree, self_times: &[TimeSpan]) -> Vec<PathStep> {
    let nodes = tree.nodes();
    let heaviest = |candidates: &[usize]| -> Option<usize> {
        candidates
            .iter()
            .filter_map(|&i| nodes.get(i).map(|n| (i, n)))
            .max_by(|a, b| {
                a.1.total()
                    .as_secs()
                    .total_cmp(&b.1.total().as_secs())
                    // Ties: earliest start, then lowest id — first in the
                    // (start, id) child order, so pick via reversed cmp.
                    .then_with(|| b.1.start.as_secs().total_cmp(&a.1.start.as_secs()))
                    .then_with(|| b.1.id.cmp(&a.1.id))
            })
            .map(|(i, _)| i)
    };
    let mut path = Vec::new();
    let mut cursor = heaviest(tree.roots());
    while let Some(i) = cursor {
        let Some(node) = nodes.get(i) else { break };
        path.push(PathStep {
            name: node.name.clone(),
            total: node.total(),
            self_time: self_times
                .get(i)
                .copied()
                .unwrap_or(TimeSpan::ZERO)
                .max(TimeSpan::ZERO),
        });
        cursor = heaviest(&node.children);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_obs::ObsConfig;

    /// outer(0..10) { a(1..4) { leaf(2..3) }, b(5..9) }
    fn sample_tree() -> SpanTree {
        let obs = ObsConfig::enabled().build();
        {
            let _outer = obs.span("outer");
            obs.add_work(1);
            {
                let _a = obs.span("a");
                obs.add_work(1);
                {
                    let _leaf = obs.span("leaf");
                    obs.add_work(1);
                }
                obs.add_work(1);
            }
            obs.add_work(1);
            {
                let _b = obs.span("b");
                obs.add_work(4);
            }
            obs.add_work(1);
        }
        SpanTree::from_records(&obs.events())
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let profile = Profile::from_tree(&sample_tree());
        let outer = profile.stats("outer").expect("outer");
        assert_eq!(outer.total, TimeSpan::from_secs(10.0));
        // outer self = 10 − (3 + 4).
        assert_eq!(outer.self_time, TimeSpan::from_secs(3.0));
        let a = profile.stats("a").expect("a");
        assert_eq!(a.self_time, TimeSpan::from_secs(2.0));
        let leaf = profile.stats("leaf").expect("leaf");
        assert_eq!(leaf.self_time, TimeSpan::from_secs(1.0));
    }

    #[test]
    fn self_times_conserve_root_total() {
        let profile = Profile::from_tree(&sample_tree());
        assert!(profile.conserves());
        assert_eq!(profile.self_total(), profile.root_total());
        assert_eq!(profile.clamped_spans(), 0);
        assert_eq!(profile.span_count(), 4);
    }

    #[test]
    fn hotspots_rank_by_self_time() {
        let profile = Profile::from_tree(&sample_tree());
        let ranked: Vec<&str> = profile.hotspots().iter().map(|(n, _)| *n).collect();
        // b: 4s self, outer: 3s, a: 2s, leaf: 1s.
        assert_eq!(ranked, ["b", "outer", "a", "leaf"]);
    }

    #[test]
    fn critical_path_descends_heaviest_children() {
        let profile = Profile::from_tree(&sample_tree());
        let names: Vec<&str> = profile
            .critical_path()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        // outer(10) -> b(4): b outweighs a(3).
        assert_eq!(names, ["outer", "b"]);
    }

    #[test]
    fn attribution_reads_inner_over_root() {
        let profile = Profile::from_tree(&sample_tree());
        assert!((profile.attribution("outer", "a") - 0.3).abs() < 1e-12);
        assert!((profile.attribution("outer", "missing")).abs() < f64::EPSILON);
        assert!((profile.attribution("missing", "a")).abs() < f64::EPSILON);
    }

    #[test]
    fn median_is_per_call_inclusive() {
        let obs = ObsConfig::enabled().build();
        for units in [5, 1, 3] {
            let _s = obs.span("rep");
            obs.add_work(units);
        }
        let profile = Profile::from_tree(&SpanTree::from_records(&obs.events()));
        let rep = profile.stats("rep").expect("rep");
        assert_eq!(rep.calls, 3);
        assert_eq!(rep.min, TimeSpan::from_secs(1.0));
        assert_eq!(rep.median, TimeSpan::from_secs(3.0));
        assert_eq!(rep.max, TimeSpan::from_secs(5.0));
        assert_eq!(rep.total, TimeSpan::from_secs(9.0));
    }

    #[test]
    fn non_nested_recording_clamps_and_reports() {
        // A child longer than its parent (possible only in a corrupted or
        // hand-built log) must clamp, not produce negative self time.
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
        assert_eq!(profile.clamped_spans(), 1);
        assert!(!profile.conserves());
        let parent = profile.stats("parent").expect("parent");
        assert_eq!(parent.self_time, TimeSpan::ZERO);
    }

    #[test]
    fn empty_recording_profiles_empty() {
        let profile = Profile::from_tree(&SpanTree::from_records(&[]));
        assert_eq!(profile.span_count(), 0);
        assert!(profile.conserves());
        assert!(profile.critical_path().is_empty());
        assert!(profile.hotspots().is_empty());
    }
}
