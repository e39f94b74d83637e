//! Hierarchical telemetry roll-ups: device → host → rack → cluster.
//!
//! Fleet telemetry is consumed at aggregation levels — a researcher sees
//! their job's GPUs, a capacity planner sees racks, the sustainability team
//! sees clusters. [`TraceTree`] stores labelled per-device traces in a
//! hierarchy and rolls power/energy up any subtree.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use sustain_core::units::Energy;

use crate::trace::PowerTrace;

/// A node path like `"cluster0/rack3/host12/gpu5"`. Segments are separated by
/// `/`; every prefix is an aggregation point.
pub type NodePath = String;

/// A hierarchy of labelled power traces with subtree roll-ups.
///
/// ```rust
/// use sustain_telemetry::hierarchy::TraceTree;
/// use sustain_telemetry::trace::PowerTrace;
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut tree = TraceTree::new();
/// let mut gpu = PowerTrace::new();
/// gpu.push(TimeSpan::from_secs(0.0), Power::from_watts(300.0));
/// gpu.push(TimeSpan::from_secs(3600.0), Power::from_watts(300.0));
/// tree.insert("rack0/host0/gpu0", gpu.clone());
/// tree.insert("rack0/host0/gpu1", gpu);
/// // The rack subtree rolls both GPUs up.
/// assert!((tree.subtree_energy("rack0").as_watt_hours() - 600.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceTree {
    leaves: BTreeMap<NodePath, PowerTrace>,
}

impl TraceTree {
    /// Creates an empty tree.
    pub fn new() -> TraceTree {
        TraceTree::default()
    }

    /// Inserts (or replaces) a leaf trace at a path.
    pub fn insert(&mut self, path: impl Into<NodePath>, trace: PowerTrace) -> &mut TraceTree {
        self.leaves.insert(path.into(), trace);
        self
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Iterates leaves under a subtree prefix (`""` = the whole tree).
    pub fn subtree(&self, prefix: &str) -> impl Iterator<Item = (&str, &PowerTrace)> {
        let prefix = prefix.trim_end_matches('/').to_owned();
        self.leaves.iter().filter_map(move |(path, trace)| {
            let matches =
                prefix.is_empty() || path == &prefix || path.starts_with(&format!("{prefix}/"));
            matches.then_some((path.as_str(), trace))
        })
    }

    /// Total energy of a subtree.
    // lint:allow(test-only-pub) (a) the recompute-from-traces reference hierarchy's tests hold EnergyRollup to; nothing shipped builds a TraceTree
    pub fn subtree_energy(&self, prefix: &str) -> Energy {
        self.subtree(prefix).map(|(_, t)| t.energy()).sum()
    }
}

/// Online energy roll-up: cumulative energy at every aggregation prefix.
///
/// Where [`TraceTree::subtree_energy`] recomputes a roll-up from the full
/// leaf traces on demand, an `EnergyRollup` is maintained *incrementally*:
/// each [`add`](EnergyRollup::add) credits a leaf's energy delta to the
/// leaf and every ancestor prefix (plus the root `""`), so rack- and
/// cluster-level totals are readable at any point mid-stream without
/// touching the traces. The streaming pipeline updates one of these on
/// every flush.
///
/// ```rust
/// use sustain_telemetry::hierarchy::EnergyRollup;
/// use sustain_core::units::Energy;
///
/// let mut rollup = EnergyRollup::new();
/// rollup.add("rack0/host0/gpu0", Energy::from_watt_hours(300.0));
/// rollup.add("rack0/host1/gpu0", Energy::from_watt_hours(250.0));
/// assert!((rollup.energy("rack0").as_watt_hours() - 550.0).abs() < 1e-9);
/// assert!((rollup.energy("").as_watt_hours() - 550.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyRollup {
    nodes: BTreeMap<NodePath, Energy>,
}

impl EnergyRollup {
    /// Creates an empty roll-up.
    pub fn new() -> EnergyRollup {
        EnergyRollup::default()
    }

    /// Credits `delta` to `path` and every ancestor prefix, including the
    /// root `""`. Leading/trailing `/` are ignored.
    pub fn add(&mut self, path: &str, delta: Energy) {
        let path = path.trim_matches('/');
        self.bump("", delta);
        if path.is_empty() {
            return;
        }
        for (i, byte) in path.bytes().enumerate() {
            if byte == b'/' {
                self.bump(&path[..i], delta);
            }
        }
        self.bump(path, delta);
    }

    /// Credits one node, allocating its key only on first sight so a
    /// steady-state maintainer (re-`add`ing the same paths every flush)
    /// never allocates.
    fn bump(&mut self, key: &str, delta: Energy) {
        if let Some(node) = self.nodes.get_mut(key) {
            *node += delta;
        } else {
            self.nodes.insert(key.to_owned(), delta);
        }
    }

    /// Zeroes every node total in place, keeping the allocated key set, so
    /// a maintainer that recomputes totals from scratch each flush (the
    /// streaming pipeline's determinism contract) reuses the path strings
    /// instead of rebuilding the map. Energy totals are monotone, so a key
    /// that was live stays live: no stale zero nodes accumulate.
    pub fn zero(&mut self) {
        for node in self.nodes.values_mut() {
            *node = Energy::ZERO;
        }
    }

    /// Cumulative energy at a node (`""` = the whole hierarchy). Unknown
    /// paths are zero.
    pub fn energy(&self, prefix: &str) -> Energy {
        self.nodes
            .get(prefix.trim_matches('/'))
            .copied()
            .unwrap_or(Energy::ZERO)
    }

    /// Energy per direct child of a prefix — the online rack view.
    pub fn children(&self, prefix: &str) -> BTreeMap<String, Energy> {
        let prefix = prefix.trim_matches('/');
        let mut out = BTreeMap::new();
        for (path, energy) in &self.nodes {
            if path.is_empty() {
                continue;
            }
            let rest = if prefix.is_empty() {
                path.as_str()
            } else {
                match path.strip_prefix(prefix).and_then(|r| r.strip_prefix('/')) {
                    Some(rest) => rest,
                    None => continue,
                }
            };
            if !rest.is_empty() && !rest.contains('/') {
                out.insert(rest.to_owned(), *energy);
            }
        }
        out
    }
}

impl FromIterator<(NodePath, PowerTrace)> for TraceTree {
    fn from_iter<I: IntoIterator<Item = (NodePath, PowerTrace)>>(iter: I) -> TraceTree {
        TraceTree {
            leaves: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::units::{Power, TimeSpan};

    fn constant_trace(watts: f64, hours: f64) -> PowerTrace {
        let mut t = PowerTrace::new();
        t.push(TimeSpan::ZERO, Power::from_watts(watts));
        t.push(TimeSpan::from_hours(hours), Power::from_watts(watts));
        t
    }

    fn tree() -> TraceTree {
        let mut tree = TraceTree::new();
        tree.insert("c0/r0/h0/gpu0", constant_trace(300.0, 1.0));
        tree.insert("c0/r0/h0/gpu1", constant_trace(300.0, 1.0));
        tree.insert("c0/r0/h1/gpu0", constant_trace(250.0, 1.0));
        tree.insert("c0/r1/h0/gpu0", constant_trace(400.0, 1.0));
        tree.insert("c1/r0/h0/gpu0", constant_trace(100.0, 1.0));
        tree
    }

    #[test]
    fn subtree_energy_rolls_up_each_level() {
        let t = tree();
        assert!((t.subtree_energy("c0/r0/h0").as_watt_hours() - 600.0).abs() < 1e-6);
        assert!((t.subtree_energy("c0/r0").as_watt_hours() - 850.0).abs() < 1e-6);
        assert!((t.subtree_energy("c0").as_watt_hours() - 1250.0).abs() < 1e-6);
        assert!((t.subtree_energy("").as_watt_hours() - 1350.0).abs() < 1e-6);
    }

    #[test]
    fn prefix_matching_is_segment_aware() {
        let mut t = TraceTree::new();
        t.insert("rack1/gpu0", constant_trace(100.0, 1.0));
        t.insert("rack10/gpu0", constant_trace(100.0, 1.0));
        // "rack1" must not match "rack10".
        assert!((t.subtree_energy("rack1").as_watt_hours() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn empty_subtree_is_zero() {
        let t = tree();
        assert!(t.subtree_energy("does-not-exist").is_zero());
    }

    #[test]
    fn len_counts_leaves() {
        let t = tree();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn rollup_credits_every_ancestor() {
        let mut rollup = EnergyRollup::new();
        rollup.add("c0/r0/h0/gpu0", Energy::from_watt_hours(300.0));
        rollup.add("c0/r0/h1/gpu0", Energy::from_watt_hours(250.0));
        rollup.add("c0/r1/h0/gpu0", Energy::from_watt_hours(400.0));
        rollup.add("c1/r0/h0/gpu0", Energy::from_watt_hours(100.0));
        for (prefix, wh) in [
            ("", 1050.0),
            ("c0", 950.0),
            ("c0/r0", 550.0),
            ("c0/r0/h0", 300.0),
            ("c0/r0/h0/gpu0", 300.0),
            ("c1", 100.0),
        ] {
            assert!(
                (rollup.energy(prefix).as_watt_hours() - wh).abs() < 1e-9,
                "{prefix}: {} vs {wh}",
                rollup.energy(prefix).as_watt_hours()
            );
        }
        assert!(rollup.energy("does-not-exist").is_zero());
    }

    #[test]
    fn rollup_accumulates_incremental_deltas() {
        let mut rollup = EnergyRollup::new();
        rollup.add("r0/h0", Energy::from_joules(10.0));
        rollup.add("r0/h0", Energy::from_joules(5.0));
        rollup.add("r0/h1", Energy::from_joules(1.0));
        assert!((rollup.energy("r0/h0").as_joules() - 15.0).abs() < 1e-12);
        assert!((rollup.energy("r0").as_joules() - 16.0).abs() < 1e-12);
        assert!((rollup.energy("").as_joules() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn rollup_matches_tree_subtree_energy() {
        // An incrementally maintained roll-up of the same leaves agrees
        // with the recompute-from-traces path at every prefix.
        let t = tree();
        let mut rollup = EnergyRollup::new();
        for (path, trace) in t.subtree("") {
            rollup.add(path, trace.energy());
        }
        for prefix in ["", "c0", "c0/r0", "c0/r0/h0", "c0/r1", "c1"] {
            let online = rollup.energy(prefix).as_watt_hours();
            let recomputed = t.subtree_energy(prefix).as_watt_hours();
            assert!(
                (online - recomputed).abs() < 1e-9,
                "{prefix}: {online} vs {recomputed}"
            );
        }
    }

    #[test]
    fn rollup_children_give_the_rack_view() {
        let t = tree();
        let mut rollup = EnergyRollup::new();
        for (path, trace) in t.subtree("") {
            rollup.add(path, trace.energy());
        }
        let by_rack = rollup.children("c0");
        assert_eq!(by_rack.len(), 2);
        assert!((by_rack["r0"].as_watt_hours() - 850.0).abs() < 1e-9);
        assert!((by_rack["r1"].as_watt_hours() - 400.0).abs() < 1e-9);
        assert_eq!(rollup.children("").len(), 2);
        assert!(rollup.children("c1/r0/h0/gpu0").is_empty());
    }

    #[test]
    fn rollup_normalizes_slashes() {
        let mut rollup = EnergyRollup::new();
        rollup.add("/r0/h0/", Energy::from_joules(2.0));
        assert!((rollup.energy("r0").as_joules() - 2.0).abs() < 1e-12);
        assert!((rollup.energy("/r0/").as_joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn collects_from_iterator() {
        let t: TraceTree = vec![
            ("a/b".to_owned(), constant_trace(1.0, 1.0)),
            ("a/c".to_owned(), constant_trace(2.0, 1.0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.len(), 2);
        assert!((t.subtree_energy("a").as_watt_hours() - 3.0).abs() < 1e-9);
    }
}
