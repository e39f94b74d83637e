//! Hierarchical telemetry roll-ups: device → host → rack → cluster.
//!
//! Fleet telemetry is consumed at aggregation levels — a researcher sees
//! their job's GPUs, a capacity planner sees racks, the sustainability team
//! sees clusters. An [`EnergyRollup`] keeps one energy total per node of
//! that hierarchy, never the samples behind it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use sustain_core::units::Energy;

/// A node path like `"cluster0/rack3/host12/gpu5"`. Segments are separated by
/// `/`; every prefix is an aggregation point.
pub type NodePath = String;

/// Energy roll-up: cumulative energy at every aggregation prefix.
///
/// Each [`add`](EnergyRollup::add) credits a leaf's energy to the leaf and
/// every ancestor prefix (plus the root `""`), so rack- and cluster-level
/// totals are lookups, not scans over the leaves. The streaming pipeline
/// builds one from its integrator totals when asked.
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

    /// Credits one node, allocating its key only on first sight.
    fn bump(&mut self, key: &str, delta: Energy) {
        if let Some(node) = self.nodes.get_mut(key) {
            *node += delta;
        } else {
            self.nodes.insert(key.to_owned(), delta);
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

    /// Energy per direct child of a prefix — the rack view.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Five GPUs across two clusters, each leaf holding one hour of its load.
    fn rollup() -> EnergyRollup {
        let mut rollup = EnergyRollup::new();
        for (path, wh) in [
            ("c0/r0/h0/gpu0", 300.0),
            ("c0/r0/h0/gpu1", 300.0),
            ("c0/r0/h1/gpu0", 250.0),
            ("c0/r1/h0/gpu0", 400.0),
            ("c1/r0/h0/gpu0", 100.0),
        ] {
            rollup.add(path, Energy::from_watt_hours(wh));
        }
        rollup
    }

    #[test]
    fn rollup_credits_every_ancestor() {
        let rollup = rollup();
        // Each prefix holds the sum of the leaves beneath it.
        for (prefix, wh) in [
            ("", 1350.0),
            ("c0", 1250.0),
            ("c0/r0", 850.0),
            ("c0/r0/h0", 600.0),
            ("c0/r0/h0/gpu0", 300.0),
            ("c0/r1", 400.0),
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
    fn prefix_matching_is_segment_aware() {
        let mut rollup = EnergyRollup::new();
        rollup.add("rack1/gpu0", Energy::from_watt_hours(100.0));
        rollup.add("rack10/gpu0", Energy::from_watt_hours(200.0));
        // "rack1" must not match "rack10", as a node or as a parent.
        assert_eq!(rollup.energy("rack1"), Energy::from_watt_hours(100.0));
        let rack1 = rollup.children("rack1");
        assert_eq!(rack1.len(), 1, "{rack1:?}");
        assert_eq!(rack1["gpu0"], Energy::from_watt_hours(100.0));
        let racks = rollup.children("");
        assert_eq!(racks.len(), 2, "{racks:?}");
        assert_eq!(racks["rack1"], Energy::from_watt_hours(100.0));
        assert_eq!(racks["rack10"], Energy::from_watt_hours(200.0));
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
    fn rollup_children_give_the_rack_view() {
        let rollup = rollup();
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
}
