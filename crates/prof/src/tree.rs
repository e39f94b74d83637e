//! Span-tree reconstruction from an obs recording.
//!
//! A [`sustain_obs::Recorder`] emits completed spans in completion order,
//! each carrying its own id and the id of the span open when it was opened.
//! [`SpanTree`] rebuilds the forest: nodes indexed densely, children listed
//! under their parents in `(start, id)` order, spans whose parent never
//! completed (or never existed — a truncated log) promoted to roots. The
//! same tree can be rebuilt either from in-process [`EventRecord`]s or from
//! an `events.jsonl` export, so profiles work both live (inside
//! `all_figures --obs`) and offline (over a file someone shipped).

use std::collections::BTreeMap;

use sustain_core::units::TimeSpan;
use sustain_obs::EventRecord;

/// One completed span in the reconstructed forest.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Recorder-assigned span id.
    pub id: u64,
    /// Parent span id as recorded (`None` for a recorded root).
    pub parent: Option<u64>,
    /// Span name (`subsystem.phase` convention).
    pub name: String,
    /// Clock reading at open.
    pub start: TimeSpan,
    /// Clock reading at close.
    pub end: TimeSpan,
    /// Indices (into [`SpanTree::nodes`]) of direct children, in
    /// `(start, id)` order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// The span's inclusive duration, clamped to zero for an end before its
    /// start (recorders never produce one; a hand-built or corrupted log
    /// may).
    pub fn total(&self) -> TimeSpan {
        if self.end > self.start {
            self.end - self.start
        } else {
            TimeSpan::ZERO
        }
    }
}

/// A reconstructed span forest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
}

impl SpanTree {
    /// Rebuilds the forest from recorder output (spans only; instant
    /// events carry no duration and are ignored).
    pub fn from_records(records: &[EventRecord]) -> SpanTree {
        let spans = records.iter().filter_map(|r| match r {
            EventRecord::Span {
                id,
                parent,
                name,
                start,
                end,
            } => Some(((*id, *parent), ((*name).to_owned(), *start, *end))),
            EventRecord::Instant { .. } => None,
        });
        SpanTree::build(spans)
    }

    /// Rebuilds the forest from an `events.jsonl` export (the format
    /// written by `all_figures --obs`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line. Lines that parse
    /// as JSON but are not span records (instant events) are skipped.
    // lint:allow(test-only-pub) (e) reads the events.jsonl the binary writes; hostile-input proptest
    pub fn from_jsonl(text: &str) -> Result<SpanTree, String> {
        let mut spans = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = serde_json::parse(line)
                .map_err(|e| format!("events.jsonl line {}: {e:?}", lineno + 1))?;
            if value.get("type").and_then(|t| t.as_str()) != Some("span") {
                continue;
            }
            let field = |key: &str| {
                value
                    .get(key)
                    .ok_or_else(|| format!("events.jsonl line {}: missing `{key}`", lineno + 1))
            };
            let id = field("id")?
                .as_i128()
                .ok_or_else(|| format!("events.jsonl line {}: non-integer id", lineno + 1))?
                as u64;
            let parent = field("parent")?.as_i128().map(|p| p as u64);
            let name = field("name")?
                .as_str()
                .ok_or_else(|| format!("events.jsonl line {}: non-string name", lineno + 1))?
                .to_owned();
            let seconds = |key: &str| -> Result<TimeSpan, String> {
                field(key)?
                    .as_f64()
                    .map(TimeSpan::from_secs)
                    .ok_or_else(|| format!("events.jsonl line {}: non-numeric `{key}`", lineno + 1))
            };
            spans.push(((id, parent), (name, seconds("start_s")?, seconds("end_s")?)));
        }
        Ok(SpanTree::build(spans.into_iter()))
    }

    fn build(
        spans: impl Iterator<Item = ((u64, Option<u64>), (String, TimeSpan, TimeSpan))>,
    ) -> SpanTree {
        let mut nodes: Vec<SpanNode> = spans
            .map(|((id, parent), (name, start, end))| SpanNode {
                id,
                parent,
                name,
                start,
                end,
                children: Vec::new(),
            })
            .collect();
        let index: BTreeMap<u64, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.id, i))
            .collect();
        let mut roots = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            match node.parent.and_then(|p| index.get(&p)) {
                // A span can never parent itself; a cycle in a corrupted
                // log degrades to two roots rather than a hang.
                Some(&p) if p != i => edges.push((p, i)),
                _ => roots.push(i),
            }
        }
        for (parent, child) in edges {
            if let Some(node) = nodes.get_mut(parent) {
                node.children.push(child);
            }
        }
        let order_key = |nodes: &[SpanNode], i: usize| {
            nodes
                .get(i)
                .map(|n| (n.start.as_secs().to_bits(), n.id))
                .unwrap_or((u64::MAX, u64::MAX))
        };
        for i in 0..nodes.len() {
            let mut children = std::mem::take(&mut nodes[i].children);
            children.sort_by_key(|&c| order_key(&nodes, c));
            nodes[i].children = children;
        }
        roots.sort_by_key(|&r| order_key(&nodes, r));
        SpanTree { nodes, roots }
    }

    /// All nodes, in completion order.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Indices of root spans, in `(start, id)` order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sum of root-span durations — the profile's denominator.
    pub fn root_total(&self) -> TimeSpan {
        self.roots
            .iter()
            .filter_map(|&r| self.nodes.get(r))
            .map(SpanNode::total)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_obs::ObsConfig;

    fn record_nested() -> Vec<EventRecord> {
        let obs = ObsConfig::enabled().build();
        {
            let _outer = obs.span("outer");
            obs.add_work(1);
            {
                let _inner = obs.span("inner");
                obs.add_work(3);
            }
            obs.event("marker", &[]);
            obs.add_work(6);
        }
        obs.events()
    }

    #[test]
    fn rebuilds_parent_child_links() {
        let tree = SpanTree::from_records(&record_nested());
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.roots().len(), 1);
        let root = &tree.nodes()[tree.roots()[0]];
        assert_eq!(root.name, "outer");
        assert_eq!(root.total(), TimeSpan::from_secs(10.0));
        assert_eq!(root.children.len(), 1);
        let child = &tree.nodes()[root.children[0]];
        assert_eq!(child.name, "inner");
        assert_eq!(child.total(), TimeSpan::from_secs(3.0));
        assert_eq!(tree.root_total(), TimeSpan::from_secs(10.0));
    }

    #[test]
    fn jsonl_round_trips_the_record_tree() {
        let obs = ObsConfig::enabled().build();
        {
            let _a = obs.span("a");
            obs.add_work(2);
            {
                let _b = obs.span("b");
                obs.add_work(1);
            }
        }
        let from_records = SpanTree::from_records(&obs.events());
        let from_jsonl = SpanTree::from_jsonl(&obs.export_jsonl()).expect("valid jsonl");
        assert_eq!(from_records, from_jsonl);
    }

    #[test]
    fn orphaned_spans_become_roots() {
        let records = vec![EventRecord::Span {
            id: 7,
            parent: Some(99),
            name: "orphan",
            start: TimeSpan::ZERO,
            end: TimeSpan::from_secs(1.0),
        }];
        let tree = SpanTree::from_records(&records);
        assert_eq!(tree.roots().len(), 1);
        assert_eq!(tree.root_total(), TimeSpan::from_secs(1.0));
    }

    #[test]
    fn malformed_jsonl_reports_the_line() {
        let err = SpanTree::from_jsonl("{\"type\":\"span\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = SpanTree::from_jsonl("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn instant_events_are_skipped() {
        let tree = SpanTree::from_jsonl(
            "{\"type\":\"event\",\"parent\":null,\"name\":\"e\",\"t_s\":0.0,\"attrs\":{}}\n",
        )
        .expect("events parse");
        assert!(tree.is_empty());
        assert_eq!(tree.root_total(), TimeSpan::ZERO);
    }

    #[test]
    fn children_sort_by_start_time() {
        let records = vec![
            EventRecord::Span {
                id: 2,
                parent: Some(0),
                name: "late",
                start: TimeSpan::from_secs(5.0),
                end: TimeSpan::from_secs(6.0),
            },
            EventRecord::Span {
                id: 1,
                parent: Some(0),
                name: "early",
                start: TimeSpan::from_secs(1.0),
                end: TimeSpan::from_secs(2.0),
            },
            EventRecord::Span {
                id: 0,
                parent: None,
                name: "root",
                start: TimeSpan::ZERO,
                end: TimeSpan::from_secs(10.0),
            },
        ];
        let tree = SpanTree::from_records(&records);
        let root = &tree.nodes()[tree.roots()[0]];
        let names: Vec<&str> = root
            .children
            .iter()
            .map(|&c| tree.nodes()[c].name.as_str())
            .collect();
        assert_eq!(names, ["early", "late"]);
    }
}
