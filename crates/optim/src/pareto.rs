//! Multi-objective Pareto-frontier extraction (§IV-B, Figure 12).
//!
//! "Multi-objective optimization explores the Pareto frontier of efficient
//! model quality and system resource trade-offs ... energy and carbon
//! footprint can be directly incorporated into the cost function."
//!
//! Points are `(cost, error)` pairs where both are minimized; the frontier is
//! the set of non-dominated points.

use serde::{Deserialize, Serialize};

/// A candidate with a cost (e.g. energy) and an error (e.g. 1 − accuracy),
/// both to be minimized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Minimized resource objective.
    pub cost: f64,
    /// Minimized quality objective.
    pub error: f64,
    /// Caller-assigned identifier.
    pub id: u64,
}

impl Candidate {
    /// Creates a candidate.
    pub fn new(id: u64, cost: f64, error: f64) -> Candidate {
        Candidate { cost, error, id }
    }

    /// Whether `self` dominates `other` (no worse in both, better in one).
    // lint:allow(test-only-pub) (b) the frontier property tests check dominance with it
    pub fn dominates(&self, other: &Candidate) -> bool {
        (self.cost <= other.cost && self.error <= other.error)
            && (self.cost < other.cost || self.error < other.error)
    }
}

/// Extracts the Pareto frontier, sorted by ascending cost.
///
/// ```rust
/// use sustain_optim::pareto::{pareto_frontier, Candidate};
///
/// let frontier = pareto_frontier(&[
///     Candidate::new(0, 1.0, 0.5),
///     Candidate::new(1, 2.0, 0.3),
///     Candidate::new(2, 1.5, 0.6), // dominated by candidate 0
/// ]);
/// assert_eq!(frontier.len(), 2);
/// ```
///
/// Runs in `O(n log n)`: sort by cost, then sweep keeping strictly improving
/// error.
pub fn pareto_frontier(candidates: &[Candidate]) -> Vec<Candidate> {
    let mut sorted: Vec<Candidate> = candidates.to_vec();
    sorted.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.error.total_cmp(&b.error)));
    let mut frontier: Vec<Candidate> = Vec::new();
    for c in sorted {
        match frontier.last() {
            Some(last) if c.error >= last.error => {
                // Dominated (same or higher cost, no better error).
            }
            _ => frontier.push(c),
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<Candidate> {
        vec![
            Candidate::new(0, 1.0, 0.50),
            Candidate::new(1, 2.0, 0.30),
            Candidate::new(2, 3.0, 0.28), // frontier
            Candidate::new(3, 2.5, 0.40), // dominated by 1
            Candidate::new(4, 10.0, 0.27),
            Candidate::new(5, 1.5, 0.60), // dominated by 0
        ]
    }

    #[test]
    fn frontier_excludes_dominated_points() {
        let f = pareto_frontier(&points());
        let ids: Vec<u64> = f.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 4]);
        // Sorted by cost, strictly improving error.
        for w in f.windows(2) {
            assert!(w[1].cost > w[0].cost);
            assert!(w[1].error < w[0].error);
        }
    }

    #[test]
    fn dominates_semantics() {
        let a = Candidate::new(0, 1.0, 1.0);
        let b = Candidate::new(1, 2.0, 2.0);
        let c = Candidate::new(2, 1.0, 1.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "equal points do not dominate");
    }

    #[test]
    fn frontier_of_empty_and_single() {
        assert!(pareto_frontier(&[]).is_empty());
        let single = [Candidate::new(7, 1.0, 1.0)];
        assert_eq!(pareto_frontier(&single).len(), 1);
    }
}
