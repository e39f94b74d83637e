//! Planted violation: a handler registry keyed on a `HashMap`. Sweeping
//! it to dispatch makes handler firing order depend on hash layout — two
//! runs of the "same" schedule interleave their side effects differently,
//! so every rollup built on them diffs against itself. The corrected form
//! indexes handlers by a dense vector and keeps its cancel set in a
//! `BTreeSet`. Linted under a `crates/fleet` path by the fixture tests;
//! never compiled.

use std::collections::{HashMap, HashSet};

pub struct HandlerRegistry {
    handlers: HashMap<u64, Vec<String>>,
    cancelled: HashSet<u64>,
}

impl HandlerRegistry {
    pub fn dispatch_all(&mut self) -> Vec<String> {
        let mut fired = Vec::new();
        for (_kind, names) in self.handlers.iter() {
            fired.extend(names.iter().cloned());
        }
        fired
    }

    pub fn drop_cancelled(&mut self) -> usize {
        let dropped = self.cancelled.len();
        self.cancelled.retain(|seq| *seq == 0);
        dropped
    }
}
