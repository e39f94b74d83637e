//! One module per reproduced figure/experiment.
//!
//! Every module exposes `generate() -> Table` (deterministic under
//! [`crate::SEED`]) plus typed accessors used by the integration tests.
//! A family of tables is a list of [`NamedFigure`]s, and [`fan_out`] is the
//! one function that regenerates any such list.

pub mod extensions;
pub mod extras;
pub mod faults;
pub mod fig01_growth;
pub mod fig02_trends;
pub mod fig03_phases;
pub mod fig04_operational;
pub mod fig05_overall;
pub mod fig06_iterative;
pub mod fig07_waterfall;
pub mod fig08_jevons;
pub mod fig09_utilization;
pub mod fig10_histogram;
pub mod fig11_federated;
pub mod fig12_pareto;
pub mod stream;

use sustain_cache::{Cache, CacheKey, KeyEncoder};
use sustain_core::intensity::{AccountingBasis, CarbonIntensity};
use sustain_core::lifecycle::MlPhase;
use sustain_core::operational::OperationalAccount;
use sustain_core::pue::Pue;
use sustain_core::units::{Energy, TimeSpan};
use sustain_par::ParPool;
use sustain_telemetry::tracker::CarbonTracker;

use crate::table::Table;

/// A named regenerator: the obs span name and the function producing the
/// table.
pub type NamedFigure = (&'static str, fn() -> Table);

/// The paper figures by name, in paper order (used so the obs layer can
/// record one `figure.<name>` span per regenerator).
pub const FIGURES: &[NamedFigure] = &[
    ("figure.fig01_growth", fig01_growth::generate),
    ("figure.fig02_trends", fig02_trends::generate),
    ("figure.fig03_phases", fig03_phases::generate),
    ("figure.fig04_operational", fig04_operational::generate),
    ("figure.fig05_overall", fig05_overall::generate),
    ("figure.fig06_iterative", fig06_iterative::generate),
    ("figure.fig07_waterfall", fig07_waterfall::generate),
    ("figure.fig08_jevons", fig08_jevons::generate),
    ("figure.fig09_utilization", fig09_utilization::generate),
    ("figure.fig10_histogram", fig10_histogram::generate),
    ("figure.fig11_federated", fig11_federated::generate),
    ("figure.fig12_pareto", fig12_pareto::generate),
];

/// Cache key for one figure regeneration.
///
/// A figure table is a pure function of the generator (identified by its
/// span name) and the workspace seed, so those two values are the complete
/// key. Code changes within one workspace version are *not* part of the
/// key — the cache is opt-in precisely so the default path always
/// recomputes (see DESIGN.md, "Incremental recomputation").
struct FigureSpec {
    name: &'static str,
}

impl CacheKey for FigureSpec {
    fn namespace(&self) -> &'static str {
        "figure"
    }

    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.write_str(self.name);
        enc.write_u64(crate::SEED);
    }
}

/// Runs one figure generator inside a `figure.<name>` span on the current
/// obs handle ([`sustain_obs::handle`], the task's fork under the pool) —
/// per-figure wall time when `all_figures` runs with `--obs` and a wall
/// clock, a pure pass-through otherwise.
fn traced(name: &'static str, generate: fn() -> Table) -> Table {
    let obs = sustain_obs::handle();
    let _span = obs.span(name);
    let table = generate();
    if obs.enabled() {
        obs.counter("figures_generated_total").inc();
    }
    table
}

/// The tables `all_figures` prints by default, in paper order: the paper
/// figures, the prose experiments ([`extras`]) and the extension studies
/// ([`extensions`]). The robustness ([`faults`]) and streaming ([`stream`])
/// families print only under `--only`, so a change to them never moves
/// `figures_output.txt`.
pub fn catalogue() -> Vec<NamedFigure> {
    FIGURES
        .iter()
        .chain(extras::TABLES)
        .chain(extensions::TABLES)
        .copied()
        .collect()
}

/// Regenerates `tables` on `pool`, one table per task, each inside its
/// `figure.<name>` span. Tables come back in submission order whatever the
/// thread count, and each table's spans are adopted back into the calling
/// thread's obs recording in that same order — the parallelism is
/// invisible in every output byte except the `worker` attribute on
/// `par.task` events. A table that fans out its own sweep gets a nested
/// pool, which degrades to one worker, so this never oversubscribes.
///
/// With a cache, each table is looked up by its name and the workspace
/// seed and only regenerated on a miss (a hit therefore records a
/// `cache.hit` event but no `figure.<name>` span and no
/// `figures_generated_total` bump). Output order and bytes are identical
/// either way — `tests/cache_correctness.rs` holds this to byte equality.
pub fn fan_out(pool: &ParPool, tables: &[NamedFigure], cache: Option<&Cache>) -> Vec<Table> {
    pool.map_indexed(tables.to_vec(), |_, (name, generate)| match cache {
        None => traced(name, generate),
        Some(cache) => cache.get_or_compute(&FigureSpec { name }, || traced(name, generate)),
    })
}

/// [`fan_out`] over the [`catalogue`], uncached: the tables of
/// `figures_output.txt`.
// lint:allow(test-only-pub) benchmark: only benchmark/ renders the default catalogue through it
pub fn all_with_pool(pool: &ParPool) -> Vec<Table> {
    fan_out(pool, &catalogue(), None)
}

/// What `all_figures --obs` runs after its printed tables: the instrumented
/// subsystems no printed table reaches, so the exports cover the whole
/// instrumented surface. It regenerates on `pool` each [`faults`] table that
/// `printed` does not already hold (fleet phases, chaos recovery, Monte
/// Carlo replicas, fault injection and gap imputation) and reports one job
/// through a `CarbonTracker`, which no table builds. It never goes through a
/// cache — the sweep exists to exercise the simulators — and prints
/// nothing. Returns the number of tables it regenerated.
pub fn coverage_sweep(pool: &ParPool, printed: &[NamedFigure]) -> usize {
    let unprinted: Vec<NamedFigure> = faults::TABLES
        .iter()
        .filter(|(name, _)| printed.iter().all(|(done, _)| done != name))
        .copied()
        .collect();
    let swept = fan_out(pool, &unprinted, None).len();
    let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::HYPERSCALE);
    let tracker = CarbonTracker::new("obs-coverage", account);
    tracker.record_energy(MlPhase::OfflineTraining, Energy::from_kilowatt_hours(10.0));
    tracker.record_machine_time(TimeSpan::from_hours(2.0));
    let _ = tracker.report(AccountingBasis::LocationBased);
    swept
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table of every family, the ones only `--only` prints included.
    fn every_table() -> Vec<Table> {
        let mut tables = catalogue();
        tables.extend_from_slice(faults::TABLES);
        tables.extend_from_slice(stream::TABLES);
        fan_out(&ParPool::current(), &tables, None)
    }

    #[test]
    fn every_figure_generates_nonempty_output() {
        for table in every_table() {
            assert!(!table.rows().is_empty(), "{} has no rows", table.title());
            assert!(!table.to_string().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<String> = every_table().iter().map(|t| t.to_string()).collect();
        let b: Vec<String> = every_table().iter().map(|t| t.to_string()).collect();
        assert_eq!(a, b);
    }
}
