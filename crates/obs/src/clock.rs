//! The recorder's clock. The default *work* clock moves only by the units
//! instrumented code reports through [`Obs::add_work`](crate::Obs::add_work)
//! (one unit reads as one second), so exports are byte-identical across
//! runs and thread counts. The *wall* clock reads real elapsed time for
//! profiling runs; this file is the one place the `cargo xtask lint`
//! determinism rule lets wall-clock time enter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sustain_core::units::TimeSpan;

/// A recorder clock.
#[derive(Debug)]
pub(crate) enum Clock {
    /// Work units reported so far. `Relaxed` suffices: the count publishes
    /// no other data, and a fork is absorbed only after its task is joined.
    Work(AtomicU64),
    /// Real time since this origin; work reports are ignored.
    Wall(Instant),
}

impl Clock {
    /// A work clock at zero.
    pub(crate) fn work() -> Clock {
        Clock::Work(AtomicU64::new(0))
    }

    /// A wall clock whose zero is "now".
    pub(crate) fn wall() -> Clock {
        Clock::Wall(Instant::now())
    }

    /// The current reading.
    pub(crate) fn now(&self) -> TimeSpan {
        match self {
            Clock::Work(units) => TimeSpan::from_secs(units.load(Ordering::Relaxed) as f64),
            Clock::Wall(origin) => TimeSpan::from(origin.elapsed()),
        }
    }

    /// Counts `units` of work (ignored by a wall clock).
    pub(crate) fn advance(&self, units: u64) {
        if let Clock::Work(total) = self {
            total.fetch_add(units, Ordering::Relaxed);
        }
    }

    /// The clock for one task forked off this one: a work clock restarts
    /// at zero, a wall clock keeps its origin.
    pub(crate) fn fork(&self) -> Clock {
        match self {
            Clock::Work(_) => Clock::work(),
            Clock::Wall(origin) => Clock::Wall(*origin),
        }
    }

    /// Carries a finished fork's work back, as if it had run here in
    /// sequence: advances by the fork's total and returns the reading before
    /// that, the offset for the fork's timestamps (zero on a wall clock).
    pub(crate) fn absorb(&self, fork: &Clock) -> TimeSpan {
        match (self, fork) {
            (Clock::Work(total), Clock::Work(forked)) => {
                let base = total.fetch_add(forked.load(Ordering::Relaxed), Ordering::Relaxed);
                TimeSpan::from_secs(base as f64)
            }
            _ => TimeSpan::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_clock_counts_units_as_seconds() {
        let c = Clock::work();
        assert_eq!(c.now(), TimeSpan::ZERO);
        c.advance(3);
        c.advance(2);
        assert_eq!(c.now(), TimeSpan::from_secs(5.0));
    }

    #[test]
    fn wall_clock_is_monotone_and_ignores_work() {
        let c = Clock::wall();
        let a = c.now();
        c.advance(u64::MAX);
        let b = c.now();
        assert!(b >= a);
        assert!(b < TimeSpan::from_years(1.0), "work must be ignored");
    }

    #[test]
    fn work_fork_restarts_and_absorb_carries_its_work_back() {
        let parent = Clock::work();
        parent.advance(7);
        let child = parent.fork();
        assert_eq!(child.now(), TimeSpan::ZERO);
        child.advance(4);
        assert_eq!(parent.now(), TimeSpan::from_secs(7.0), "parent untouched");
        assert_eq!(parent.absorb(&child), TimeSpan::from_secs(7.0));
        assert_eq!(parent.now(), TimeSpan::from_secs(11.0));
    }

    #[test]
    fn wall_fork_keeps_its_origin_and_absorbs_nothing() {
        let parent = Clock::wall();
        let child = parent.fork();
        match (&parent, &child) {
            (Clock::Wall(a), Clock::Wall(b)) => assert_eq!(a, b),
            other => panic!("wall clocks fork to wall clocks, got {other:?}"),
        }
        assert_eq!(parent.absorb(&child), TimeSpan::ZERO);
        assert_eq!(Clock::work().absorb(&child), TimeSpan::ZERO);
    }
}
