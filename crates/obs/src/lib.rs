//! # sustain-obs
//!
//! Observability for the `sustainai` simulators: hierarchical spans, a
//! thread-safe metrics registry, and deterministic exporters.
//!
//! The paper's core argument (§V-A) is that sustainable AI needs
//! fleet-scale *measurement* infrastructure: every published figure is
//! downstream of telemetry someone can inspect. Ground-truthing studies of
//! software carbon trackers show the number alone is not enough — a tracker
//! must expose *how* its number was produced. This crate is that exposure
//! layer for the workspace's own simulators:
//!
//! * [`recorder`] — [`Obs`], a cheap cloneable handle to a [`Recorder`] that
//!   collects hierarchical [`SpanGuard`] spans and structured events. The
//!   default handle is disabled and allocation-free on the hot path, so
//!   instrumented simulations are byte-identical to uninstrumented ones.
//!   An enabled recorder stamps from a work clock that only
//!   [`Obs::add_work`] moves, so exports are deterministic at any thread
//!   count, or from real time under [`ObsConfig::with_wall_clock`].
//!   Simulated time is an event attribute (`hour`, `at_s`), not a stamp.
//! * [`metrics`] — [`Counter`] / [`Gauge`] / [`Histogram`] instruments in a
//!   name-keyed registry; histograms use fixed log-linear buckets.
//! * [`export`] — three deterministic renderers over one recording: a JSONL
//!   event log, a Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`), and a Prometheus text exposition.
//!
//! ## Example
//!
//! ```rust
//! use sustain_obs::ObsConfig;
//!
//! let obs = ObsConfig::enabled().build();
//! {
//!     let _run = obs.span("demo.run");
//!     obs.add_work(60);
//!     obs.counter("demo_iterations_total").inc();
//! }
//! assert!(obs.export_chrome_trace().contains("demo.run"));
//! assert!(obs.export_prometheus().contains("demo_iterations_total"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::cell::RefCell;
use std::sync::OnceLock;

mod clock;
pub mod export;
pub mod metrics;
pub mod recorder;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use recorder::{AttrValue, EventRecord, Obs, ObsConfig, Recorder, SpanGuard};

thread_local! {
    /// This thread's handle, scoped by [`with_task_handle`]: a binary
    /// routes a run into its recording, and a parallel worker thread routes
    /// everything an instrumented subsystem records through its task's
    /// forked recorder.
    static TASK_HANDLE: RefCell<Option<Obs>> = const { RefCell::new(None) };
}

/// The shared disabled handle [`handle`] returns outside any
/// [`with_task_handle`] scope.
static DISABLED: OnceLock<Obs> = OnceLock::new();

/// The current handle: this thread's task override (see
/// [`with_task_handle`]) when one is active, else the disabled handle, so
/// nothing records (and nothing allocates) unless a caller scoped an
/// enabled one. Cloning is a reference-count bump.
pub fn handle() -> Obs {
    if let Some(task) = TASK_HANDLE.with(|t| t.borrow().clone()) {
        return task;
    }
    DISABLED.get_or_init(Obs::disabled).clone()
}

/// Restores the previous thread-local override when the scope ends, even by
/// unwinding — a panicking task must not leak its handle to later tasks run
/// on the same worker thread.
struct TaskHandleReset(Option<Obs>);

impl Drop for TaskHandleReset {
    fn drop(&mut self) {
        let previous = self.0.take();
        TASK_HANDLE.with(|t| *t.borrow_mut() = previous);
    }
}

/// Runs `f` with `obs` as this thread's [`handle`].
///
/// This is the one way to route recording. A binary (`all_figures` under
/// `--obs`) or a test scopes its run with it, and a parallel execution
/// layer (sustain-par) gives each task a [forked](Obs::fork) recorder of
/// the submitting thread's handle: library code keeps calling [`handle`]
/// with no knowledge of the thread hop, and everything it records lands in
/// the task's fork, ready to be [adopted](Obs::adopt) back in submission
/// order. The scope is this thread's alone, so tests running side by side
/// cannot record into each other. Scopes nest; the previous override is
/// restored when `f` returns or unwinds.
pub fn with_task_handle<R>(obs: &Obs, f: impl FnOnce() -> R) -> R {
    let previous = TASK_HANDLE.with(|t| t.borrow_mut().replace(obs.clone()));
    let _reset = TaskHandleReset(previous);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_is_disabled() {
        assert!(!handle().enabled());
    }

    #[test]
    fn handle_is_cheap_to_clone() {
        let a = handle();
        let b = a.clone();
        assert_eq!(a.enabled(), b.enabled());
    }

    #[test]
    fn task_handle_overrides_scoped_and_nested() {
        let task = ObsConfig::enabled().build();
        assert!(!handle().enabled());
        with_task_handle(&task, || {
            assert!(handle().enabled());
            let inner = Obs::disabled();
            with_task_handle(&inner, || assert!(!handle().enabled()));
            assert!(handle().enabled(), "outer override restored");
        });
        assert!(!handle().enabled(), "override dropped at scope end");
    }

    #[test]
    fn task_handle_is_restored_after_a_panic() {
        let task = ObsConfig::enabled().build();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_task_handle(&task, || panic!("task failed"));
        }));
        assert!(result.is_err());
        assert!(!handle().enabled(), "unwinding must restore the override");
    }

    #[test]
    fn task_handle_is_thread_local() {
        let task = ObsConfig::enabled().build();
        with_task_handle(&task, || {
            std::thread::scope(|scope| {
                let seen = scope
                    .spawn(|| handle().enabled())
                    .join()
                    .expect("probe thread");
                assert!(!seen, "override must not leak across threads");
            });
        });
    }
}
