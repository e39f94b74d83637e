//! The span/event recorder and its cheap cloneable handle, [`Obs`].
//!
//! Instrumented code takes an [`Obs`] from [`crate::handle`] (disabled
//! unless a caller scoped an enabled one with [`crate::with_task_handle`])
//! and emits spans, events, and metric updates through it. A *disabled*
//! handle is allocation-free on the hot path: [`Obs::span`] returns an
//! inert guard and [`Obs::event`] returns before touching its attributes,
//! so an instrumented simulation is byte-identical to an uninstrumented one
//! — observability never draws from an RNG and never prints.
//!
//! Span hierarchy is tracked with an explicit open-span stack inside the
//! recorder: single-threaded simulators (all of this workspace's hot paths)
//! get exact parent links; concurrent recording stays safe because a
//! closing guard removes *its own* id wherever it sits in the stack.
//!
//! Timestamps come from a work clock that only [`Obs::add_work`] moves, or
//! from real time under [`ObsConfig::with_wall_clock`].

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use sustain_core::units::TimeSpan;

use crate::clock::Clock;
use crate::metrics::{Counter, Gauge, Histogram, Registry};

/// A structured attribute value on an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// A floating-point measurement.
    F64(f64),
    /// An integer count.
    U64(u64),
    /// A static label (fault class, policy name, …).
    Str(&'static str),
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// One recorded item, in completion order.
#[derive(Debug, Clone, PartialEq)]
pub enum EventRecord {
    /// A completed span (recorded when its guard drops).
    Span {
        /// Recorder-unique span id (assigned at open, in open order).
        id: u64,
        /// The id of the span open when this one was opened.
        parent: Option<u64>,
        /// Span name (`subsystem.phase` convention).
        name: &'static str,
        /// Clock time at open.
        start: TimeSpan,
        /// Clock time at close.
        end: TimeSpan,
    },
    /// An instant event with structured attributes.
    Instant {
        /// The id of the span open when the event fired.
        parent: Option<u64>,
        /// Event name (`subsystem.what` convention).
        name: &'static str,
        /// Clock time at the event.
        at: TimeSpan,
        /// Structured payload.
        attrs: Vec<(&'static str, AttrValue)>,
    },
}

#[derive(Debug, Default)]
struct RecorderState {
    next_id: u64,
    stack: Vec<u64>,
    events: Vec<EventRecord>,
}

/// The recording sink behind an [`Obs`] handle.
pub struct Recorder {
    enabled: bool,
    clock: Clock,
    state: Mutex<RecorderState>,
    registry: Registry,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("events", &self.state.lock().events.len())
            .field("registry", &self.registry)
            .finish()
    }
}

/// Builds a [`Recorder`] wrapped in an [`Obs`] handle.
///
/// ```rust
/// use sustain_obs::ObsConfig;
///
/// let off = ObsConfig::disabled().build();
/// assert!(!off.enabled());
/// let on = ObsConfig::enabled().build(); // work clock by default
/// assert!(on.enabled());
/// ```
#[derive(Debug)]
pub struct ObsConfig {
    enabled: bool,
    clock: Clock,
}

impl ObsConfig {
    /// The default no-op configuration: nothing records, nothing allocates
    /// on the hot path, figure outputs stay byte-identical.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            clock: Clock::work(),
        }
    }

    /// An enabled configuration on a work clock — deterministic by
    /// default: timestamps count only the work reported through
    /// [`Obs::add_work`].
    pub fn enabled() -> ObsConfig {
        ObsConfig {
            enabled: true,
            clock: Clock::work(),
        }
    }

    /// Stamps with real elapsed time instead — for profiling runs
    /// (`all_figures --obs`), where per-figure wall time matters more than
    /// byte-stable exports.
    pub fn with_wall_clock(mut self) -> ObsConfig {
        self.clock = Clock::wall();
        self
    }

    /// Builds the recorder and returns its handle.
    pub fn build(self) -> Obs {
        Obs::start(self.enabled, self.clock)
    }
}

/// A cheap cloneable handle to a [`Recorder`]. Cloning bumps a reference
/// count; all clones record into the same sink.
#[derive(Clone, Debug)]
pub struct Obs {
    rec: Arc<Recorder>,
}

impl Obs {
    /// A handle to a fresh recorder on `clock`.
    fn start(enabled: bool, clock: Clock) -> Obs {
        Obs {
            rec: Arc::new(Recorder {
                enabled,
                clock,
                state: Mutex::new(RecorderState::default()),
                registry: Registry::new(),
            }),
        }
    }

    /// A fresh disabled handle (the hot-path no-op).
    pub fn disabled() -> Obs {
        ObsConfig::disabled().build()
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.rec.enabled
    }

    /// Counts `units` of deterministic work, the only thing that moves the
    /// default clock (one unit reads as one second). Instrumented layers
    /// call this in their own unit — events dispatched, job-hours
    /// integrated — so span durations count *work done* instead of wall
    /// time: the basis of the work-counter profiles in `sustain-prof`,
    /// byte-identical across thread counts. Ignored by wall clocks, a no-op
    /// on disabled handles.
    pub fn add_work(&self, units: u64) {
        if self.rec.enabled {
            self.rec.clock.advance(units);
        }
    }

    /// Opens a span; it closes (and records) when the returned guard drops.
    /// On a disabled handle this is a branch and an inert guard — no
    /// allocation, no lock.
    #[must_use = "a span records when its guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if !self.rec.enabled {
            return SpanGuard { inner: None };
        }
        let start = self.rec.clock.now();
        let (id, parent) = {
            let mut st = self.rec.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            let parent = st.stack.last().copied();
            st.stack.push(id);
            (id, parent)
        };
        SpanGuard {
            inner: Some(SpanInner {
                rec: Arc::clone(&self.rec),
                id,
                parent,
                name,
                start,
            }),
        }
    }

    /// Records an instant event with structured attributes, parented to the
    /// innermost open span. Returns before touching `attrs` when disabled.
    pub fn event(&self, name: &'static str, attrs: &[(&'static str, AttrValue)]) {
        if !self.rec.enabled {
            return;
        }
        let at = self.rec.clock.now();
        let mut st = self.rec.state.lock();
        let parent = st.stack.last().copied();
        st.events.push(EventRecord::Instant {
            parent,
            name,
            at,
            attrs: attrs.to_vec(),
        });
    }

    /// Gets or creates a counter in the recorder's registry. On a disabled
    /// handle this returns a detached counter and leaves the registry empty
    /// (hot loops should additionally guard updates with [`Obs::enabled`]).
    pub fn counter(&self, name: &'static str) -> Counter {
        if !self.rec.enabled {
            return Counter::default();
        }
        self.rec.registry.counter(name)
    }

    /// Gets or creates a gauge in the recorder's registry (detached when
    /// disabled, like [`Obs::counter`]).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        if !self.rec.enabled {
            return Gauge::default();
        }
        self.rec.registry.gauge(name)
    }

    /// Gets or creates a histogram in the recorder's registry (detached when
    /// disabled, like [`Obs::counter`]).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        if !self.rec.enabled {
            return Histogram::default();
        }
        self.rec.registry.histogram(name)
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.rec.registry
    }

    /// A snapshot of everything recorded so far, in completion order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.rec.state.lock().events.clone()
    }

    /// Number of records so far (cheaper than [`Obs::events`]).
    pub fn event_count(&self) -> usize {
        self.rec.state.lock().events.len()
    }

    /// The id of the innermost open span (`None` when no span is open or the
    /// handle is disabled). A parallel-execution layer captures this on the
    /// submitting thread so task recordings can be re-parented under it when
    /// they are [adopted](Obs::adopt) back.
    pub fn current_span_id(&self) -> Option<u64> {
        if !self.rec.enabled {
            return None;
        }
        self.rec.state.lock().stack.last().copied()
    }

    /// A recorder for one parallel task forked off this one: same enablement,
    /// a forked clock (a work clock restarts at zero, a wall clock keeps its
    /// origin), and a fresh event log and metrics registry of its own. Merge
    /// the recording back with [`Obs::adopt`]; on a disabled handle this is
    /// just a cheap clone.
    pub fn fork(&self) -> Obs {
        if !self.rec.enabled {
            return self.clone();
        }
        Obs::start(true, self.rec.clock.fork())
    }

    /// Merges a finished [fork](Obs::fork)'s recording into this one, as if
    /// its task had run here.
    ///
    /// Local span ids are remapped into this recorder's id space by a fixed
    /// offset, and root records (those with no parent inside the fork) are
    /// re-parented under `parent`. A work clock shifts the fork's timestamps
    /// by its current reading, then advances by the fork's total work; a
    /// wall clock does neither. The fork's metrics fold into this registry.
    /// So a parallel layer that adopts its task forks in submission order
    /// records exactly what the same tasks run sequentially would, for any
    /// thread count. No-op when either handle is disabled or `fork` is this
    /// recorder itself.
    pub fn adopt(&self, fork: &Obs, parent: Option<u64>) {
        if !self.rec.enabled || !fork.rec.enabled || Arc::ptr_eq(&self.rec, &fork.rec) {
            return;
        }
        let (events, id_span) = {
            let st = fork.rec.state.lock();
            (st.events.clone(), st.next_id)
        };
        self.rec.registry.merge(&fork.rec.registry);
        let shift = self.rec.clock.absorb(&fork.rec.clock);
        let mut st = self.rec.state.lock();
        let base = st.next_id;
        st.next_id += id_span;
        let remap = |local: Option<u64>| match local {
            Some(id) => Some(base + id),
            None => parent,
        };
        for record in events {
            st.events.push(match record {
                EventRecord::Span {
                    id,
                    parent,
                    name,
                    start,
                    end,
                } => EventRecord::Span {
                    id: base + id,
                    parent: remap(parent),
                    name,
                    start: shift + start,
                    end: shift + end,
                },
                EventRecord::Instant {
                    parent,
                    name,
                    at,
                    attrs,
                } => EventRecord::Instant {
                    parent: remap(parent),
                    name,
                    at: shift + at,
                    attrs,
                },
            });
        }
    }
}

struct SpanInner {
    rec: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: TimeSpan,
}

/// Closes its span on drop. Inert (and allocation-free) when produced by a
/// disabled handle.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(s) => f
                .debug_struct("SpanGuard")
                .field("id", &s.id)
                .field("name", &s.name)
                .finish(),
            None => f.write_str("SpanGuard(inert)"),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let end = s.rec.clock.now();
            let mut st = s.rec.state.lock();
            // Remove this span's own id wherever it sits: exact for nested
            // single-threaded use, safe under concurrent interleaving.
            if let Some(pos) = st.stack.iter().rposition(|open| *open == s.id) {
                st.stack.remove(pos);
            }
            st.events.push(EventRecord::Span {
                id: s.id,
                parent: s.parent,
                name: s.name,
                start: s.start,
                end,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        {
            let _s = obs.span("a");
            obs.event("e", &[("k", 1.0.into())]);
        }
        assert_eq!(obs.event_count(), 0);
    }

    #[test]
    fn disabled_handle_keeps_registry_empty() {
        let obs = Obs::disabled();
        obs.counter("c_total").inc();
        obs.gauge("g").set(1.0);
        obs.histogram("h").record(1.0);
        assert!(obs.registry().is_empty());
    }

    #[test]
    fn add_work_advances_the_work_clock_per_unit() {
        let obs = ObsConfig::enabled().build();
        {
            let _s = obs.span("hot.loop");
            obs.add_work(3);
            obs.add_work(2);
        }
        match &obs.events()[0] {
            EventRecord::Span { start, end, .. } => {
                assert_eq!(*start, TimeSpan::ZERO);
                assert_eq!(*end, TimeSpan::from_secs(5.0));
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn spans_nest_and_record_in_completion_order() {
        let obs = ObsConfig::enabled().build();
        obs.add_work(1);
        {
            let _outer = obs.span("outer");
            obs.add_work(1);
            {
                let _inner = obs.span("inner");
                obs.add_work(1);
            }
        }
        let events = obs.events();
        assert_eq!(events.len(), 2);
        match &events[0] {
            EventRecord::Span {
                id,
                parent,
                name,
                start,
                end,
            } => {
                assert_eq!(*name, "inner");
                assert_eq!(*id, 1);
                assert_eq!(*parent, Some(0));
                assert_eq!(*start, TimeSpan::from_secs(2.0));
                assert_eq!(*end, TimeSpan::from_secs(3.0));
            }
            other => panic!("expected inner span, got {other:?}"),
        }
        match &events[1] {
            EventRecord::Span {
                id, parent, name, ..
            } => {
                assert_eq!(*name, "outer");
                assert_eq!(*id, 0);
                assert_eq!(*parent, None);
            }
            other => panic!("expected outer span, got {other:?}"),
        }
    }

    #[test]
    fn events_attach_to_innermost_open_span() {
        let obs = ObsConfig::enabled().build();
        {
            let _s = obs.span("parent");
            obs.event("fault", &[("kind", "dropout".into()), ("n", 3u64.into())]);
        }
        let events = obs.events();
        match &events[0] {
            EventRecord::Instant {
                parent,
                name,
                attrs,
                ..
            } => {
                assert_eq!(*parent, Some(0));
                assert_eq!(*name, "fault");
                assert_eq!(attrs.len(), 2);
                assert_eq!(attrs[0], ("kind", AttrValue::Str("dropout")));
            }
            other => panic!("expected instant, got {other:?}"),
        }
    }

    #[test]
    fn guard_drop_order_is_robust_out_of_order() {
        let obs = ObsConfig::enabled().build();
        let a = obs.span("a");
        let b = obs.span("b");
        drop(a); // out of order on purpose
        obs.event("after_a", &[]);
        drop(b);
        let events = obs.events();
        // The event fired while `b` was still the innermost open span.
        match &events[1] {
            EventRecord::Instant { parent, .. } => assert_eq!(*parent, Some(1)),
            other => panic!("expected instant, got {other:?}"),
        }
    }

    #[test]
    fn fork_adopt_matches_sequential_recording() {
        // Reference: everything recorded sequentially on one handle.
        let seq = ObsConfig::enabled().build();
        seq.add_work(2);
        {
            let _outer = seq.span("outer");
            seq.add_work(1);
            for task in 0..3u64 {
                let _t = seq.span("task");
                seq.add_work(task + 1);
                seq.event("work", &[("task", task.into())]);
            }
        }
        // Same shape through fork + submission-order adopt: timestamps
        // included, because adopt shifts each fork by the parent's reading
        // and then carries its work back.
        let par = ObsConfig::enabled().build();
        par.add_work(2);
        {
            let _outer = par.span("outer");
            par.add_work(1);
            let parent = par.current_span_id();
            let forks: Vec<Obs> = (0..3u64)
                .map(|task| {
                    let fork = par.fork();
                    {
                        let _t = fork.span("task");
                        fork.add_work(task + 1);
                        fork.event("work", &[("task", task.into())]);
                    }
                    fork
                })
                .collect();
            for fork in &forks {
                par.adopt(fork, parent);
            }
        }
        assert_eq!(seq.events(), par.events());
    }

    #[test]
    fn adopt_folds_metrics_in_submission_order() {
        let record = |obs: &Obs, task: u64| {
            obs.counter("tasks_total").inc();
            obs.counter("energy_joules_total")
                .add(0.1 * (task + 1) as f64);
            obs.gauge("last_task").set(task as f64);
            obs.histogram("task_size").record((task + 1) as f64);
        };
        let seq = ObsConfig::enabled().build();
        for task in 0..2 {
            record(&seq, task);
        }
        // Two forks updated in reverse completion order, adopted in
        // submission order.
        let par = ObsConfig::enabled().build();
        let forks = [par.fork(), par.fork()];
        record(&forks[1], 1);
        record(&forks[0], 0);
        for fork in &forks {
            par.adopt(fork, None);
        }
        assert_eq!(seq.export_prometheus(), par.export_prometheus());
        assert!(
            (par.gauge("last_task").value() - 1.0).abs() < 1e-12,
            "the last-submitted task's gauge wins"
        );
    }

    #[test]
    fn fork_records_its_own_registry_and_adopt_reparents_roots() {
        let obs = ObsConfig::enabled().build();
        let root = obs.span("root");
        let parent = obs.current_span_id();
        let fork = obs.fork();
        fork.counter("tasks_total").inc();
        {
            let _t = fork.span("task");
        }
        assert!(obs.registry().is_empty(), "the fork keeps its own registry");
        obs.adopt(&fork, parent);
        drop(root);
        // Adopting folded the fork's counter into the parent registry.
        assert!((obs.counter("tasks_total").value() - 1.0).abs() < 1e-9);
        match &obs.events()[0] {
            EventRecord::Span { name, parent, .. } => {
                assert_eq!(*name, "task");
                assert_eq!(*parent, Some(0), "fork root re-parented under `root`");
            }
            other => panic!("expected task span, got {other:?}"),
        }
    }

    #[test]
    fn disabled_fork_and_self_adopt_are_no_ops() {
        let off = Obs::disabled();
        let fork = off.fork();
        assert!(!fork.enabled());
        off.adopt(&fork, None);
        assert_eq!(off.event_count(), 0);
        // Adopting a recorder into itself must not deadlock or duplicate.
        let on = ObsConfig::enabled().build();
        {
            let _s = on.span("a");
        }
        let clone = on.clone();
        on.adopt(&clone, None);
        assert_eq!(on.event_count(), 1);
    }

    #[test]
    fn handle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<Recorder>();
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let obs = ObsConfig::enabled().build();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let _s = obs.span("worker");
                        obs.counter("worker_iterations_total").inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        assert_eq!(obs.event_count(), 200);
        assert!((obs.counter("worker_iterations_total").value() - 200.0).abs() < 1e-9);
    }
}
