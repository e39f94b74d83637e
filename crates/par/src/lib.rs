//! # sustain-par
//!
//! A std-only deterministic parallel execution layer for the workspace's
//! embarrassingly parallel hot paths: figure regeneration, Monte Carlo
//! fleet replicas, and parameter sweeps.
//!
//! The paper's analyses (Wu et al., MLSys 2022) are fleet-scale
//! aggregations over independent scenario points, and the ground-truthing
//! literature on software carbon trackers (see PAPERS.md) shows that
//! accounting *overhead* decides whether telemetry gets deployed at all.
//! This crate is the repo's answer: run independent tasks on
//! [`std::thread::scope`] workers — no external runtime, consistent with
//! the shim-only dependency policy — under a determinism contract strong
//! enough that **every figure byte is identical for any thread count,
//! including one**:
//!
//! * **Submission-order join.** [`ParPool::map_indexed`] returns results in
//!   the order tasks were submitted, regardless of completion order.
//! * **Per-task seed derivation.** [`ParPool::map_seeded`] hands each task
//!   an independent seed from [`task_seed`], a splitmix64-style mix of
//!   `(base_seed, index)` — the same derive-per-stream pattern
//!   `sustain-telemetry`'s fault injector uses, so task RNG streams never
//!   depend on which worker ran them.
//! * **Deterministic observability.** Each task records into a
//!   [fork](sustain_obs::Obs::fork) of the submitting thread's recorder
//!   (routed via [`sustain_obs::with_task_handle`]), and the forks are
//!   [adopted](sustain_obs::Obs::adopt) back in submission order — the
//!   merged event log, work-clock timestamps and metrics are identical to
//!   a sequential run: each fork is shifted to the parent's clock reading,
//!   its work is carried back, and its registry folds into the parent's.
//!   Only the `worker` attribute on `par.task` events reflects actual
//!   scheduling.
//!
//! ## Example
//!
//! ```rust
//! use sustain_par::ParPool;
//!
//! let serial = ParPool::new(1);
//! let parallel = ParPool::new(4);
//! let squares = |pool: &ParPool| pool.map_indexed(vec![1u64, 2, 3], |_, x| x * x);
//! assert_eq!(squares(&serial), squares(&parallel));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use parking_lot::Mutex;

use sustain_obs::{with_task_handle, Obs};

/// Process-wide thread-count override installed by [`ParPool::set_threads`]
/// (0 = no override). Lets a binary's `--threads` flag govern every
/// [`ParPool::current`] pool created anywhere below it.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is executing a pool task. Pools constructed
    /// inside a task degrade to one worker ([`ParPool::current`]) so nested
    /// parallelism cannot oversubscribe the machine.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Restores the previous [`IN_TASK`] flag when a task scope ends, even by
/// unwinding.
struct TaskScope(bool);

impl Drop for TaskScope {
    fn drop(&mut self) {
        let previous = self.0;
        IN_TASK.with(|flag| flag.set(previous));
    }
}

fn enter_task() -> TaskScope {
    TaskScope(IN_TASK.with(|flag| flag.replace(true)))
}

/// The seed for task `index` of a run with `base_seed`: a splitmix64-style
/// finalizer over the pair, so every task owns an independent RNG stream
/// derived only from `(base_seed, index)` — never from scheduling. This is
/// the parallel analogue of `sustain-telemetry`'s per-stream seed hashing.
pub fn task_seed(base_seed: u64, index: u64) -> u64 {
    // splitmix64 constants (Steele et al., "Fast splittable pseudorandom
    // number generators", OOPSLA 2014) — the same mixer rand's shim uses to
    // expand `seed_from_u64`.
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One task's slot in the result table: filled in submission order, joined
/// in submission order.
enum Slot<T, U> {
    Pending(T),
    Running,
    Done(U),
    Panicked(String),
}

/// A fixed-width pool of scoped worker threads.
///
/// The pool holds no threads between calls: each [`ParPool::map_indexed`]
/// opens one [`std::thread::scope`], runs the whole batch, and joins every
/// worker's handle before returning. That keeps the type trivially
/// `Send`/`Sync`-free and makes worker lifetime exactly the batch lifetime
/// — no draining, no shutdown protocol. The explicit joins matter: the
/// scope by itself returns once the worker closures finish, while their
/// threads may still be exiting, and a batch spawned meanwhile can push
/// the allocator into fresh per-thread arenas that raise peak memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParPool {
    workers: usize,
}

impl ParPool {
    /// A pool with `threads` workers. Zero degrades to one worker (serial
    /// execution on the calling thread); output is identical either way.
    pub fn new(threads: usize) -> ParPool {
        ParPool {
            workers: threads.max(1),
        }
    }

    /// The pool a hot path should use *here and now*:
    ///
    /// 1. inside a pool task → one worker (nested parallelism would
    ///    oversubscribe; determinism is unaffected),
    /// 2. else a [`ParPool::set_threads`] override, if installed,
    /// 3. else `SUSTAIN_THREADS` from the environment,
    /// 4. else [`std::thread::available_parallelism`].
    pub fn current() -> ParPool {
        if IN_TASK.with(Cell::get) {
            return ParPool::new(1);
        }
        let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
        if forced > 0 {
            return ParPool::new(forced);
        }
        ParPool::new(default_threads())
    }

    /// Installs a process-wide thread-count override for
    /// [`ParPool::current`] (how `all_figures --threads N` takes effect);
    /// 0 clears it.
    pub fn set_threads(threads: usize) {
        THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
    }

    /// Number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.workers
    }

    /// Runs `f(index, item)` over `items` on the pool and returns the
    /// results **in submission order**, whatever order tasks finished in.
    ///
    /// Each task records a `par.task` span (with `task` and `worker` ids)
    /// into a fork of the submitting thread's [`sustain_obs::handle`], and
    /// the forks are adopted back in submission order, parented under the
    /// span open at the call site — so traces are byte-identical across
    /// thread counts except for the `worker` attribute. Every worker thread
    /// has exited, thread-local destructors included, before this returns.
    ///
    /// # Panics
    ///
    /// If a task panics, the batch finishes draining, remaining queued
    /// tasks are cancelled, and this call re-panics with the lowest
    /// panicking task index in the message.
    pub fn map_indexed<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let parent = sustain_obs::handle();
        let parent_span = parent.current_span_id();
        let forks: Vec<Obs> = (0..n).map(|_| parent.fork()).collect();
        let slots: Vec<Mutex<Slot<T, U>>> = items
            .into_iter()
            .map(|item| Mutex::new(Slot::Pending(item)))
            .collect();
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let workers = self.workers.min(n);

        let run_worker = |worker: usize| {
            while !poisoned.load(Ordering::Relaxed) {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let Some(slot) = slots.get(index) else { break };
                let item = {
                    let mut slot = slot.lock();
                    match std::mem::replace(&mut *slot, Slot::Running) {
                        Slot::Pending(item) => item,
                        other => {
                            *slot = other;
                            break;
                        }
                    }
                };
                let Some(fork) = forks.get(index) else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    with_task_handle(fork, || {
                        let _task = enter_task();
                        let _span = fork.span("par.task");
                        fork.event(
                            "par.task",
                            &[
                                ("task", (index as u64).into()),
                                ("worker", (worker as u64).into()),
                            ],
                        );
                        f(index, item)
                    })
                }));
                match outcome {
                    Ok(value) => *slot.lock() = Slot::Done(value),
                    Err(payload) => {
                        poisoned.store(true, Ordering::Relaxed);
                        *slot.lock() = Slot::Panicked(panic_message(payload.as_ref()));
                    }
                }
            }
        };

        if workers <= 1 {
            // Serial fast path: same fork/adopt flow, no thread hop at all.
            run_worker(0);
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        let run_worker = &run_worker;
                        scope.spawn(move || run_worker(worker))
                    })
                    .collect();
                // The scope alone waits only for the closures to finish; a
                // join also waits for each thread to exit, thread-local
                // destructors included. Task panics are caught inside
                // `run_worker`, so a failed join is a pool bug, re-raised.
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }

        for fork in &forks {
            parent.adopt(fork, parent_span);
        }

        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<(usize, String)> = None;
        for (index, slot) in slots.into_iter().enumerate() {
            match slot.into_inner() {
                Slot::Done(value) => out.push(value),
                Slot::Panicked(message) => {
                    if first_panic.is_none() {
                        first_panic = Some((index, message));
                    }
                }
                Slot::Pending(_) | Slot::Running => {}
            }
        }
        if let Some((index, message)) = first_panic {
            // Task panics are caller bugs surfaced verbatim; swallowing one
            // would silently truncate figure output. Tasks are pulled in
            // index order, so the lowest panicking index is deterministic.
            // lint:allow(panic-discipline)
            panic!("par: task {index} panicked: {message}");
        }
        out
    }

    /// Runs `f(index, seed)` for `n` tasks, each with its own
    /// [`task_seed`]-derived seed, joined in submission order. The seed a
    /// task sees depends only on `(base_seed, index)`, so seeded Monte
    /// Carlo replicas are byte-identical for any thread count.
    pub fn map_seeded<U, F>(&self, n: usize, base_seed: u64, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, u64) -> U + Sync,
    {
        let seeds: Vec<u64> = (0..n).map(|i| task_seed(base_seed, i as u64)).collect();
        self.map_indexed(seeds, f)
    }
}

impl Default for ParPool {
    /// Equivalent to [`ParPool::current`].
    fn default() -> ParPool {
        ParPool::current()
    }
}

/// Thread count from `SUSTAIN_THREADS` (positive integers only), else the
/// machine's available parallelism, else 1. Reading the environment here is
/// deliberate: thread count never influences simulation output (the whole
/// point of this crate), only wall time.
fn default_threads() -> usize {
    if let Ok(value) = std::env::var("SUSTAIN_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Best-effort rendering of a caught panic payload (`&str` and `String`
/// cover every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sustain_core::units::TimeSpan;
    use sustain_obs::{AttrValue, EventRecord, ObsConfig};

    #[test]
    fn results_join_in_submission_order() {
        let pool = ParPool::new(4);
        // Front-load the heaviest work on early indices so completion order
        // differs from submission order under real parallelism.
        let out = pool.map_indexed((0..64u64).collect(), |index, value| {
            let spins = (64 - index as u64) * 1_000;
            let mut acc = value;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (index, value, acc % 2 < 2)
        });
        assert_eq!(out.len(), 64);
        for (index, entry) in out.iter().enumerate() {
            assert_eq!(entry.0, index);
            assert_eq!(entry.1, index as u64);
        }
    }

    #[test]
    fn empty_input_returns_empty_output() {
        let pool = ParPool::new(4);
        let out: Vec<u64> = pool.map_indexed(Vec::<u64>::new(), |_, v| v);
        assert!(out.is_empty());
        let seeded: Vec<u64> = pool.map_seeded(0, 7, |_, seed| seed);
        assert!(seeded.is_empty());
    }

    #[test]
    fn zero_threads_degrades_to_serial() {
        let pool = ParPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool.map_indexed(vec![10u64, 20, 30], |i, v| v + i as u64);
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn panic_carries_the_lowest_task_index() {
        for threads in [1, 4] {
            let pool = ParPool::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.map_indexed((0..16u64).collect(), |index, value| {
                    // Tasks are pulled in index order, so task 3 always
                    // panics before task 11 can poison the batch.
                    assert!(index != 3 && index != 11, "boom at {index}");
                    value
                })
            }));
            let payload = caught.expect_err("batch must fail");
            let message = panic_message(payload.as_ref());
            assert!(
                message.contains("task 3"),
                "expected lowest index in {message:?}"
            );
            assert!(message.contains("boom at 3"), "payload kept: {message:?}");
        }
    }

    #[test]
    fn seeds_are_independent_of_thread_count() {
        let serial = ParPool::new(1).map_seeded(32, 42, |index, seed| (index, seed));
        let parallel = ParPool::new(4).map_seeded(32, 42, |index, seed| (index, seed));
        assert_eq!(serial, parallel);
        let mut seeds: Vec<u64> = serial.iter().map(|(_, s)| *s).collect();
        assert_eq!(seeds, (0..32).map(|i| task_seed(42, i)).collect::<Vec<_>>());
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 32, "per-task seeds must not collide");
        assert_ne!(task_seed(42, 0), task_seed(43, 0), "base seed must matter");
    }

    #[test]
    fn nested_pools_degrade_to_one_worker() {
        let pool = ParPool::new(4);
        let nested_threads = pool.map_indexed(vec![(), ()], |_, ()| ParPool::current().threads());
        assert_eq!(nested_threads, vec![1, 1]);
        assert!(
            ParPool::current().threads() >= 1,
            "outside a task the pool is real again"
        );
    }

    #[test]
    fn set_threads_overrides_current() {
        ParPool::set_threads(3);
        assert_eq!(ParPool::current().threads(), 3);
        ParPool::set_threads(0);
        assert!(ParPool::current().threads() >= 1);
    }

    /// Normalizes the scheduling-dependent `worker` attribute so event logs
    /// can be compared across thread counts.
    fn mask_worker(events: Vec<EventRecord>) -> Vec<EventRecord> {
        events
            .into_iter()
            .map(|record| match record {
                EventRecord::Instant {
                    parent,
                    name,
                    at,
                    attrs,
                } => EventRecord::Instant {
                    parent,
                    name,
                    at,
                    attrs: attrs
                        .into_iter()
                        .map(|(key, value)| {
                            if key == "worker" {
                                (key, AttrValue::U64(0))
                            } else {
                                (key, value)
                            }
                        })
                        .collect(),
                },
                span => span,
            })
            .collect()
    }

    #[test]
    fn task_spans_are_adopted_under_the_submitting_span() {
        let run = |threads: usize| {
            let obs = ObsConfig::enabled().build();
            obs.add_work(5);
            with_task_handle(&obs, || {
                let _batch = obs.span("batch");
                ParPool::new(threads).map_indexed(vec![0u64, 1, 2], |_, v| {
                    let handle = sustain_obs::handle();
                    let _inner = handle.span("task.inner");
                    handle.counter("tasks_total").inc();
                    handle.add_work(10);
                    v
                });
            });
            obs
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            mask_worker(serial.events()),
            mask_worker(parallel.events()),
            "adopted logs must match across thread counts"
        );
        // Shape: three (inner span, par.task event, par.task span) triples,
        // then the closing `batch` span, all parented under it.
        let events = serial.events();
        assert_eq!(events.len(), 10);
        let batch_id = match events.last() {
            Some(EventRecord::Span { id, name, .. }) => {
                assert_eq!(*name, "batch");
                *id
            }
            other => panic!("expected closing batch span, got {other:?}"),
        };
        let task_spans: Vec<&EventRecord> = events
            .iter()
            .filter(|e| matches!(e, EventRecord::Span { name, .. } if *name == "par.task"))
            .collect();
        assert_eq!(task_spans.len(), 3);
        for (task, span) in task_spans.into_iter().enumerate() {
            match span {
                EventRecord::Span { parent, start, .. } => {
                    assert_eq!(*parent, Some(batch_id), "linkage survives the hop");
                    // Each task starts where its predecessors' work ended.
                    let origin = TimeSpan::from_secs(5.0 + 10.0 * task as f64);
                    assert_eq!(*start, origin, "adopted as if run in sequence");
                }
                _ => unreachable!(),
            }
        }
        assert!(
            (serial.counter("tasks_total").value() - 3.0).abs() < 1e-9,
            "fork counters fold into the parent registry"
        );
    }

    #[test]
    fn disabled_handle_keeps_the_pool_silent() {
        let obs = sustain_obs::Obs::disabled();
        with_task_handle(&obs, || {
            let out = ParPool::new(4).map_indexed(vec![1u64, 2], |_, v| v * 10);
            assert_eq!(out, vec![10, 20]);
        });
        assert_eq!(obs.event_count(), 0);
    }
}
