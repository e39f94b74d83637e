//! Pool workers are joined, not only awaited: when `map_indexed` returns,
//! every worker thread that ran a task has exited and run its thread-local
//! destructors, so the next batch never overlaps exiting threads.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use sustain_par::ParPool;

/// Thread-local destructors run so far.
static EXITED: AtomicUsize = AtomicUsize::new(0);

/// Counts its thread's exit when the thread-local is destroyed.
struct ExitProbe;

impl Drop for ExitProbe {
    fn drop(&mut self) {
        EXITED.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static PROBE: ExitProbe = const { ExitProbe };
}

#[test]
fn every_worker_has_exited_when_the_batch_returns() {
    let pool = ParPool::new(2);
    let mut workers_used = 0;
    for call in 0..500 {
        let ran_on = pool.map_indexed(vec![(); 4], |_, ()| {
            PROBE.with(|_| ());
            thread::current().id()
        });
        workers_used += ran_on.into_iter().collect::<HashSet<_>>().len();
        assert_eq!(
            EXITED.load(Ordering::SeqCst),
            workers_used,
            "call {call}: a worker thread outlived its batch"
        );
    }
}
