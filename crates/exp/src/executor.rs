//! Pluggable sweep execution: how grid cells get scheduled onto threads.
//!
//! The [`Executor`] contract is deliberately tiny — run `n` independent
//! indexed tasks, deliver each result exactly once on the calling thread —
//! so the grid layer, the figure harnesses and ad-hoc sweeps (e.g. the
//! Figure 8 training curves) can all share one scheduling implementation.
//! Because every task is a pure function of its index, **scheduling can
//! never change results**, only wall time.
//!
//! Executors schedule closures *within* one process. Scaling past one
//! process is the fleet's job (`cohmeleon-fleet`): worker processes
//! rebuild the grid by name and run the cells a queen leases them, since
//! closures don't cross process boundaries.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::channel;

/// Runs indexed, independent tasks and streams their results.
pub trait Executor {
    /// Runs `task(i)` for every `i in 0..tasks` and calls `deliver(i,
    /// result)` exactly once per task, **on the calling thread**, in
    /// completion order (which only [`Serial`] guarantees to be index
    /// order). Returns once every task has been delivered.
    fn run<T: Send>(
        &self,
        tasks: usize,
        task: &(dyn Fn(usize) -> T + Sync),
        deliver: &mut dyn FnMut(usize, T),
    );
}

/// Runs every task on the calling thread, in index order. The reference
/// executor: anything a parallel executor produces must be bit-identical
/// to this one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl Executor for Serial {
    fn run<T: Send>(
        &self,
        tasks: usize,
        task: &(dyn Fn(usize) -> T + Sync),
        deliver: &mut dyn FnMut(usize, T),
    ) {
        for i in 0..tasks {
            deliver(i, task(i));
        }
    }
}

/// A hand-rolled work-stealing pool (no external dependencies): worker
/// threads repeatedly steal the next unclaimed task index from a shared
/// atomic queue head, so long-running cells never leave idle workers — a
/// worker that finishes early simply steals the remaining indices that a
/// static partitioning would have assigned to its siblings.
///
/// Results stream back over a channel and are delivered on the calling
/// thread as they complete (out of index order). Wall time drops by
/// roughly the thread count on cell-heavy grids; results stay
/// bit-identical to [`Serial`] because tasks share no state.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkStealing {
    threads: Option<usize>,
}

impl WorkStealing {
    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn new() -> WorkStealing {
        WorkStealing::default()
    }

    /// A pool with an explicit thread count (≥ 1; 1 degenerates to
    /// serial execution on the calling thread).
    pub fn with_threads(threads: usize) -> WorkStealing {
        WorkStealing {
            threads: Some(threads.max(1)),
        }
    }

    /// The worker count this pool would use for `tasks` tasks.
    pub fn thread_count(&self, tasks: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        self.threads.unwrap_or_else(hw).max(1).min(tasks.max(1))
    }
}

impl Executor for WorkStealing {
    fn run<T: Send>(
        &self,
        tasks: usize,
        task: &(dyn Fn(usize) -> T + Sync),
        deliver: &mut dyn FnMut(usize, T),
    ) {
        let threads = self.thread_count(tasks);
        if tasks == 0 {
            return;
        }
        if threads <= 1 {
            return Serial.run(tasks, task, deliver);
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = channel::unbounded();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    if tx.send((i, task(i))).is_err() {
                        break; // receiver gone: the scope is unwinding
                    }
                });
            }
            drop(tx);
            // Stream results while workers are still running.
            for (i, value) in rx.iter() {
                deliver(i, value);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_delivers_in_index_order() {
        let mut got = Vec::new();
        Serial.run(5, &|i| i * 10, &mut |i, v| got.push((i, v)));
        assert_eq!(got, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn work_stealing_delivers_every_task_exactly_once() {
        let mut seen = vec![0usize; 100];
        WorkStealing::with_threads(4).run(100, &|i| i * i, &mut |i, v| {
            assert_eq!(v, i * i);
            seen[i] += 1;
        });
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn work_stealing_matches_serial_results() {
        let compute = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
        let mut serial = vec![0u64; 64];
        Serial.run(64, &compute, &mut |i, v| serial[i] = v);
        let mut parallel = vec![0u64; 64];
        WorkStealing::new().run(64, &compute, &mut |i, v| parallel[i] = v);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let mut calls = 0;
        Serial.run(0, &|_| (), &mut |_, _| calls += 1);
        WorkStealing::new().run(0, &|_| (), &mut |_, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn thread_counts_are_clamped() {
        assert_eq!(WorkStealing::with_threads(0).thread_count(10), 1);
        assert_eq!(WorkStealing::with_threads(8).thread_count(3), 3);
        assert!(WorkStealing::new().thread_count(1000) >= 1);
    }
}
