//! A dependency-free thread pool and a deterministic fan-out helper.
//!
//! The evaluation harnesses sweep many completely independent
//! `(workload, mode, config)` simulations; this module lets them run
//! `NSC_JOBS` wide while keeping every observable output bit-identical
//! to a serial run. Two layers:
//!
//! * [`ThreadPool`] — a classic shared-work-queue pool (a `Mutex`'d
//!   `VecDeque` drained by `Condvar`-parked workers, one `JoinHandle`
//!   per worker). Jobs are `FnOnce() + Send + 'static` boxes; `Drop`
//!   closes the queue and joins every worker.
//! * [`run_ordered`] — submits a batch of closures to a pool and
//!   returns their results **in submission order**, regardless of which
//!   worker finished first. This is the primitive the bench `Sweep`
//!   driver builds on: determinism comes from ordering results by
//!   submission index, never by completion time.
//!
//! External crates are not an option in this offline build, so the pool
//! is hand-rolled on `std::sync` only.
//!
//! # Examples
//!
//! ```
//! use nsc_sim::pool::{ThreadPool, run_ordered};
//!
//! let pool = ThreadPool::new(4);
//! let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> =
//!     (0u64..16).map(|i| Box::new(move || i * i) as _).collect();
//! let squares = run_ordered(&pool, tasks);
//! assert_eq!(squares[7], 49); // submission order, not completion order
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the handle and the workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is pushed or the queue is closed.
    available: Condvar,
}

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A fixed-size pool of worker threads draining a shared FIFO queue.
///
/// Workers park on a condition variable while the queue is empty and
/// exit once it is closed *and* drained, so dropping the pool always
/// runs every job that was submitted before the drop.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), closed: false }),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nsc-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers: handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job. Panics if called after the pool started shutting
    /// down (impossible through the public API, which consumes `self`
    /// only in `Drop`).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.shared.queue.lock().unwrap();
        assert!(!q.closed, "spawn on a closed pool");
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.available.notify_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().closed = true;
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            // A worker that panicked already poisoned its job's result
            // channel; the pool itself shuts down cleanly regardless.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        job();
    }
}

/// Runs `tasks` on `pool` and returns the results **in submission
/// order**. Blocks until every task has finished.
///
/// Each task's result lands in a slot keyed by its submission index, so
/// the output is independent of scheduling: any worker count (including
/// a single worker, which degenerates to the serial order) produces the
/// same vector. If a task panics, the panic is captured on the worker
/// and re-raised here on the submitting thread, pointing at the failing
/// task's index.
pub fn run_ordered<T: Send + 'static>(
    pool: &ThreadPool,
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
) -> Vec<T> {
    let n = tasks.len();
    // Pool accounting happens here on the submitting thread (not in the
    // racy worker queue), so the recorded batch size and job count are
    // deterministic for any worker count.
    crate::metrics::add(crate::metrics::Metric::PoolJobs, n as u64);
    crate::metrics::gauge_max(crate::metrics::Gauge::PoolQueueDepth, n as f64);
    let slots: Arc<SlotBoard<T>> = Arc::new(SlotBoard::new(n));
    for (idx, task) in tasks.into_iter().enumerate() {
        let slots = Arc::clone(&slots);
        pool.spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(task));
            slots.fill(idx, outcome);
        });
    }
    slots.wait_all(n)
}

/// Result slots plus a countdown the submitter parks on.
struct SlotBoard<T> {
    state: Mutex<SlotState<T>>,
    done: Condvar,
}

struct SlotState<T> {
    slots: Vec<Option<std::thread::Result<T>>>,
    filled: usize,
}

impl<T> SlotBoard<T> {
    fn new(n: usize) -> Self {
        SlotBoard {
            state: Mutex::new(SlotState {
                slots: (0..n).map(|_| None).collect(),
                filled: 0,
            }),
            done: Condvar::new(),
        }
    }

    fn fill(&self, idx: usize, value: std::thread::Result<T>) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.slots[idx].is_none(), "slot {idx} filled twice");
        st.slots[idx] = Some(value);
        st.filled += 1;
        if st.filled == st.slots.len() {
            self.done.notify_all();
        }
    }

    fn wait_all(&self, n: usize) -> Vec<T> {
        let mut st = self.state.lock().unwrap();
        while st.filled < n {
            st = self.done.wait(st).unwrap();
        }
        let outcomes: Vec<_> = st.slots.drain(..).collect();
        drop(st);
        outcomes
            .into_iter()
            .map(|slot| match slot.expect("all slots filled") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_before_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..64 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // Drop joins the workers after the queue drains.
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn run_ordered_preserves_submission_order() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..100usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger finish times so completion order differs
                    // from submission order.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((100 - i) % 7) as u64 * 50,
                    ));
                    i * 3
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = run_ordered(&pool, tasks);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let build = || {
            (0..40u64)
                .map(|i| Box::new(move || i.wrapping_mul(0x9E3779B9)) as Box<dyn FnOnce() -> u64 + Send>)
                .collect::<Vec<_>>()
        };
        let serial = run_ordered(&ThreadPool::new(1), build());
        let wide = run_ordered(&ThreadPool::new(8), build());
        assert_eq!(serial, wide);
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom in task")),
            Box::new(|| 3),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| run_ordered(&pool, tasks)));
        assert!(err.is_err(), "panic inside a task must reach the caller");
    }
}
