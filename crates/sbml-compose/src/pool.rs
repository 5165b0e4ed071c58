//! A session-/batch-lifetime worker pool for the compose fan-outs.
//!
//! Every parallel stage in the engine — within-push content-key
//! computation ([`crate::prepared`]) and the corpus stripes of
//! [`crate::BatchComposer`] — used to spawn fresh scoped threads per
//! call. That is fine for one composition and ruinous for the Fig. 8
//! serving shape (thousands of small pushes against one hot base), where
//! thread spawn/join dominates the per-pair fixed cost. [`WorkerPool`]
//! replaces those per-call spawns with threads parked once per session
//! (or per batch, or per daemon) and a per-call job **batch**: each
//! [`WorkerPool::run_scoped`] call enqueues its closures, runs the
//! caller's own share inline, drains whatever the workers have not
//! picked up, and returns only when every closure of *this* call has
//! finished — the same structured-concurrency contract as
//! [`std::thread::scope`], including panic propagation.
//!
//! Nesting is deadlock-free by construction: a closure running on a pool
//! worker may itself call [`WorkerPool::run_scoped`] on the same pool —
//! the inner call's caller thread can always drain the inner batch
//! itself, so no call ever waits on a thread that is waiting on it.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// One `run_scoped` call's job set. Workers and the calling thread both
/// pull from `tasks`; `remaining` counts tasks not yet *finished* (a task
/// is popped, run, then counted), so waiting on `remaining == 0` is
/// waiting for full completion, not just an empty queue.
struct Batch {
    tasks: Mutex<VecDeque<Task>>,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    fn run_one(&self, task: Task) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolShared {
    /// One entry per outstanding task (an `Arc` clone of its batch), so
    /// any number of workers can pick work from any number of concurrent
    /// `run_scoped` calls without a per-batch registry.
    queue: Mutex<VecDeque<Arc<Batch>>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A pool of parked worker threads shared by every parallel stage of a
/// composition session, batch run, or serving daemon. See the module
/// docs; construct one per long-lived scope and pass it around in an
/// [`Arc`].
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("parked_workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool sized for `threads` total lanes of parallelism. The calling
    /// thread of every [`WorkerPool::run_scoped`] is always one lane, so
    /// `threads - 1` background workers are spawned; `threads <= 1` parks
    /// nothing and every task runs inline on the caller (the serial
    /// ablation, still structurally identical).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("compose-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers, threads }
    }

    /// A pool sized to the host's available parallelism.
    pub fn for_host() -> WorkerPool {
        let host =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        WorkerPool::new(host)
    }

    /// Total parallelism lanes (background workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `caller` inline and `tasks` on the pool, returning when **all**
    /// of them have finished — the drop-in replacement for a
    /// [`std::thread::scope`] that spawns `tasks` and runs `caller` on the
    /// scope thread. Closures may borrow from the caller's stack: none of
    /// them outlives this call. If the pool's workers are busy (or the
    /// pool is smaller than the task count) the caller drains the
    /// leftovers itself after finishing its own share. Panics from any
    /// closure are re-raised here, caller's first.
    pub fn run_scoped<'env>(
        &self,
        caller: impl FnOnce() + 'env,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) {
        let count = tasks.len();
        if count == 0 {
            return caller();
        }
        // SAFETY: every task is executed (by a worker or by the caller's
        // drain loop below) strictly before this function returns — the
        // `remaining == 0` wait is unconditional, including on panic — so
        // no borrow in a task outlives its true 'env lifetime.
        let tasks: VecDeque<Task> = tasks
            .into_iter()
            .map(|t| unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(t)
            })
            .collect();
        let batch = Arc::new(Batch {
            tasks: Mutex::new(tasks),
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let advertised = count.min(self.workers.len());
        if advertised > 0 {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..advertised {
                queue.push_back(Arc::clone(&batch));
            }
            drop(queue);
            if advertised == 1 {
                self.shared.available.notify_one();
            } else {
                self.shared.available.notify_all();
            }
        }

        let caller_panic = catch_unwind(AssertUnwindSafe(caller)).err();

        // Drain whatever the workers have not claimed, then wait for the
        // in-flight remainder.
        loop {
            let task = {
                let mut tasks = batch.tasks.lock().unwrap_or_else(|e| e.into_inner());
                tasks.pop_front()
            };
            match task {
                Some(task) => batch.run_one(task),
                None => break,
            }
        }
        let mut remaining = batch.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
        drop(remaining);

        if let Some(payload) = caller_panic {
            resume_unwind(payload);
        }
        let task_panic = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = task_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it and parks
        // while holding that lock, so the wake-up below cannot fall
        // between its check and its wait.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(batch) = queue.pop_front() {
                    break batch;
                }
                queue = shared.available.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // A queue entry is a license for at most one task of its batch;
        // the caller's drain loop may have emptied it already.
        let task = {
            let mut tasks = batch.tasks.lock().unwrap_or_else(|e| e.into_inner());
            tasks.pop_front()
        };
        if let Some(task) = task {
            batch.run_one(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_task_and_the_caller() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(
            || {
                hits.fetch_add(100, Ordering::SeqCst);
            },
            tasks,
        );
        assert_eq!(hits.load(Ordering::SeqCst), 116);
    }

    #[test]
    fn borrows_from_the_caller_stack() {
        let pool = WorkerPool::new(3);
        let mut partials = vec![0u64; 4];
        {
            let mut chunks: Vec<&mut u64> = partials.iter_mut().collect();
            let last = chunks.pop().expect("non-empty");
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .into_iter()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = (i as u64 + 1) * 10;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(
                || {
                    *last = 999;
                },
                tasks,
            );
        }
        assert_eq!(partials, vec![10, 20, 30, 999]);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(|| {}, tasks);
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("injected task failure")),
                Box::new(|| {
                    finished.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            pool.run_scoped(|| {}, tasks);
        }));
        assert!(result.is_err(), "panic must cross run_scoped");
        assert_eq!(finished.load(Ordering::SeqCst), 1, "other tasks still ran");
    }

    #[test]
    fn caller_panic_wins_and_tasks_still_finish() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
                finished.fetch_add(1, Ordering::SeqCst);
            })];
            pool.run_scoped(|| panic!("caller failure"), tasks);
        }));
        let payload = result.expect_err("caller panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "caller failure");
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_run_scoped_on_the_same_pool_completes() {
        let pool = Arc::new(WorkerPool::new(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let outer: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                        .map(|_| {
                            let hits = Arc::clone(&hits);
                            Box::new(move || {
                                hits.fetch_add(1, Ordering::SeqCst);
                            })
                                as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.run_scoped(
                        || {
                            hits.fetch_add(10, Ordering::SeqCst);
                        },
                        inner,
                    );
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(|| {}, outer);
        assert_eq!(hits.load(Ordering::SeqCst), 39);
    }

    #[test]
    fn reuse_across_many_batches_spawns_nothing_new() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(|| {}, tasks);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn dropping_a_fresh_pool_never_strands_a_worker() {
        // A worker that has just checked `shutdown` but not yet parked
        // must still see the drop's wake-up, or `join` blocks forever.
        // Build and drop pools back to back, racing spawn against drop,
        // on a watchdog so a lost wake-up fails instead of hanging.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..2000 {
                drop(WorkerPool::new(4));
            }
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(std::time::Duration::from_secs(120)).is_ok(),
            "a pool drop hung joining a parked worker"
        );
    }
}
