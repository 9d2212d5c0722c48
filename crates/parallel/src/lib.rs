//! Minimal std-only scoped thread pool.
//!
//! The pool runs whole units of work, never pieces of one kernel: the
//! data-parallel trainer in `cdmpp-core` runs the gradient shards of one
//! minibatch on it, the schedule search lowers candidates on it while the
//! caller proposes the next round, and `runtime`'s engine cost model
//! encodes candidates on a pool of its own. Every matrix product runs on
//! the thread that calls it.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies.** The build is offline; everything here is
//!    `std::thread` + channels + a condvar.
//! 2. **Determinism-friendly.** The pool never decides *how* work is split —
//!    callers fix the partition (by shape or shard size, never by thread
//!    count) and the pool only executes it. Nothing here reorders results.
//! 3. **No nested fan-out.** A task running on a pool worker executes
//!    nested `spawn`s inline. This keeps one parallel layer active at a
//!    time, and a scope entered from a worker can never deadlock waiting
//!    on its own pool.
//!
//! Thread-count resolution is centralized in [`resolve_threads`]: an
//! explicit request wins, then the `PARALLEL_THREADS` environment variable,
//! then [`std::thread::available_parallelism`] — so CI boxes and laptops
//! behave predictably with one knob.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker: any [`Scope::spawn`] issued
/// from it runs inline instead of fanning out.
fn mark_worker_thread() {
    IS_WORKER.with(|c| c.set(true));
}

/// Whether the current thread is a pool worker.
fn is_worker_thread() -> bool {
    IS_WORKER.with(|c| c.get())
}

/// Resolves a thread count: `requested` if non-zero, else the
/// `PARALLEL_THREADS` environment variable, else available parallelism
/// (always at least 1).
///
/// The OS is asked once per process: the query reads the affinity mask and
/// the cgroup quota files (15–25 µs), and callers resolve a count on paths
/// where that shows — building a serving engine costs little else. The
/// process-wide [`global`] pool is sized once too, so a count resolved
/// later agrees with it.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn env_threads() -> Option<usize> {
    std::env::var("PARALLEL_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// The process-wide pool, sized by [`resolve_threads`]`(0)` on first use.
///
/// Search lowering draws from this pool; code that needs an explicit size
/// (benchmarks, determinism tests) builds its own [`ThreadPool`].
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(resolve_threads(0)))
}

/// Bookkeeping shared between a scope and its in-flight tasks.
#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl ScopeState {
    fn add(&self) {
        *self.pending.lock().expect("scope lock") += 1;
    }

    fn done(&self) {
        let mut p = self.pending.lock().expect("scope lock");
        *p -= 1;
        if *p == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut p = self.pending.lock().expect("scope lock");
        while *p > 0 {
            p = self.all_done.wait(p).expect("scope lock");
        }
    }
}

/// A fixed-size pool of worker threads executing scoped tasks.
///
/// # Examples
///
/// ```
/// let pool = parallel::ThreadPool::new(4);
/// let mut halves = [0u64; 2];
/// let (lo, hi) = halves.split_at_mut(1);
/// pool.scope(|s| {
///     s.spawn(|| lo[0] = (0..1000).sum());
///     s.spawn(|| hi[0] = (1000..2000).sum());
/// });
/// assert_eq!(halves[0] + halves[1], (0..2000).sum());
/// ```
pub struct ThreadPool {
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|i| {
                let job_rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("parallel-{i}"))
                    .spawn(move || worker_loop(&job_rx))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            job_tx: Some(job_tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    fn submit(&self, job: Job) {
        self.job_tx
            .as_ref()
            .expect("pool alive until drop")
            .send(job)
            .expect("pool workers alive until drop");
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be spawned;
    /// returns only after every spawned task has completed.
    ///
    /// If any task panics (or `f` itself does), the panic is re-raised here
    /// — after all tasks have finished, so borrowed data is never left
    /// aliased.
    pub fn scope<'pool, 'env, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always drain before returning: spawned jobs borrow the caller's
        // stack frame.
        scope.state.wait();
        match result {
            Ok(r) => {
                if scope.state.panicked.load(Ordering::SeqCst) {
                    panic!("a task spawned on a parallel scope panicked");
                }
                r
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Evaluates `f(0..n)` across the pool, returning results in index
    /// order. The caller blocks until all results are in.
    ///
    /// Indices are submitted as `min(threads, n)` contiguous-range jobs
    /// (not one closure per index), so per-job dispatch cost is paid once
    /// per thread, and each result lands in its own cache-line-aligned
    /// slot so concurrent writers never false-share.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        /// One result, alone on its cache line(s).
        #[repr(align(128))]
        struct Slot<T>(Option<T>);
        if n == 0 {
            return Vec::new();
        }
        let mut out: Vec<Slot<T>> = (0..n).map(|_| Slot(None)).collect();
        let per = n.div_ceil(self.threads().min(n));
        self.scope(|s| {
            let f = &f;
            for (chunk, slots) in out.chunks_mut(per).enumerate() {
                s.spawn(move || {
                    for (off, slot) in slots.iter_mut().enumerate() {
                        slot.0 = Some(f(chunk * per + off));
                    }
                });
            }
        });
        out.into_iter()
            .map(|s| s.0.expect("scope completed every task"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.job_tx.take(); // close the channel; workers exit their loop
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(jobs: &Arc<Mutex<Receiver<Job>>>) {
    mark_worker_thread();
    loop {
        let job = {
            let rx = match jobs.lock() {
                Ok(rx) => rx,
                Err(_) => return,
            };
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // channel closed: pool dropped
            }
        };
        job();
    }
}

/// Handle for spawning borrowing tasks inside [`ThreadPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`: tasks may borrow from the caller's frame.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a task that may borrow from the enclosing scope.
    ///
    /// Called from a worker thread (nested parallelism), the task runs
    /// inline instead — see the module docs.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if is_worker_thread() {
            f();
            return;
        }
        self.state.add();
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                state.panicked.store(true, Ordering::SeqCst);
            }
            state.done();
        });
        // SAFETY: `scope` does not return before `ScopeState::wait` has
        // observed every spawned job complete, so all `'env` borrows inside
        // the job strictly outlive its execution; erasing the lifetime to
        // queue it on 'static workers is therefore sound.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.submit(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_borrowing_tasks_to_completion() {
        let pool = ThreadPool::new(3);
        let mut out = vec![0usize; 64];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn run_indexed_preserves_order() {
        let pool = ThreadPool::new(4);
        let got = pool.run_indexed(100, |i| i as u64 * 3);
        assert_eq!(got, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_scopes_run_inline_without_deadlock() {
        let pool = ThreadPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                // This runs on the single worker; the nested scope must not
                // wait on that same (busy) worker.
                pool.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must surface to the scope caller");
        assert_eq!(finished.load(Ordering::SeqCst), 7, "other tasks still ran");
        // The pool stays usable after a task panic.
        assert_eq!(pool.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn worker_threads_are_marked() {
        let pool = ThreadPool::new(1);
        let marked = pool.run_indexed(1, |_| is_worker_thread());
        assert!(marked[0]);
        assert!(!is_worker_thread(), "caller thread is not a worker");
    }

    #[test]
    fn run_indexed_handles_empty_and_undersized_inputs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.run_indexed(0, |i| i), Vec::<usize>::new());
        // Fewer items than threads: every index still runs exactly once.
        assert_eq!(pool.run_indexed(2, |i| i * 7), vec![0, 7]);
    }
}
