//! Bounded admission: the capacity-limited submission queue, per-request
//! deadlines, and the exactly-one-reply guard.
//!
//! The queue replaces the seed engine's unbounded `mpsc` channel. Overload
//! now degrades to fast typed errors ([`crate::EngineError::Overloaded`])
//! instead of unbounded memory growth:
//!
//! * **Admission** happens once per call, before any chunk is built: a
//!   call is admitted only while the queue has headroom.
//!   [`AdmissionPolicy::Reject`] fails saturated calls immediately;
//!   [`AdmissionPolicy::Block`] waits up to a timeout for headroom.
//! * **Pushes** from an admitted call block until space frees up (workers
//!   drain continuously), so queue memory stays bounded by
//!   `queue_capacity` no matter how many chunks one call fans into.
//! * **Replies** are guaranteed structurally: a [`ReplyGuard`] sends a
//!   typed failure from its `Drop` impl if a job is ever dropped without
//!   answering, so no interleaving of panics, shutdown, and shedding can
//!   lose a reply.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cdmpp_core::predictor::PredictError;
use tensor::Tensor;

use crate::swap::Served;

/// A per-request completion deadline, carried through dispatch. Chunks
/// whose deadline has expired are shed *before* execution (never
/// mid-replay), on both the caller side (pre-dispatch) and the worker side
/// (post-dequeue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// `None` = effectively never expires: a duration too large to add to
    /// the current instant saturates here instead of panicking.
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `d` from now. A duration too large to represent as an
    /// absolute instant (e.g. `Duration::MAX` from a huge `--deadline-ms`)
    /// saturates to a deadline that never expires.
    pub fn within(d: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(d),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    /// A deadline that never expires (what oversized durations saturate
    /// to: the request is deadline-tracked but is never shed).
    pub fn never() -> Deadline {
        Deadline { at: None }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry (zero once expired, `Duration::MAX` for a
    /// deadline that never expires).
    pub fn remaining(&self) -> Duration {
        match self.at {
            Some(at) => at.saturating_duration_since(Instant::now()),
            None => Duration::MAX,
        }
    }

    /// The absolute expiry instant (`None` = never expires).
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }
}

/// What happens to a call that arrives while the submission queue is at
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail fast with [`crate::EngineError::Overloaded`] — the default:
    /// under overload the caller learns immediately and can back off.
    Reject,
    /// Wait up to `timeout` for queue headroom, then fail with
    /// [`crate::EngineError::Overloaded`].
    Block {
        /// Longest time one call may wait at admission.
        timeout: Duration,
    },
}

/// Per-call submission options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Completion deadline; expired work is shed with
    /// [`crate::EngineError::DeadlineExceeded`] before execution.
    pub deadline: Option<Deadline>,
}

impl SubmitOptions {
    /// Options with a deadline `d` from now.
    pub fn deadline_within(d: Duration) -> SubmitOptions {
        SubmitOptions {
            deadline: Some(Deadline::within(d)),
        }
    }
}

/// Why one chunk failed; the dispatcher turns it into a per-sample error
/// for every sample the chunk carried.
#[derive(Debug, PartialEq)]
pub(crate) enum ChunkError {
    /// The predictor rejected the batch.
    Predict(PredictError),
    /// The chunk's deadline expired before execution; it was shed.
    DeadlineExceeded,
    /// A worker panicked while executing the chunk (caught; the worker
    /// respawned).
    Panicked,
}

pub(crate) type ChunkReply = (usize, Result<Vec<f32>, ChunkError>);

/// Sends exactly one reply for one dispatched chunk. If the guard is
/// dropped without [`ReplyGuard::send`] being called — a panic unwound
/// past the worker's handler, the queue was dropped with jobs still in it
/// — the `Drop` impl reports the chunk as [`ChunkError::Panicked`], so the
/// collector can never be left waiting for a reply that will not come.
pub(crate) struct ReplyGuard {
    tag: usize,
    tx: Sender<ChunkReply>,
    done: bool,
}

impl ReplyGuard {
    pub fn new(tag: usize, tx: Sender<ChunkReply>) -> ReplyGuard {
        ReplyGuard {
            tag,
            tx,
            done: false,
        }
    }

    /// Delivers the chunk's one reply. A send failure means the caller
    /// gave up (dropped its receiver); that is its right.
    pub fn send(mut self, r: Result<Vec<f32>, ChunkError>) {
        self.done = true;
        let _ = self.tx.send((self.tag, r));
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.tx.send((self.tag, Err(ChunkError::Panicked)));
        }
    }
}

/// One dense batch dispatched to a worker.
pub(crate) struct Job {
    pub x: Tensor,
    pub dev: Tensor,
    /// The request's deadline (workers shed expired jobs before replay).
    pub deadline: Option<Deadline>,
    /// The model generation captured at admission: in-flight chunks finish
    /// on the model they were admitted under, even across a hot swap.
    pub served: Arc<Served>,
    pub reply: ReplyGuard,
}

/// Admission failure, mapped to `EngineError` by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    Overloaded { depth: usize, capacity: usize },
    DeadlineExceeded,
    Closed,
}

/// Push failure (admitted calls only block on pushes; they are never
/// rejected for depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    Closed,
    DeadlineExceeded,
}

struct QueueInner {
    q: VecDeque<Job>,
    closed: bool,
}

/// The capacity-bounded submission queue. `capacity == 0` means unbounded
/// (admission always succeeds — the seed engine's behavior).
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    pub fn new(capacity: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            inner: Mutex::new(QueueInner {
                q: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        // The queue's critical sections cannot panic, so poisoning only
        // ever reflects a *caller* panicking while blocked on a condvar
        // wait; the protected state is still consistent.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Current depth, in chunks.
    pub fn depth(&self) -> usize {
        self.lock().q.len()
    }

    /// Per-call admission control: succeeds while the queue has headroom.
    /// `Block` waits for headroom up to its timeout (also bounded by the
    /// request deadline); `Reject` fails immediately.
    pub fn admit(
        &self,
        policy: AdmissionPolicy,
        deadline: Option<Deadline>,
    ) -> Result<(), AdmitError> {
        let mut inner = self.lock();
        if self.capacity == 0 {
            return if inner.closed {
                Err(AdmitError::Closed)
            } else {
                Ok(())
            };
        }
        // Outer `None` = `Reject` (never wait); inner `None` = a `Block`
        // timeout too large to represent as an instant, which saturates to
        // "wait indefinitely" (still bounded by the request deadline and
        // woken by close) instead of panicking on `Instant` overflow.
        let wait_until: Option<Option<Instant>> = match policy {
            AdmissionPolicy::Reject => None,
            AdmissionPolicy::Block { timeout } => Some(Instant::now().checked_add(timeout)),
        };
        loop {
            if inner.closed {
                return Err(AdmitError::Closed);
            }
            if inner.q.len() < self.capacity {
                return Ok(());
            }
            if deadline.is_some_and(|d| d.expired()) {
                return Err(AdmitError::DeadlineExceeded);
            }
            let Some(block_until) = wait_until else {
                return Err(AdmitError::Overloaded {
                    depth: inner.q.len(),
                    capacity: self.capacity,
                });
            };
            let now = Instant::now();
            if block_until.is_some_and(|t| t <= now) {
                return Err(AdmitError::Overloaded {
                    depth: inner.q.len(),
                    capacity: self.capacity,
                });
            }
            // Wake at the earliest bound among the block timeout and the
            // request deadline; with neither representable, wait until
            // signalled (headroom or close).
            let target = [block_until, deadline.and_then(|d| d.instant())]
                .into_iter()
                .flatten()
                .min();
            inner = match target {
                Some(t) => {
                    self.not_full
                        .wait_timeout(inner, t.saturating_duration_since(now))
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
                None => self.not_full.wait(inner).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }

    /// Enqueues one chunk, blocking while the queue is at capacity
    /// (admitted calls are never depth-rejected; workers drain
    /// continuously, so the wait is bounded by real work). Wakes on close
    /// and on deadline expiry. Returns the depth after the push, for
    /// high-water tracking; on failure the job is handed back (boxed —
    /// the error path should not fatten the success path) so the caller
    /// can deliver the correct typed reply itself.
    pub fn push(&self, job: Job) -> Result<usize, (PushError, Box<Job>)> {
        let deadline = job.deadline;
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err((PushError::Closed, Box::new(job)));
            }
            if self.capacity == 0 || inner.q.len() < self.capacity {
                inner.q.push_back(job);
                let depth = inner.q.len();
                self.not_empty.notify_one();
                return Ok(depth);
            }
            if deadline.is_some_and(|d| d.expired()) {
                return Err((PushError::DeadlineExceeded, Box::new(job)));
            }
            // Bound each wait so deadline expiry is noticed promptly even
            // if no worker signals. A never-expiring deadline waits on the
            // same heartbeat as no deadline (nothing to notice early).
            let wait = deadline
                .and_then(|d| d.instant())
                .map(|at| at.saturating_duration_since(Instant::now()))
                .filter(|w| !w.is_zero())
                .unwrap_or(Duration::from_millis(50));
            let (guard, _) = self
                .not_full
                .wait_timeout(inner, wait)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
    }

    /// Worker dequeue: blocks until a job arrives, returns `None` once the
    /// queue is closed **and** drained (queued work completes across a
    /// shutdown; nothing is dropped on the floor).
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.q.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue: new admissions and pushes fail, blocked callers
    /// wake, workers drain what is queued and then exit.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}
