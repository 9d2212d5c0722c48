//! Time-window batching (the Clipper/Triton dynamic-batching shape, under
//! this crate's bit-identity contract).
//!
//! A trickle of small requests never fills a batch class: each call's
//! remainder is replayed alone, at a small batch's worse per-sample cost.
//! With a [`BatchWindow`] configured, partial (below `max_batch`) chunks
//! are *held* in per-`(generation, leaf count)` pending buffers instead of
//! dispatching immediately. A buffer dispatches the moment it **fills** to
//! the batch class (merged across calls — one full-class replay where N
//! small ones used to run), or when its **oldest
//! sample has waited `max_delay`** — a dedicated collector thread sleeps
//! until the earliest due time (no busy-wait) and flushes what is due.
//! Per-call results stay request-ordered and bitwise equal to serial:
//! every kernel in the stack computes batch rows independently, so merging
//! changes *which* batch a sample rides in, never its bits.
//!
//! Failure semantics compose with the rest of the ingress tier: segments
//! whose deadline expired are shed at flush (before execution), a merged
//! chunk carries the *latest* segment deadline so a worker-side shed can
//! never discard a segment that still had time, shutdown flushes every
//! pending buffer (then provably stops the timer — the collector thread is
//! joined), and a worker panic fans [`ChunkError::Panicked`] out to every
//! segment so each call's own retry budget applies.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tensor::Tensor;

use crate::ingress::{ChunkError, Deadline, Job, JobQueue, JobReply, PushError, ReplyGuard};
use crate::stats::StatsInner;
use crate::swap::Served;

/// The time-window batching knob: a partially-filled class chunk
/// dispatches when it fills *or* when its oldest sample has waited
/// `max_delay` — so a trickle stream's p99 latency is bounded by roughly
/// `max_delay` plus one replay, instead of waiting forever for a full
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchWindow {
    /// Longest time one sample may wait in a pending partial chunk. Zero
    /// disables windowing (partial chunks dispatch immediately — the
    /// pre-window behavior).
    pub max_delay: Duration,
}

impl BatchWindow {
    /// Windowing disabled: partial chunks dispatch immediately.
    pub fn off() -> BatchWindow {
        BatchWindow {
            max_delay: Duration::ZERO,
        }
    }

    /// A window of `ms` milliseconds (0 = off).
    pub fn millis(ms: u64) -> BatchWindow {
        BatchWindow {
            max_delay: Duration::from_millis(ms),
        }
    }

    /// Whether windowing is disabled.
    pub fn is_off(&self) -> bool {
        self.max_delay.is_zero()
    }

    /// The window named by the `CDMPP_BATCH_WINDOW_MS` environment
    /// variable (integer milliseconds), or off when unset. Panics on a
    /// malformed value: like `CDMPP_FAULTS`, this is an explicit opt-in
    /// and a typo silently disabling it would defeat the point.
    pub fn from_env() -> BatchWindow {
        match std::env::var("CDMPP_BATCH_WINDOW_MS") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(ms) => BatchWindow::millis(ms),
                Err(_) => {
                    panic!("invalid CDMPP_BATCH_WINDOW_MS '{v}': expected integer milliseconds")
                }
            },
            Err(_) => BatchWindow::off(),
        }
    }
}

/// One call's remainder segment inside a merged window chunk: `n` samples
/// whose predictions route back through that call's own chunk reply.
pub(crate) struct WindowSeg {
    pub reply: ReplyGuard,
    pub n: usize,
}

/// The reply side of a window-merged chunk: splits the executed batch's
/// predictions back per segment, or fans a chunk-level failure out to
/// every segment. Dropping it unsent lets each segment's own
/// [`ReplyGuard`] report `Panicked`, so the exactly-one-reply contract
/// holds per call even across merges.
pub(crate) struct WindowReply {
    pub segs: Vec<WindowSeg>,
}

impl WindowReply {
    pub fn send(self, r: Result<Vec<f32>, ChunkError>) {
        match r {
            Ok(preds) => {
                let mut off = 0usize;
                for seg in self.segs {
                    let end = (off + seg.n).min(preds.len());
                    seg.reply.send(Ok(preds[off.min(end)..end].to_vec()));
                    off += seg.n;
                }
            }
            Err(e) => {
                for seg in self.segs {
                    seg.reply.send(Err(e.clone()));
                }
            }
        }
    }
}

/// One pending segment while it waits in a buffer (the deadline rides
/// along so flush can shed expired segments before execution).
struct Seg {
    reply: ReplyGuard,
    n: usize,
    deadline: Option<Deadline>,
}

/// A per-`(generation, leaf count)` pending buffer: scaled sample rows
/// accumulated across calls, dispatched as one dense chunk on fill,
/// timer expiry, or shutdown.
struct PendingGroup {
    leaves: usize,
    generation: u64,
    served: Arc<Served>,
    /// Concatenated scaled feature rows, `[total, leaves, N_ENTRY]` order.
    xs: Vec<f32>,
    /// Concatenated device rows, `[total, N_DEVICE_FEATURES]` order.
    devs: Vec<f32>,
    /// Floats per sample in `xs` / `devs`.
    x_stride: usize,
    dev_stride: usize,
    segs: Vec<Seg>,
    total: usize,
    /// When the timer must flush this buffer (oldest arrival +
    /// `max_delay`); `None` when `max_delay` saturates `Instant` — such a
    /// buffer flushes only on fill or shutdown.
    due: Option<Instant>,
}

struct AdaptiveInner {
    groups: Vec<PendingGroup>,
    closed: bool,
}

/// The batch window's pending buffers, shared between submitting calls
/// and the collector thread.
pub(crate) struct Adaptive {
    inner: Mutex<AdaptiveInner>,
    wake: Condvar,
    queue: Arc<JobQueue>,
    stats: Arc<StatsInner>,
    window: BatchWindow,
    max_batch: usize,
}

impl Adaptive {
    pub fn new(
        queue: Arc<JobQueue>,
        stats: Arc<StatsInner>,
        window: BatchWindow,
        max_batch: usize,
    ) -> Arc<Adaptive> {
        Arc::new(Adaptive {
            inner: Mutex::new(AdaptiveInner {
                groups: Vec::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            queue,
            stats,
            window,
            max_batch: max_batch.max(1),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdaptiveInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Hands one call's partial chunk (already scaled) to the window.
    /// Returns `Err(())` when the collector is closed — the caller
    /// surfaces `WorkersUnavailable`, exactly like a closed queue.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &self,
        leaves: usize,
        served: &Arc<Served>,
        x: Tensor,
        dev: Tensor,
        n: usize,
        reply: ReplyGuard,
        deadline: Option<Deadline>,
    ) -> Result<(), ()> {
        debug_assert!(n >= 1 && n < self.max_batch);
        let mut flushes: Vec<PendingGroup> = Vec::new();
        {
            let mut inner = self.lock();
            if inner.closed {
                return Err(());
            }
            let gi = inner
                .groups
                .iter()
                .position(|g| g.generation == served.generation && g.leaves == leaves);
            // A segment that would overflow the class flushes the pending
            // buffer first (at whatever fill it reached) — a segment is
            // never split across two chunks, so its reply stays whole.
            let gi = match gi {
                Some(i) if inner.groups[i].total + n > self.max_batch => {
                    flushes.push(inner.groups.swap_remove(i));
                    None
                }
                other => other,
            };
            let gi = match gi {
                Some(i) => i,
                None => {
                    let now = Instant::now();
                    inner.groups.push(PendingGroup {
                        leaves,
                        generation: served.generation,
                        served: Arc::clone(served),
                        xs: Vec::new(),
                        devs: Vec::new(),
                        x_stride: x.data().len() / n,
                        dev_stride: dev.data().len() / n,
                        segs: Vec::new(),
                        total: 0,
                        due: now.checked_add(self.window.max_delay),
                    });
                    inner.groups.len() - 1
                }
            };
            let g = &mut inner.groups[gi];
            g.xs.extend_from_slice(x.data());
            g.devs.extend_from_slice(dev.data());
            g.total += n;
            g.segs.push(Seg { reply, n, deadline });
            // The segment is now backlog the engine has accepted but not
            // yet queued: park it so admission still sees it. Every group
            // leaves the window through `flush`, which unparks.
            self.queue.park(1);
            if g.total == self.max_batch {
                let full = inner.groups.swap_remove(gi);
                flushes.push(full);
            }
        }
        // A new buffer may now be the earliest due time; fills flush here
        // on the submitting thread (the queue push may block on capacity,
        // which must not stall the timer).
        self.wake.notify_all();
        for g in flushes {
            self.stats
                .window_fill_flushes
                .fetch_add(1, Ordering::Relaxed);
            self.flush(g);
        }
        Ok(())
    }

    /// Dispatches one pending buffer as a dense chunk: sheds expired
    /// segments and pushes the job.
    fn flush(&self, mut g: PendingGroup) {
        // The group's segments leave the pending buffer here on every path
        // (dispatch, shed, closed queue), so this is the one unpark site.
        self.queue.unpark(g.segs.len());
        // Shed segments whose deadline already expired — before execution,
        // same as the direct dispatch path — and drop their rows.
        if g.segs
            .iter()
            .any(|s| s.deadline.is_some_and(|d| d.expired()))
        {
            let mut xs = Vec::with_capacity(g.xs.len());
            let mut devs = Vec::with_capacity(g.devs.len());
            let mut kept = Vec::new();
            let mut off = 0usize;
            let mut total = 0usize;
            for seg in g.segs {
                let n = seg.n;
                if seg.deadline.is_some_and(|d| d.expired()) {
                    self.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                    seg.reply.send(Err(ChunkError::DeadlineExceeded));
                } else {
                    xs.extend_from_slice(&g.xs[off * g.x_stride..(off + seg.n) * g.x_stride]);
                    devs.extend_from_slice(
                        &g.devs[off * g.dev_stride..(off + seg.n) * g.dev_stride],
                    );
                    total += n;
                    kept.push(seg);
                }
                off += n;
            }
            g.xs = xs;
            g.devs = devs;
            g.segs = kept;
            g.total = total;
        }
        if g.segs.is_empty() {
            return;
        }
        // A worker sheds the whole chunk on its deadline, so the merged
        // deadline must be the *latest* segment deadline: a shed then
        // never discards a segment that still had time. (Segments that
        // individually expire mid-queue execute anyway and return real
        // results — late, never wrong.)
        let deadline = g
            .segs
            .iter()
            .map(|s| s.deadline)
            .reduce(|a, b| match (a, b) {
                (Some(a), Some(b)) => Some(a.later(b)),
                _ => None,
            })
            .flatten();
        let entry = g.x_stride / g.leaves.max(1);
        let x = Tensor::from_vec(g.xs, &[g.total, g.leaves, entry]).expect("window batch rows");
        let dev = Tensor::from_vec(g.devs, &[g.total, g.dev_stride]).expect("window device rows");
        let job = Job {
            x,
            dev,
            deadline,
            served: g.served,
            reply: JobReply::Window(WindowReply {
                segs: g
                    .segs
                    .into_iter()
                    .map(|s| WindowSeg {
                        reply: s.reply,
                        n: s.n,
                    })
                    .collect(),
            }),
        };
        match self.queue.push(job) {
            Ok(depth) => self.stats.observe_depth(depth),
            Err((PushError::DeadlineExceeded, job)) => {
                self.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Err(ChunkError::DeadlineExceeded));
            }
            Err((PushError::Closed, job)) => {
                // Shutdown raced the flush: every merged call resolves
                // `WorkersUnavailable`, never a hang or a partial result.
                job.reply.send(Err(ChunkError::Shutdown));
            }
        }
    }

    /// Closes the collector: pending buffers flush (their samples still
    /// complete — or resolve `WorkersUnavailable` if the queue closed
    /// first), new submissions fail, and the collector thread exits — the
    /// engine joins it, so the window timer provably never fires after
    /// shutdown.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.wake.notify_all();
    }

    /// The collector thread body: sleep until the earliest pending due
    /// time (or a wake signal), flush due buffers, exit only on close
    /// (after flushing everything still pending).
    pub fn run(self: &Arc<Self>) {
        loop {
            let mut due: Vec<PendingGroup> = Vec::new();
            let mut timer_fires = 0u64;
            let exit;
            {
                let mut inner = self.lock();
                loop {
                    if inner.closed {
                        due.append(&mut inner.groups);
                        exit = true;
                        break;
                    }
                    let now = Instant::now();
                    let mut next: Option<Instant> = None;
                    let mut i = 0;
                    while i < inner.groups.len() {
                        match inner.groups[i].due {
                            Some(t) if t <= now => {
                                due.push(inner.groups.swap_remove(i));
                                timer_fires += 1;
                                continue;
                            }
                            Some(t) => next = Some(next.map_or(t, |n| n.min(t))),
                            None => {}
                        }
                        i += 1;
                    }
                    if !due.is_empty() {
                        exit = false;
                        break;
                    }
                    inner = match next {
                        Some(t) => {
                            self.wake
                                .wait_timeout(inner, t.saturating_duration_since(now))
                                .unwrap_or_else(|p| p.into_inner())
                                .0
                        }
                        None => self.wake.wait(inner).unwrap_or_else(|p| p.into_inner()),
                    };
                }
            }
            self.stats
                .window_timer_flushes
                .fetch_add(timer_fires, Ordering::Relaxed);
            for g in due {
                self.flush(g);
            }
            if exit {
                return;
            }
        }
    }
}
