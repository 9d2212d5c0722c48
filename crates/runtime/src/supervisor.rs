//! Worker supervision: panic containment, in-place respawn, deadline
//! shedding at the point of execution.
//!
//! Lifecycle: the engine starts its workers (`cdmpp-worker-{i}`, the only
//! threads it owns) at the first chunk that has to go through the queue,
//! not at construction, and joins them in `shutdown` / `Drop` after
//! closing the queue; an engine whose calls were all small enough to run
//! on their callers never has any.
//!
//! Each worker thread runs [`supervised_worker`] until the queue is closed
//! and drained. A panic during plan
//! replay (injected by a [`crate::FaultPlan`] or real) is caught with
//! `catch_unwind`; it fails **only the in-flight chunk** — the chunk gets
//! a typed [`ChunkError::Panicked`] reply (which the dispatcher may retry
//! on a healthy worker) — and the worker *respawns in place*: its replay
//! state (`PlanRunner` arenas, possibly mid-write when the panic hit) is
//! discarded and rebuilt, and the thread returns to the queue. The pool
//! therefore always runs at full strength; the seed engine's
//! drain-to-`WorkersUnavailable` failure mode is gone.
//!
//! [`process_job`] is the one function that executes a chunk. Workers call
//! it from their serve loop; a calling thread whose whole request is no
//! larger than one batch class calls it itself, with a runner borrowed
//! from the engine, instead of waking a worker — so every check above
//! holds on that path because it is the same code.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cdmpp_core::PlanRunner;

use crate::faults::{FaultPlan, FaultSite};
use crate::ingress::{ChunkError, Job, JobQueue};
use crate::stats::StatsInner;

/// Everything one worker thread needs; owned per thread, cloned from the
/// one the engine keeps for chunks its callers run themselves.
#[derive(Clone)]
pub(crate) struct WorkerCtx {
    pub queue: Arc<JobQueue>,
    pub stats: Arc<StatsInner>,
    pub faults: FaultPlan,
}

/// The worker entry point: a respawn loop around the serve loop. The only
/// clean exit is queue closure; any panic that escapes the per-chunk
/// handler restarts the loop with fresh replay state.
pub(crate) fn supervised_worker(ctx: WorkerCtx) {
    loop {
        let mut runner = PlanRunner::new();
        let run = catch_unwind(AssertUnwindSafe(|| serve_loop(&ctx, &mut runner)));
        match run {
            Ok(()) => return, // queue closed and drained: clean shutdown
            Err(_) => {
                // A panic escaped the per-chunk handler (queue internals
                // cannot panic, so this is belt-and-braces): count the
                // respawn and go again. The in-flight chunk — if any —
                // already replied through its ReplyGuard's Drop.
                ctx.stats.bump_restart();
                continue;
            }
        }
    }
}

fn serve_loop(ctx: &WorkerCtx, runner: &mut PlanRunner) {
    while let Some(job) = ctx.queue.pop() {
        process_job(ctx, runner, job);
    }
}

/// Executes one chunk on the current thread — a worker, or the caller of a
/// request no larger than one batch class — and sends its one reply.
pub(crate) fn process_job(ctx: &WorkerCtx, runner: &mut PlanRunner, job: Job) {
    let Job {
        x,
        dev,
        deadline,
        served,
        reply,
    } = job;

    // Shed expired work before spending compute on it.
    if deadline.is_some_and(|d| d.expired()) {
        ctx.stats
            .deadline_sheds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        reply.send(Err(ChunkError::DeadlineExceeded));
        return;
    }

    // Fault injection: artificial latency first (then re-check the
    // deadline — the slept-through chunk may now be sheddable), panic
    // inside the supervised region below.
    let fired = ctx.faults.at(FaultSite::Replay);
    if fired.delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(fired.delay_ms));
        if deadline.is_some_and(|d| d.expired()) {
            ctx.stats
                .deadline_sheds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            reply.send(Err(ChunkError::DeadlineExceeded));
            return;
        }
    }

    // The supervised region: anything that unwinds out of plan replay is
    // caught here and converted into this one chunk's typed failure.
    let started = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if fired.panic {
            panic!("injected fault: panic@replay");
        }
        served.model.predictor.predict_planned(runner, &x, &dev)
    }));
    ctx.stats.predict_ns.fetch_add(
        started.elapsed().as_nanos() as u64,
        std::sync::atomic::Ordering::Relaxed,
    );

    match result {
        Ok(r) => {
            if r.is_ok() {
                ctx.stats
                    .completed_chunks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            reply.send(r.map_err(ChunkError::Predict));
        }
        Err(_) => {
            // Fail only this chunk; respawn the replay state in place
            // (arenas may be mid-write). The pool stays at full strength,
            // and a calling thread never unwinds.
            ctx.stats
                .worker_panics
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ctx.stats.bump_restart();
            *runner = PlanRunner::new();
            reply.send(Err(ChunkError::Panicked));
        }
    }
}
