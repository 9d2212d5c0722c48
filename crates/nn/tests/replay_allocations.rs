//! The replay contract, held by the allocator itself: once warmed up,
//! [`PlanExec::run`] and [`SpecializedPlan::replay`] perform **zero** heap
//! allocations — and so do a compiled training step's
//! [`TrainExec::forward`], [`TrainExec::backward`] and optimizer update,
//! leaving the loss-head tape as the only thing a step allocates. `PlanExec::alloc_count` only counts arena growth, so a
//! `Vec` built per step inside the interpreter (as `assert_disjoint`'s
//! source lists and `Concat`'s width table once were — 53 allocations per
//! warmed replay at the CLI model's shapes) is invisible to it; a counting
//! `#[global_allocator]` is not.
//!
//! One `#[test]` only: the counter is per thread, but a single test keeps
//! the binary's one global allocator free of any cross-test reasoning.

use nn::{
    Adam, Exec, Graph, Optimizer, ParamId, ParamStore, Plan, PlanError, PlanExec, Sgd, TrainExec,
    TrainPlan, Var,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tensor::Tensor;

thread_local! {
    /// Allocations (and reallocations) made by this thread while `Some`.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

fn note() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a bump of a const-initialized, destructor-free thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as `dealloc`; size/layout per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT
        .with(|c| c.replace(None))
        .expect("counter armed above")
}

const D: usize = 32;
const L: usize = 4;

fn input_for(b: usize) -> Tensor {
    Tensor::from_fn(&[b, L, D], |i| ((i as f32) * 0.37).sin())
}

/// An encoder-layer-shaped program touching every step kind the predictor
/// lowers to: attention (`split_heads` / scaled `bmm` / softmax / `bmm` /
/// `merge_heads`), a weight GEMM with a fused bias + ReLU epilogue (big
/// enough at `b = 12` for the blocked and prepacked kernels and their
/// per-thread pack buffers), a residual `Zip`, layer norm, a broadcast
/// `RowOp`, `slice_last`, and a three-part `Concat` with a fused `tanh`.
/// `shift` is the row the `sub_row` subtracts: `beta` again for inference,
/// a parameter of its own for training (a compiled step reads each
/// parameter once).
fn program<E: Exec>(
    e: &mut E,
    store: &ParamStore,
    ids: &[ParamId],
    shift: ParamId,
    b: usize,
) -> tensor::Result<Vec<Var>> {
    let x = e.constant(input_for(b));
    let (w, bias) = (e.param(store, ids[0]), e.param(store, ids[1]));
    let (gamma, beta) = (e.param(store, ids[2]), e.param(store, ids[3]));
    let h = e.split_heads(x, 2)?;
    let scores = e.bmm(h, h, false, true)?;
    let scaled = e.scale(scores, 0.25);
    let probs = e.softmax_last(scaled)?;
    let ctx = e.bmm(probs, h, false, false)?;
    let merged = e.merge_heads(ctx, 2)?;
    let flat = e.reshape(merged, &[b * L, D])?;
    let lin = e.matmul(flat, w)?;
    let lin = e.add_row(lin, bias)?;
    let act = e.relu(lin)?;
    let res = e.add(act, flat)?;
    let ln = e.layer_norm(res, gamma, beta, 1e-5)?;
    let sm = e.softmax_last(ln)?;
    let shift = if shift == ids[3] {
        beta
    } else {
        e.param(store, shift)
    };
    let shifted = e.sub_row(sm, shift)?;
    let head = e.slice_last(shifted, 0, 8)?;
    let cat = e.concat_last(&[head, ln, head])?;
    let out = e.tanh(cat)?;
    Ok(vec![out, ln])
}

#[test]
fn warmed_replay_never_touches_the_heap() {
    let mut store = ParamStore::new();
    let mut next = 0.0f32;
    let mut param = |shape: &[usize]| {
        next += 1.0;
        let phase = next;
        Tensor::from_fn(shape, move |i| ((i as f32) * 0.11 + phase).cos() * 0.3)
    };
    let ids = vec![
        store.add("w".to_string(), param(&[D, D])),
        store.add("bias".to_string(), param(&[D])),
        store.add("gamma".to_string(), param(&[D])),
        store.add("beta".to_string(), param(&[D])),
        store.add("shift".to_string(), param(&[D])),
    ];
    let plan = Arc::new(
        Plan::compile(&store, |rec, b| {
            program(rec, &store, &ids, ids[3], b).map_err(PlanError::from)
        })
        .unwrap(),
    );

    let mut generic = PlanExec::new(Arc::clone(&plan));
    for b in [12usize, 3] {
        let x = input_for(b);
        // Warm-up: the largest batch first, so the arena and this thread's
        // GEMM pack buffers reach their final size.
        generic.run(&store, &[&x]).unwrap();
        let n = allocations_in(|| generic.run(&store, &[&x]).unwrap());
        assert_eq!(n, 0, "generic replay at b={b} allocated {n} times");
    }

    // Folds share one arena, as a serving thread's runner does: the
    // largest fold's first replay sizes it, and after that no replay
    // allocates — not even a smaller fold's first.
    let mut arena = Vec::new();
    for (b, warm) in [(12usize, true), (1, false), (12, false)] {
        let x = input_for(b);
        let fold = plan.specialize(&store, b).unwrap();
        if warm {
            fold.replay(&mut arena, &store, &[&x]).unwrap();
        }
        let n = allocations_in(|| fold.replay(&mut arena, &store, &[&x]).unwrap());
        assert_eq!(n, 0, "specialized replay at b={b} allocated {n} times");
        generic.run(&store, &[&x]).unwrap();
        assert_eq!(
            fold.output(&arena, 0),
            generic.output(0),
            "b={b}: executors agree"
        );
    }

    // A compiled training step over the same program: forward, backward
    // (three 4-row shards at b = 12) and both optimizers replay without
    // touching the heap; the loss-head tape is all a step allocates.
    let tplan = Arc::new(
        TrainPlan::compile(&store, &[true, true], |rec, b| {
            program(rec, &store, &ids, ids[4], b).map_err(PlanError::from)
        })
        .unwrap(),
    );
    let mut texec = TrainExec::new(tplan);
    let mut opts: [Box<dyn Optimizer>; 2] = [
        Box::new(Adam::with_weight_decay(1e-3, 1e-3)),
        Box::new(Sgd::with_momentum(1e-3, 0.9, 1e-3)),
    ];
    for b in [12usize, 3] {
        let x = input_for(b);
        let mut counts = [0usize; 4];
        // Pass 0 warms the arena, the shard scratch and optimizer state.
        for pass in 0..2 {
            let mut n = [0usize; 4];
            n[0] = allocations_in(|| {
                store.zero_grad();
                texec.forward(&store, &[&x]).unwrap();
            });
            let mut seeds: Vec<Vec<f32>> = Vec::new();
            n[1] = allocations_in(|| {
                let mut g = Graph::new();
                let leaves: Vec<Var> = (0..2)
                    .map(|k| {
                        let shape = texec.output_shape(k);
                        g.constant(Tensor::from_vec(texec.output(k).to_vec(), &shape).unwrap())
                    })
                    .collect();
                let target = Tensor::zeros(g.value(leaves[0]).shape());
                let fit = nn::mse(&mut g, leaves[0], &target).unwrap();
                let sq = g.square(leaves[1]).unwrap();
                let reg = g.mean(sq).unwrap();
                let loss = g.add(fit, reg).unwrap();
                g.backward(loss).unwrap();
                seeds = leaves
                    .iter()
                    .map(|&l| g.grad(l).unwrap().data().to_vec())
                    .collect();
            });
            n[2] = allocations_in(|| {
                let seeds: [&[f32]; 2] = [&seeds[0], &seeds[1]];
                texec.backward(&mut store, &[&x], &seeds, 4).unwrap();
            });
            n[3] = allocations_in(|| {
                store.clip_grad_norm(5.0);
                for opt in &mut opts {
                    opt.step(&mut store);
                }
            });
            if pass == 1 {
                counts = n;
            }
        }
        let [fwd, head, bwd, update] = counts;
        assert_eq!(fwd, 0, "training forward at b={b} allocated {fwd} times");
        assert_eq!(bwd, 0, "training backward at b={b} allocated {bwd} times");
        assert_eq!(
            update, 0,
            "clip + optimizers at b={b} allocated {update} times"
        );
        assert!(head < 100, "a whole step at b={b} allocated {head} times");
        assert!(store.grad_norm() > 0.0, "the step produced gradients");
    }
}
