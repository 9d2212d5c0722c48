use super::*;
use crate::tape::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn store_with(shapes: &[&[usize]]) -> (ParamStore, Vec<ParamId>) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(11);
    let ids = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            store.add(
                format!("p{i}"),
                Tensor::from_fn(s, |_| rng.random_range(-1.0f32..1.0)),
            )
        })
        .collect();
    (store, ids)
}

fn input_for(b: usize) -> Tensor {
    Tensor::from_fn(&[b, 4, 6], |i| ((i as f32) * 0.37).sin())
}

/// A program exercising every [`Exec`] op, with a value (`y`) used by
/// several consumers (so no epilogue fusion there), an attention-style
/// bmm/softmax block, and an output (`cat`) that also has a consumer.
fn mixed_program<E: Exec>(
    e: &mut E,
    store: &ParamStore,
    ids: &[ParamId],
    b: usize,
) -> TensorResult<Vec<Var>> {
    let xv = e.constant(input_for(b));
    let w = e.param(store, ids[1]);
    let gamma = e.param(store, ids[2]);
    let beta = e.param(store, ids[3]);
    let h = e.split_heads(xv, 2)?;
    let scores = e.bmm(h, h, false, true)?;
    let sc0 = e.scale(scores, 1.0 / 3.0f32.sqrt());
    let probs = e.softmax_last(sc0)?;
    let ctx2 = e.bmm(probs, h, false, false)?;
    let m = e.merge_heads(ctx2, 2)?;
    let flat = e.reshape(m, &[b * 4, 6])?;
    let y = e.matmul(flat, w)?;
    let ln = e.layer_norm(y, gamma, beta, 1e-5)?;
    let s = e.softmax_last(ln)?;
    let r = e.relu(s)?;
    let t = e.tanh(r)?;
    let g = e.sigmoid(t)?;
    let sc = e.scale(g, 1.7);
    let a = e.add(sc, y)?;
    let bb = e.sub(a, y)?;
    let c = e.mul(bb, bb)?;
    let row = e.param(store, ids[2]);
    let ar = e.add_row(c, row)?;
    let sl = e.slice_last(ar, 1, 5)?;
    let cat = e.concat_last(&[sl, sl])?;
    let q = e.square(cat)?;
    let sq = e.sqrt(q)?;
    let ab = e.abs(sq)?;
    let ex = e.exp(ab)?;
    let fin = e.add_scalar(ex, -0.25);
    Ok(vec![fin, cat])
}

#[test]
fn plan_bit_identical_to_infer_ctx_across_batch_sizes() {
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 2, 3, 5, 4] {
        let x = input_for(b);
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let outs = mixed_program(&mut tape, &store, &ids, b).unwrap();
        for (i, v) in outs.iter().enumerate() {
            assert_eq!(
                exec.output(i),
                tape.value(*v).data(),
                "output {i} at batch {b} must be bit-identical"
            );
            assert_eq!(exec.output_shape(i), tape.value(*v).shape());
        }
    }
}

#[test]
fn fusion_and_aliasing_fire_on_the_mixed_program() {
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    let st = plan.stats();
    assert!(
        st.steps < st.recorded_ops,
        "lowering must shrink the program"
    );
    assert!(st.elided_reshapes >= 1, "reshape must be free: {st:?}");
    assert_eq!(
        st.fused_bmm_scales, 1,
        "the attention 1/sqrt(d) scale must fold into the bmm: {st:?}"
    );
    assert!(
        st.fused_elementwise >= 4,
        "tanh/sigmoid/scale/sqrt/abs/exp/add_scalar chains must fuse: {st:?}"
    );
    assert!(st.inplace_steps >= 1, "dead inputs must be reused in place");
    assert!(
        st.arena_slots < st.buffers,
        "liveness must alias buffers: {st:?}"
    );
}

#[test]
fn bmm_scale_fuses_and_stays_bit_identical() {
    // bmm -> scale with a single user becomes one step whose write-back
    // applies `v * c` exactly once — bit-identical to the eager path.
    fn body<E: Exec>(e: &mut E, b: usize) -> TensorResult<Vec<Var>> {
        let x = e.constant(Tensor::from_fn(&[b, 3, 4], |i| ((i as f32) * 0.11).sin()));
        let s = e.bmm(x, x, false, true)?;
        let y = e.scale(s, 0.577);
        Ok(vec![y])
    }
    let (store, _ids) = store_with(&[&[1]]);
    let plan = Plan::compile(&store, |rec, b| body(rec, b).map_err(PlanError::from)).unwrap();
    let st = plan.stats();
    assert_eq!(st.fused_bmm_scales, 1, "{st:?}");
    assert_eq!(st.steps, 1, "bmm + scale must be one step: {st:?}");
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 2, 5] {
        let x = Tensor::from_fn(&[b, 3, 4], |i| ((i as f32) * 0.11).sin());
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let outs = body(&mut tape, b).unwrap();
        assert_eq!(
            exec.output(0),
            tape.value(outs[0]).data(),
            "fused bmm scale must be bit-identical at batch {b}"
        );
    }
}

#[test]
fn linear_relu_fuses_into_single_gemm_epilogue() {
    let (store, ids) = store_with(&[&[6, 5], &[5]]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.21).cos()));
        let w = rec.param(&store, ids[0]);
        let y = rec.matmul(x, w)?;
        let bias = rec.param(&store, ids[1]);
        let y = rec.add_row(y, bias)?;
        let y = rec.relu(y)?;
        Ok(vec![y])
    })
    .unwrap();
    let st = plan.stats();
    assert_eq!(st.steps, 1, "matmul + bias + relu must be one step: {st:?}");
    assert_eq!(st.fused_bias, 1);
    assert_eq!(st.fused_activations, 1);
    assert_eq!(st.arena_slots, 1);
    // And it must still be bit-identical to the unfused executor.
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 3, 7] {
        let x = Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.21).cos());
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let xv = tape.constant(x);
        let w = tape.param(&store, ids[0]);
        let y = tape.matmul(xv, w).unwrap();
        let bias = tape.param(&store, ids[1]);
        let y = tape.add_row(y, bias).unwrap();
        let y = tape.relu(y).unwrap();
        assert_eq!(exec.output(0), tape.value(y).data());
    }
}

/// A value a row op reads as its broadcast row is observed by that row
/// op: lowering must not chain a later map onto the step producing it,
/// or the row op reads the mapped value instead.
#[test]
fn row_operand_is_not_fused_into_by_a_later_map() {
    fn body<E: Exec>(
        e: &mut E,
        store: &ParamStore,
        ids: &[ParamId],
        b: usize,
    ) -> TensorResult<Vec<Var>> {
        let x = e.constant(Tensor::from_fn(&[b, 5], |i| (i as f32 * 0.29).sin()));
        let p = e.param(store, ids[0]);
        let r = e.tanh(p)?;
        let y = e.add_row(x, r)?;
        let z = e.relu(r)?;
        let z = e.add_scalar(z, 0.5);
        Ok(vec![y, z])
    }
    let (store, ids) = store_with(&[&[5]]);
    let plan = Plan::compile(&store, |rec, b| {
        body(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 2, 3] {
        let x = Tensor::from_fn(&[b, 5], |i| (i as f32 * 0.29).sin());
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let outs = body(&mut tape, &store, &ids, b).unwrap();
        for (i, v) in outs.iter().enumerate() {
            assert_eq!(
                exec.output(i),
                tape.value(*v).data(),
                "output {i} at batch {b} must be bit-identical"
            );
        }
    }
}

#[test]
fn rank3_linear_fuses_through_reshapes() {
    // The Linear layer's rank-3 path: reshape → matmul → reshape →
    // add_row (+ activation). Both reshapes must be elided and the
    // bias fused, leaving a single GEMM step.
    let (store, ids) = store_with(&[&[6, 5], &[5]]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 4, 6], |i| (i as f32 * 0.13).sin()));
        let flat = rec.reshape(x, &[b * 4, 6])?;
        let w = rec.param(&store, ids[0]);
        let y = rec.matmul(flat, w)?;
        let y3 = rec.reshape(y, &[b, 4, 5])?;
        let bias = rec.param(&store, ids[1]);
        let y3 = rec.add_row(y3, bias)?;
        let y3 = rec.tanh(y3)?;
        Ok(vec![y3])
    })
    .unwrap();
    let st = plan.stats();
    assert_eq!(st.steps, 1, "{st:?}");
    assert_eq!(st.elided_reshapes, 2);
    assert_eq!(st.fused_bias, 1);
    assert_eq!(st.fused_activations, 1);
}

#[test]
fn reshape_changing_trailing_dim_blocks_bias_fusion() {
    // matmul -> reshape([b*2, 3]) -> add_row(row of 3): the broadcast
    // width (3) differs from the GEMM's n (6), so the bias must NOT
    // fuse into the epilogue — and the result must still match the
    // unfused executor exactly.
    let (store, ids) = store_with(&[&[4, 6], &[3]]);
    fn program<E: Exec>(
        e: &mut E,
        store: &ParamStore,
        ids: &[ParamId],
        b: usize,
    ) -> TensorResult<Var> {
        let x = e.constant(Tensor::from_fn(&[b, 4], |i| (i as f32 * 0.17).sin()));
        let w = e.param(store, ids[0]);
        let y = e.matmul(x, w)?;
        let narrow = e.reshape(y, &[b * 2, 3])?;
        let row = e.param(store, ids[1]);
        e.add_row(narrow, row)
    }
    let plan = Plan::compile(&store, |rec, b| {
        program(rec, &store, &ids, b)
            .map(|v| vec![v])
            .map_err(PlanError::from)
    })
    .unwrap();
    assert_eq!(plan.stats().fused_bias, 0, "{:?}", plan.stats());
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 2, 5] {
        let x = Tensor::from_fn(&[b, 4], |i| (i as f32 * 0.17).sin());
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let out = program(&mut tape, &store, &ids, b).unwrap();
        assert_eq!(exec.output(0), tape.value(out).data(), "b={b}");
    }
}

#[test]
fn zero_allocation_after_warmup() {
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    let x4 = input_for(4);
    exec.run(&store, &[&x4]).unwrap();
    let warm = exec.alloc_count();
    assert!(warm >= 1);
    for _ in 0..5 {
        exec.run(&store, &[&x4]).unwrap();
    }
    assert_eq!(exec.alloc_count(), warm, "steady state must not allocate");
    // Smaller batches fit in the warmed arena.
    let x2 = input_for(2);
    exec.run(&store, &[&x2]).unwrap();
    exec.run(&store, &[&x4]).unwrap();
    assert_eq!(
        exec.alloc_count(),
        warm,
        "shrinking batches must not allocate"
    );
    // A larger batch grows the arena exactly once.
    let x9 = input_for(9);
    exec.run(&store, &[&x9]).unwrap();
    exec.run(&store, &[&x9]).unwrap();
    assert_eq!(exec.alloc_count(), warm + 1);
}

#[test]
fn output_aliasing_an_input_is_materialized() {
    let (store, _) = store_with(&[]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 4], |i| i as f32));
        let r = rec.reshape(x, &[b * 4])?;
        Ok(vec![r])
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    let x = Tensor::from_fn(&[3, 4], |i| i as f32 * 2.0);
    exec.run(&store, &[&x]).unwrap();
    assert_eq!(exec.output(0), x.data());
    assert_eq!(exec.output_shape(0), &[12]);
}

#[test]
fn batch_dependent_program_is_rejected() {
    let (store, _) = store_with(&[]);
    let err = Plan::compile(&store, |rec, b| {
        let mut x = rec.constant(Tensor::zeros(&[b, 4]));
        if b == 3 {
            x = rec.relu(x)?; // op stream depends on the batch size
        }
        Ok(vec![x])
    })
    .unwrap_err();
    assert!(matches!(err, PlanError::NonUniform(_)), "{err:?}");
}

#[test]
fn specialized_replay_bit_identical_to_generic_plan() {
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Arc::new(
        Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap(),
    );
    let mut generic = PlanExec::new(Arc::clone(&plan));
    for b in [1usize, 2, 3, 5, 8, 64] {
        let spec = plan.specialize(&store, b).unwrap();
        assert_eq!(spec.batch_size(), b);
        assert!(spec.unrolled_copies() > 0, "split/merge spans must unroll");
        let mut arena = Vec::new();
        let x = input_for(b);
        spec.replay(&mut arena, &store, &[&x]).unwrap();
        generic.run(&store, &[&x]).unwrap();
        for i in 0..2 {
            assert_eq!(
                spec.output(&arena, i),
                generic.output(i),
                "output {i} at batch {b} must be bit-identical"
            );
            assert_eq!(spec.output_shape(i), generic.output_shape(i).as_slice());
        }
    }
}

#[test]
fn specialized_plan_prepacks_weight_gemms() {
    // A linear layer big enough for the blocked kernel: the specialized
    // plan must resolve it to the prepacked entry point and still match
    // the generic replay exactly.
    let (store, ids) = store_with(&[&[64, 48], &[48]]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin()));
        let w = rec.param(&store, ids[0]);
        let y = rec.matmul(x, w)?;
        let bias = rec.param(&store, ids[1]);
        let y = rec.add_row(y, bias)?;
        let y = rec.relu(y)?;
        Ok(vec![y])
    })
    .unwrap();
    let plan = Arc::new(plan);
    // Big batch crosses the blocked-kernel threshold; batch 1 stays on
    // the naive path — specialization must pick per shape.
    let spec_big = plan.specialize(&store, 64).unwrap();
    assert_eq!(spec_big.prepacked_gemms(), 1, "{spec_big:?}");
    let spec_one = plan.specialize(&store, 1).unwrap();
    assert_eq!(spec_one.prepacked_gemms(), 0, "{spec_one:?}");
    let mut generic = PlanExec::new(Arc::clone(&plan));
    for (b, spec) in [(64usize, spec_big), (1, spec_one)] {
        let mut arena = Vec::new();
        let x = Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin());
        spec.replay(&mut arena, &store, &[&x]).unwrap();
        generic.run(&store, &[&x]).unwrap();
        assert_eq!(spec.output(&arena, 0), generic.output(0), "b={b}");
    }
}

#[test]
fn quantized_store_specializes_to_quant_kernel_bit_identically() {
    // Quantizing the store's weights must (a) route blocked weight
    // GEMMs to the quantized prepacked kernel, (b) leave the
    // below-threshold fold on the generic f32 entry, and (c) stay
    // bit-identical to the generic interpreter over the same store —
    // the store's f32 values are the dequantized numbers, so both
    // entries see identical weights.
    let (mut store, ids) = store_with(&[&[64, 48], &[48]]);
    assert_eq!(store.quantize_weights(), 1);
    assert!(store.has_quants());
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin()));
        let w = rec.param(&store, ids[0]);
        let y = rec.matmul(x, w)?;
        let bias = rec.param(&store, ids[1]);
        let y = rec.add_row(y, bias)?;
        let y = rec.relu(y)?;
        Ok(vec![y])
    })
    .unwrap();
    let plan = Arc::new(plan);
    let mut cache = WeightPackCache::new();
    let spec_big = plan.specialize_cached(&store, 64, &mut cache).unwrap();
    assert_eq!(spec_big.quant_prepacked_gemms(), 1, "{spec_big:?}");
    assert_eq!(spec_big.prepacked_gemms(), 0, "{spec_big:?}");
    assert!(cache.panel_bytes() > 0);
    let spec_one = plan.specialize_cached(&store, 1, &mut cache).unwrap();
    assert_eq!(spec_one.quant_prepacked_gemms(), 0, "{spec_one:?}");
    let mut generic = PlanExec::new(Arc::clone(&plan));
    for (b, spec) in [(64usize, spec_big), (1, spec_one)] {
        let mut arena = Vec::new();
        let x = Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin());
        spec.replay(&mut arena, &store, &[&x]).unwrap();
        generic.run(&store, &[&x]).unwrap();
        assert_eq!(spec.output(&arena, 0), generic.output(0), "b={b}");
    }
}

#[test]
fn weight_panels_are_shared_across_folds() {
    // Folding the same plan for two batch classes through one cache
    // must pack each distinct weight matrix once, not once per fold.
    let (store, ids) = store_with(&[&[64, 48], &[48]]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.23).sin()));
        let w = rec.param(&store, ids[0]);
        let y = rec.matmul(x, w)?;
        Ok(vec![y])
    })
    .unwrap();
    let mut cache = WeightPackCache::new();
    let s64 = plan.specialize_cached(&store, 64, &mut cache).unwrap();
    assert_eq!(s64.prepacked_gemms(), 1);
    assert_eq!(cache.len(), 1);
    let s128 = plan.specialize_cached(&store, 128, &mut cache).unwrap();
    assert_eq!(s128.prepacked_gemms(), 1);
    assert_eq!(cache.len(), 1, "same (param, k, n) must reuse the panel");
    // Both folds still replay correctly.
    for (b, spec) in [(64usize, s64), (128, s128)] {
        let mut arena = Vec::new();
        let x = Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.23).sin());
        spec.replay(&mut arena, &store, &[&x]).unwrap();
        let mut generic = PlanExec::new(Arc::new(
            Plan::compile(&store, |rec, bb| {
                let x = rec.constant(Tensor::from_fn(&[bb, 64], |i| (i as f32 * 0.23).sin()));
                let w = rec.param(&store, ids[0]);
                let y = rec.matmul(x, w)?;
                Ok(vec![y])
            })
            .unwrap(),
        ));
        generic.run(&store, &[&x]).unwrap();
        assert_eq!(spec.output(&arena, 0), generic.output(0), "b={b}");
    }
}

const ATT_L: usize = 3;
const ATT_D: usize = 32;
const ATT_H: usize = 2;

fn attention_input(b: usize) -> Tensor {
    Tensor::from_fn(&[b, ATT_L, ATT_D], |i| ((i as f32) * 0.173).sin())
}

/// `[wq, bq, wk, bk, wv, bv, wo, bo]` for [`attention_program`].
fn attention_store() -> (ParamStore, Vec<ParamId>) {
    let (w, b): (&[usize], &[usize]) = (&[ATT_D, ATT_D], &[ATT_D]);
    store_with(&[w, b, w, b, w, b, w, b])
}

/// Which intermediate of [`attention_program`] gets a second reader
/// (as an extra plan output).
#[derive(Clone, Copy, PartialEq, Debug)]
enum Leak {
    Nothing,
    Probs,
    SplitHead,
    Projection,
}

/// One multi-head self-attention block the way `MultiHeadAttention`
/// records it (rank-3 linears, `1/sqrt(dh)` scale), plus the output
/// projection.
fn attention_program<E: Exec>(
    e: &mut E,
    store: &ParamStore,
    ids: &[ParamId],
    b: usize,
    leak: Leak,
) -> TensorResult<Vec<Var>> {
    let x = e.constant(attention_input(b));
    let linear = |e: &mut E, x: Var, w: ParamId, bias: ParamId| -> TensorResult<Var> {
        let flat = e.reshape(x, &[b * ATT_L, ATT_D])?;
        let w = e.param(store, w);
        let y = e.matmul(flat, w)?;
        let y = e.reshape(y, &[b, ATT_L, ATT_D])?;
        let bias = e.param(store, bias);
        e.add_row(y, bias)
    };
    let q = linear(e, x, ids[0], ids[1])?;
    let k = linear(e, x, ids[2], ids[3])?;
    let v = linear(e, x, ids[4], ids[5])?;
    let qh = e.split_heads(q, ATT_H)?;
    let kh = e.split_heads(k, ATT_H)?;
    let vh = e.split_heads(v, ATT_H)?;
    let scores = e.bmm(qh, kh, false, true)?;
    let scaled = e.scale(scores, 1.0 / ((ATT_D / ATT_H) as f32).sqrt());
    let probs = e.softmax_last(scaled)?;
    let ctx = e.bmm(probs, vh, false, false)?;
    let merged = e.merge_heads(ctx, ATT_H)?;
    let out = linear(e, merged, ids[6], ids[7])?;
    Ok(match leak {
        Leak::Nothing => vec![out],
        Leak::Probs => vec![out, probs],
        Leak::SplitHead => vec![out, kh],
        Leak::Projection => vec![out, q],
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Folds [`attention_program`] at every batch in `1..=9` and asserts
/// the fold replays the generic plan's bits; returns the B = 4 fold.
fn fold_attention(store: &ParamStore, ids: &[ParamId], leak: Leak) -> SpecializedPlan {
    let plan = Arc::new(
        Plan::compile(store, |rec, b| {
            attention_program(rec, store, ids, b, leak).map_err(PlanError::from)
        })
        .unwrap(),
    );
    let mut generic = PlanExec::new(Arc::clone(&plan));
    let mut cache = WeightPackCache::new();
    let mut arena = Vec::new();
    for b in 1..=9usize {
        let fold = plan.specialize_cached(store, b, &mut cache).unwrap();
        let x = attention_input(b);
        fold.replay(&mut arena, store, &[&x]).unwrap();
        generic.run(store, &[&x]).unwrap();
        for i in 0..plan.num_outputs() {
            assert_eq!(
                bits(fold.output(&arena, i)),
                bits(generic.output(i)),
                "{leak:?}: output {i} at batch {b}"
            );
        }
    }
    plan.specialize_cached(store, 4, &mut cache).unwrap()
}

#[test]
fn attention_block_folds_into_one_gemm_and_one_attention_step() {
    // Generic: 3 projections + 3 splits + bmm + softmax + bmm + merge
    // + output projection = 11 steps. Folded: fused projection,
    // attention, output projection. f32 and i8 stores alike.
    for quantized in [false, true] {
        let (mut store, ids) = attention_store();
        if quantized {
            assert_eq!(store.quantize_weights(), 4);
        }
        let fold = fold_attention(&store, &ids, Leak::Nothing);
        assert_eq!(fold.steps(), 3, "quantized {quantized}: {fold:?}");
        assert_eq!(fold.fused_attentions(), 1, "quantized {quantized}");
        assert_eq!(fold.fused_qkv_gemms(), 1, "quantized {quantized}");
        assert_eq!(
            fold.unrolled_copies(),
            0,
            "quantized {quantized}: no head copies left"
        );
        // The fused projection and the output projection, on the
        // kernel the store's encoding selects.
        let (f32_gemms, quant_gemms) = if quantized { (0, 2) } else { (2, 0) };
        assert_eq!(fold.prepacked_gemms(), f32_gemms, "quantized {quantized}");
        assert_eq!(
            fold.quant_prepacked_gemms(),
            quant_gemms,
            "quantized {quantized}"
        );
    }
}

#[test]
fn a_second_reader_keeps_the_generic_steps() {
    let (store, ids) = attention_store();
    // `probs` or a split head observed from outside: the seven steps
    // stay, and with them the projections they read.
    for leak in [Leak::Probs, Leak::SplitHead] {
        let fold = fold_attention(&store, &ids, leak);
        assert_eq!(fold.fused_attentions(), 0, "{leak:?}");
        assert_eq!(fold.fused_qkv_gemms(), 0, "{leak:?}");
        assert_eq!(fold.steps(), 11, "{leak:?}: {fold:?}");
    }
    // A projection output observed from outside: the projections stay
    // three GEMMs; attention may still read them where they are.
    let fold = fold_attention(&store, &ids, Leak::Projection);
    assert_eq!(fold.fused_qkv_gemms(), 0);
    assert!(fold.steps() == 11 || (fold.steps() == 5 && fold.fused_attentions() == 1));
}

#[test]
fn attention_over_plain_inputs_fuses_in_place() {
    // No projections to merge: Q, K and V are three plan inputs, read
    // by stride where they are.
    fn body<E: Exec>(e: &mut E, b: usize) -> TensorResult<Vec<Var>> {
        let mut input = |phase: f32| {
            e.constant(Tensor::from_fn(&[b, ATT_L, ATT_D], |i| {
                ((i as f32) * 0.091 + phase).cos()
            }))
        };
        let (q, k, v) = (input(0.0), input(1.0), input(2.0));
        let qh = e.split_heads(q, ATT_H)?;
        let kh = e.split_heads(k, ATT_H)?;
        let vh = e.split_heads(v, ATT_H)?;
        let scores = e.bmm(qh, kh, false, true)?;
        let probs = e.softmax_last(scores)?;
        let ctx = e.bmm(probs, vh, false, false)?;
        Ok(vec![e.merge_heads(ctx, ATT_H)?])
    }
    let (store, _) = store_with(&[]);
    let plan =
        Arc::new(Plan::compile(&store, |rec, b| body(rec, b).map_err(PlanError::from)).unwrap());
    let mut generic = PlanExec::new(Arc::clone(&plan));
    for b in [1usize, 2, 5] {
        let fold = plan.specialize(&store, b).unwrap();
        assert_eq!((fold.steps(), fold.fused_attentions()), (1, 1), "{fold:?}");
        let inputs: Vec<Tensor> = (0..3)
            .map(|p| {
                Tensor::from_fn(&[b, ATT_L, ATT_D], |i| {
                    ((i as f32) * 0.091 + p as f32).cos()
                })
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut arena = Vec::new();
        fold.replay(&mut arena, &store, &refs).unwrap();
        generic.run(&store, &refs).unwrap();
        assert_eq!(
            bits(fold.output(&arena, 0)),
            bits(generic.output(0)),
            "b={b}"
        );
    }
}

#[test]
fn specialized_plan_rejects_wrong_batch_inputs() {
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    assert!(matches!(
        plan.specialize(&store, 0),
        Err(PlanError::Input(_))
    ));
    let spec = plan.specialize(&store, 3).unwrap();
    let mut arena = Vec::new();
    // Wrong batch size against a shape-final plan is a typed error.
    let x = input_for(4);
    assert!(matches!(
        spec.replay(&mut arena, &store, &[&x]),
        Err(PlanError::Input(_))
    ));
    // The right batch still works afterwards.
    let ok = input_for(3);
    spec.replay(&mut arena, &store, &[&ok]).unwrap();
    assert_eq!(spec.output_shape(1), &[12, 8]);
}

#[test]
fn cse_deduplicates_repeated_subtrees() {
    // The same parameter read twice, each pushed through an identical
    // reshape, then combined: CSE must collapse the duplicate reads
    // (and the duplicate reshapes) while keeping outputs bit-identical
    // to the uncompiled executor.
    let (store, ids) = store_with(&[&[4, 6]]);
    fn program<E: Exec>(
        e: &mut E,
        store: &ParamStore,
        ids: &[ParamId],
        b: usize,
    ) -> TensorResult<Var> {
        let x = e.constant(Tensor::from_fn(&[b, 24], |i| (i as f32 * 0.11).cos()));
        let w1 = e.param(store, ids[0]);
        let f1 = e.reshape(w1, &[24])?;
        let w2 = e.param(store, ids[0]); // duplicate read
        let f2 = e.reshape(w2, &[24])?; // duplicate reshape
        let s = e.add(f1, f2)?;
        e.add_row(x, s)
    }
    let plan = Plan::compile(&store, |rec, b| {
        program(rec, &store, &ids, b)
            .map(|v| vec![v])
            .map_err(PlanError::from)
    })
    .unwrap();
    assert!(
        plan.stats().cse_deduped >= 2,
        "duplicate param + reshape must dedupe: {:?}",
        plan.stats()
    );
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 3] {
        let x = Tensor::from_fn(&[b, 24], |i| (i as f32 * 0.11).cos());
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let out = program(&mut tape, &store, &ids, b).unwrap();
        assert_eq!(exec.output(0), tape.value(out).data(), "b={b}");
    }
}

#[test]
fn cse_keeps_reshapes_to_different_shapes_apart() {
    // Two reshapes of the same value to *different* shapes are
    // structurally identical ops (Reshape carries no target shape);
    // the shape-aware CSE key must keep them distinct or downstream
    // row-wise ops would run over the wrong width.
    let (store, _) = store_with(&[]);
    fn program<E: Exec>(e: &mut E, b: usize) -> TensorResult<(Var, Var)> {
        let x = e.constant(Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.19).sin()));
        let wide = e.reshape(x, &[b * 2, 3])?;
        let narrow = e.reshape(x, &[b * 3, 2])?;
        let a = e.softmax_last(wide)?;
        let bb = e.softmax_last(narrow)?;
        Ok((a, bb))
    }
    let plan = Plan::compile(&store, |rec, b| {
        program(rec, b)
            .map(|(a, b)| vec![a, b])
            .map_err(PlanError::from)
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    for b in [1usize, 2, 4] {
        let x = Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.19).sin());
        exec.run(&store, &[&x]).unwrap();
        let mut tape = Graph::new();
        let (a, bb) = program(&mut tape, b).unwrap();
        assert_eq!(exec.output(0), tape.value(a).data(), "wide softmax, b={b}");
        assert_eq!(
            exec.output(1),
            tape.value(bb).data(),
            "narrow softmax, b={b}"
        );
    }
}

#[test]
fn cse_keeps_distinct_float_constants_apart() {
    // Scale(0.0) and Scale(-0.0) produce different signed zeros; the
    // CSE key compares constants bitwise so they must NOT merge.
    let (store, _) = store_with(&[]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::from_fn(&[b, 4], |i| i as f32 - 3.0));
        let a = rec.scale(x, 0.0);
        let bb = rec.scale(x, -0.0);
        Ok(vec![a, bb])
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    let x = Tensor::from_fn(&[2, 4], |i| i as f32 - 3.0);
    exec.run(&store, &[&x]).unwrap();
    let pos: Vec<u32> = exec.output(0).iter().map(|v| v.to_bits()).collect();
    let neg: Vec<u32> = exec.output(1).iter().map(|v| v.to_bits()).collect();
    assert_ne!(pos, neg, "signed zeros must survive CSE");
}

#[test]
fn desc_roundtrip_is_lossless_and_bit_identical() {
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    // The byte form round-trips exactly, both ways, and decoding stops
    // where the plan does.
    let mut bytes = Vec::new();
    plan.encode_into(&mut bytes);
    let len = bytes.len();
    bytes.extend_from_slice(b"next");
    let mut rest = bytes.as_slice();
    let loaded = Plan::decode(&mut rest, &store).unwrap();
    assert_eq!(rest, b"next");
    let mut again = Vec::new();
    loaded.encode_into(&mut again);
    assert_eq!(again, bytes[..len]);
    assert_eq!(loaded.stats(), plan.stats());
    // ...and the decoded plan replays bit-identically to the original
    // compilation.
    let mut orig = PlanExec::new(Arc::new(plan));
    let mut from_file = PlanExec::new(Arc::new(loaded));
    for b in [1usize, 3, 5] {
        let x = input_for(b);
        orig.run(&store, &[&x]).unwrap();
        from_file.run(&store, &[&x]).unwrap();
        for i in 0..2 {
            assert_eq!(orig.output(i), from_file.output(i), "output {i} at b={b}");
        }
    }
}

#[test]
fn hostile_plan_bytes_are_typed_errors_or_other_descriptors() {
    use super::desc::PlanDecodeError;
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    let mut good = Vec::new();
    plan.encode_into(&mut good);

    // Every proper prefix is a short read, and the cursor stays put.
    for cut in 0..good.len() {
        let mut rest = &good[..cut];
        let err = Plan::decode(&mut rest, &store).unwrap_err();
        assert!(
            matches!(err, PlanDecodeError::Truncated { offset, .. } if offset <= cut),
            "cut at {cut}: unexpected {err:?}"
        );
        assert_eq!(rest.len(), cut);
    }

    // Every bit of every byte, flipped: a typed error, or a plan whose
    // encoding is exactly the bytes it was read from and which replays
    // without leaving its arena, whatever it computes.
    let x = input_for(2);
    let (mut refused, mut replayed) = (0, 0);
    for at in 0..good.len() {
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << bit;
            let mut rest = bytes.as_slice();
            let Ok(plan) = Plan::decode(&mut rest, &store) else {
                refused += 1;
                continue;
            };
            let read = bytes.len() - rest.len();
            let mut again = Vec::new();
            plan.encode_into(&mut again);
            assert_eq!(again, bytes[..read], "byte {at} bit {bit}");
            let _ = PlanExec::new(Arc::new(plan)).run(&store, &[&x]);
            replayed += 1;
        }
    }
    assert!(
        refused > 0 && replayed > 0,
        "{refused} refused, {replayed} replayed"
    );
}

#[test]
fn tampered_descs_are_typed_errors_not_panics() {
    use super::desc::PlanDecodeError;
    let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
    let plan = Plan::compile(&store, |rec, b| {
        mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
    })
    .unwrap();
    let mut good = Vec::new();
    plan.encode_into(&mut good);
    // A fresh copy of the compiled tables to tamper with, and what
    // decoding makes of tampered tables.
    let fresh = || Plan::decode(&mut good.as_slice(), &store).unwrap();
    let decode = |p: &Plan| {
        let mut bytes = Vec::new();
        p.encode_into(&mut bytes);
        Plan::decode(&mut bytes.as_slice(), &store)
    };
    assert!(decode(&plan).is_ok());

    // Slot index out of range.
    let mut p = fresh();
    p.bufs[0].slot = p.slot_sizes.len() + 7;
    assert!(matches!(
        decode(&p),
        Err(PlanDecodeError::Index { what: "slot", .. })
    ));

    // Buffer bigger than its slot.
    let mut p = fresh();
    p.bufs[0].size = Size {
        coef: 1 << 20,
        fixed: 0,
    };
    assert!(decode(&p).is_err());

    // Step writing a buffer that does not exist.
    let mut p = fresh();
    p.steps[0].out = p.bufs.len();
    assert!(matches!(
        decode(&p),
        Err(PlanDecodeError::Index {
            what: "output buffer",
            ..
        })
    ));

    // Parameter index out of range.
    let mut p = fresh();
    for s in &mut p.steps {
        if let StepKind::Gemm { a, .. } = &mut s.kind {
            *a = Src::Param(ParamId(10_000));
            break;
        }
    }
    assert!(matches!(
        decode(&p),
        Err(PlanDecodeError::Index {
            what: "parameter",
            ..
        })
    ));

    // Geometry lying about the GEMM's contraction length.
    let mut p = fresh();
    for s in &mut p.steps {
        if let StepKind::Gemm { k, .. } = &mut s.kind {
            *k = Dim::Fixed(4096);
            break;
        }
    }
    assert!(matches!(decode(&p), Err(PlanDecodeError::Step { .. })));

    // A NaN or infinite step constant would answer the same garbage for
    // every sample: refused, in each of the places one can sit.
    let mut poisoned = [0; 4];
    for si in 0..plan.steps.len() {
        let mut p = fresh();
        let which = match &mut p.steps[si].kind {
            StepKind::Bmm { scale: Some(c), .. } => {
                *c = f32::NAN;
                0
            }
            StepKind::LayerNorm { eps, .. } => {
                *eps = f32::INFINITY;
                1
            }
            StepKind::Map { ops, .. }
            | StepKind::Zip { ops, .. }
            | StepKind::RowOp { ops, .. }
            | StepKind::Concat { ops, .. } => {
                match ops.iter_mut().find_map(|op| match op {
                    MapOp::Scale(c) => Some((c, 2)),
                    MapOp::AddScalar(c) => Some((c, 3)),
                    _ => None,
                }) {
                    Some((c, which)) => {
                        *c = f32::NEG_INFINITY;
                        which
                    }
                    None => continue,
                }
            }
            _ => continue,
        };
        poisoned[which] += 1;
        assert!(
            matches!(
                decode(&p),
                Err(PlanDecodeError::Step { step, .. }) if step == si
            ),
            "step {si}"
        );
    }
    assert!(
        poisoned.iter().all(|&n| n > 0),
        "Bmm.scale / eps / Scale / AddScalar poisoned {poisoned:?} times"
    );

    // An attacker-sized dim constant is capped.
    let mut p = fresh();
    p.slot_sizes[0] = Size {
        coef: usize::MAX / 2,
        fixed: 0,
    };
    assert!(matches!(decode(&p), Err(PlanDecodeError::Limit { .. })));

    // Output pointing at a plan input (the interpreter has no path
    // for that — it must be rejected, not hit unreachable!).
    let mut p = fresh();
    p.outputs[0].0 = Src::Input(0);
    assert!(matches!(decode(&p), Err(PlanDecodeError::Output { .. })));

    // A zero row width on any row-wise step: decoding admits no zero dim
    // at all (and the row kernels return early on one, so a recorded
    // plan cannot divide or chunk by it either).
    let mut zeroed = 0;
    for si in 0..plan.steps.len() {
        let mut p = fresh();
        match &mut p.steps[si].kind {
            StepKind::Softmax { d: width, .. }
            | StepKind::LayerNorm { d: width, .. }
            | StepKind::RowOp { d: width, .. }
            | StepKind::SliceLast { d: width, .. } => *width = Dim::Fixed(0),
            _ => continue,
        }
        zeroed += 1;
        assert!(matches!(
            decode(&p),
            Err(PlanDecodeError::Limit { value: 0, .. })
        ));
    }
    assert!(zeroed >= 4, "the mixed program has all four row-wise kinds");
    softmax_rows(&mut [], 0);
    softmax_rows(&mut [1.0, 2.0], 0);

    // A buffer read before any step writes it.
    let mut p = fresh();
    let last = p.bufs[p.bufs.len() - 1];
    p.bufs.push(last);
    for s in &mut p.steps {
        if let StepKind::Softmax { x, .. } = &mut s.kind {
            *x = Src::Buf(p.bufs.len() - 1);
            break;
        }
    }
    assert!(decode(&p).is_err());
}

#[test]
fn mismatched_inputs_are_descriptive_errors() {
    let (store, ids) = store_with(&[&[6, 5], &[5]]);
    let plan = Plan::compile(&store, |rec, b| {
        let x = rec.constant(Tensor::zeros(&[b, 6]));
        let w = rec.param(&store, ids[0]);
        let y = rec.matmul(x, w)?;
        Ok(vec![y])
    })
    .unwrap();
    let mut exec = PlanExec::new(Arc::new(plan));
    // Wrong trailing dim.
    let bad = Tensor::zeros(&[2, 7]);
    assert!(matches!(
        exec.run(&store, &[&bad]),
        Err(PlanError::Input(_))
    ));
    // Wrong input count.
    let ok = Tensor::zeros(&[2, 6]);
    assert!(matches!(
        exec.run(&store, &[&ok, &ok]),
        Err(PlanError::Input(_))
    ));
    // Correct inputs still work afterwards.
    exec.run(&store, &[&ok]).unwrap();
    assert_eq!(exec.output_shape(0), &[2, 5]);
}
