//! Model zoo: DNN architectures lowered to task graphs.
//!
//! Mirrors the paper's dataset composition (§7.1): convolutional networks
//! (ResNet-50, VGG-16, Inception-V3, MobileNet-V2), Transformers (BERT-tiny,
//! BERT-base) and a few extra variants. Each network is a data-flow graph of
//! [`OpSpec`] nodes; deduplicated specs become the task set used for both
//! dataset generation and end-to-end replay.

use serde::{Deserialize, Serialize};

use crate::task::{EwKind, OpSpec, Task};

/// One node of a network's data-flow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerNode {
    /// The operator this node executes.
    pub spec: OpSpec,
    /// Indices of producer nodes this node depends on.
    pub deps: Vec<usize>,
}

/// A DNN model: a named DAG of operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    /// Model name, e.g. `"resnet50"`.
    pub name: String,
    /// Batch size the graph was instantiated with.
    pub batch: u64,
    /// Topologically-ordered layer nodes.
    pub layers: Vec<LayerNode>,
}

/// Builder that accumulates layers with dependency tracking.
struct NetBuilder {
    name: String,
    batch: u64,
    layers: Vec<LayerNode>,
}

impl NetBuilder {
    fn new(name: &str, batch: u64) -> Self {
        NetBuilder {
            name: name.into(),
            batch,
            layers: Vec::new(),
        }
    }

    fn push(&mut self, spec: OpSpec, deps: &[usize]) -> usize {
        self.layers.push(LayerNode {
            spec,
            deps: deps.to_vec(),
        });
        self.layers.len() - 1
    }

    fn finish(self) -> Network {
        Network {
            name: self.name,
            batch: self.batch,
            layers: self.layers,
        }
    }
}

impl Network {
    /// Distinct operator specs used by this network.
    pub fn unique_specs(&self) -> Vec<OpSpec> {
        task_indices(self.layers.iter().map(|l| &l.spec)).1
    }

    /// Validates that dependencies are topological (deps point backwards).
    pub fn is_topological(&self) -> bool {
        self.layers
            .iter()
            .enumerate()
            .all(|(i, l)| l.deps.iter().all(|&d| d < i))
    }
}

/// ResNet-50 at the given batch size (bottleneck blocks approximated by
/// their distinct conv shapes; real spatial sizes 56/28/14/7).
pub fn resnet50(batch: u64) -> Network {
    let mut b = NetBuilder::new("resnet50", batch);
    // Stem: 7x7 conv approximated at hw=56 then pool.
    let stem = b.push(
        OpSpec::Conv2d {
            n: batch,
            cin: 4,
            hw: 112,
            cout: 64,
            khw: 7,
            stride: 2,
        },
        &[],
    );
    let pool0 = b.push(
        OpSpec::Pool {
            n: batch,
            c: 64,
            hw: 56,
            khw: 2,
            stride: 2,
        },
        &[stem],
    );
    // Stage configuration: (cin, cmid, cout, hw, blocks).
    let stages: [(u64, u64, u64, u64, usize); 4] = [
        (64, 64, 256, 28, 3),
        (256, 128, 512, 14, 4),
        (512, 256, 1024, 7, 6),
        (1024, 512, 2048, 7, 3),
    ];
    let mut prev = pool0;
    for (cin, cmid, cout, hw, blocks) in stages {
        for blk in 0..blocks {
            let cin_b = if blk == 0 { cin } else { cout };
            let c1 = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin: cin_b,
                    hw,
                    cout: cmid,
                    khw: 1,
                    stride: 1,
                },
                &[prev],
            );
            let c2 = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin: cmid,
                    hw,
                    cout: cmid,
                    khw: 3,
                    stride: 1,
                },
                &[c1],
            );
            let c3 = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin: cmid,
                    hw,
                    cout,
                    khw: 1,
                    stride: 1,
                },
                &[c2],
            );
            let add = b.push(
                OpSpec::Elementwise {
                    n: batch * cout * hw * hw,
                    kind: EwKind::Add,
                },
                &[c3, prev],
            );
            prev = add;
        }
    }
    let pool = b.push(
        OpSpec::Pool {
            n: batch,
            c: 2048,
            hw: 7,
            khw: 7,
            stride: 7,
        },
        &[prev],
    );
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 1000,
            k: 2048,
        },
        &[pool],
    );
    b.finish()
}

/// ResNet-18 (smaller variant, adds model diversity).
pub fn resnet18(batch: u64) -> Network {
    let mut b = NetBuilder::new("resnet18", batch);
    let stem = b.push(
        OpSpec::Conv2d {
            n: batch,
            cin: 4,
            hw: 112,
            cout: 64,
            khw: 7,
            stride: 2,
        },
        &[],
    );
    let mut prev = b.push(
        OpSpec::Pool {
            n: batch,
            c: 64,
            hw: 56,
            khw: 2,
            stride: 2,
        },
        &[stem],
    );
    let stages: [(u64, u64, usize); 4] = [(64, 28, 2), (128, 14, 2), (256, 7, 2), (512, 7, 2)];
    let mut cin = 64;
    for (c, hw, blocks) in stages {
        for _ in 0..blocks {
            let c1 = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin,
                    hw,
                    cout: c,
                    khw: 3,
                    stride: 1,
                },
                &[prev],
            );
            let c2 = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin: c,
                    hw,
                    cout: c,
                    khw: 3,
                    stride: 1,
                },
                &[c1],
            );
            let add = b.push(
                OpSpec::Elementwise {
                    n: batch * c * hw * hw,
                    kind: EwKind::Add,
                },
                &[c2, prev],
            );
            prev = add;
            cin = c;
        }
    }
    let pool = b.push(
        OpSpec::Pool {
            n: batch,
            c: 512,
            hw: 7,
            khw: 7,
            stride: 7,
        },
        &[prev],
    );
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 1000,
            k: 512,
        },
        &[pool],
    );
    b.finish()
}

/// MobileNet-V2: inverted residuals = pointwise expand, depthwise, pointwise
/// project.
pub fn mobilenet_v2(batch: u64) -> Network {
    let mut b = NetBuilder::new("mobilenet_v2", batch);
    let stem = b.push(
        OpSpec::Conv2d {
            n: batch,
            cin: 4,
            hw: 112,
            cout: 32,
            khw: 3,
            stride: 2,
        },
        &[],
    );
    // (cin, cout, hw, expansion, blocks).
    let stages: [(u64, u64, u64, u64, usize); 5] = [
        (32, 16, 56, 1, 1),
        (16, 24, 56, 6, 2),
        (24, 32, 28, 6, 3),
        (32, 96, 14, 6, 3),
        (96, 160, 7, 6, 3),
    ];
    let mut prev = stem;
    for (cin0, cout, hw, exp, blocks) in stages {
        let mut cin = cin0;
        for blk in 0..blocks {
            let cmid = cin * exp;
            let e = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin,
                    hw,
                    cout: cmid,
                    khw: 1,
                    stride: 1,
                },
                &[prev],
            );
            let d = b.push(
                OpSpec::DepthwiseConv {
                    n: batch,
                    c: cmid,
                    hw,
                    khw: 3,
                    stride: 1,
                },
                &[e],
            );
            let p = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin: cmid,
                    hw,
                    cout,
                    khw: 1,
                    stride: 1,
                },
                &[d],
            );
            prev = if blk > 0 && cin == cout {
                b.push(
                    OpSpec::Elementwise {
                        n: batch * cout * hw * hw,
                        kind: EwKind::Add,
                    },
                    &[p, prev],
                )
            } else {
                p
            };
            cin = cout;
        }
    }
    let head = b.push(
        OpSpec::Conv2d {
            n: batch,
            cin: 160,
            hw: 7,
            cout: 1280,
            khw: 1,
            stride: 1,
        },
        &[prev],
    );
    let pool = b.push(
        OpSpec::Pool {
            n: batch,
            c: 1280,
            hw: 7,
            khw: 7,
            stride: 7,
        },
        &[head],
    );
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 1000,
            k: 1280,
        },
        &[pool],
    );
    b.finish()
}

/// A BERT encoder stack with the given hidden size / layer count / heads.
fn bert(name: &str, batch: u64, hidden: u64, layers: usize, heads: u64, seq: u64) -> Network {
    let mut b = NetBuilder::new(name, batch);
    let tokens = batch * seq;
    let dh = hidden / heads;
    let mut prev = b.push(
        OpSpec::Dense {
            m: tokens,
            n: hidden,
            k: hidden,
        },
        &[],
    ); // embedding proj
    for _ in 0..layers {
        let q = b.push(
            OpSpec::Dense {
                m: tokens,
                n: hidden,
                k: hidden,
            },
            &[prev],
        );
        let k = b.push(
            OpSpec::Dense {
                m: tokens,
                n: hidden,
                k: hidden,
            },
            &[prev],
        );
        let v = b.push(
            OpSpec::Dense {
                m: tokens,
                n: hidden,
                k: hidden,
            },
            &[prev],
        );
        let scores = b.push(
            OpSpec::BatchMatmul {
                b: batch * heads,
                m: seq,
                n: seq,
                k: dh,
            },
            &[q, k],
        );
        let probs = b.push(
            OpSpec::Softmax {
                rows: batch * heads * seq,
                cols: seq,
            },
            &[scores],
        );
        let ctx = b.push(
            OpSpec::BatchMatmul {
                b: batch * heads,
                m: seq,
                n: dh,
                k: seq,
            },
            &[probs, v],
        );
        let proj = b.push(
            OpSpec::Dense {
                m: tokens,
                n: hidden,
                k: hidden,
            },
            &[ctx],
        );
        let add1 = b.push(
            OpSpec::Elementwise {
                n: tokens * hidden,
                kind: EwKind::Add,
            },
            &[proj, prev],
        );
        let ln1 = b.push(
            OpSpec::LayerNorm {
                rows: tokens,
                cols: hidden,
            },
            &[add1],
        );
        let ff1 = b.push(
            OpSpec::Dense {
                m: tokens,
                n: 4 * hidden,
                k: hidden,
            },
            &[ln1],
        );
        let gelu = b.push(
            OpSpec::Elementwise {
                n: tokens * 4 * hidden,
                kind: EwKind::Gelu,
            },
            &[ff1],
        );
        let ff2 = b.push(
            OpSpec::Dense {
                m: tokens,
                n: hidden,
                k: 4 * hidden,
            },
            &[gelu],
        );
        let add2 = b.push(
            OpSpec::Elementwise {
                n: tokens * hidden,
                kind: EwKind::Add,
            },
            &[ff2, ln1],
        );
        let ln2 = b.push(
            OpSpec::LayerNorm {
                rows: tokens,
                cols: hidden,
            },
            &[add2],
        );
        prev = ln2;
    }
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 2,
            k: hidden,
        },
        &[prev],
    );
    b.finish()
}

/// BERT-tiny (2 layers, hidden 128).
pub fn bert_tiny(batch: u64) -> Network {
    bert("bert_tiny", batch, 128, 2, 2, 128)
}

/// BERT-base (12 layers, hidden 768).
pub fn bert_base(batch: u64) -> Network {
    bert("bert_base", batch, 768, 12, 12, 128)
}

/// VGG-16: plain conv stacks plus large dense classifier layers.
pub fn vgg16(batch: u64) -> Network {
    let mut b = NetBuilder::new("vgg16", batch);
    let cfg: [(u64, u64, usize); 5] = [
        (64, 112, 2),
        (128, 56, 2),
        (256, 28, 3),
        (512, 14, 3),
        (512, 7, 3),
    ];
    let mut prev = None;
    let mut cin = 4;
    for (c, hw, reps) in cfg {
        for _ in 0..reps {
            let deps: Vec<usize> = prev.into_iter().collect();
            let conv = b.push(
                OpSpec::Conv2d {
                    n: batch,
                    cin,
                    hw,
                    cout: c,
                    khw: 3,
                    stride: 1,
                },
                &deps,
            );
            prev = Some(conv);
            cin = c;
        }
        let pool = b.push(
            OpSpec::Pool {
                n: batch,
                c,
                hw,
                khw: 2,
                stride: 2,
            },
            &[prev.unwrap()],
        );
        prev = Some(pool);
    }
    let f1 = b.push(
        OpSpec::Dense {
            m: batch,
            n: 4096,
            k: 512 * 3 * 3,
        },
        &[prev.unwrap()],
    );
    let f2 = b.push(
        OpSpec::Dense {
            m: batch,
            n: 4096,
            k: 4096,
        },
        &[f1],
    );
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 1000,
            k: 4096,
        },
        &[f2],
    );
    b.finish()
}

/// Inception-V3 approximation: mixed blocks with parallel branches
/// (exercises the replayer's DAG scheduling).
pub fn inception_v3(batch: u64) -> Network {
    let mut b = NetBuilder::new("inception_v3", batch);
    let stem = b.push(
        OpSpec::Conv2d {
            n: batch,
            cin: 4,
            hw: 112,
            cout: 32,
            khw: 3,
            stride: 2,
        },
        &[],
    );
    let c2 = b.push(
        OpSpec::Conv2d {
            n: batch,
            cin: 32,
            hw: 56,
            cout: 64,
            khw: 3,
            stride: 2,
        },
        &[stem],
    );
    let mut prev = b.push(
        OpSpec::Pool {
            n: batch,
            c: 64,
            hw: 28,
            khw: 2,
            stride: 2,
        },
        &[c2],
    );
    let mut cin = 64;
    for (hw, c) in [(14u64, 128u64), (14, 256), (7, 256), (7, 512)] {
        // Four parallel branches.
        let b1 = b.push(
            OpSpec::Conv2d {
                n: batch,
                cin,
                hw,
                cout: c / 4,
                khw: 1,
                stride: 1,
            },
            &[prev],
        );
        let b2a = b.push(
            OpSpec::Conv2d {
                n: batch,
                cin,
                hw,
                cout: c / 4,
                khw: 1,
                stride: 1,
            },
            &[prev],
        );
        let b2 = b.push(
            OpSpec::Conv2d {
                n: batch,
                cin: c / 4,
                hw,
                cout: c / 4,
                khw: 3,
                stride: 1,
            },
            &[b2a],
        );
        let b3a = b.push(
            OpSpec::Conv2d {
                n: batch,
                cin,
                hw,
                cout: c / 4,
                khw: 1,
                stride: 1,
            },
            &[prev],
        );
        let b3 = b.push(
            OpSpec::Conv2d {
                n: batch,
                cin: c / 4,
                hw,
                cout: c / 4,
                khw: 5,
                stride: 1,
            },
            &[b3a],
        );
        let b4a = b.push(
            OpSpec::Pool {
                n: batch,
                c: cin,
                hw,
                khw: 1,
                stride: 1,
            },
            &[prev],
        );
        let b4 = b.push(
            OpSpec::Conv2d {
                n: batch,
                cin,
                hw,
                cout: c / 4,
                khw: 1,
                stride: 1,
            },
            &[b4a],
        );
        // Concat is free; model it as an element-wise pass over the output.
        let cat = b.push(
            OpSpec::Elementwise {
                n: batch * c * hw * hw,
                kind: EwKind::Add,
            },
            &[b1, b2, b3, b4],
        );
        prev = cat;
        cin = c;
    }
    let pool = b.push(
        OpSpec::Pool {
            n: batch,
            c: 512,
            hw: 7,
            khw: 7,
            stride: 7,
        },
        &[prev],
    );
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 1000,
            k: 512,
        },
        &[pool],
    );
    b.finish()
}

/// A GPT-2-small-like decoder stack (extra transformer diversity).
pub fn gpt2_small(batch: u64) -> Network {
    bert("gpt2_small", batch, 768, 6, 12, 64)
}

/// A small fully-dense MLP network (op-distribution outlier).
pub fn mlp_mixer(batch: u64) -> Network {
    let mut b = NetBuilder::new("mlp_mixer", batch);
    let tokens = batch * 64;
    let mut prev = b.push(
        OpSpec::Dense {
            m: tokens,
            n: 256,
            k: 192,
        },
        &[],
    );
    for _ in 0..6 {
        let d1 = b.push(
            OpSpec::Dense {
                m: tokens,
                n: 512,
                k: 256,
            },
            &[prev],
        );
        let g = b.push(
            OpSpec::Elementwise {
                n: tokens * 512,
                kind: EwKind::Gelu,
            },
            &[d1],
        );
        let d2 = b.push(
            OpSpec::Dense {
                m: tokens,
                n: 256,
                k: 512,
            },
            &[g],
        );
        let ln = b.push(
            OpSpec::LayerNorm {
                rows: tokens,
                cols: 256,
            },
            &[d2],
        );
        prev = ln;
    }
    b.push(
        OpSpec::Dense {
            m: batch,
            n: 1000,
            k: 256,
        },
        &[prev],
    );
    b.finish()
}

/// All zoo networks at a batch size.
pub fn all_networks(batch: u64) -> Vec<Network> {
    vec![
        resnet50(batch),
        resnet18(batch),
        mobilenet_v2(batch),
        bert_tiny(batch),
        bert_base(batch),
        vgg16(batch),
        inception_v3(batch),
        gpt2_small(batch),
        mlp_mixer(batch),
    ]
}

/// The paper's hold-out networks for cross-model evaluation (§7.1).
pub const HOLD_OUT: [&str; 3] = ["resnet50", "mobilenet_v2", "bert_tiny"];

/// Task identity, defined once: two specs are the same task iff they are
/// equal, and tasks are numbered in order of first use. Returns each spec's
/// task index and the distinct specs, indexed by task.
///
/// One pass with no strings and no hashing: a network has a few dozen
/// tasks, where scanning the `Copy` specs seen so far beats SipHashing each
/// layer (cost: one comparison per (spec, earlier task) pair).
pub fn task_indices<'a>(specs: impl IntoIterator<Item = &'a OpSpec>) -> (Vec<u32>, Vec<OpSpec>) {
    let specs = specs.into_iter();
    let mut index = Vec::with_capacity(specs.size_hint().0);
    let mut tasks: Vec<OpSpec> = Vec::new();
    for spec in specs {
        let task = tasks.iter().position(|t| t == spec).unwrap_or_else(|| {
            tasks.push(*spec);
            tasks.len() - 1
        });
        index.push(task as u32);
    }
    (index, tasks)
}

/// Builds the deduplicated task list for a set of networks, tagging each
/// task with the first network that uses it.
pub fn build_tasks(networks: &[Network]) -> Vec<Task> {
    let layers = || {
        networks
            .iter()
            .flat_map(|net| net.layers.iter().enumerate().map(move |(i, l)| (net, i, l)))
    };
    let (index, _) = task_indices(layers().map(|(_, _, l)| &l.spec));
    let mut out = Vec::new();
    for ((net, i, layer), &id) in layers().zip(&index) {
        // Tasks are numbered in order of first use.
        if id as usize == out.len() {
            out.push(Task {
                id,
                spec: layer.spec,
                name: format!("{}.{}.{}", net.name, layer.spec.kind_name(), i),
            });
        }
    }
    out
}

/// Maps each layer of a network to its task id within `tasks`.
pub fn layer_task_ids(net: &Network, tasks: &[Task]) -> Vec<u32> {
    let known = tasks.iter().map(|t| &t.spec);
    let (index, _) = task_indices(known.chain(net.layers.iter().map(|l| &l.spec)));
    index[tasks.len()..]
        .iter()
        .map(|&t| tasks.get(t as usize).expect("task exists for layer").id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_are_topological() {
        for net in all_networks(1) {
            assert!(net.is_topological(), "{}", net.name);
            assert!(net.layers.len() >= 10, "{} too small", net.name);
        }
    }

    #[test]
    fn networks_have_distinct_op_mixes() {
        let nets = all_networks(1);
        let mobilenet = nets.iter().find(|n| n.name == "mobilenet_v2").unwrap();
        let bert = nets.iter().find(|n| n.name == "bert_base").unwrap();
        let has_depthwise = |n: &Network| {
            n.layers
                .iter()
                .any(|l| matches!(l.spec, OpSpec::DepthwiseConv { .. }))
        };
        let has_bmm = |n: &Network| {
            n.layers
                .iter()
                .any(|l| matches!(l.spec, OpSpec::BatchMatmul { .. }))
        };
        assert!(has_depthwise(mobilenet));
        assert!(!has_depthwise(bert));
        assert!(has_bmm(bert));
        assert!(!has_bmm(mobilenet));
    }

    #[test]
    fn task_dedup_is_consistent() {
        let nets = all_networks(1);
        let tasks = build_tasks(&nets);
        // Ids are dense and unique.
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id as usize, i);
        }
        // Every layer of every network maps to a task.
        for net in &nets {
            let ids = layer_task_ids(net, &tasks);
            assert_eq!(ids.len(), net.layers.len());
        }
        // Dedup: fewer tasks than total layers.
        let total_layers: usize = nets.iter().map(|n| n.layers.len()).sum();
        assert!(tasks.len() < total_layers);
        assert!(
            tasks.len() > 50,
            "want a rich task set, got {}",
            tasks.len()
        );
    }

    #[test]
    fn batch_size_scales_shapes() {
        let n1 = resnet50(1);
        let n4 = resnet50(4);
        let f1: f64 = n1.layers.iter().map(|l| l.spec.flops()).sum();
        let f4: f64 = n4.layers.iter().map(|l| l.spec.flops()).sum();
        assert!(f4 > 3.5 * f1 && f4 < 4.5 * f1);
    }

    #[test]
    fn every_spec_produces_a_lowerable_nest() {
        use crate::schedule::{lower, Schedule};
        let nets = all_networks(1);
        let tasks = build_tasks(&nets);
        for t in &tasks {
            let nest = t.spec.canonical_nest();
            lower(&nest, &Schedule::default()).expect("canonical nest lowers");
        }
    }

    #[test]
    fn inception_has_parallel_branches() {
        let net = inception_v3(1);
        // Some node must be depended on by more than one consumer.
        let mut consumers = vec![0usize; net.layers.len()];
        for l in &net.layers {
            for &d in &l.deps {
                consumers[d] += 1;
            }
        }
        assert!(consumers.iter().any(|&c| c >= 3));
    }

    #[test]
    fn hold_out_networks_exist() {
        let nets = all_networks(1);
        for h in HOLD_OUT {
            assert!(nets.iter().any(|n| n.name == h), "{h}");
        }
    }
}
