//! One definition of task identity: `task_indices`, and `build_tasks` /
//! `layer_task_ids` rebuilt on it, against the hash-map definitions they
//! replaced (PR 17), kept here verbatim as the oracle.

use std::collections::HashMap;

use tir::{
    all_networks, build_tasks, layer_task_ids, task_indices, EwKind, LayerNode, Network, OpSpec,
    Task,
};

fn reference_build_tasks(networks: &[Network]) -> Vec<Task> {
    let mut seen: HashMap<OpSpec, u32> = HashMap::new();
    let mut out = Vec::new();
    for net in networks {
        for (i, layer) in net.layers.iter().enumerate() {
            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(layer.spec) {
                let id = out.len() as u32;
                e.insert(id);
                out.push(Task {
                    id,
                    spec: layer.spec,
                    name: format!("{}.{}.{}", net.name, layer.spec.kind_name(), i),
                });
            }
        }
    }
    out
}

fn reference_layer_task_ids(net: &Network, tasks: &[Task]) -> Vec<u32> {
    let index: HashMap<OpSpec, u32> = tasks.iter().map(|t| (t.spec, t.id)).collect();
    net.layers
        .iter()
        .map(|l| *index.get(&l.spec).expect("task exists for layer"))
        .collect()
}

/// A network whose first layers repeat a spec, then alternate two.
fn repeats() -> Network {
    let relu = OpSpec::Elementwise {
        n: 64,
        kind: EwKind::Relu,
    };
    let dense = OpSpec::Dense { m: 8, n: 8, k: 8 };
    let layers = [relu, relu, relu, dense, relu, dense, dense]
        .iter()
        .enumerate()
        .map(|(i, &spec)| LayerNode {
            spec,
            deps: if i == 0 { vec![] } else { vec![i - 1] },
        })
        .collect();
    Network {
        name: "repeats".into(),
        batch: 1,
        layers,
    }
}

#[test]
fn one_network_at_a_time() {
    let mut nets = all_networks(1);
    nets.push(repeats());
    for net in &nets {
        let tasks = reference_build_tasks(std::slice::from_ref(net));
        assert_eq!(
            build_tasks(std::slice::from_ref(net)),
            tasks,
            "{}",
            net.name
        );
        let ids = reference_layer_task_ids(net, &tasks);
        assert_eq!(layer_task_ids(net, &tasks), ids, "{}", net.name);
        let (index, specs) = task_indices(net.layers.iter().map(|l| &l.spec));
        assert_eq!(index, ids, "{}", net.name);
        let want: Vec<OpSpec> = tasks.iter().map(|t| t.spec).collect();
        assert_eq!(specs, want, "{}", net.name);
        assert_eq!(net.unique_specs(), want, "{}", net.name);
    }
    let (index, specs) = task_indices(repeats().layers.iter().map(|l| &l.spec));
    assert_eq!(index, [0, 0, 0, 1, 0, 1, 1]);
    assert_eq!(specs.len(), 2);
}

#[test]
fn across_the_zoo() {
    // The dataset's task list: tasks shared between networks keep the id
    // and the name of their first use.
    let mut nets = all_networks(1);
    nets.push(repeats());
    let tasks = reference_build_tasks(&nets);
    assert_eq!(build_tasks(&nets), tasks);
    for net in &nets {
        assert_eq!(
            layer_task_ids(net, &tasks),
            reference_layer_task_ids(net, &tasks),
            "{}",
            net.name
        );
    }
}

#[test]
#[should_panic(expected = "task exists for layer")]
fn a_layer_without_a_task_is_refused() {
    let tasks = build_tasks(&all_networks(1)[..1]);
    layer_task_ids(&repeats(), &tasks);
}
