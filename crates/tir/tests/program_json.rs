//! A program's JSON is its tree image: byte for byte what the tree-shaped
//! `TensorProgram` wrote before programs were stored flat, so dataset files
//! written then load unchanged. Parsing goes through the tree image, so a
//! broken document is an error, never a program with dangling indices.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{lower, sample_schedule, OpSpec, TensorProgram};

/// FNV-1a of the JSON of [`programs`], recorded from the tree-shaped build.
const PINNED_FNV1A: [u64; 2] = [0xef89_8eb1_8f1e_9fc5, 0x4370_0dfc_af5c_5a01];

/// The dense program's JSON as the tree-shaped build wrote it.
const DENSE_JSON: &str = concat!(
    r#"{"buffers":[{"name":"a","elems":16384,"elem_bytes":4},{"name":"b","elems":16384,"elem_by"#,
    r#"tes":4},{"name":"c","elems":16384,"elem_bytes":4}],"roots":[{"Loop":{"var":{"axis":4,"ex"#,
    r#"tent":32,"kind":"Parallel","is_reduction":false},"body":[{"Loop":{"var":{"axis":0,"exten"#,
    r#"t":128,"kind":"Serial","is_reduction":false},"body":[{"Loop":{"var":{"axis":3,"extent":4"#,
    r#","kind":"Unroll","is_reduction":false},"body":[{"Leaf":{"kind":"Init","flops_per_iter":0"#,
    r#".5,"accesses":[{"buffer":2,"is_write":true,"strides":[[0,128],[3,32],[4,1]]}],"domain":["#,
    r#"0,1]}},{"Loop":{"var":{"axis":2,"extent":128,"kind":"Serial","is_reduction":true},"body""#,
    r#":[{"Leaf":{"kind":"Mac","flops_per_iter":2.0,"accesses":[{"buffer":0,"is_write":false,"s"#,
    r#"trides":[[0,128],[2,1]]},{"buffer":1,"is_write":false,"strides":[[2,128],[3,32],[4,1]]},"#,
    r#"{"buffer":2,"is_write":true,"strides":[[0,128],[3,32],[4,1]]}],"domain":[0,1,2]}}]}},{"L"#,
    r#"eaf":{"kind":"Max","flops_per_iter":1.0,"accesses":[{"buffer":2,"is_write":true,"strides"#,
    r#"":[[0,128],[3,32],[4,1]]}],"domain":[0,1]}}]}}]}}]}}]}"#,
);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fourth sampled schedule of a dense and of a conv task, lowered.
fn programs() -> [TensorProgram; 2] {
    let dense = OpSpec::Dense {
        m: 128,
        n: 128,
        k: 128,
    };
    let conv = OpSpec::Conv2d {
        n: 1,
        cin: 16,
        hw: 16,
        cout: 32,
        khw: 3,
        stride: 1,
    };
    [(dense, 31), (conv, 32)].map(|(spec, seed)| {
        let nest = spec.canonical_nest();
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = (0..4).map(|_| sample_schedule(&nest, &mut rng)).last();
        lower(&nest, &sched.expect("four samples")).expect("sampled schedule lowers")
    })
}

#[test]
fn json_bytes_are_pinned() {
    let got = programs().map(|p| fnv1a(serde_json::to_string(&p).unwrap().as_bytes()));
    assert_eq!(got, PINNED_FNV1A, "{got:#018x?}");
}

#[test]
fn json_from_the_tree_form_loads_unchanged() {
    let back: TensorProgram = serde_json::from_str(DENSE_JSON).unwrap();
    let [dense, _] = programs();
    assert_eq!(back, dense);
    assert_eq!(serde_json::to_string(&back).unwrap(), DENSE_JSON);
}

#[test]
fn every_truncation_is_an_error() {
    for cut in 0..DENSE_JSON.len() {
        assert!(
            serde_json::from_str::<TensorProgram>(&DENSE_JSON[..cut]).is_err(),
            "{cut}"
        );
    }
}
