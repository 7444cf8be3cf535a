//! Property test: reverse-mode gradients on randomly composed op graphs
//! agree with central finite differences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_autograd::nn::{Gru, ParamSet, Recurrent};
use tmn_autograd::{ops, Tensor};

/// A pool of unary op choices applied during graph construction.
#[derive(Debug, Clone, Copy)]
enum Unary {
    Tanh,
    Sigmoid,
    LeakyRelu,
    Scale,
    Softmax,
}

/// Binary combination choices.
#[derive(Debug, Clone, Copy)]
enum Binary {
    Add,
    Sub,
    Mul,
    Matmul,
}

fn apply_unary(op: Unary, x: &Tensor) -> Tensor {
    match op {
        Unary::Tanh => ops::tanh(x),
        Unary::Sigmoid => ops::sigmoid(x),
        Unary::LeakyRelu => ops::leaky_relu(x),
        Unary::Scale => ops::scale(x, 0.7),
        Unary::Softmax => ops::softmax(x),
    }
}

fn apply_binary(op: Binary, a: &Tensor, b: &Tensor) -> Tensor {
    match op {
        Binary::Add => ops::add(a, b),
        Binary::Sub => ops::sub(a, b),
        Binary::Mul => ops::mul(a, b),
        Binary::Matmul => ops::matmul(a, b), // both are [n, n]
    }
}

fn arb_unary() -> impl Strategy<Value = Unary> {
    prop_oneof![
        Just(Unary::Tanh),
        Just(Unary::Sigmoid),
        Just(Unary::LeakyRelu),
        Just(Unary::Scale),
        Just(Unary::Softmax),
    ]
}

fn arb_binary() -> impl Strategy<Value = Binary> {
    prop_oneof![Just(Binary::Add), Just(Binary::Sub), Just(Binary::Mul), Just(Binary::Matmul)]
}

/// Build a random graph over two square-matrix leaves and return its scalar
/// output.
fn build(unaries: &[Unary], binaries: &[Binary], leaves: &[Tensor]) -> Tensor {
    let mut a = leaves[0].clone();
    let mut b = leaves[1].clone();
    for (i, &u) in unaries.iter().enumerate() {
        if i % 2 == 0 {
            a = apply_unary(u, &a);
        } else {
            b = apply_unary(u, &b);
        }
    }
    let mut out = a;
    for &op in binaries {
        out = apply_binary(op, &out, &b);
    }
    ops::sum_all(&out)
}

/// Finite-difference check against reverse-mode gradients for a scalar loss
/// rebuilt by `f` on every call. `leaves` are the tensors to differentiate;
/// because `Tensor` clones share storage, perturbing a leaf is visible to
/// the layer that registered it, so `f` can simply re-run the layer's
/// forward pass.
fn fd_check(leaves: &[(String, Tensor)], f: impl Fn() -> Tensor, tol: f32) {
    let loss = f();
    for (_, t) in leaves {
        t.zero_grad();
    }
    loss.backward();
    let analytic: Vec<Vec<f32>> = leaves
        .iter()
        .map(|(_, t)| t.grad().unwrap_or_else(|| vec![0.0; t.numel()]))
        .collect();

    let eps = 1e-2f32;
    for ((name, t), grads) in leaves.iter().zip(&analytic) {
        for (j, &got) in grads.iter().enumerate() {
            let orig = t.data()[j];
            t.data_mut()[j] = orig + eps;
            let up = f().item();
            t.data_mut()[j] = orig - eps;
            let down = f().item();
            t.data_mut()[j] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let denom = numeric.abs().max(got.abs()).max(1.0);
            assert!(
                (numeric - got).abs() / denom < tol,
                "grad mismatch at {name}[{j}]: numeric {numeric} vs analytic {got}"
            );
        }
    }
}

/// All leaves of a layer gradcheck: the input plus every registered param.
fn leaves_of(ps: &ParamSet, x: &Tensor) -> Vec<(String, Tensor)> {
    let mut leaves = vec![("x".to_string(), x.clone())];
    leaves.extend(ps.iter().map(|(n, t)| (n.to_string(), t.clone())));
    leaves
}

#[test]
fn gru_layer_gradcheck() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(7);
    let gru = Gru::new(&mut ps, "gru", 2, 3, &mut rng);
    let x = Tensor::param(
        (0..12).map(|i| ((i as f32) * 0.83).sin() * 0.7).collect(),
        &[2, 3, 2],
    );
    let leaves = leaves_of(&ps, &x);
    fd_check(&leaves, || ops::sum_all(&gru.forward_seq(&x)), 2e-2);
}

#[test]
fn attention_layer_gradcheck_masked_softmax_path() {
    // T3S's structural branch: single-head dot-product self-attention,
    // bmm_nt → scale → masked_softmax → bmm_nn → mul_mask_rows. Two valid
    // key positions and one padded one exercise the masked renormalization
    // branch of `masked_softmax` end to end.
    let x = Tensor::param(
        (0..12).map(|i| ((i as f32) * 0.59).sin() * 0.8).collect(),
        &[1, 3, 4],
    );
    let mask = Tensor::from_vec(vec![1.0, 1.0, 0.0], &[1, 3]);
    let attend = || {
        let scores = ops::scale(&ops::bmm_nt(&x, &x), 0.5);
        let p = ops::masked_softmax(&scores, &mask);
        ops::sum_all(&ops::mul_mask_rows(&ops::bmm_nn(&p, &x), &mask))
    };
    fd_check(&[("x".to_string(), x.clone())], attend, 2e-2);

    // The padded query row is zeroed by the output mask, so no gradient may
    // flow back from it: perturbing the padded input row leaves the loss
    // unchanged (checked inside fd_check), and its key/value-path gradients
    // are killed by the masked softmax assigning it zero attention weight.
    let grads = x.grad().expect("input gradient");
    assert!(grads.iter().take(8).any(|&g| g != 0.0), "valid rows must receive gradient");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_graphs_pass_gradcheck(
        vals_a in prop::collection::vec(-1.5f32..1.5, 9),
        vals_b in prop::collection::vec(-1.5f32..1.5, 9),
        unaries in prop::collection::vec(arb_unary(), 0..4),
        binaries in prop::collection::vec(arb_binary(), 1..4),
    ) {
        let a = Tensor::param(vals_a, &[3, 3]);
        let b = Tensor::param(vals_b, &[3, 3]);
        let leaves = [a, b];

        // Analytic gradients.
        let loss = build(&unaries, &binaries, &leaves);
        for l in &leaves {
            l.zero_grad();
        }
        loss.backward();
        let analytic: Vec<Vec<f32>> =
            leaves.iter().map(|l| l.grad().unwrap_or_else(|| vec![0.0; 9])).collect();

        // Central differences (skip points near the LeakyReLU kink).
        let eps = 1e-2f32;
        for (ti, t) in leaves.iter().enumerate() {
            for (j, &got) in analytic[ti].iter().enumerate() {
                let orig = t.data()[j];
                if unaries.iter().any(|u| matches!(u, Unary::LeakyRelu)) && orig.abs() < 5.0 * eps {
                    continue;
                }
                t.data_mut()[j] = orig + eps;
                let up = build(&unaries, &binaries, &leaves).item();
                t.data_mut()[j] = orig - eps;
                let down = build(&unaries, &binaries, &leaves).item();
                t.data_mut()[j] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let denom = numeric.abs().max(got.abs()).max(1.0);
                prop_assert!(
                    (numeric - got).abs() / denom < 0.05,
                    "leaf {ti} elem {j}: numeric {numeric} vs analytic {got} (ops {unaries:?} {binaries:?})"
                );
            }
        }
    }
}
