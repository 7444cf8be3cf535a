//! Differential tests: the fused time-major recurrent layers against the
//! step-unrolled `nn::reference` oracle, running the exact same weights.
//!
//! The fused path changes floating-point summation order (the pre-projection
//! computes `(xW + b) + hW` where the reference computes `(xW + hW) + b`,
//! and gate GEMMs are batched differently), so outputs agree to tolerance,
//! not bitwise: forward within 1e-5, gradients within 1e-4 relative.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmn_autograd::nn::{reference, Gru, Lstm, ParamSet, Recurrent};
use tmn_autograd::{ops, Tensor};

fn rand_input(rng: &mut StdRng, b: usize, m: usize, d: usize) -> Tensor {
    let data: Vec<f32> = (0..b * m * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(data, &[b, m, d])
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let denom = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() / denom <= tol,
            "{what}: elem {i} differs beyond {tol}: {x} vs {y}"
        );
    }
}

/// Run `f`, backward through its scalar loss, and return all param grads
/// (registration order) plus the forward output.
fn run_with_grads(ps: &ParamSet, f: impl FnOnce() -> Tensor) -> (Vec<f32>, Vec<Vec<f32>>) {
    ps.zero_grad();
    let out = f();
    let out_vals = out.to_vec();
    // A non-uniform weighting so gradient errors can't cancel by symmetry.
    let w: Vec<f32> = (0..out.numel()).map(|i| ((i % 7) as f32 - 3.0) * 0.25).collect();
    let weighted = ops::mul(&out, &Tensor::from_vec(w, out.shape()));
    ops::sum_all(&weighted).backward();
    (out_vals, ps.grad_snapshot())
}

#[test]
fn lstm_forward_and_grads_match_reference() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(101);
    let fused = Lstm::new(&mut ps, "lstm", 5, 7, &mut rng);
    let (w_ih, w_hh, bias) = fused.weights();
    let oracle = reference::Lstm::from_weights(w_ih, w_hh, bias);
    let x = rand_input(&mut rng, 3, 9, 5);

    let (zf, gf) = run_with_grads(&ps, || fused.forward_seq(&x));
    let (zr, gr) = run_with_grads(&ps, || oracle.forward_seq(&x));
    assert_close(&zf, &zr, 1e-5, "lstm forward");
    for (i, (a, b)) in gf.iter().zip(&gr).enumerate() {
        assert_close(a, b, 1e-4, &format!("lstm grad param {i}"));
    }
}

#[test]
fn gru_forward_and_grads_match_reference() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(202);
    let fused = Gru::new(&mut ps, "gru", 4, 6, &mut rng);
    let (w_ih, w_hh, bias, w_in, w_hn, bias_n) = fused.weights();
    let oracle = reference::Gru::from_weights(w_ih, w_hh, bias, w_in, w_hn, bias_n);
    let x = rand_input(&mut rng, 2, 8, 4);

    let (zf, gf) = run_with_grads(&ps, || fused.forward_seq(&x));
    let (zr, gr) = run_with_grads(&ps, || oracle.forward_seq(&x));
    assert_close(&zf, &zr, 1e-5, "gru forward");
    for (i, (a, b)) in gf.iter().zip(&gr).enumerate() {
        assert_close(a, b, 1e-4, &format!("gru grad param {i}"));
    }
}

#[test]
fn ragged_lengths_with_gather_match_reference() {
    // The trainer's sub-trajectory loss reads prefix states via gather_time
    // on ragged, padded batches. Padding garbage feeds through both
    // implementations identically up to tolerance, and gathered last-valid
    // states plus their gradients must agree.
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(404);
    let fused = Lstm::new(&mut ps, "lstm", 4, 6, &mut rng);
    let (w_ih, w_hh, bias) = fused.weights();
    let oracle = reference::Lstm::from_weights(w_ih, w_hh, bias);

    let (b, m, d) = (3, 7, 4);
    let lens = [7usize, 4, 1];
    let mut data: Vec<f32> = (0..b * m * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for (bi, &len) in lens.iter().enumerate() {
        for t in len..m {
            for dd in 0..d {
                data[(bi * m + t) * d + dd] = 9.9; // sentinel padding
            }
        }
    }
    let x = Tensor::from_vec(data, &[b, m, d]);
    let last: Vec<usize> = lens.iter().map(|&l| l - 1).collect();

    let (zf, gf) = run_with_grads(&ps, || ops::gather_time(&fused.forward_seq(&x), &last));
    let (zr, gr) = run_with_grads(&ps, || ops::gather_time(&oracle.forward_seq(&x), &last));
    assert_close(&zf, &zr, 1e-5, "ragged gathered forward");
    for (i, (a, b)) in gf.iter().zip(&gr).enumerate() {
        assert_close(a, b, 1e-4, &format!("ragged grad param {i}"));
    }
}

#[test]
fn masked_padding_match_reference() {
    // Zeroing padded rows after the encoder (the paper's masking before the
    // discrepancy subtraction) must agree between implementations too: the
    // mask blocks gradient flow from padded steps in both.
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(505);
    let fused = Gru::new(&mut ps, "gru", 3, 5, &mut rng);
    let (w_ih, w_hh, bias, w_in, w_hn, bias_n) = fused.weights();
    let oracle = reference::Gru::from_weights(w_ih, w_hh, bias, w_in, w_hn, bias_n);

    let (b, m, d) = (2, 6, 3);
    let lens = [6usize, 2];
    let x = rand_input(&mut rng, b, m, d);
    let mut mvals = vec![0.0f32; b * m];
    for (bi, &len) in lens.iter().enumerate() {
        for t in 0..len {
            mvals[bi * m + t] = 1.0;
        }
    }
    let mask = Tensor::from_vec(mvals, &[b, m]);

    let (zf, gf) = run_with_grads(&ps, || ops::mul_mask_rows(&fused.forward_seq(&x), &mask));
    let (zr, gr) = run_with_grads(&ps, || ops::mul_mask_rows(&oracle.forward_seq(&x), &mask));
    for (bi, &len) in lens.iter().enumerate() {
        for t in len..m {
            let h = fused.hidden_dim();
            let off = (bi * m + t) * h;
            assert!(zf[off..off + h].iter().all(|&v| v == 0.0), "masked row not zeroed");
        }
    }
    assert_close(&zf, &zr, 1e-5, "masked forward");
    for (i, (a, b)) in gf.iter().zip(&gr).enumerate() {
        assert_close(a, b, 1e-4, &format!("masked grad param {i}"));
    }
}
