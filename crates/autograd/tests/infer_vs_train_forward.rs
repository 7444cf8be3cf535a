//! Tape-free forward vs. autograd forward, and SIMD vs. scalar kernels.
//!
//! Two independent invariants guard the inference fast path:
//!
//! 1. **Graph parity** — `Recurrent::forward_seq_nograd` returns the exact
//!    bytes of the graphed `forward_seq`: the fast path calls the same
//!    `mm_*` kernels and the same shared elementwise step functions in the
//!    same order, so equality is bitwise, not approximate.
//! 2. **Dispatch parity** — the AVX2 GEMM micro-tile changes the summation
//!    tree relative to the scalar 4×8 tile, so its results may differ from
//!    scalar by rounding only (≤ 1e-5 relative for the sizes proptest
//!    generates); repeated calls under one dispatch are bitwise identical,
//!    and the elementwise sigmoid/tanh are bitwise identical *across*
//!    dispatches (both sides use the same single-rounding polynomial).
//!
//! The scalar side of every cross-dispatch check runs under
//! `simd::force_scalar`, which is thread-local, so these tests cannot
//! perturb concurrently running ones.

use proptest::prelude::*;
use tmn_autograd::nn::{Gru, Lstm, ParamSet, Recurrent};
use tmn_autograd::{kernels, simd, Tensor};

/// Deterministic pseudo-random buffer in roughly [-1, 1].
fn wiggle(n: usize, seed: u32) -> Vec<f32> {
    (0..n).map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 2000) as f32 / 1000.0 - 1.0).collect()
}

/// Ragged-batch style input: each batch row gets a different magnitude so a
/// transposed or mis-strided read cannot cancel out.
fn seq_input(b: usize, m: usize, d: usize, seed: u32) -> Vec<f32> {
    let mut xs = wiggle(b * m * d, seed);
    for (row, chunk) in xs.chunks_mut(m * d).enumerate() {
        let gain = 0.25 + 0.25 * row as f32;
        chunk.iter_mut().for_each(|v| *v *= gain);
    }
    xs
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn lstm_nograd_matches_graphed_forward_bitwise() {
    let (b, m, d_in, h) = (3, 9, 6, 10);
    let mut ps = ParamSet::new();
    let cell = Lstm::new(&mut ps, "l", d_in, h, &mut rng(11));
    let xs = seq_input(b, m, d_in, 42);
    let graphed = cell.forward_seq(&Tensor::from_vec(xs.clone(), &[b, m, d_in])).to_vec();
    let fast = cell.forward_seq_nograd(&xs, b, m);
    assert_eq!(fast, graphed);
}

#[test]
fn gru_nograd_matches_graphed_forward_bitwise() {
    let (b, m, d_in, h) = (4, 7, 5, 12);
    let mut ps = ParamSet::new();
    let cell = Gru::new(&mut ps, "g", d_in, h, &mut rng(12));
    let xs = seq_input(b, m, d_in, 43);
    let graphed = cell.forward_seq(&Tensor::from_vec(xs.clone(), &[b, m, d_in])).to_vec();
    let fast = cell.forward_seq_nograd(&xs, b, m);
    assert_eq!(fast, graphed);
}

#[test]
fn nograd_handles_single_step_and_single_row() {
    // Degenerate shapes that stress the t=0 zero-state path.
    for (b, m) in [(1, 1), (1, 5), (6, 1)] {
        let mut ps = ParamSet::new();
        let cell = Lstm::new(&mut ps, "l", 3, 4, &mut rng(14));
        let xs = seq_input(b, m, 3, 45);
        let graphed = cell.forward_seq(&Tensor::from_vec(xs.clone(), &[b, m, 3])).to_vec();
        assert_eq!(cell.forward_seq_nograd(&xs, b, m), graphed, "b={b} m={m}");
    }
}

#[test]
fn activations_are_bitwise_identical_across_dispatch() {
    // 1031 elements: prime, so every AVX2 lane and the scalar remainder are
    // exercised; range spans saturation on both sides.
    let xs: Vec<f32> = (0..1031).map(|i| (i as f32 - 515.0) * 0.04).collect();
    let (mut sig_a, mut tan_a) = (xs.clone(), xs.clone());
    simd::sigmoid_inplace(&mut sig_a);
    simd::tanh_inplace(&mut tan_a);
    simd::force_scalar(true);
    let (mut sig_s, mut tan_s) = (xs.clone(), xs);
    simd::sigmoid_inplace(&mut sig_s);
    simd::tanh_inplace(&mut tan_s);
    simd::force_scalar(false);
    assert_eq!(sig_a, sig_s, "sigmoid differs across dispatch");
    assert_eq!(tan_a, tan_s, "tanh differs across dispatch");
}

#[test]
fn repeated_dispatch_is_bitwise_stable() {
    // Two runs of the same GEMM under the active dispatch must agree
    // bitwise — detection is cached and the kernel is deterministic.
    let (m, k, n) = (33, 47, 29);
    let (a, b) = (wiggle(m * k, 1), wiggle(k * n, 2));
    let mut out1 = vec![0.0f32; m * n];
    let mut out2 = vec![0.0f32; m * n];
    kernels::mm_nn(&a, &b, m, k, n, &mut out1);
    kernels::mm_nn(&a, &b, m, k, n, &mut out2);
    assert_eq!(out1, out2);
}

/// |x − y| within 1e-5 relative to the larger magnitude (or absolute for
/// values below 1).
fn close(x: f32, y: f32) -> bool {
    (x - y).abs() <= 1e-5 * x.abs().max(y.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mm_nn_simd_matches_scalar(m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in 0u32..1000) {
        let (a, b) = (wiggle(m * k, seed), wiggle(k * n, seed.wrapping_add(7)));
        let mut fast = vec![0.0f32; m * n];
        kernels::mm_nn(&a, &b, m, k, n, &mut fast);
        simd::force_scalar(true);
        let mut slow = vec![0.0f32; m * n];
        kernels::mm_nn(&a, &b, m, k, n, &mut slow);
        simd::force_scalar(false);
        for (i, (&x, &y)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(close(x, y), "mm_nn[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn mm_nt_simd_matches_scalar(m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in 0u32..1000) {
        let (a, b) = (wiggle(m * k, seed), wiggle(n * k, seed.wrapping_add(9)));
        let mut fast = vec![0.0f32; m * n];
        kernels::mm_nt(&a, &b, m, k, n, &mut fast);
        simd::force_scalar(true);
        let mut slow = vec![0.0f32; m * n];
        kernels::mm_nt(&a, &b, m, k, n, &mut slow);
        simd::force_scalar(false);
        for (i, (&x, &y)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(close(x, y), "mm_nt[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn rnn_forward_under_forced_scalar_stays_close(b in 1usize..4, m in 1usize..8, seed in 0u32..100) {
        // The full fused cell under scalar dispatch tracks the active
        // dispatch within GEMM rounding (activations are bitwise equal, so
        // only the matmul summation order can differ).
        let (d_in, h) = (5, 9);
        let mut ps = ParamSet::new();
        let cell = Lstm::new(&mut ps, "l", d_in, h, &mut rng(seed as u64));
        let xs = seq_input(b, m, d_in, seed);
        let fast = cell.forward_seq_nograd(&xs, b, m);
        simd::force_scalar(true);
        let slow = cell.forward_seq_nograd(&xs, b, m);
        simd::force_scalar(false);
        for (i, (&x, &y)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(close(x, y), "lstm[{i}]: {x} vs {y}");
        }
    }
}
