//! Property tests: the cache-blocked GEMM kernels agree with the retained
//! naive reference on arbitrary shapes (including non-tile-multiple sizes),
//! their absolute output bits are pinned per SIMD dispatch, and the
//! intra-op-parallelized `bmm_nn`/`bmm_nt` backward passes stay correct
//! (finite differences) and bit-stable across thread counts.

use proptest::prelude::*;
use tmn_autograd::kernels::{self, reference};
use tmn_autograd::{ops, set_intra_op_threads, simd, Tensor};

fn assert_rel_close(got: &[f32], want: &[f32], ctx: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let denom = w.abs().max(1.0);
        prop_assert!(
            (g - w).abs() / denom < 1e-4,
            "{ctx} elem {i}: blocked {g} vs naive {w}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shapes deliberately cross the MR=4 / NR=8 register-tile borders.
    #[test]
    fn blocked_kernels_match_naive(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        seed_a in prop::collection::vec(-2.0f32..2.0, 70 * 70),
        seed_b in prop::collection::vec(-2.0f32..2.0, 70 * 70),
    ) {
        let a = &seed_a[..m * k];
        let b_nn = &seed_b[..k * n];
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        kernels::mm_nn(a, b_nn, m, k, n, &mut got);
        reference::mm_nn(a, b_nn, m, k, n, &mut want);
        assert_rel_close(&got, &want, "mm_nn")?;

        let b_nt = &seed_b[..n * k];
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        kernels::mm_nt(a, b_nt, m, k, n, &mut got);
        reference::mm_nt(a, b_nt, m, k, n, &mut want);
        assert_rel_close(&got, &want, "mm_nt")?;

        let b_tn = &seed_b[..m * n];
        let mut got = vec![0.0f32; k * n];
        let mut want = vec![0.0f32; k * n];
        kernels::mm_tn(a, b_tn, m, k, n, &mut got);
        reference::mm_tn(a, b_tn, m, k, n, &mut want);
        assert_rel_close(&got, &want, "mm_tn")?;
    }

    /// Accumulation contract: kernels must `+=` into a pre-filled buffer.
    #[test]
    fn blocked_kernels_accumulate(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
        base in -1.0f32..1.0,
        vals in prop::collection::vec(-1.0f32..1.0, 40 * 20),
    ) {
        let a = &vals[..m * k];
        let b = &vals[vals.len() - k * n..];
        let mut got = vec![base; m * n];
        let mut want = vec![base; m * n];
        kernels::mm_nn(a, b, m, k, n, &mut got);
        reference::mm_nn(a, b, m, k, n, &mut want);
        assert_rel_close(&got, &want, "mm_nn accumulate")?;
    }
}

/// `MC` of `kernels.rs`: the blocked kernel's row-block height.
const MC: usize = 128;

/// Shapes that reach the blocked kernels: every row count around the two
/// tile heights (4 scalar, 6 AVX2) and past one `MC` block, with `n` off
/// both tile widths (37 and 45 are neither multiples of 8 nor of 16) and
/// `k` past one `KC` stripe (519 > 256); then the model's own shapes
/// (one served or streamed step, the batch-16 encode, 56-point
/// pre-projections).
fn fingerprint_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for m in [1, 2, 5, 6, 7, 16, 64, MC + 5] {
        shapes.push((m, 519, 37));
        shapes.push((m, 40, 45));
    }
    shapes.extend([
        (1, 32, 128),
        (1, 16, 128),
        (1, 32, 64),
        (16, 32, 128),
        (56, 16, 128),
        (56, 32, 32),
    ]);
    shapes
}

/// 64-bit FNV-1a over the output bits of `mm_nn`, `mm_nt` and `mm_tn` at
/// every fingerprint shape, each accumulating into a nonzero `out`.
fn gemm_fingerprint() -> u64 {
    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |out: &[f32]| {
        for byte in out.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (m, k, n) in fingerprint_shapes() {
        let a = fill(m * k, 21);
        let mut out = fill(m * n, 22);
        kernels::mm_nn(&a, &fill(k * n, 23), m, k, n, &mut out);
        absorb(&out);
        let mut out = fill(m * n, 24);
        kernels::mm_nt(&a, &fill(n * k, 25), m, k, n, &mut out);
        absorb(&out);
        let mut out = fill(k * n, 26);
        kernels::mm_tn(&a, &fill(m * n, 27), m, k, n, &mut out);
        absorb(&out);
    }
    hash
}

/// The blocked GEMM's absolute output bits, one constant per dispatch.
/// The model goldens train at dim 8, where every `mm_nn` takes the naive
/// kernel, and the parity suites compare two paths that share a kernel,
/// so this is the test that notices a bit change inside the blocked
/// kernels. A deliberate change must update the constant and explain why.
#[test]
fn blocked_gemm_bits_are_pinned() {
    const SCALAR: u64 = 0x20f9_d062_cc8d_5330;
    const AVX2: u64 = 0x5eb1_ced5_b13f_332f;
    if simd::active() == simd::Dispatch::Avx2Fma {
        assert_eq!(gemm_fingerprint(), AVX2, "AVX2 GEMM output bits changed");
    }
    simd::force_scalar(true);
    let scalar = gemm_fingerprint();
    simd::force_scalar(false);
    assert_eq!(scalar, SCALAR, "scalar GEMM output bits changed");
}

/// Central-difference gradcheck on a scalar function of two bmm operands.
fn gradcheck_bmm(
    a_shape: &[usize],
    b_shape: &[usize],
    f: impl Fn(&Tensor, &Tensor) -> Tensor,
) {
    let len = |s: &[usize]| s.iter().product::<usize>();
    let av: Vec<f32> = (0..len(a_shape)).map(|x| ((x * 13 % 19) as f32 - 9.0) / 11.0).collect();
    let bv: Vec<f32> = (0..len(b_shape)).map(|x| ((x * 7 % 23) as f32 - 11.0) / 13.0).collect();
    let a = Tensor::param(av, a_shape);
    let b = Tensor::param(bv, b_shape);

    let loss = ops::sum_all(&f(&a, &b));
    a.zero_grad();
    b.zero_grad();
    loss.backward();

    let eps = 1e-2f32;
    for t in [&a, &b] {
        let analytic = t.grad().expect("bmm operand must receive a gradient");
        for (j, &analytic_j) in analytic.iter().enumerate() {
            let orig = t.data()[j];
            t.data_mut()[j] = orig + eps;
            let up = ops::sum_all(&f(&a, &b)).item();
            t.data_mut()[j] = orig - eps;
            let down = ops::sum_all(&f(&a, &b)).item();
            t.data_mut()[j] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let denom = numeric.abs().max(analytic_j.abs()).max(1.0);
            assert!(
                (numeric - analytic_j).abs() / denom < 2e-2,
                "elem {j}: numeric {numeric} vs analytic {analytic_j}"
            );
        }
    }
}

/// Backward of the parallelized batch loops is still a correct gradient when
/// several intra-op workers split the batch.
#[test]
fn bmm_backward_gradcheck_with_intra_op_threads() {
    set_intra_op_threads(3);
    // Batch of 6 so the round-robin split exercises multiple workers; sizes
    // large enough that forward+backward cross the parallel flop threshold
    // when scaled, small enough for finite differences to stay fast.
    gradcheck_bmm(&[6, 3, 4], &[6, 4, 5], ops::bmm_nn);
    gradcheck_bmm(&[6, 3, 4], &[6, 5, 4], ops::bmm_nt);
    set_intra_op_threads(1);
}

/// Gradients must be bitwise identical no matter the intra-op thread count.
#[test]
fn bmm_backward_bits_stable_across_thread_counts() {
    let grads_at = |threads: usize| {
        set_intra_op_threads(threads);
        let av: Vec<f32> = (0..8 * 20 * 16).map(|x| ((x * 29 % 83) as f32 - 41.0) / 31.0).collect();
        let bv: Vec<f32> = (0..8 * 24 * 16).map(|x| ((x * 41 % 79) as f32 - 39.0) / 27.0).collect();
        let a = Tensor::param(av, &[8, 20, 16]);
        let b = Tensor::param(bv, &[8, 24, 16]);
        let loss = ops::sum_all(&ops::bmm_nt(&a, &b));
        a.zero_grad();
        b.zero_grad();
        loss.backward();
        set_intra_op_threads(1);
        (a.grad().unwrap(), b.grad().unwrap())
    };
    let (da1, db1) = grads_at(1);
    let (da4, db4) = grads_at(4);
    assert_eq!(da1, da4, "da changed with thread count");
    assert_eq!(db1, db4, "db changed with thread count");
}
