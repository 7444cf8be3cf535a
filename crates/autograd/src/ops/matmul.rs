//! Dense matrix products: 2-D matmul and batched 3-D variants.
//!
//! `bmm_nt` (`a · bᵀ` per batch) exists so the matching mechanism
//! `P = softmax(X_a X_bᵀ)` never materializes a transpose.
//!
//! The arithmetic lives in [`crate::kernels`] (cache-blocked GEMM with a
//! naive fallback). `bmm_nn`/`bmm_nt` run one kernel call per batch item,
//! in item order, forward and in both backward products.

use crate::kernels::{mm_nn, mm_nt, mm_tn};
use crate::profile::op_scope;
use crate::Tensor;

/// 2-D matrix product: `[m, k] · [k, n] -> [m, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (sa, sb) = (a.shape(), b.shape());
    assert_eq!(sa.len(), 2, "matmul: lhs must be rank 2, got {sa:?}");
    assert_eq!(sb.len(), 2, "matmul: rhs must be rank 2, got {sb:?}");
    assert_eq!(sa[1], sb[0], "matmul: inner dims {sa:?} x {sb:?}");
    let (m, k, n) = (sa[0], sa[1], sb[1]);
    let _prof = op_scope("matmul", 2 * (m * k * n) as u64);
    let mut data = vec![0.0f32; m * n];
    mm_nn(&a.data(), &b.data(), m, k, n, &mut data);
    Tensor::from_op(&[m, n], data, vec![a.clone(), b.clone()], Box::new(move |ctx| {
        let g = ctx.out_grad;
        // The kernels accumulate (+=), so both products land directly in the
        // pooled gradient buffers — no zeroed temporary, no second add pass.
        if ctx.parents[0].requires_grad() {
            // da += g · bᵀ
            let bd = ctx.parents[1].data();
            ctx.parents[0].accumulate_grad_with(|da| mm_nt(g, &bd, m, n, k, da));
        }
        if ctx.parents[1].requires_grad() {
            // db += aᵀ · g
            let ad = ctx.parents[0].data();
            ctx.parents[1].accumulate_grad_with(|db| mm_tn(&ad, g, m, k, n, db));
        }
    }))
}

/// Batched matrix product: `[B, m, k] · [B, k, n] -> [B, m, n]`.
pub fn bmm_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (sa, sb) = (a.shape(), b.shape());
    assert_eq!(sa.len(), 3, "bmm_nn: lhs must be rank 3, got {sa:?}");
    assert_eq!(sb.len(), 3, "bmm_nn: rhs must be rank 3, got {sb:?}");
    assert_eq!(sa[0], sb[0], "bmm_nn: batch dims differ");
    assert_eq!(sa[2], sb[1], "bmm_nn: inner dims {sa:?} x {sb:?}");
    let (bs, m, k, n) = (sa[0], sa[1], sa[2], sb[2]);
    let _prof = op_scope("bmm_nn", 2 * (bs * m * k * n) as u64);
    let mut data = vec![0.0f32; bs * m * n];
    {
        let (ad, bd) = (a.data(), b.data());
        for i in 0..bs {
            let out = &mut data[i * m * n..(i + 1) * m * n];
            mm_nn(&ad[i * m * k..(i + 1) * m * k], &bd[i * k * n..(i + 1) * k * n], m, k, n, out);
        }
    }
    Tensor::from_op(&[bs, m, n], data, vec![a.clone(), b.clone()], Box::new(move |ctx| {
        let g = ctx.out_grad;
        // Accumulating kernels write straight into the pooled grad buffers.
        if ctx.parents[0].requires_grad() {
            let bd = ctx.parents[1].data();
            ctx.parents[0].accumulate_grad_with(|da| {
                for i in 0..bs {
                    let out = &mut da[i * m * k..(i + 1) * m * k];
                    mm_nt(&g[i * m * n..(i + 1) * m * n], &bd[i * k * n..(i + 1) * k * n], m, n, k, out);
                }
            });
        }
        if ctx.parents[1].requires_grad() {
            let ad = ctx.parents[0].data();
            ctx.parents[1].accumulate_grad_with(|db| {
                for i in 0..bs {
                    let out = &mut db[i * k * n..(i + 1) * k * n];
                    mm_tn(&ad[i * m * k..(i + 1) * m * k], &g[i * m * n..(i + 1) * m * n], m, k, n, out);
                }
            });
        }
    }))
}

/// Batched `a · bᵀ`: `[B, m, k] · [B, n, k]ᵀ -> [B, m, n]`.
///
/// This is the match-score computation of Eq. 8 (`X_a · X_bᵀ`).
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (sa, sb) = (a.shape(), b.shape());
    assert_eq!(sa.len(), 3, "bmm_nt: lhs must be rank 3, got {sa:?}");
    assert_eq!(sb.len(), 3, "bmm_nt: rhs must be rank 3, got {sb:?}");
    assert_eq!(sa[0], sb[0], "bmm_nt: batch dims differ");
    assert_eq!(sa[2], sb[2], "bmm_nt: feature dims {sa:?} x {sb:?}");
    let (bs, m, k, n) = (sa[0], sa[1], sa[2], sb[1]);
    let _prof = op_scope("bmm_nt", 2 * (bs * m * k * n) as u64);
    let mut data = vec![0.0f32; bs * m * n];
    {
        let (ad, bd) = (a.data(), b.data());
        for i in 0..bs {
            let out = &mut data[i * m * n..(i + 1) * m * n];
            mm_nt(&ad[i * m * k..(i + 1) * m * k], &bd[i * n * k..(i + 1) * n * k], m, k, n, out);
        }
    }
    Tensor::from_op(&[bs, m, n], data, vec![a.clone(), b.clone()], Box::new(move |ctx| {
        let g = ctx.out_grad;
        if ctx.parents[0].requires_grad() {
            // da += g · b
            let bd = ctx.parents[1].data();
            ctx.parents[0].accumulate_grad_with(|da| {
                for i in 0..bs {
                    let out = &mut da[i * m * k..(i + 1) * m * k];
                    mm_nn(&g[i * m * n..(i + 1) * m * n], &bd[i * n * k..(i + 1) * n * k], m, n, k, out);
                }
            });
        }
        if ctx.parents[1].requires_grad() {
            // db += gᵀ · a
            let ad = ctx.parents[0].data();
            ctx.parents[1].accumulate_grad_with(|db| {
                for i in 0..bs {
                    let out = &mut db[i * n * k..(i + 1) * n * k];
                    mm_tn(&g[i * m * n..(i + 1) * m * n], &ad[i * m * k..(i + 1) * m * k], m, n, k, out);
                }
            });
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gradcheck::check;
    use crate::ops::sum_all;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &eye).to_vec(), a.to_vec());
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(matmul(&a, &b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let y = matmul(&a, &b);
        assert_eq!(y.shape(), &[2, 4]);
        // row0 = [0,1,2] -> [0*0+1*4+2*8, ...] = [20, 23, 26, 29]
        assert_eq!(&y.to_vec()[..4], &[20.0, 23.0, 26.0, 29.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_bad_dims_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_grads() {
        let a = Tensor::param(vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3], &[2, 3]);
        let b = Tensor::param(vec![1.0, 2.0, -0.5, 0.3, 0.9, -1.2], &[3, 2]);
        check(&[a, b], |t| sum_all(&matmul(&t[0], &t[1])), 1e-2);
    }

    #[test]
    fn bmm_nt_matches_manual_transpose() {
        // a: [1,2,3], b: [1,2,3]; a·bᵀ should be [1,2,2].
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[1, 2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 2, 3]);
        let y = bmm_nt(&a, &b);
        // row0 of a picks column0 of bᵀ => [b00, b10] = [1, 4]
        assert_eq!(y.to_vec(), vec![1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn bmm_nn_batches_independently() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 2, 2]);
        let y = bmm_nn(&a, &b);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn bmm_grads() {
        let a = Tensor::param((0..12).map(|x| 0.1 * x as f32 - 0.5).collect(), &[2, 2, 3]);
        let b = Tensor::param((0..12).map(|x| 0.2 * x as f32 - 1.0).collect(), &[2, 3, 2]);
        check(&[a.clone(), b], |t| sum_all(&bmm_nn(&t[0], &t[1])), 1e-2);
        let c = Tensor::param((0..12).map(|x| 0.15 * x as f32 - 0.7).collect(), &[2, 2, 3]);
        check(&[a, c], |t| sum_all(&bmm_nt(&t[0], &t[1])), 1e-2);
    }
}
