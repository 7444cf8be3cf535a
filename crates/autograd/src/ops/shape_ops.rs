//! Shape manipulation: reshape, concat, slicing, and the time-axis
//! gather/scatter ops the LSTM and the final-representation selection need.

use super::rows_of;
use crate::profile::op_scope;
use crate::Tensor;

/// Reinterpret `a` with a new shape (same number of elements).
pub fn reshape(a: &Tensor, shape: &[usize]) -> Tensor {
    let _prof = op_scope("reshape", 0);
    let numel: usize = shape.iter().product();
    assert_eq!(a.numel(), numel, "reshape: {:?} -> {:?} changes numel", a.shape(), shape);
    Tensor::from_op(shape, a.to_vec(), vec![a.clone()], Box::new(|ctx| {
        if ctx.parents[0].requires_grad() {
            ctx.parents[0].accumulate_grad(ctx.out_grad);
        }
    }))
}

/// Concatenate along the last dimension: `[.., d1] ++ [.., d2] -> [.., d1+d2]`.
///
/// Used for `X_a ⊕ M_{a←b}` before the LSTM (Eq. 12).
pub fn concat_last(a: &Tensor, b: &Tensor) -> Tensor {
    let _prof = op_scope("concat_last", 0);
    let (sa, sb) = (a.shape(), b.shape());
    assert_eq!(sa.len(), sb.len(), "concat_last: rank mismatch");
    assert_eq!(
        &sa[..sa.len() - 1],
        &sb[..sb.len() - 1],
        "concat_last: leading dims differ: {sa:?} vs {sb:?}"
    );
    let (d1, d2) = (sa[sa.len() - 1], sb[sb.len() - 1]);
    let rows = rows_of(sa);
    let mut shape = sa.to_vec();
    *shape.last_mut().unwrap() = d1 + d2;
    let mut data = Vec::with_capacity(rows * (d1 + d2));
    {
        let (ad, bd) = (a.data(), b.data());
        for r in 0..rows {
            data.extend_from_slice(&ad[r * d1..(r + 1) * d1]);
            data.extend_from_slice(&bd[r * d2..(r + 1) * d2]);
        }
    }
    Tensor::from_op(&shape, data, vec![a.clone(), b.clone()], Box::new(move |ctx| {
        let d = d1 + d2;
        if ctx.parents[0].requires_grad() {
            ctx.parents[0].accumulate_grad_with(|g| {
                for r in 0..rows {
                    for (gv, og) in g[r * d1..(r + 1) * d1].iter_mut().zip(&ctx.out_grad[r * d..r * d + d1]) {
                        *gv += og;
                    }
                }
            });
        }
        if ctx.parents[1].requires_grad() {
            ctx.parents[1].accumulate_grad_with(|g| {
                for r in 0..rows {
                    for (gv, og) in g[r * d2..(r + 1) * d2].iter_mut().zip(&ctx.out_grad[r * d + d1..(r + 1) * d]) {
                        *gv += og;
                    }
                }
            });
        }
    }))
}

/// Slice `[start, start+len)` of the last dimension (e.g. LSTM gate split).
pub fn slice_last(a: &Tensor, start: usize, len: usize) -> Tensor {
    let _prof = op_scope("slice_last", 0);
    let n = *a.shape().last().expect("slice_last: rank >= 1");
    assert!(start + len <= n, "slice_last: [{start}, {}) out of last dim {n}", start + len);
    let rows = rows_of(a.shape());
    let mut shape = a.shape().to_vec();
    *shape.last_mut().unwrap() = len;
    let mut data = Vec::with_capacity(rows * len);
    {
        let ad = a.data();
        for r in 0..rows {
            data.extend_from_slice(&ad[r * n + start..r * n + start + len]);
        }
    }
    Tensor::from_op(&shape, data, vec![a.clone()], Box::new(move |ctx| {
        if ctx.parents[0].requires_grad() {
            ctx.parents[0].accumulate_grad_with(|g| {
                for r in 0..rows {
                    for (gv, og) in g[r * n + start..r * n + start + len]
                        .iter_mut()
                        .zip(&ctx.out_grad[r * len..(r + 1) * len])
                    {
                        *gv += og;
                    }
                }
            });
        }
    }))
}

/// Select time step `t` from `[B, m, d]`, yielding `[B, d]`.
pub fn select_time(a: &Tensor, t: usize) -> Tensor {
    let _prof = op_scope("select_time", 0);
    let s = a.shape();
    assert_eq!(s.len(), 3, "select_time: need [B, m, d], got {s:?}");
    let (bs, m, d) = (s[0], s[1], s[2]);
    assert!(t < m, "select_time: t={t} out of {m} steps");
    let mut data = Vec::with_capacity(bs * d);
    {
        let ad = a.data();
        for b in 0..bs {
            let off = (b * m + t) * d;
            data.extend_from_slice(&ad[off..off + d]);
        }
    }
    Tensor::from_op(&[bs, d], data, vec![a.clone()], Box::new(move |ctx| {
        if ctx.parents[0].requires_grad() {
            // Pooled scatter-add: touch only the `bs·d` selected elements of
            // the `[B, m, d]` gradient instead of allocating and zeroing a
            // full-size temporary per call (formerly the profiler's #1 cost).
            ctx.parents[0].accumulate_grad_with(|g| {
                for b in 0..bs {
                    let off = (b * m + t) * d;
                    for (gv, og) in g[off..off + d].iter_mut().zip(&ctx.out_grad[b * d..(b + 1) * d]) {
                        *gv += og;
                    }
                }
            });
        }
    }))
}

/// Stack `m` tensors of shape `[B, d]` into `[B, m, d]` (LSTM outputs → `Z`).
pub fn stack_time(steps: &[Tensor]) -> Tensor {
    let _prof = op_scope("stack_time", 0);
    assert!(!steps.is_empty(), "stack_time: empty input");
    let s0 = steps[0].shape().to_vec();
    assert_eq!(s0.len(), 2, "stack_time: steps must be [B, d], got {s0:?}");
    for st in steps {
        assert_eq!(st.shape(), &s0[..], "stack_time: inconsistent step shapes");
    }
    let (bs, d) = (s0[0], s0[1]);
    let m = steps.len();
    let mut data = vec![0.0f32; bs * m * d];
    for (t, st) in steps.iter().enumerate() {
        let sd = st.data();
        for b in 0..bs {
            let off = (b * m + t) * d;
            data[off..off + d].copy_from_slice(&sd[b * d..(b + 1) * d]);
        }
    }
    Tensor::from_op(&[bs, m, d], data, steps.to_vec(), Box::new(move |ctx| {
        for (t, p) in ctx.parents.iter().enumerate() {
            if !p.requires_grad() {
                continue;
            }
            p.accumulate_grad_with(|g| {
                for b in 0..bs {
                    let off = (b * m + t) * d;
                    for (gv, og) in g[b * d..(b + 1) * d].iter_mut().zip(&ctx.out_grad[off..off + d]) {
                        *gv += og;
                    }
                }
            });
        }
    }))
}

/// Gather one time step per batch row: `out[b, :] = a[b, idx[b], :]`.
///
/// Selects the representation of the final *unpadded* point of each
/// trajectory (`O_a^{(m)}` in the paper) and the sub-trajectory prefixes.
pub fn gather_time(a: &Tensor, idx: &[usize]) -> Tensor {
    let _prof = op_scope("gather_time", 0);
    let s = a.shape();
    assert_eq!(s.len(), 3, "gather_time: need [B, m, d], got {s:?}");
    let (bs, m, d) = (s[0], s[1], s[2]);
    assert_eq!(idx.len(), bs, "gather_time: idx must have one entry per batch row");
    for &i in idx {
        assert!(i < m, "gather_time: index {i} out of {m} steps");
    }
    let idx = idx.to_vec();
    let mut data = Vec::with_capacity(bs * d);
    {
        let ad = a.data();
        for (b, &t) in idx.iter().enumerate() {
            let off = (b * m + t) * d;
            data.extend_from_slice(&ad[off..off + d]);
        }
    }
    Tensor::from_op(&[bs, d], data, vec![a.clone()], Box::new(move |ctx| {
        if ctx.parents[0].requires_grad() {
            ctx.parents[0].accumulate_grad_with(|g| {
                for (b, &t) in idx.iter().enumerate() {
                    let off = (b * m + t) * d;
                    for (gv, og) in g[off..off + d].iter_mut().zip(&ctx.out_grad[b * d..(b + 1) * d]) {
                        *gv += og;
                    }
                }
            });
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gradcheck::check;
    use crate::ops::{mul, sum_all};

    #[test]
    fn reshape_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let y = reshape(&a, &[3, 2]);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.to_vec(), a.to_vec());
    }

    #[test]
    fn concat_last_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let y = concat_last(&a, &b);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn slice_last_layout() {
        let a = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[2, 4]);
        let y = slice_last(&a, 1, 2);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn select_and_stack_are_inverse() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 3, 2]);
        let steps: Vec<Tensor> = (0..3).map(|t| select_time(&a, t)).collect();
        let y = stack_time(&steps);
        assert_eq!(y.to_vec(), a.to_vec());
    }

    #[test]
    fn gather_time_picks_per_row() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 3, 2]);
        let y = gather_time(&a, &[2, 0]);
        assert_eq!(y.to_vec(), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn shape_op_grads() {
        let a = Tensor::param((0..12).map(|x| 0.1 * x as f32).collect(), &[2, 3, 2]);
        let b = Tensor::param((0..6).map(|x| 0.2 * x as f32 - 0.5).collect(), &[2, 3, 1]);
        check(&[a.clone(), b], |t| {
            let c = concat_last(&t[0], &t[1]);
            sum_all(&mul(&c, &c))
        }, 1e-2);
        check(std::slice::from_ref(&a), |t| {
            let s = slice_last(&t[0], 0, 1);
            sum_all(&mul(&s, &s))
        }, 1e-2);
        check(std::slice::from_ref(&a), |t| {
            let g = gather_time(&t[0], &[1, 2]);
            sum_all(&mul(&g, &g))
        }, 1e-2);
        check(&[a], |t| {
            let steps: Vec<Tensor> = (0..3).map(|i| select_time(&t[0], i)).collect();
            let y = stack_time(&steps);
            sum_all(&mul(&y, &y))
        }, 1e-2);
    }
}
