//! T3S baseline (Yang et al., ICDE 2021) — LSTM + self-attention.
//!
//! T3S learns spatial information with an LSTM and structural information
//! with a self-attention network over the points of the *same* trajectory
//! (with a learned positional embedding), then combines the two branches.
//! The combination weight λ is learned. Note the attention here is
//! *intra*-trajectory — precisely the design TMN's cross-trajectory
//! matching improves on.

use super::{EncodedBatch, PairModel};
use crate::batch::{PairBatch, SideBatch};
use crate::config::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_autograd::nn::{Linear, Lstm, ParamSet, Recurrent};
use tmn_autograd::{infer, ops, Tensor};

/// Maximum sequence length supported by the learned positional embedding.
pub const MAX_POSITIONS: usize = 512;

/// LSTM + self-attention encoder.
pub struct T3s {
    params: ParamSet,
    embed: Linear,
    lstm: Lstm,
    /// Projects the attention branch output (`d̂`) up to `d`.
    attn_proj: Linear,
    /// `[MAX_POSITIONS, d̂]` learned positional embedding.
    pos: Tensor,
    /// Raw combination logit; λ = σ(raw).
    lambda: Tensor,
    dim: usize,
    half: usize,
}

impl T3s {
    pub fn new(config: &ModelConfig) -> T3s {
        let d = config.dim;
        let dh = config.half_dim();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Linear::new(&mut params, "embed", 2, dh, &mut rng);
        let lstm = Lstm::new(&mut params, "lstm", dh, d, &mut rng);
        let attn_proj = Linear::new(&mut params, "attn_proj", dh, d, &mut rng);
        let pos = params.register(
            "pos",
            Tensor::param(
                tmn_autograd::nn::uniform_xavier(&mut rng, MAX_POSITIONS, dh),
                &[MAX_POSITIONS, dh],
            ),
        );
        let lambda = params.register("lambda", Tensor::param(vec![0.0], &[1]));
        T3s { params, embed, lstm, attn_proj, pos, lambda, dim: d, half: dh }
    }

    /// Slice the positional table to `[m, d̂]` and broadcast-add per batch row.
    fn add_positions(&self, x: &Tensor, b: usize, m: usize) -> Tensor {
        assert!(m <= MAX_POSITIONS, "T3S: sequence longer than positional table");
        let rows = ops::tile_rows(&ops::slice_rows(&self.pos, m), b);
        ops::add(x, &rows)
    }

    fn encode_side(&self, side: &SideBatch) -> Tensor {
        let (b, m) = (side.batch_size(), side.max_len);
        let x = ops::leaky_relu(&self.embed.forward(&side.feats));
        // Spatial branch.
        let z = self.lstm.forward_seq(&x);
        // Structural branch: self-attention with positional information.
        let xp = self.add_positions(&x, b, m);
        let scores = ops::scale(&ops::bmm_nt(&xp, &xp), 1.0 / (self.half as f32).sqrt());
        let p = ops::masked_softmax(&scores, &side.mask);
        let attn = ops::mul_mask_rows(&ops::bmm_nn(&p, &xp), &side.mask);
        let attn_d = self.attn_proj.forward(&attn);
        // Combine: λ·LSTM + (1−λ)·attention with a learned, differentiable λ.
        let lam = ops::sigmoid(&self.lambda);
        let one_minus = ops::add_scalar(&ops::neg(&lam), 1.0);
        ops::add(&ops::mul_scalar_tensor(&z, &lam), &ops::mul_scalar_tensor(&attn_d, &one_minus))
    }
}

impl PairModel for T3s {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn encode_pairs(&self, batch: &PairBatch) -> EncodedBatch {
        EncodedBatch { out_a: self.encode_side(&batch.a), out_b: self.encode_side(&batch.b) }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_nograd(&self, own: &SideBatch, _other: &SideBatch) -> Vec<f32> {
        let (bs, m) = (own.batch_size(), own.max_len);
        assert!(m <= MAX_POSITIONS, "T3S: sequence longer than positional table");
        let (dh, d) = (self.half, self.dim);
        let feats = own.feats.data();
        let mut x = self.embed.forward_nograd(&feats, bs * m);
        infer::leaky_relu_inplace(&mut x);
        // Spatial branch.
        let z = self.lstm.forward_seq_nograd(&x, bs, m);
        // Structural branch: add positions in place, then self-attention.
        let pos = self.pos.data();
        for bi in 0..bs {
            for t in 0..m {
                let row = &mut x[(bi * m + t) * dh..(bi * m + t + 1) * dh];
                for (v, p) in row.iter_mut().zip(&pos[t * dh..(t + 1) * dh]) {
                    *v += *p;
                }
            }
        }
        let mask = own.mask.data();
        let mut scores = infer::bmm_nt(&x, &x, bs, m, dh, m);
        let inv_sqrt = 1.0 / (dh as f32).sqrt();
        for v in scores.iter_mut() {
            *v *= inv_sqrt;
        }
        infer::masked_softmax_inplace(&mut scores, &mask, bs, m, m);
        let mut attn = infer::bmm_nn(&scores, &x, bs, m, m, dh);
        infer::recycle(scores);
        infer::mask_rows_inplace(&mut attn, &mask, bs, m, dh);
        infer::recycle(x);
        let attn_d = self.attn_proj.forward_nograd(&attn, bs * m);
        infer::recycle(attn);
        // Combine: λ·LSTM + (1−λ)·attention, matching the graphed op order.
        let lam = {
            let l = self.lambda.data();
            1.0 / (1.0 + (-l[0]).exp())
        };
        let one_minus = -lam + 1.0;
        let mut seq = z;
        for (o, a) in seq.iter_mut().zip(&attn_d) {
            *o = *o * lam + *a * one_minus;
        }
        infer::recycle(attn_d);
        let out = infer::gather_last(&seq, bs, m, d, &own.last_idx);
        infer::recycle(seq);
        out
    }

    /// Self-attention mixes every point with every other, so there is no
    /// O(1) incremental update — T3S streams through the windowed fallback
    /// (full re-embed per append, window capped at `MAX_POSITIONS`).
    fn stream_begin(&self) -> Option<super::ModelStream> {
        Some(super::ModelStream::window(MAX_POSITIONS))
    }

    fn name(&self) -> &'static str {
        "T3S"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_traj::{Point, Trajectory};

    fn traj(off: f64, len: usize) -> Trajectory {
        (0..len).map(|i| Point::new(0.05 * i as f64, off + 0.01 * (i % 3) as f64)).collect()
    }

    fn model() -> T3s {
        T3s::new(&ModelConfig { dim: 8, seed: 6 })
    }

    #[test]
    fn shapes_and_independence() {
        let m = model();
        let (a, b1, b2) = (traj(0.2, 6), traj(0.5, 6), traj(0.9, 6));
        let e1 = m.encode_pairs(&PairBatch::build(&[&a], &[&b1]));
        let e2 = m.encode_pairs(&PairBatch::build(&[&a], &[&b2]));
        assert_eq!(e1.out_a.shape(), &[1, 6, 8]);
        assert_eq!(e1.out_a.to_vec(), e2.out_a.to_vec());
    }

    #[test]
    fn position_embedding_breaks_order_invariance() {
        // Same multiset of points in a different order must encode
        // differently (structural information).
        let m = model();
        let fwd: Trajectory = (0..6).map(|i| Point::new(0.1 * i as f64, 0.4)).collect();
        let rev: Trajectory = (0..6).rev().map(|i| Point::new(0.1 * i as f64, 0.4)).collect();
        let ef = m.encode_pairs(&PairBatch::build(&[&fwd], &[&fwd]));
        let er = m.encode_pairs(&PairBatch::build(&[&rev], &[&rev]));
        assert_ne!(ef.out_a.to_vec(), er.out_a.to_vec());
    }

    #[test]
    fn gradients_reach_all_parameters_including_lambda() {
        let m = model();
        let (a, b) = (traj(0.1, 5), traj(0.6, 4));
        let enc = m.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        ops::sum_all(&ops::add(&ops::sum_last(&enc.out_a), &ops::sum_last(&enc.out_b))).backward();
        for (name, t) in m.params().iter() {
            assert!(t.grad().is_some(), "no grad for {name}");
        }
    }
}
