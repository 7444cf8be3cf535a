//! SRN — Siamese Recurrent Network baseline (Pei et al.).
//!
//! A siamese LSTM over raw coordinate embeddings: both trajectories are
//! encoded independently with shared weights; the paper implements it with
//! an LSTM following prior work. This architecture (without sub-loss /
//! kd-sampling) is SRN; the same backbone trained with Traj2SimVec's recipe
//! is the Traj2SimVec baseline.

use super::{EncodedBatch, PairModel};
use crate::batch::{PairBatch, SideBatch};
use crate::config::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_autograd::nn::{Linear, Lstm, ParamSet, Recurrent};
use tmn_autograd::{infer, ops, Tensor};

/// Siamese LSTM encoder.
pub struct Srn {
    params: ParamSet,
    embed: Linear,
    lstm: Lstm,
    dim: usize,
}

impl Srn {
    pub fn new(config: &ModelConfig) -> Srn {
        let d = config.dim;
        let dh = config.half_dim();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Linear::new(&mut params, "embed", 2, dh, &mut rng);
        let lstm = Lstm::new(&mut params, "lstm", dh, d, &mut rng);
        Srn { params, embed, lstm, dim: d }
    }

    fn encode_side(&self, side: &SideBatch) -> Tensor {
        let x = ops::leaky_relu(&self.embed.forward(&side.feats));
        self.lstm.forward_seq(&x)
    }
}

impl PairModel for Srn {
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
        let feats = own.feats.data();
        let mut x = self.embed.forward_nograd(&feats, bs * m);
        infer::leaky_relu_inplace(&mut x);
        let seq = self.lstm.forward_seq_nograd(&x, bs, m);
        infer::recycle(x);
        let out = infer::gather_last(&seq, bs, m, self.dim, &own.last_idx);
        infer::recycle(seq);
        out
    }

    fn stream_begin(&self) -> Option<super::ModelStream> {
        Some(super::ModelStream::rnn(self.lstm.stream_begin()))
    }

    fn embed_incremental(
        &self,
        state: &mut super::ModelStream,
        point: tmn_traj::Point,
    ) -> Vec<f32> {
        let s = state.rnn_mut("SRN");
        let feat = [point.lon as f32, point.lat as f32];
        let mut x = self.embed.forward_nograd(&feat, 1);
        infer::leaky_relu_inplace(&mut x);
        let mut out = vec![0.0f32; self.dim];
        self.lstm.stream_step(s, &x, &mut out);
        infer::recycle(x);
        state.appended += 1;
        out
    }

    fn name(&self) -> &'static str {
        "SRN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_traj::{Point, Trajectory};

    fn traj(off: f64, len: usize) -> Trajectory {
        (0..len).map(|i| Point::new(0.1 * i as f64, off)).collect()
    }

    #[test]
    fn shapes_and_independence() {
        let model = Srn::new(&ModelConfig { dim: 8, seed: 1 });
        let (a, b1, b2) = (traj(0.1, 5), traj(0.5, 5), traj(0.9, 5));
        let e1 = model.encode_pairs(&PairBatch::build(&[&a], &[&b1]));
        let e2 = model.encode_pairs(&PairBatch::build(&[&a], &[&b2]));
        assert_eq!(e1.out_a.shape(), &[1, 5, 8]);
        // Side A's encoding never depends on side B.
        assert_eq!(e1.out_a.to_vec(), e2.out_a.to_vec());
        assert!(!model.is_pair_dependent());
    }

    #[test]
    fn siamese_weights_shared() {
        // Encoding the same trajectory on either side gives the same vectors.
        let model = Srn::new(&ModelConfig { dim: 8, seed: 2 });
        let t = traj(0.3, 6);
        let e = model.encode_pairs(&PairBatch::build(&[&t], &[&t]));
        assert_eq!(e.out_a.to_vec(), e.out_b.to_vec());
    }

    #[test]
    fn gradients_reach_parameters() {
        let model = Srn::new(&ModelConfig { dim: 8, seed: 3 });
        let (a, b) = (traj(0.1, 4), traj(0.7, 6));
        let enc = model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        ops::sum_all(&ops::sum_last(&enc.out_a)).backward();
        for (name, t) in model.params().iter() {
            assert!(t.grad().is_some(), "no grad for {name}");
        }
    }
}
