//! TMN — the paper's model (Section IV-B).
//!
//! Pipeline per pair `(T_a, T_b)` padded to length `m`:
//!
//! 1. Point embedding `x = LeakyReLU(W₀ p + b₀)`, `x ∈ ℝ^{d̂}`, `d̂ = d/2`
//!    (Eq. 4–5).
//! 2. Matching mechanism: match scores `X_a · X_bᵀ` (Eq. 6), masked softmax
//!    over the *other* trajectory's valid points (Eq. 7–8), weighted sum
//!    `S_{a←b} = P_{a←b} · X_b` (Eq. 9–10), discrepancy
//!    `M_{a←b} = X_a − S_{a←b}` (Eq. 11), padded rows zeroed.
//! 3. `Z_a = LSTM(X_a ⊕ M_{a←b})` (Eq. 12), hidden size `d`.
//! 4. `O_a = MLP(Z_a)` (Eq. 13).
//!
//! With `matching = false` this is the TMN-NM ablation: the LSTM consumes
//! the point embeddings alone and the rest of the network is unchanged.

use super::{EncodedBatch, PairModel};
use crate::batch::{PairBatch, SideBatch};
use crate::config::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_autograd::nn::{Linear, Mlp, ParamSet, Recurrent, RnnKind};
use tmn_autograd::{infer, ops, Tensor};

/// Trajectory Matching Network.
pub struct Tmn {
    params: ParamSet,
    embed: Linear,
    rnn: Box<dyn Recurrent>,
    mlp: Mlp,
    dim: usize,
    matching: bool,
}

impl Tmn {
    /// Build TMN (`matching = true`) or the TMN-NM ablation (`false`) with
    /// the paper's LSTM backbone.
    pub fn new(config: &ModelConfig, matching: bool) -> Tmn {
        Tmn::with_rnn(config, matching, RnnKind::Lstm)
    }

    /// Build with an explicit recurrent backbone (the RNN-kind ablation).
    pub fn with_rnn(config: &ModelConfig, matching: bool, rnn_kind: RnnKind) -> Tmn {
        let d = config.dim;
        let dh = config.half_dim();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let embed = Linear::new(&mut params, "embed", 2, dh, &mut rng);
        // With matching, the RNN sees X ⊕ M (2·d̂ = d); without, just X (d̂).
        let rnn_in = if matching { d } else { dh };
        let rnn = rnn_kind.build(&mut params, "rnn", rnn_in, d, &mut rng);
        let mlp = Mlp::new(&mut params, "mlp", &[d, d, d], &mut rng);
        Tmn { params, embed, rnn, mlp, dim: d, matching }
    }

    /// Whether the matching mechanism is enabled.
    pub fn has_matching(&self) -> bool {
        self.matching
    }

    /// Eq. 4–5: embed raw coordinates.
    fn embed_side(&self, side: &SideBatch) -> Tensor {
        ops::leaky_relu(&self.embed.forward(&side.feats))
    }

    /// Eq. 6–11 for one direction: the matching matrix `M_{q←k}`.
    fn matching_matrix(x_q: &Tensor, x_k: &Tensor, q: &SideBatch, k: &SideBatch) -> Tensor {
        // Match scores m^{(i,j)} = x_q^{(i)} · x_k^{(j)} (Eq. 6, batched Eq. 8).
        let scores = ops::bmm_nt(x_q, x_k);
        // Masked softmax over the key trajectory's real points (Eq. 7).
        let p = ops::masked_softmax(&scores, &k.mask);
        // Weighted sum of the key embeddings (Eq. 9–10).
        let s = ops::bmm_nn(&p, x_k);
        // Discrepancy (Eq. 11), with padded query rows covered by zeros as
        // the paper prescribes for the post-softmax masking.
        ops::mul_mask_rows(&ops::sub(x_q, &s), &q.mask)
    }

    fn encode_side(&self, own: &SideBatch, other: &SideBatch) -> Tensor {
        let x_own = self.embed_side(own);
        let lstm_in = if self.matching {
            let x_other = self.embed_side(other);
            let m = Self::matching_matrix(&x_own, &x_other, own, other);
            ops::concat_last(&x_own, &m) // Eq. 12's X ⊕ M
        } else {
            x_own
        };
        let z = self.rnn.forward_seq(&lstm_in);
        self.mlp.forward(&z) // Eq. 13
    }
}

impl PairModel for Tmn {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn encode_pairs(&self, batch: &PairBatch) -> EncodedBatch {
        EncodedBatch {
            out_a: self.encode_side(&batch.a, &batch.b),
            out_b: self.encode_side(&batch.b, &batch.a),
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn is_pair_dependent(&self) -> bool {
        self.matching
    }

    fn embed_nograd(&self, own: &SideBatch, other: &SideBatch) -> Vec<f32> {
        let (bs, m) = (own.batch_size(), own.max_len);
        let dh = self.embed.out_dim();
        let feats = own.feats.data();
        let mut x_own = self.embed.forward_nograd(&feats, bs * m);
        infer::leaky_relu_inplace(&mut x_own);
        let rnn_in = if self.matching {
            let other_feats = other.feats.data();
            let mut x_other = self.embed.forward_nograd(&other_feats, bs * m);
            infer::leaky_relu_inplace(&mut x_other);
            let mm = infer::matching_matrix(
                &x_own,
                &x_other,
                &own.mask.data(),
                &other.mask.data(),
                bs,
                m,
                dh,
            );
            infer::recycle(x_other);
            let cat = infer::concat_cols(&x_own, &mm, bs * m, dh, dh);
            infer::recycle(mm);
            infer::recycle(x_own);
            cat
        } else {
            x_own
        };
        let z = self.rnn.forward_seq_nograd(&rnn_in, bs, m);
        infer::recycle(rnn_in);
        let o = self.mlp.forward_nograd(&z, bs * m);
        infer::recycle(z);
        let out = infer::gather_last(&o, bs, m, self.dim, &own.last_idx);
        infer::recycle(o);
        out
    }

    /// TMN-NM only: the matching variant's representations depend on the
    /// paired trajectory, so a single-trajectory stream is meaningless.
    fn stream_begin(&self) -> Option<super::ModelStream> {
        if self.matching {
            return None;
        }
        Some(super::ModelStream::rnn(self.rnn.stream_begin()))
    }

    fn embed_incremental(
        &self,
        state: &mut super::ModelStream,
        point: tmn_traj::Point,
    ) -> Vec<f32> {
        assert!(!self.matching, "TMN: pair-dependent model has no stream");
        let s = state.rnn_mut("TMN-NM");
        let feat = [point.lon as f32, point.lat as f32];
        let mut x = self.embed.forward_nograd(&feat, 1);
        infer::leaky_relu_inplace(&mut x);
        let mut z = infer::take(self.dim);
        self.rnn.stream_step(s, &x, &mut z);
        infer::recycle(x);
        // Eq. 13 on just the newest hidden row: the MLP is row-wise, so this
        // matches the newest row of the full-sequence MLP bitwise.
        let o = self.mlp.forward_nograd(&z, 1);
        infer::recycle(z);
        let out = o[..self.dim].to_vec();
        infer::recycle(o);
        state.appended += 1;
        out
    }

    fn name(&self) -> &'static str {
        if self.matching {
            "TMN"
        } else {
            "TMN-NM"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_traj::{Point, Trajectory};

    fn traj(seed: u64, len: usize) -> Trajectory {
        (0..len)
            .map(|i| {
                let x = ((seed * 31 + i as u64 * 17) % 97) as f64 / 97.0;
                let y = ((seed * 13 + i as u64 * 7) % 89) as f64 / 89.0;
                Point::new(x, y)
            })
            .collect()
    }

    fn cfg() -> ModelConfig {
        ModelConfig { dim: 8, seed: 3 }
    }

    #[test]
    fn output_shapes() {
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(1, 6), traj(2, 9));
        let batch = PairBatch::build(&[&a], &[&b]);
        let enc = model.encode_pairs(&batch);
        assert_eq!(enc.out_a.shape(), &[1, 9, 8]);
        assert_eq!(enc.out_b.shape(), &[1, 9, 8]);
    }

    #[test]
    fn tmn_is_pair_dependent_nm_is_not() {
        // The representation of `a` under TMN must change when paired with a
        // different b; under TMN-NM it must not.
        let (a, b1, b2) = (traj(1, 6), traj(2, 6), traj(9, 6));
        for (matching, expect_differs) in [(true, true), (false, false)] {
            let model = Tmn::new(&cfg(), matching);
            let e1 = model.encode_pairs(&PairBatch::build(&[&a], &[&b1]));
            let e2 = model.encode_pairs(&PairBatch::build(&[&a], &[&b2]));
            let differs = e1.out_a.to_vec() != e2.out_a.to_vec();
            assert_eq!(differs, expect_differs, "matching={matching}");
        }
    }

    #[test]
    fn padding_does_not_change_representation() {
        // Encoding the same pair with extra padding (larger batch max) must
        // leave the last-valid-step output identical: masks must fully
        // neutralize padded key points.
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(1, 5), traj(2, 5));
        let tight = PairBatch::build(&[&a], &[&b]);
        // Padded: batch with a longer filler pair forces max_len = 12.
        let filler = traj(3, 12);
        let padded = PairBatch::build(&[&a, &filler], &[&b, &filler]);
        let e_tight = model.encode_pairs(&tight);
        let e_pad = model.encode_pairs(&padded);
        let d = model.dim();
        // Row 0, time step 4 (= last valid) in both encodings.
        let tight_vec = &e_tight.out_a.to_vec()[4 * d..5 * d];
        let pad_all = e_pad.out_a.to_vec();
        let pad_vec = &pad_all[4 * d..5 * d]; // batch row 0, step 4
        for (x, y) in tight_vec.iter().zip(pad_vec) {
            assert!((x - y).abs() < 1e-5, "padding leaked into representation");
        }
    }

    #[test]
    fn symmetric_pair_produces_symmetric_outputs() {
        // encode(a,b).out_a == encode(b,a).out_b — the two sides share
        // weights and the matching is direction-symmetric by construction.
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(4, 7), traj(5, 7));
        let e1 = model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        let e2 = model.encode_pairs(&PairBatch::build(&[&b], &[&a]));
        assert_eq!(e1.out_a.to_vec(), e2.out_b.to_vec());
        assert_eq!(e1.out_b.to_vec(), e2.out_a.to_vec());
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let model = Tmn::new(&cfg(), true);
        let (a, b) = (traj(1, 5), traj(2, 7));
        let batch = PairBatch::build(&[&a], &[&b]);
        let enc = model.encode_pairs(&batch);
        let loss = ops::sum_all(&ops::add(
            &ops::sum_last(&enc.out_a),
            &ops::sum_last(&enc.out_b),
        ));
        loss.backward();
        for (name, t) in model.params().iter() {
            let g = t.grad().unwrap_or_else(|| panic!("no grad for {name}"));
            assert!(g.iter().any(|&v| v != 0.0), "all-zero grad for {name}");
        }
    }

    #[test]
    fn gru_backbone_builds_and_encodes() {
        let model = Tmn::with_rnn(&cfg(), true, RnnKind::Gru);
        let (a, b) = (traj(1, 6), traj(2, 6));
        let enc = model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        assert_eq!(enc.out_a.shape(), &[1, 6, 8]);
        assert!(enc.out_a.to_vec().iter().all(|v| v.is_finite()));
        // GRU variant differs from the LSTM variant on the same pair.
        let lstm_model = Tmn::new(&cfg(), true);
        let enc2 = lstm_model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
        assert_ne!(enc.out_a.to_vec(), enc2.out_a.to_vec());
    }

    #[test]
    fn nm_variant_has_smaller_lstm_input() {
        let with = Tmn::new(&cfg(), true);
        let without = Tmn::new(&cfg(), false);
        assert!(with.params.num_scalars() > without.params.num_scalars());
    }
}
