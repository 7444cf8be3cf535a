//! The model zoo: TMN (with and without the matching mechanism) and the
//! four baselines the paper compares against — SRN, NeuTraj, T3S and
//! Traj2SimVec.
//!
//! All models implement [`PairModel`]: they encode a batch of trajectory
//! pairs into per-time-step representations `O ∈ ℝ^{B×m×d}` from which the
//! trainer takes the last-valid-step rows as trajectory vectors (and prefix
//! rows for the sub-trajectory loss).

mod neutraj;
mod srn;
mod stream;
mod t3s;
mod tmn;

pub use neutraj::NeuTraj;
pub use srn::Srn;
pub use stream::ModelStream;
pub use t3s::T3s;
pub use tmn::Tmn;

use crate::batch::{PairBatch, SideBatch};
use stream::StreamInner;
use tmn_autograd::nn::ParamSet;
use tmn_autograd::Tensor;
use tmn_traj::{Point, Trajectory};

/// Per-time-step representations for a batch of pairs.
pub struct EncodedBatch {
    /// `[B, m, d]` representations of side A's points.
    pub out_a: Tensor,
    /// `[B, m, d]` representations of side B's points.
    pub out_b: Tensor,
}

/// A trainable trajectory-pair encoder.
pub trait PairModel {
    /// The model's trainable parameters.
    fn params(&self) -> &ParamSet;

    /// Encode both sides of a pair batch into `[B, m, d]` representations.
    /// Joint models (TMN) let the two sides interact; independent models
    /// encode each side separately with shared (siamese) weights.
    fn encode_pairs(&self, batch: &PairBatch) -> EncodedBatch;

    /// Embedding dimension `d` of the output representations.
    fn dim(&self) -> usize;

    /// Whether representations depend on the paired trajectory. If `false`,
    /// the evaluation pipeline may encode every trajectory once and search
    /// in embedding space; if `true` (TMN), similarity queries re-encode
    /// candidate pairs.
    fn is_pair_dependent(&self) -> bool {
        false
    }

    /// Hook invoked after every gradient step with the batch it was computed
    /// on (NeuTraj updates its spatial memory here). Default: no-op.
    fn post_step(&self, _batch: &PairBatch, _encoded: &EncodedBatch) {}

    /// Whether the trainer may split a batch across fresh model replicas
    /// (data-parallel training). Requires that a replica built from the same
    /// config plus a weight snapshot computes the same function — models
    /// with extra mutable state fed by [`post_step`](Self::post_step) must
    /// opt out. Default: supported.
    fn supports_data_parallel(&self) -> bool {
        true
    }

    /// Tape-free inference: embed each trajectory of `own` into its final
    /// `d`-dimensional vector (the last-valid-step row of the `[B, m, d]`
    /// encoding), returned as a flat `[B · d]` buffer. `other` is the paired
    /// side, consulted only by pair-dependent models (TMN's matching).
    ///
    /// Implementations run entirely over plain `Vec<f32>` buffers via
    /// `tmn_autograd::infer` — zero graph-node allocation — and are
    /// bitwise-identical to `encode_pairs` + last-step gather.
    fn embed_nograd(&self, own: &SideBatch, other: &SideBatch) -> Vec<f32>;

    /// Begin a streaming embedding of ONE trajectory, or `None` when the
    /// model cannot embed single trajectories point-by-point: pair-dependent
    /// TMN (the matching mechanism needs the paired side).
    ///
    /// Recurrent models return resumable hidden state; attention models
    /// return a *windowed* stream whose appends re-embed the buffered window
    /// in full — check [`ModelStream::is_windowed`] when append cost matters.
    fn stream_begin(&self) -> Option<ModelStream> {
        None
    }

    /// Append one point to a stream from [`stream_begin`](Self::stream_begin)
    /// and return the grown trajectory's `d`-dim embedding.
    ///
    /// For recurrent models the result is bitwise equal to
    /// [`embed_nograd`](Self::embed_nograd) over the full point sequence at
    /// batch size 1, at O(1) cost per append (one embed row + one cell step).
    /// For windowed models it equals a full re-embed over the current window.
    ///
    /// The default handles the windowed fallback; models that hand out an
    /// RNN stream override it. Panics if `state` came from another model
    /// kind.
    fn embed_incremental(&self, state: &mut ModelStream, point: Point) -> Vec<f32> {
        match &mut state.inner {
            StreamInner::Window { points, cap } => {
                if points.len() == *cap {
                    points.remove(0);
                }
                points.push(point);
                state.appended += 1;
                let traj = Trajectory::new(points.clone());
                let side = SideBatch::build(&[&traj], traj.len());
                self.embed_nograd(&side, &side)
            }
            StreamInner::Rnn(_) => panic!(
                "{}: model handed out an RNN stream but does not override embed_incremental",
                self.name()
            ),
        }
    }

    fn name(&self) -> &'static str;
}

/// Which model to instantiate (used by the bench harness and examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelKind {
    Srn,
    NeuTraj,
    T3s,
    /// Traj2SimVec = SRN backbone + sub-trajectory loss + k-d-tree sampling;
    /// the architecture is the backbone, the rest is training configuration.
    Traj2SimVec,
    /// TMN without the matching mechanism (ablation, Table II).
    TmnNm,
    Tmn,
}

impl ModelKind {
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Srn,
        ModelKind::NeuTraj,
        ModelKind::T3s,
        ModelKind::Traj2SimVec,
        ModelKind::TmnNm,
        ModelKind::Tmn,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Srn => "SRN",
            ModelKind::NeuTraj => "NeuTraj",
            ModelKind::T3s => "T3S",
            ModelKind::Traj2SimVec => "Traj2SimVec",
            ModelKind::TmnNm => "TMN-NM",
            ModelKind::Tmn => "TMN",
        }
    }

    /// Instantiate the architecture for this kind.
    pub fn build(&self, config: &crate::config::ModelConfig) -> Box<dyn PairModel> {
        match self {
            ModelKind::Srn | ModelKind::Traj2SimVec => Box::new(Srn::new(config)),
            ModelKind::NeuTraj => Box::new(NeuTraj::new(config)),
            ModelKind::T3s => Box::new(T3s::new(config)),
            ModelKind::TmnNm => Box::new(Tmn::new(config, false)),
            ModelKind::Tmn => Box::new(Tmn::new(config, true)),
        }
    }

    /// Whether the *training recipe* for this kind enables the
    /// sub-trajectory loss (Traj2SimVec introduced it; TMN adopts it).
    pub fn uses_sub_loss(&self) -> bool {
        matches!(self, ModelKind::Traj2SimVec | ModelKind::Tmn | ModelKind::TmnNm)
    }

    /// Whether the training recipe samples with the k-d-tree strategy
    /// (Traj2SimVec) instead of TMN's random-rank strategy.
    pub fn uses_kd_sampling(&self) -> bool {
        matches!(self, ModelKind::Traj2SimVec)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn build_all_kinds() {
        let cfg = ModelConfig { dim: 8, seed: 1 };
        for kind in ModelKind::ALL {
            let model = kind.build(&cfg);
            assert_eq!(model.dim(), 8, "{kind}");
            assert!(!model.params().is_empty(), "{kind}");
        }
    }

    #[test]
    fn pair_dependence_only_for_tmn() {
        let cfg = ModelConfig { dim: 8, seed: 1 };
        assert!(ModelKind::Tmn.build(&cfg).is_pair_dependent());
        assert!(!ModelKind::TmnNm.build(&cfg).is_pair_dependent());
        assert!(!ModelKind::Srn.build(&cfg).is_pair_dependent());
        assert!(!ModelKind::T3s.build(&cfg).is_pair_dependent());
    }

    #[test]
    fn recipe_flags_match_paper() {
        assert!(ModelKind::Traj2SimVec.uses_kd_sampling());
        assert!(!ModelKind::Tmn.uses_kd_sampling());
        assert!(ModelKind::Tmn.uses_sub_loss());
        assert!(!ModelKind::Srn.uses_sub_loss());
        assert!(!ModelKind::T3s.uses_sub_loss());
    }
}
