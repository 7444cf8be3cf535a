//! # tmn
//!
//! A from-scratch Rust reproduction of **TMN: Trajectory Matching Networks
//! for Predicting Similarity** (Yang et al., ICDE 2022): learned trajectory
//! similarity with a cross-trajectory attention matching mechanism, the
//! baselines it is compared against, the exact distance metrics it
//! approximates, and the full benchmark harness regenerating the paper's
//! tables and figures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! - [`autograd`] — dense-tensor reverse-mode autograd, NN layers, Adam.
//! - [`traj`] — trajectory types, DTW / Fréchet / Hausdorff / ERP / EDR /
//!   LCSS, distance matrices, prefix distances.
//! - [`data`] — synthetic Geolife-like / Porto-like datasets, preprocessing,
//!   sampling strategies.
//! - [`index`] — k-d tree and HNSW over embeddings.
//! - [`core`] — TMN, TMN-NM, SRN, NeuTraj, T3S, Traj2SimVec; losses and the
//!   trainer.
//! - [`eval`] — top-k search evaluation (HR-k, Rk@t) and timing.
//!
//! ## Quickstart
//!
//! ```
//! use tmn::prelude::*;
//!
//! // 1. Data: a small Porto-like synthetic dataset (20% train).
//! let ds = Dataset::generate(&DatasetConfig::new(DatasetKind::PortoLike, 60, 7));
//!
//! // 2. Ground truth: DTW distances over the training set.
//! let params = MetricParams::default();
//! let dmat = ds.train_distance_matrix(Metric::Dtw, &params, 2);
//!
//! // 3. Train TMN briefly.
//! let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 });
//! let cfg = TrainConfig { epochs: 1, ..Default::default() };
//! let mut trainer = Trainer::new(
//!     model.as_ref(), &ds.train, &dmat, Metric::Dtw, params,
//!     Box::new(RankSampler), cfg, None,
//! );
//! let stats = trainer.train();
//! assert!(stats.final_loss().is_finite());
//! ```

pub use tmn_autograd as autograd;
pub use tmn_core as core;
pub use tmn_data as data;
pub use tmn_eval as eval;
pub use tmn_index as index;
pub use tmn_traj as traj;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use tmn_autograd::{nn::ParamSet, no_grad, ops, optim::Adam, Tensor};
    pub use tmn_core::{
        pair_loss, EncodedBatch, LossKind, ModelConfig, ModelKind, PairBatch, PairModel,
        PairTargets, SideBatch, TrainConfig, Trainer, TrainStats,
    };
    pub use tmn_data::{
        filter, train_test_split, Dataset, DatasetConfig, DatasetKind, FilterConfig, GenConfig,
        KdSampler, Normalizer, RankSampler, Sampler,
    };
    pub use tmn_eval::{
        encode_all, evaluate, kendall_tau, predicted_distance_rows, spearman, top_k_indices,
        EmbeddingStore, Evaluation,
    };
    pub use tmn_index::{Hnsw, HnswConfig, KdTree};
    pub use tmn_traj::{
        metrics::{prefix_distances, Metric, MetricParams},
        DistanceMatrix, Point, SimilarityTransform, Trajectory,
    };
}
