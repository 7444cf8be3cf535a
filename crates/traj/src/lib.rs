//! # tmn-traj
//!
//! Trajectory primitives and the six exact distance metrics the TMN paper
//! evaluates against: DTW, discrete Fréchet, Hausdorff, ERP, EDR and LCSS
//! (Section III), plus parallel pairwise distance matrices and the
//! `S = exp(−α·D)` similarity transform used as the training ground truth
//! (Section IV-D).
//!
//! ```
//! use tmn_traj::{Trajectory, metrics::{Metric, MetricParams}};
//!
//! let a = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
//! let b = Trajectory::from_coords(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
//! let d = Metric::Dtw.distance(&a, &b, &MetricParams::default());
//! assert_eq!(d, 3.0);
//! ```

mod matrix;
pub mod metrics;
mod point;
pub mod resample;
pub mod simplify;
mod trajectory;

pub use matrix::{DistanceMatrix, GroundTruth, SimilarityTransform};
pub use point::Point;
pub use trajectory::Trajectory;
