//! # tmn-bench
//!
//! Experiment harness regenerating every table and figure of the TMN
//! paper's evaluation (Section V). Each table/figure has a binary:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table II (effectiveness, 6 metrics × 2 datasets × 6 models) | `table2` |
//! | Table III (efficiency: exact vs learned) | `table3` |
//! | Table IV (sampling ablation TMN vs TMN-kd) | `table4` |
//! | Fig. 3 (loss ablation MSE vs Q-error) | `fig3` |
//! | Fig. 4 (dimension & learning-rate sensitivity) | `fig4` |
//! | Fig. 5 (sampling number & sub-trajectory-loss ablation) | `fig5` |
//!
//! All binaries accept `--quick` (CI-sized), default (laptop-sized) or
//! `--full` (paper-shaped) scales and print the same rows/series the paper
//! reports; JSON results land in `results/`.

pub mod report;
pub mod runner;

pub use report::{write_json, Table};
pub use runner::{
    time_inference_split, Ctx, InferenceTimings, RunResult, RunSpec, SamplerKind, Scale,
};
