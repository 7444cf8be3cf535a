//! # tmn-eval
//!
//! Evaluation harness for learned trajectory similarity: the top-k
//! similarity-search protocol of Section V (HR-10, HR-50, R10@50), encoding
//! utilities for both independent and pair-dependent models, and the timing
//! helpers behind the efficiency study (Table III).
//!
//! ```
//! use tmn_eval::{evaluate, top_k_indices};
//!
//! // With predictions identical to the truth, every metric is 1.
//! let truth: Vec<f64> = (0..60).map(|i| i as f64).collect();
//! let e = evaluate(&[truth.clone()], &[truth], &[0]);
//! assert_eq!(e.hr10, 1.0);
//! ```

mod correlation;
mod metrics;
mod search;
mod sharded;
mod store;
mod timing;

pub use correlation::{kendall_tau, pearson, spearman};
pub use metrics::{evaluate, hitting_ratio, recall_at, top_k_indices, Evaluation};
pub use sharded::evaluate_sharded;
pub use store::{EmbeddingStore, StoreError};
pub use search::{
    embedding_distance, encode_all, encode_all_graphed, pairwise_query_distances,
    predicted_distance_rows,
};
pub use timing::{
    time_embedding_distance, time_exact_pairwise_counted, time_inference_per_trajectory_counted,
    time_inference_split, time_search_phases_detailed, EfficiencyRow, InferenceTimings,
    QueryLatencies, SearchPhases, QUERIES_TOTAL, QUERY_EMBED_NS, QUERY_INDEX_NS, QUERY_RANK_NS,
};
