//! # tmn-index
//!
//! Vector indexes for the TMN pipeline:
//!
//! - [`KdTree`]: exact k-nearest-neighbour search, required by the
//!   Traj2SimVec baseline's sampling strategy (simplified trajectories in a
//!   k-d tree; near samples = its k-NN) and by the TMN-kd ablation of
//!   Table IV.
//! - [`Hnsw`]: approximate nearest-neighbour graph (Malkov et al.) over the
//!   learned trajectory embeddings, the index the paper names as
//!   immediately applicable after embedding (Section I). Supports
//!   full-precision and int8-quantized vector storage (see [`quant`]).
//! - [`ShardRouter`]: the stable id→shard hash ([`splitmix64`]) that
//!   `tmn-serve`'s `ShardSet` uses to spread one HNSW per shard. Sharded,
//!   quantized and exact-reranked search all live in that one type.

mod hnsw;
mod kdtree;
pub mod quant;
mod router;

pub use hnsw::{Hnsw, HnswConfig};
pub use kdtree::KdTree;
pub use router::{splitmix64, ShardRouter};
