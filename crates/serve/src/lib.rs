//! # tmn-serve
//!
//! A long-lived serving engine over the learned trajectory embeddings: the
//! paper (§I) positions TMN behind an HNSW index for top-k retrieval, and
//! this crate is that index run as a *service* — millions of trajectories
//! under live traffic, with new trajectories arriving and old ones retiring
//! while queries keep flowing.
//!
//! Two layers:
//!
//! - [`ShardSet`] — the concurrent data plane. One incremental HNSW shard
//!   per core behind an `RwLock`, a stable id→shard router
//!   ([`tmn_index::ShardRouter`]), f32 or int8-quantized shard storage,
//!   scatter-gather top-k merge with exact f32 rerank (the workspace's
//!   one approximate top-k path), per-shard epochs, tombstone compaction,
//!   and degraded mode: a shard whose lock is poisoned by a panicking
//!   writer is fenced off and the engine keeps serving from the remaining
//!   shards. `ShardSet` is `Sync`; readers and writers hit it from any
//!   thread.
//! - [`ServeEngine`] / [`ServeHandle`] — the request plane. Models are
//!   thread-local (`Rc`-based tensors), so one engine thread owns the model
//!   plus the trajectory corpus and the warm embedding cache, and drains an
//!   admission queue in batches: every trajectory embedding in one drained
//!   batch amortizes into a single fused-RNN [`embed_nograd`] forward.
//!   Handles are cheap clones; any thread can insert, delete, and query.
//!
//! The cache stores a checksum next to each embedding; a corrupt entry is
//! detected on read and silently recomputed from the corpus instead of
//! being served. Request-path latencies land in the PR 5 histograms
//! (`query_embed_ns` / `query_index_ns` / `query_rank_ns`, plus
//! `serve_queue_wait_ns` for enqueue→drain delay), and the engine exports
//! `serve_batch_size`, `serve_queue_depth`, `shard_imbalance` and
//! `serve_degraded_shards` gauges through the Prometheus/JSON exporters.
//!
//! With `tmn_obs::trace` enabled, every request additionally records a span
//! tree — queue wait, shared embed, per-shard knn, rerank, merge (and
//! stream step / delta / re-index on the append path) — into the flight
//! recorder, and each latency histogram's exemplar names the trace behind
//! its most recent high-bucket observation. Tracing is off by default and
//! bitwise-invariant on results either way
//! (`crates/serve/tests/trace_invariance.rs`).
//!
//! [`embed_nograd`]: tmn_core::PairModel::embed_nograd

mod engine;
mod shard;

pub use engine::{AppendOutcome, EngineStatus, ServeConfig, ServeEngine, ServeHandle};
pub use shard::{ShardSet, ShardSetConfig, ShardSetStatus, ShardStatus};

/// Gauge: trajectories embedded by the last admission batch (the fan-in the
/// fused forward amortized over).
pub const SERVE_BATCH_SIZE: &str = "serve_batch_size";
/// Gauge: requests drained by the last admission window — how deep the
/// queue had grown while the previous batch was being served.
pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
/// Histogram: per-request time between enqueue and admission-window drain,
/// in nanoseconds. This is the queueing delay that used to fold silently
/// into client-observed latency.
pub const SERVE_QUEUE_WAIT_NS: &str = "serve_queue_wait_ns";
/// Gauge: max/mean shard occupancy (1.0 = perfectly balanced).
pub const SHARD_IMBALANCE: &str = "shard_imbalance";
/// Gauge: shards currently fenced off after a poisoned lock.
pub const SERVE_DEGRADED_SHARDS: &str = "serve_degraded_shards";
/// Counter: queries answered by the engine (single + batched + by-id).
pub const SERVE_QUERIES_TOTAL: &str = "serve_queries_total";
/// Counter: inserts applied (including re-inserts of a live id).
pub const SERVE_INSERTS_TOTAL: &str = "serve_inserts_total";
/// Counter: deletes that removed a live id.
pub const SERVE_DELETES_TOTAL: &str = "serve_deletes_total";
/// Counter: by-id queries served straight from the warm cache.
pub const SERVE_CACHE_HITS_TOTAL: &str = "serve_cache_hits_total";
/// Counter: cache entries whose checksum failed; each was recomputed via
/// `embed_nograd` instead of served.
pub const SERVE_CACHE_CORRUPT_TOTAL: &str = "serve_cache_corrupt_total";
/// Counter: shard compactions (tombstone-triggered rebuilds).
pub const SERVE_COMPACTIONS_TOTAL: &str = "serve_compactions_total";
/// Counter: points appended to live trajectory streams.
pub const STREAM_APPENDS_TOTAL: &str = "stream_appends_total";
/// Counter: appends whose moved embedding was re-inserted into the index
/// (the rest fell under `reembed_min_delta` and skipped the churn).
pub const STREAM_REINDEX_TOTAL: &str = "stream_reindex_total";
/// Histogram: wall time of one `append_point` (stream step + optional
/// re-index), in nanoseconds.
pub const APPEND_NS: &str = "append_ns";

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Vector/query dimensionality does not match the engine's model.
    DimMismatch { expected: usize, got: usize },
    /// The shard owning this id is fenced off (poisoned lock); writes to it
    /// are refused while reads keep flowing from the healthy shards.
    DegradedShard(usize),
    /// By-id operation on an id the corpus has never seen (or has deleted).
    UnknownId(u64),
    /// The engine only serves independent-embedding models; pair-dependent
    /// models (full TMN) re-encode per candidate and cannot sit behind a
    /// vector index.
    PairDependentModel(&'static str),
    /// The model cannot embed trajectories point-by-point (no
    /// `stream_begin` path), so `append_point` is unavailable.
    NoStreamPath(&'static str),
    /// An encoded weight buffer handed to `start_with_params` failed to
    /// load into the requested model (wrong shapes, names, or corruption).
    BadWeights(String),
    /// The request carries points the model cannot embed (an empty
    /// trajectory, a non-finite coordinate); refused before it is enqueued.
    InvalidInput(String),
    /// The engine thread is gone (shut down or crashed).
    EngineDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            ServeError::DegradedShard(s) => write!(f, "shard {s} is degraded (poisoned lock)"),
            ServeError::UnknownId(id) => write!(f, "unknown trajectory id {id}"),
            ServeError::PairDependentModel(name) => {
                write!(f, "{name} is pair-dependent and cannot serve from a vector index")
            }
            ServeError::NoStreamPath(name) => {
                write!(f, "{name} cannot embed incrementally; append_point is unavailable")
            }
            ServeError::BadWeights(why) => write!(f, "weight buffer rejected: {why}"),
            ServeError::InvalidInput(why) => write!(f, "invalid input: {why}"),
            ServeError::EngineDown => write!(f, "serving engine is not running"),
        }
    }
}

impl std::error::Error for ServeError {}
