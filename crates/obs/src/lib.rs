//! # tmn-obs
//!
//! Observability layer for the TMN reproduction: an op-level profiler and a
//! structured training-telemetry sink. Every other crate in the workspace
//! reports through this one, so it depends only on the vendored `serde` /
//! `serde_json` stubs.
//!
//! One timing primitive, [`span::Span`], feeds three aggregators: a span
//! reads the clock at open and at close, and its close records that one
//! interval into whichever of them the call site attached.
//!
//! - [`profiler`] — a process-global, thread-safe `(name, kind)` aggregate.
//!   `tmn-autograd` opens a span for every forward and backward op (wall
//!   time, call count, FLOP estimate); `tmn-core` and `tmn-eval` open
//!   coarse phase spans (batch assembly, optimizer step, eval
//!   embed/index/rank). Disabled by default: the off path is a single
//!   relaxed atomic load per span, and instrumentation never touches
//!   numerics either way.
//! - [`metrics`] — serving-path metrics registry: counters, gauges and
//!   log-linear latency histograms (exact cross-thread merge, p50/p90/p95/
//!   p99/max with a documented ≤ 1/16 bucket error), exported through
//!   [`export`] as Prometheus text or a JSON snapshot. Enabled by default;
//!   granularity is per-query / per-batch, not per-op.
//! - [`trace`] — request-scoped span tracing plus a flight recorder:
//!   per-request span trees (queue wait, embed, per-shard knn, rerank,
//!   merge...), tail-based slow-query capture, Chrome trace-event / text
//!   tree / JSONL exporters, and trace-id exemplars on the latency
//!   histograms. Disabled by default, same one-atomic-load off path as the
//!   profiler.
//!
//! Two more subsystems record no intervals:
//!
//! - [`telemetry`] — per-batch / per-epoch training records streamed as
//!   JSON Lines, one object per line, so a run can be tailed live and
//!   post-processed with standard tooling.
//! - [`memory`] — opt-in (`alloc-count` feature) counting global allocator:
//!   live/peak bytes and allocation counts, surfaced as gauges and used by
//!   allocation-regression tests.
//!
//! ## Example
//!
//! ```
//! use tmn_obs::{profiler, ScopeKind, Span};
//!
//! profiler::reset();
//! profiler::set_enabled(true);
//! {
//!     let _span = Span::new("demo.matmul").profile(ScopeKind::Forward, 2 * 4 * 4 * 4);
//!     // ... do the work being measured ...
//! }
//! profiler::set_enabled(false);
//! let snap = profiler::snapshot();
//! let rec = snap.iter().find(|r| r.name == "demo.matmul").unwrap();
//! assert_eq!(rec.calls, 1);
//! assert_eq!(rec.flops, 2 * 4 * 4 * 4);
//! ```

pub mod export;
pub mod memory;
pub mod metrics;
pub mod profiler;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot};
pub use profiler::{OpRecord, ScopeKind};
pub use span::Span;
pub use trace::{SpanSnapshot, TraceConfig, TraceCtx, TraceSnapshot, TraceStats};
pub use telemetry::{BatchTelemetry, EpochTelemetry, EventTelemetry, TelemetrySink};

/// The profiler, metrics and trace registries are process-global: unit
/// tests that reset or toggle any of them serialize on this one lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
