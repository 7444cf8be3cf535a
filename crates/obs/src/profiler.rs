//! Process-global op/phase profiler.
//!
//! One of the sinks a [`Span`](crate::span::Span) feeds: a span opened with
//! [`Span::profile`](crate::span::Span::profile) or
//! [`Span::phase`](crate::span::Span::phase) is keyed `(name, kind)`, and its
//! close adds one call, its wall time, and its FLOP estimate to the registry
//! under that key. The registry is a `Mutex<HashMap>` shared by all threads
//! — data-parallel training workers record into the same table.
//!
//! The profiler is **off by default**. When off, a profiler span costs one
//! relaxed atomic load and reads no clock, so instrumented hot paths stay
//! hot; no instrumentation path ever reads or writes tensor data, so
//! enabling the profiler cannot perturb numerics (locked in by
//! `crates/core/tests/profiler_invariance.rs`).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What a profiled span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScopeKind {
    /// The forward computation of one tensor op.
    Forward,
    /// The backward closure of one tensor op (FLOPs estimated at 2× forward).
    Backward,
    /// A coarse non-op phase (batch assembly, optimizer step, eval stages).
    Phase,
}

impl ScopeKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            ScopeKind::Forward => "forward",
            ScopeKind::Backward => "backward",
            ScopeKind::Phase => "phase",
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Stat {
    calls: u64,
    total_ns: u64,
    flops: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<(&'static str, ScopeKind), Stat>> {
    static REGISTRY: OnceLock<Mutex<HashMap<(&'static str, ScopeKind), Stat>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn registry_lock() -> std::sync::MutexGuard<'static, HashMap<(&'static str, ScopeKind), Stat>> {
    // A panic while holding the lock only loses profiling data; keep going.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiler spans currently record. A single relaxed load — this is the
/// entire cost of instrumentation on the disabled path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every accumulated record (does not change the enabled flag).
pub fn reset() {
    registry_lock().clear();
}

/// Add one completed measurement to the registry (the span close sink).
pub(crate) fn record(name: &'static str, kind: ScopeKind, ns: u64, flops: u64) {
    let mut reg = registry_lock();
    let stat = reg.entry((name, kind)).or_default();
    stat.calls += 1;
    stat.total_ns += ns;
    stat.flops += flops;
}

/// One aggregated registry row, serializable into `PROFILE_ops.json`.
///
/// `mean_ns` and `gflops` are derived from the raw counters at snapshot time
/// and serialized alongside them so downstream consumers (the `profile` bin's
/// table, dashboards reading the JSON) need no recomputation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    pub name: String,
    /// `"forward"`, `"backward"` or `"phase"`.
    pub kind: String,
    pub calls: u64,
    pub total_ns: u64,
    /// Estimated floating-point operations across all calls.
    pub flops: u64,
    /// Mean wall time per call, in nanoseconds.
    pub mean_ns: f64,
    /// Estimated GFLOP/s over this record's accumulated time.
    pub gflops: f64,
}

impl OpRecord {
    fn new(name: String, kind: String, stat: Stat) -> OpRecord {
        let mean_ns = if stat.calls == 0 { 0.0 } else { stat.total_ns as f64 / stat.calls as f64 };
        let gflops =
            if stat.total_ns == 0 { 0.0 } else { stat.flops as f64 / stat.total_ns as f64 };
        OpRecord {
            name,
            kind,
            calls: stat.calls,
            total_ns: stat.total_ns,
            flops: stat.flops,
            mean_ns,
            gflops,
        }
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Copy of the registry, sorted by `(name, kind)`. The ordering is a
/// function of *which* spans ran, never of how long they took, so two runs
/// of the same workload produce identically ordered `PROFILE_ops.json`
/// files, and a diff of two captures shows real deltas instead of row
/// shuffles.
/// Consumers that want a "top by time" view (the `profile` bin's table)
/// re-sort their copy.
pub fn snapshot() -> Vec<OpRecord> {
    let reg = registry_lock();
    let mut rows: Vec<OpRecord> = reg
        .iter()
        .map(|(&(name, kind), stat)| {
            OpRecord::new(name.to_string(), kind.as_str().to_string(), *stat)
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.kind.cmp(&b.kind)));
    rows
}

/// Sum of recorded time over every span, in nanoseconds. Spans are
/// disjoint by construction (ops never nest; phases wrap only non-op work),
/// so this is comparable against a wall-clock measurement of the same span.
pub fn total_ns() -> u64 {
    registry_lock().values().map(|s| s.total_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn snapshot_order_is_deterministic_name_then_kind() {
        let _l = test_lock();
        reset();
        // Timings deliberately anti-correlated with name order: determinism
        // means the sort must ignore them.
        record("test.b_op", ScopeKind::Phase, 5_000, 0);
        record("test.a_op", ScopeKind::Phase, 10, 0);
        record("test.a_op", ScopeKind::Forward, 9_999, 0);
        record("test.a_op", ScopeKind::Backward, 1, 0);
        let snap = snapshot();
        let keys: Vec<(&str, &str)> =
            snap.iter().map(|r| (r.name.as_str(), r.kind.as_str())).collect();
        assert_eq!(
            keys,
            vec![
                ("test.a_op", "backward"),
                ("test.a_op", "forward"),
                ("test.a_op", "phase"),
                ("test.b_op", "phase"),
            ],
            "snapshot must sort by (name, kind), independent of timings"
        );
        assert_eq!(total_ns(), 15_010);
        reset();
    }

    #[test]
    fn snapshot_order_survives_timing_perturbation() {
        // Regression: same scopes, different timings => identical row order.
        let _l = test_lock();
        reset();
        record("test.x", ScopeKind::Forward, 1, 0);
        record("test.y", ScopeKind::Forward, 1_000_000, 0);
        let order1: Vec<String> = snapshot().iter().map(|r| r.name.clone()).collect();
        reset();
        record("test.x", ScopeKind::Forward, 1_000_000, 0);
        record("test.y", ScopeKind::Forward, 1, 0);
        let order2: Vec<String> = snapshot().iter().map(|r| r.name.clone()).collect();
        reset();
        assert_eq!(order1, order2, "row order must not depend on timings");
    }

    #[test]
    fn records_from_worker_threads_land_in_registry() {
        let _l = test_lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| record("test.threaded", ScopeKind::Forward, 7, 1));
            }
        });
        let snap = snapshot();
        let rec = snap.iter().find(|r| r.name == "test.threaded").unwrap();
        assert_eq!(rec.calls, 4);
        assert_eq!(rec.total_ns, 28);
        reset();
    }

    #[test]
    fn op_record_serializes_and_parses() {
        let rec = OpRecord::new(
            "matmul".into(),
            "forward".into(),
            Stat { calls: 12, total_ns: 3456, flops: 7890 },
        );
        let json = serde_json::to_string(&rec).unwrap();
        let back: OpRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        assert!(rec.gflops > 0.0);
        assert!((rec.mean_ns - 3456.0 / 12.0).abs() < 1e-9);
    }
}
