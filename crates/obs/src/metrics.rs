//! Process-global serving/training metrics registry: counters, gauges, and
//! log-linear latency histograms.
//!
//! The [`profiler`](crate::profiler) answers "where does the time go inside
//! one run"; this module answers the serving questions — how many queries,
//! what tail latency, what memory watermark — and exports them through one
//! surface ([`crate::export`]: Prometheus text format and a JSON snapshot).
//!
//! ## Bucket scheme (log-linear)
//!
//! Histograms record `u64` nanosecond values into log-linear buckets: each
//! power-of-two octave `[2^e, 2^(e+1))` is divided into `16` linear
//! sub-buckets (values below 16 ns get exact single-integer buckets).
//! Values at or above `2^40` ns (≈ 18.3 minutes) saturate into one overflow
//! bucket. The whole array is 593 fixed buckets, so merging histograms
//! across threads is an exact integer addition — no sampling, no sketch
//! error, deterministic regardless of merge order.
//!
//! ## Quantile error bound
//!
//! `quantile(q)` walks the cumulative bucket counts to the bucket containing
//! the rank-`ceil(q·n)` observation and reports that bucket's largest
//! possible value (clamped to the exactly-tracked maximum). Because every
//! regular bucket spans at most 1/16 of its lower bound, the estimate never
//! undershoots the exact order statistic and overshoots it by **at most
//! 1/16 = 6.25 % relative** (exact below 16 ns, where buckets are single
//! integers). Quantiles that land in the overflow bucket report the exact
//! observed maximum instead; the relative bound does not apply there.
//! `count`, `sum`, `min` and `max` are always exact. These bounds are locked
//! in against a sorted-sample oracle by `crates/obs/tests/histogram_oracle.rs`.
//!
//! ## Cost and invariance
//!
//! Recording is a mutex-guarded hash-map update per observation — metrics
//! are for *per-query / per-batch* granularity, not per-op (that is the
//! profiler's job). The registry is enabled by default; when disabled every
//! entry point is a single relaxed atomic load. Either way no metrics path
//! reads or writes tensor data, so recording can never perturb numerics
//! (`crates/core/tests/metrics_invariance.rs`).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Sub-buckets per power-of-two octave, as a bit count (2^4 = 16).
const SUB_BUCKET_BITS: u32 = 4;
/// Sub-buckets per octave. The quantile error bound is 1/SUB_BUCKETS.
pub const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Largest bucketed exponent: values in `[2^MAX_EXP, 2^(MAX_EXP+1))` still
/// get regular buckets; anything `>= 2^(MAX_EXP+1)` overflows.
const MAX_EXP: u32 = 39;
/// First value that saturates into the overflow bucket (2^40 ns ≈ 18.3 min).
pub const OVERFLOW_THRESHOLD_NS: u64 = 1 << (MAX_EXP + 1);
/// Regular (non-overflow) bucket count.
const NUM_REGULAR: usize = (MAX_EXP - SUB_BUCKET_BITS + 2) as usize * SUB_BUCKETS as usize;
/// Index of the overflow bucket.
const OVERFLOW_IDX: usize = NUM_REGULAR;
/// Total bucket count (regular + overflow).
pub const NUM_BUCKETS: usize = NUM_REGULAR + 1;

/// Bucket index for a value (see module docs for the scheme).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e > MAX_EXP {
        return OVERFLOW_IDX;
    }
    let base = (e - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS as usize;
    base + ((v - (1u64 << e)) >> (e - SUB_BUCKET_BITS)) as usize
}

/// `[lo, hi)` value range of a regular bucket; the overflow bucket reports
/// `[OVERFLOW_THRESHOLD_NS, u64::MAX)`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NUM_BUCKETS, "bucket index {idx} out of range");
    if idx == OVERFLOW_IDX {
        return (OVERFLOW_THRESHOLD_NS, u64::MAX);
    }
    let q = (idx as u64) >> SUB_BUCKET_BITS;
    let r = idx as u64 & (SUB_BUCKETS - 1);
    if q == 0 {
        (r, r + 1)
    } else {
        let e = q - 1 + SUB_BUCKET_BITS as u64;
        let w = 1u64 << (e - SUB_BUCKET_BITS as u64);
        let lo = (1u64 << e) + r * w;
        (lo, lo + w)
    }
}

/// A trace-id exemplar: the most recent observation that landed in the
/// histogram's highest-so-far bucket, with the id of the trace that made it
/// (see [`crate::trace`]). This is what links "p99 regressed" to a concrete
/// recorded request: the exported snapshot of a latency histogram names a
/// trace the flight recorder can look up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Trace id recorded next to the observation (never 0).
    pub trace_id: u64,
    /// The observed value itself, nanoseconds.
    pub value_ns: u64,
    /// Bucket index of `value_ns` — the "height" the exemplar holds.
    pub bucket: usize,
}

/// A log-linear latency histogram (standalone; the global registry stores
/// one per name, but workers may also keep private ones and [`merge`] them).
///
/// [`merge`]: Histogram::merge
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    exemplar: Option<Exemplar>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            exemplar: None,
        }
    }

    /// Record one value (nanoseconds).
    pub fn observe(&mut self, v: u64) {
        self.observe_traced(v, 0);
    }

    /// Record one value and, when `trace_id` is non-zero, offer it as the
    /// histogram's exemplar. The exemplar keeps the **most recent
    /// observation at the highest bucket seen so far**: a traced value whose
    /// bucket ties or beats the current exemplar's replaces it, so after a
    /// latency spike the exemplar names a trace from the top of the
    /// distribution, and repeated spikes keep it fresh.
    pub fn observe_traced(&mut self, v: u64, trace_id: u64) {
        let bucket = bucket_index(v);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if trace_id != 0 {
            let replace = match self.exemplar {
                None => true,
                Some(e) => bucket >= e.bucket,
            };
            if replace {
                self.exemplar = Some(Exemplar { trace_id, value_ns: v, bucket });
            }
        }
    }

    /// The current exemplar, if any traced observation has been recorded.
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar
    }

    /// Exact merge: bucket-wise integer addition, so the result is identical
    /// no matter how observations were partitioned across threads or in
    /// which order partial histograms are merged. Exemplars are combined by
    /// max of `(bucket, value_ns, trace_id)` — a commutative rule, so merge
    /// order cannot change the surviving exemplar either.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.exemplar = match (self.exemplar, other.exemplar) {
            (Some(a), Some(b)) => {
                let key = |e: Exemplar| (e.bucket, e.value_ns, e.trace_id);
                Some(if key(b) > key(a) { b } else { a })
            }
            (a, b) => a.or(b),
        };
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Quantile estimate for `q ∈ [0, 1]` — see the module docs for the
    /// error bound. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                if idx == OVERFLOW_IDX {
                    // Bucket spans up to u64::MAX; the exact max is the only
                    // honest answer (error bound does not apply here).
                    return self.max;
                }
                let (_, hi) = bucket_bounds(idx);
                // Largest value the bucket can hold, clamped to the exact
                // max: never below the true order statistic, at most 1/16
                // relative above it.
                return (hi - 1).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples (hi exclusive).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

// ---- global registry -------------------------------------------------------

#[derive(Default)]
struct Inner {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, f64>,
    histograms: HashMap<&'static str, Histogram>,
}

static ENABLED: AtomicBool = AtomicBool::new(true);

fn registry() -> &'static Mutex<Inner> {
    static REGISTRY: OnceLock<Mutex<Inner>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Inner::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Inner> {
    // A panic while holding the lock only loses metric data; keep going.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Turn recording on or off for the whole process (default: on).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric entry points currently record. One relaxed load — the
/// entire cost of instrumentation on the disabled path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every counter, gauge and histogram (the enabled flag is untouched).
pub fn reset() {
    let mut reg = lock();
    reg.counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
}

/// Add `delta` to a monotonically increasing counter.
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *lock().counters.entry(name).or_insert(0) += delta;
}

/// Set a gauge to its latest value (last write wins).
pub fn gauge_set(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    lock().gauges.insert(name, value);
}

/// Record one latency observation (nanoseconds) carrying the trace id of
/// the request that produced it (0 = untraced; see
/// [`Histogram::observe_traced`] for the exemplar-retention rule). A
/// [`Span`](crate::span::Span) with a histogram sink calls this at close
/// with its own trace id, so exported histograms point p99 hunters at a
/// concrete flight-recorded trace; call it directly only for values derived
/// from spans (sums, differences), never for a separately timed interval.
pub fn observe_ns_traced(name: &'static str, ns: u64, trace_id: u64) {
    if !is_enabled() {
        return;
    }
    lock().histograms.entry(name).or_default().observe_traced(ns, trace_id);
}

/// Exactly merge a thread-local histogram into the named global one.
pub fn merge_histogram(name: &'static str, h: &Histogram) {
    if !is_enabled() {
        return;
    }
    lock().histograms.entry(name).or_default().merge(h);
}

// ---- snapshots -------------------------------------------------------------

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    pub name: String,
    pub value: f64,
}

/// One non-empty histogram bucket: `[lo_ns, hi_ns)` (the overflow bucket
/// reports `hi_ns = u64::MAX`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    pub lo_ns: u64,
    pub hi_ns: u64,
    pub count: u64,
}

/// One histogram at snapshot time: exact counters plus quantile estimates
/// derived at snapshot time (see module docs for the 1/16 error bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Trace id of the exemplar observation (see [`Exemplar`]); `None` when
    /// nothing traced has been recorded.
    pub exemplar_trace_id: Option<u64>,
    /// The exemplar's observed value, nanoseconds.
    pub exemplar_ns: Option<u64>,
    /// Sparse: only non-empty buckets, in ascending value order.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    /// Snapshot one histogram under a given name.
    pub fn from_histogram(name: &str, h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum(),
            min_ns: h.min(),
            max_ns: h.max(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            exemplar_trace_id: h.exemplar().map(|e| e.trace_id),
            exemplar_ns: h.exemplar().map(|e| e.value_ns),
            buckets: h
                .nonzero_buckets()
                .into_iter()
                .map(|(lo, hi, count)| BucketSnapshot { lo_ns: lo, hi_ns: hi, count })
                .collect(),
        }
    }

    /// Mean observed value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// The whole registry at one instant, sorted by name for determinism.
/// Serializable both into results JSON (`serde`) and Prometheus text
/// ([`crate::export::to_prometheus`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Copy of the registry (enabled or not — snapshots always read).
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock();
    let mut counters: Vec<CounterSnapshot> = reg
        .counters
        .iter()
        .map(|(&name, &value)| CounterSnapshot { name: name.to_string(), value })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut gauges: Vec<GaugeSnapshot> = reg
        .gauges
        .iter()
        .map(|(&name, &value)| GaugeSnapshot { name: name.to_string(), value })
        .collect();
    gauges.sort_by(|a, b| a.name.cmp(&b.name));
    let mut histograms: Vec<HistogramSnapshot> =
        reg.histograms.iter().map(|(&name, h)| HistogramSnapshot::from_histogram(name, h)).collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { counters, gauges, histograms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn bucket_bounds_roundtrip_every_index() {
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx, "lo of bucket {idx}");
            assert_eq!(bucket_index(hi - 1), idx, "hi-1 of bucket {idx}");
            if idx + 1 < NUM_BUCKETS {
                assert_eq!(bucket_bounds(idx + 1).0, hi, "buckets must tile contiguously");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), OVERFLOW_IDX);
        assert_eq!(bucket_index(OVERFLOW_THRESHOLD_NS), OVERFLOW_IDX);
        assert_eq!(bucket_index(OVERFLOW_THRESHOLD_NS - 1), OVERFLOW_IDX - 1);
    }

    #[test]
    fn bucket_width_within_error_bound() {
        // Every regular bucket above the linear region spans at most
        // lo/SUB_BUCKETS — the quantile error bound's load-bearing fact.
        for idx in SUB_BUCKETS as usize..NUM_REGULAR {
            let (lo, hi) = bucket_bounds(idx);
            assert!((hi - lo) * SUB_BUCKETS <= lo, "bucket {idx} too wide: [{lo}, {hi})");
        }
    }

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [3u64, 17, 1000, 1_000_000, 3] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_001_023);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(Histogram::new().min(), 0);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let vals: Vec<u64> = (0..200).map(|i| (i * i * 7919) % 100_000).collect();
        let mut whole = Histogram::new();
        vals.iter().for_each(|&v| whole.observe(v));

        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in vals.iter().enumerate() {
            if i % 2 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole, "split+merge must equal direct observation");
        assert_eq!(ba, whole, "merge order must not matter");
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = test_lock();
        set_enabled(false);
        reset();
        counter_add("test.off_counter", 1);
        gauge_set("test.off_gauge", 1.0);
        observe_ns_traced("test.off_hist", 100, 0);
        let snap = snapshot();
        set_enabled(true);
        assert!(snap.counter("test.off_counter").is_none());
        assert!(snap.gauge("test.off_gauge").is_none());
        assert!(snap.histogram("test.off_hist").is_none());
    }

    #[test]
    fn registry_accumulates_and_snapshots_sorted() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        counter_add("test.b_counter", 2);
        counter_add("test.a_counter", 1);
        counter_add("test.b_counter", 3);
        gauge_set("test.gauge", 1.5);
        gauge_set("test.gauge", 2.5);
        for ns in [10u64, 20, 30] {
            observe_ns_traced("test.hist", ns, 0);
        }
        let snap = snapshot();
        reset();
        assert_eq!(snap.counter("test.b_counter"), Some(5));
        assert_eq!(snap.counter("test.a_counter"), Some(1));
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "counters sorted by name");
        assert_eq!(snap.gauge("test.gauge"), Some(2.5), "gauge keeps last write");
        let h = snap.histogram("test.hist").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 60);
        assert_eq!((h.min_ns, h.max_ns), (10, 30));
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 3);
    }

    #[test]
    fn threaded_observations_merge_exactly() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..50u64 {
                        observe_ns_traced("test.threaded", t * 1000 + i * 13, 0);
                        counter_add("test.threaded_total", 1);
                    }
                });
            }
        });
        let snap = snapshot();
        reset();
        // Serial reference: same 200 values observed on one thread.
        let mut reference = Histogram::new();
        for t in 0..4u64 {
            for i in 0..50u64 {
                reference.observe(t * 1000 + i * 13);
            }
        }
        let h = snap.histogram("test.threaded").unwrap();
        assert_eq!(h.count, reference.count());
        assert_eq!(h.sum_ns, reference.sum());
        assert_eq!(h.max_ns, reference.max());
        assert_eq!(
            h.buckets.iter().map(|b| (b.lo_ns, b.hi_ns, b.count)).collect::<Vec<_>>(),
            reference.nonzero_buckets(),
            "threaded bucket contents must equal the serial reference exactly"
        );
        assert_eq!(snap.counter("test.threaded_total"), Some(200));
    }

    #[test]
    fn exemplar_keeps_most_recent_highest_bucket() {
        let mut h = Histogram::new();
        h.observe(5_000); // untraced: no exemplar
        assert_eq!(h.exemplar(), None);
        h.observe_traced(1_000, 7);
        assert_eq!(h.exemplar().unwrap().trace_id, 7);
        h.observe_traced(900_000, 8); // higher bucket wins
        assert_eq!(h.exemplar().unwrap(), Exemplar {
            trace_id: 8,
            value_ns: 900_000,
            bucket: bucket_index(900_000)
        });
        h.observe_traced(2_000, 9); // lower bucket: exemplar unchanged
        assert_eq!(h.exemplar().unwrap().trace_id, 8);
        h.observe_traced(900_001, 10); // same bucket, more recent: replaced
        assert_eq!(h.exemplar().unwrap().trace_id, 10);
        assert_eq!(h.count(), 5, "exemplar bookkeeping must not alter counts");
    }

    #[test]
    fn exemplar_merge_is_order_independent() {
        let mut a = Histogram::new();
        a.observe_traced(50_000, 3);
        let mut b = Histogram::new();
        b.observe_traced(800_000, 4);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.exemplar(), ba.exemplar());
        assert_eq!(ab.exemplar().unwrap().trace_id, 4, "higher bucket survives the merge");
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty.exemplar().unwrap().trace_id, 3);
    }

    #[test]
    fn traced_observation_surfaces_in_snapshot() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        observe_ns_traced("test.exemplar_hist", 10, 0);
        observe_ns_traced("test.exemplar_hist", 123_456, 42);
        let snap = snapshot();
        reset();
        let h = snap.histogram("test.exemplar_hist").unwrap();
        assert_eq!(h.exemplar_trace_id, Some(42));
        assert_eq!(h.exemplar_ns, Some(123_456));
        assert_eq!(h.count, 2);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut h = Histogram::new();
        for v in [5u64, 500, 50_000, OVERFLOW_THRESHOLD_NS + 7] {
            h.observe(v);
        }
        h.observe_traced(40_000, 11); // exemplar fields must round-trip too
        let snap = MetricsSnapshot {
            counters: vec![CounterSnapshot { name: "c".into(), value: u64::MAX }],
            gauges: vec![GaugeSnapshot { name: "g".into(), value: -1.25 }],
            histograms: vec![HistogramSnapshot::from_histogram("h", &h)],
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.histograms[0].buckets.last().unwrap().hi_ns, u64::MAX);
    }
}
