//! Timing harness for the efficiency study (Table III): exact-metric
//! computation time, model training time per epoch, per-trajectory
//! inference time, and per-pair similarity computation time.

use std::time::Instant;
use tmn_core::PairModel;
use tmn_obs::{metrics, trace, ScopeKind};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::Trajectory;

/// Registry names for the serving-path metrics (see DESIGN.md §8). One
/// histogram observation per query span; for independent-embedding models
/// the embed/index spans cover the whole batch and are recorded once per
/// search call (documented on [`time_search_phases_detailed`]).
pub const QUERY_EMBED_NS: &str = "query_embed_ns";
pub const QUERY_INDEX_NS: &str = "query_index_ns";
pub const QUERY_RANK_NS: &str = "query_rank_ns";
pub const QUERIES_TOTAL: &str = "queries_total";

/// One row of the efficiency table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EfficiencyRow {
    pub method: String,
    /// Seconds per training epoch (None for exact metrics).
    pub training_s: Option<f64>,
    /// Seconds to encode one trajectory on the serving path — the tape-free
    /// forward when the model has one (None for exact metrics).
    pub inference_s: Option<f64>,
    /// Seconds to encode one trajectory through the graphed autograd
    /// forward. Reported alongside `inference_s` so the table separates
    /// model cost from graph-construction overhead — a single conflated
    /// number is how the original 0.072 s vs 0.00059 s asymmetry got
    /// quoted with autograd bookkeeping silently included.
    pub inference_graphed_s: Option<f64>,
    /// Seconds to compute one (pairwise) similarity.
    pub computation_s: f64,
    /// How many similarity evaluations `computation_s` was averaged over
    /// (None when the row predates counted timing).
    pub computation_ops: Option<u64>,
}

/// Wall-clock seconds to compute all pairwise distances of `trajs` under
/// `metric`, plus the number of pair evaluations performed — the per-pair
/// mean is `secs / pairs` with no re-derived denominator.
pub fn time_exact_pairwise_counted(
    trajs: &[Trajectory],
    metric: Metric,
    params: &MetricParams,
) -> (f64, u64) {
    let start = Instant::now();
    let mut acc = 0.0f64;
    let mut pairs = 0u64;
    for (i, a) in trajs.iter().enumerate() {
        for b in trajs.iter().skip(i + 1) {
            acc += metric.distance(a, b, params);
            pairs += 1;
        }
    }
    // Keep the accumulation observable so the loop cannot be optimized out.
    std::hint::black_box(acc);
    (start.elapsed().as_secs_f64(), pairs)
}

/// Total wall-clock seconds to encode every trajectory with `model`
/// (batched, amortized), plus the number of trajectories encoded. For
/// pair-dependent models this measures self-paired encoding, matching how
/// the paper reports TMN's per-trajectory inference cost.
///
/// Measures the serving path: `encode_all` runs the tape-free forward, so
/// the number excludes autograd graph construction.
pub fn time_inference_per_trajectory_counted(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    batch_size: usize,
) -> (f64, u64) {
    let start = Instant::now();
    let emb = crate::search::encode_all(model, trajs, batch_size);
    std::hint::black_box(&emb);
    (start.elapsed().as_secs_f64(), trajs.len() as u64)
}

/// Mean seconds to compute the Euclidean similarity of two `d`-dim
/// embeddings (the learning-based "Computation" entry; effectively O(d)).
pub fn time_embedding_distance(dim: usize, reps: usize) -> f64 {
    let a: Vec<f32> = (0..dim).map(|i| i as f32 * 0.01).collect();
    let b: Vec<f32> = (0..dim).map(|i| i as f32 * 0.02).collect();
    let start = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..reps.max(1) {
        acc += crate::search::embedding_distance(&a, &b);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Wall-clock breakdown of an end-to-end top-k similarity search.
///
/// "Embed" covers model encoding (for pair-dependent models, all per-query
/// pair encodings), "index" covers building the [`crate::EmbeddingStore`]
/// (zero for pair-dependent models, which cannot be pre-indexed), and "rank"
/// covers nearest-neighbor scanning/ordering.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SearchPhases {
    pub embed_s: f64,
    pub index_s: f64,
    pub rank_s: f64,
    pub queries: usize,
}

impl SearchPhases {
    pub fn total_s(&self) -> f64 {
        self.embed_s + self.index_s + self.rank_s
    }

    /// Fraction of total time in each phase, `(embed, index, rank)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total_s().max(1e-12);
        (self.embed_s / t, self.index_s / t, self.rank_s / t)
    }
}

/// Exact per-span nanosecond latencies measured by one
/// [`time_search_phases_detailed`] call — the very samples fed into the
/// metrics registry histograms, returned so tests can validate exported
/// quantiles against a sorted-sample oracle.
#[derive(Debug, Clone, Default)]
pub struct QueryLatencies {
    /// Per-query embed spans (pair-dependent models), or one whole-batch
    /// span (independent models).
    pub embed_ns: Vec<u64>,
    /// One whole-batch index-build span (independent models only; empty
    /// for pair-dependent models, which cannot be pre-indexed).
    pub index_ns: Vec<u64>,
    /// Per-query rank spans.
    pub rank_ns: Vec<u64>,
}

/// Run a full top-k search for `queries` (database indices) over `trajs`
/// and report per-phase timings, each query's `(index, distance)` result
/// list (self included), and the exact per-span latencies behind the
/// timings (the metrics-histogram oracle used by `tests/serving_metrics.rs`).
///
/// Independent-embedding models go through encode → store-build → k-NN scan;
/// pair-dependent models (TMN) pay the encoding per query and skip the
/// index phase entirely — the cost asymmetry of the paper's Table III.
///
/// Every stage is one span: `eval.embed` feeds [`QUERY_EMBED_NS`],
/// `eval.index` feeds [`QUERY_INDEX_NS`] and `eval.rank` feeds
/// [`QUERY_RANK_NS`], one observation per span — per query for embed (pair-
/// dependent models) and rank, one whole-batch embed/index observation per
/// call for independent models — and [`QUERIES_TOTAL`] advances by the
/// query count. When [`tmn_obs::trace`] is enabled, the call is an
/// `eval.search` request whose tree holds the same spans, so offline
/// evaluation lands in the flight recorder exactly like live serve
/// traffic, and histogram exemplars name that trace. The `eval.search` root
/// is also the call's profiler phase.
pub fn time_search_phases_detailed(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    queries: &[usize],
    k: usize,
    batch_size: usize,
) -> (SearchPhases, Vec<Vec<(usize, f64)>>, QueryLatencies) {
    let req = trace::request_begin("eval.search").profile(ScopeKind::Phase, 0);
    let _ambient = trace::attach(req.ctx());
    let mut lat = QueryLatencies::default();
    metrics::counter_add(QUERIES_TOTAL, queries.len() as u64);
    let results = if model.is_pair_dependent() {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
        for &q in queries {
            let span = trace::span("eval.embed").attr("query", q as u64).histogram(QUERY_EMBED_NS);
            rows.push(crate::search::pairwise_query_distances(model, &trajs[q], trajs, batch_size));
            lat.embed_ns.push(span.finish());
        }
        let mut results = Vec::with_capacity(rows.len());
        for row in &rows {
            let span = trace::span("eval.rank")
                .attr("candidates", row.len() as u64)
                .histogram(QUERY_RANK_NS);
            let mut idx: Vec<usize> = (0..row.len()).collect();
            idx.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap().then(a.cmp(&b)));
            idx.truncate(k);
            results.push(idx.into_iter().map(|i| (i, row[i])).collect());
            lat.rank_ns.push(span.finish());
        }
        results
    } else {
        let span =
            trace::span("eval.embed").attr("trajs", trajs.len() as u64).histogram(QUERY_EMBED_NS);
        let emb = crate::search::encode_all(model, trajs, batch_size);
        lat.embed_ns.push(span.finish());
        let span =
            trace::span("eval.index").attr("vectors", emb.len() as u64).histogram(QUERY_INDEX_NS);
        let store = crate::EmbeddingStore::from_vectors(&emb);
        lat.index_ns.push(span.finish());
        let mut results = Vec::with_capacity(queries.len());
        for &q in queries {
            let span = trace::span("eval.rank").attr("query", q as u64).histogram(QUERY_RANK_NS);
            results.push(store.knn_exact(&emb[q], k));
            lat.rank_ns.push(span.finish());
        }
        results
    };
    let secs = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
    let phases = SearchPhases {
        embed_s: secs(&lat.embed_ns),
        index_s: secs(&lat.index_ns),
        rank_s: secs(&lat.rank_ns),
        queries: queries.len(),
    };
    (phases, results, lat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_core::{ModelConfig, ModelKind};
    use tmn_traj::Point;

    fn trajs(n: usize, len: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| (0..len).map(|t| Point::new(0.01 * t as f64, 0.05 * i as f64)).collect())
            .collect()
    }

    #[test]
    fn exact_timing_positive_and_scales() {
        let (small, small_pairs) =
            time_exact_pairwise_counted(&trajs(6, 20), Metric::Dtw, &MetricParams::default());
        let (large, large_pairs) =
            time_exact_pairwise_counted(&trajs(12, 40), Metric::Dtw, &MetricParams::default());
        assert_eq!((small_pairs, large_pairs), (15, 66));
        assert!(small > 0.0);
        assert!(large > small, "more work must take longer: {small} vs {large}");
    }

    #[test]
    fn inference_timing_positive() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let (t, n) = time_inference_per_trajectory_counted(model.as_ref(), &trajs(4, 10), 4);
        assert!(t > 0.0 && t.is_finite());
        assert_eq!(n, 4);
    }

    #[test]
    fn search_phases_independent_model() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let ts = trajs(8, 10);
        let (phases, results, _) = time_search_phases_detailed(model.as_ref(), &ts, &[0, 3], 4, 4);
        assert_eq!(phases.queries, 2);
        assert!(phases.embed_s > 0.0 && phases.rank_s > 0.0);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), 4);
        // The query itself is its own nearest neighbor at distance ~0.
        assert_eq!(results[0][0].0, 0);
        assert!(results[0][0].1 < 1e-6);
        let (fe, fi, fr) = phases.fractions();
        assert!((fe + fi + fr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn search_phases_pair_dependent_model_skips_index() {
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 2 });
        let ts = trajs(6, 8);
        let (phases, results, _) = time_search_phases_detailed(model.as_ref(), &ts, &[1], 3, 3);
        assert_eq!(phases.index_s, 0.0, "pair-dependent search has no index phase");
        assert!(phases.embed_s > 0.0);
        assert_eq!(results[0].len(), 3);
        assert_eq!(results[0][0].0, 1, "self match must rank first");
    }

    #[test]
    fn search_records_trace_with_phase_spans() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let ts = trajs(8, 10);
        trace::configure(tmn_obs::TraceConfig {
            slow_threshold_ns: 0, // keep every request
            ..Default::default()
        });
        trace::set_enabled(true);
        let _ = time_search_phases_detailed(model.as_ref(), &ts, &[0, 3], 4, 4);
        trace::set_enabled(false);
        let snap = trace::recent()
            .into_iter()
            .find(|t| t.name == "eval.search")
            .expect("eval.search trace must be captured");
        assert!(snap.is_well_formed(), "span tree must reassemble");
        assert_eq!(snap.spans_named("eval.embed").len(), 1, "one whole-batch embed span");
        assert_eq!(snap.spans_named("eval.index").len(), 1);
        assert_eq!(snap.spans_named("eval.rank").len(), 2, "one rank span per query");
        trace::configure(tmn_obs::TraceConfig::default());
    }

    #[test]
    fn embedding_distance_is_microscopic() {
        let t = time_embedding_distance(128, 1000);
        assert!(t > 0.0);
        // O(d) distance must be far below a millisecond.
        assert!(t < 1e-3, "embedding distance took {t}s");
    }
}
