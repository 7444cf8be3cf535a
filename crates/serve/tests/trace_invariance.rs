//! Tracing must be a pure observer: a serve engine run with request tracing
//! enabled has to produce bitwise-identical query results, identical append
//! outcomes, and identical status counters to the same workload with
//! tracing disabled. Mirror of `crates/core/tests/metrics_invariance.rs`
//! for the flight recorder added in the tracing PR — spans only ever read
//! already-computed wall-clock scalars and ids, never tensor data, and this
//! locks that in.
//!
//! The traced pass also checks what tracing records for that workload: each
//! request's span tree, the exemplar link from the serving histograms into
//! the flight recorder, and the queue and stream metrics beside them.
//!
//! Kept as a single test function: the trace enable flag and the metrics
//! registry are process-global, and this integration-test binary owns its
//! process.

use tmn_core::{ModelConfig, ModelKind};
use tmn_obs::{export, metrics, trace, TraceConfig};
use tmn_serve::{ServeConfig, ServeEngine, ShardSetConfig, COMPACT_MIN, COMPACT_RATIO};
use tmn_traj::{Point, Trajectory};

fn traj(seed: u64, len: usize) -> Trajectory {
    let pts = (0..len)
        .map(|i| {
            let h = tmn_index::splitmix64(seed * 131 + i as u64);
            Point { lon: (h % 1000) as f64 / 1000.0, lat: ((h >> 10) % 1000) as f64 / 1000.0 }
        })
        .collect();
    Trajectory::new(pts)
}

const MCFG: ModelConfig = ModelConfig { dim: 16, seed: 7 };

fn cfg() -> ServeConfig {
    ServeConfig {
        shard: ShardSetConfig { shards: 2, shortlist: 32 },
        max_batch: 8,
        ..Default::default()
    }
}

/// Ranked results with distances as raw f64 bits, so comparisons are
/// bitwise rather than approximate.
type RankedBits = Vec<Vec<(u64, u64)>>;

/// Run the full mixed workload — inserts, deletes, ad-hoc + by-id queries,
/// stream appends — and return every observable result.
fn run_workload() -> (RankedBits, Vec<String>, (usize, usize, usize)) {
    let engine = ServeEngine::start(ModelKind::TmnNm, &MCFG, cfg()).unwrap();
    let h = engine.handle();
    for i in 0..160u64 {
        h.insert(i, traj(i, 8 + (i % 5) as usize)).unwrap();
    }
    h.delete(11).unwrap();
    // A streamed re-insert updates its node in place, so only deletes
    // leave tombstones. Id 4's shard holds at least COMPACT_MIN nodes, and
    // just over COMPACT_RATIO of them go, so its first re-index rebuilds it.
    let shards = engine.shards();
    let same_shard = |id: &u64| shards.shard_of(*id) == shards.shard_of(4);
    let nodes = (0..160u64).filter(same_shard).count();
    assert!(nodes >= COMPACT_MIN, "id 4's shard holds only {nodes} nodes");
    let doomed = (COMPACT_RATIO * nodes as f64) as usize + 1;
    let mates: Vec<u64> = (32..160).filter(same_shard).take(doomed).collect();
    assert_eq!(mates.len(), doomed, "too few of ids 32..160 share id 4's shard");
    for id in mates {
        h.delete(id).unwrap();
    }

    let mut results: RankedBits = Vec::new();
    let mut outcomes: Vec<String> = Vec::new();
    for q in [traj(3, 9), traj(77, 11), traj(200, 7)] {
        let ranked = h.query(q, 5).unwrap();
        results.push(ranked.into_iter().map(|(id, d)| (id, d.to_bits())).collect());
    }
    for id in [0u64, 17, 31] {
        let ranked = h.query_id(id, 5).unwrap();
        results.push(ranked.into_iter().map(|(id, d)| (id, d.to_bits())).collect());
    }
    for step in 0..12u64 {
        let out = h.append_point(4, Point { lon: 0.1 + 0.07 * step as f64, lat: 0.3 }).unwrap();
        outcomes.push(format!("{out:?}"));
    }
    let ranked = h.query(traj(4, 9), 8).unwrap();
    results.push(ranked.into_iter().map(|(id, d)| (id, d.to_bits())).collect());

    let st = h.status().unwrap();
    let shape = (st.corpus, st.cache_entries, st.streams);
    engine.shutdown();
    (results, outcomes, shape)
}

#[test]
fn tracing_on_and_off_serve_identically() {
    trace::set_enabled(false);
    trace::reset();
    let (off_results, off_outcomes, off_shape) = run_workload();
    assert_eq!(trace::stats().started, 0, "disabled tracer must record nothing");

    // Capture-all, with a flight ring large enough that no trace of the
    // workload is evicted. Fresh metrics, so no exemplar or count below
    // comes from the untraced pass above.
    trace::configure(TraceConfig {
        span_ring: 8192,
        flight: 256,
        slow_threshold_ns: 0,
        sample_every: 1,
    });
    trace::set_enabled(true);
    trace::reset();
    metrics::set_enabled(true);
    metrics::reset();
    let (on_results, on_outcomes, on_shape) = run_workload();
    let stats = trace::stats();
    trace::set_enabled(false);

    assert!(stats.started > 0, "enabled tracer must have seen the requests");
    assert!(stats.flight_len > 0, "capture-all config must have kept traces");
    let traced_query = trace::recent()
        .into_iter()
        .find(|t| t.name == "serve.query")
        .expect("a serve.query trace must be captured");
    assert!(traced_query.is_well_formed());
    assert_eq!(stats.started, stats.finished, "no request may leak an unfinished trace");
    assert_eq!(
        stats.kept_slow + stats.kept_sampled,
        stats.finished,
        "capture-all config must keep every finished request"
    );

    // A query's tree: queue wait, the shared embed and the scatter-gather
    // search under the root; per-shard knn and rerank plus the merge under
    // the search.
    let root = traced_query.root();
    let wait = traced_query.span_named("serve.queue_wait").expect("queue-wait span");
    assert_eq!(wait.parent, root.span, "queue wait hangs off the request root");
    assert!(
        wait.attrs.iter().any(|a| a.key == "batch_id")
            && wait.attrs.iter().any(|a| a.key == "batch_size"),
        "queue-wait span must carry batch id + size: {:?}",
        wait.attrs
    );
    let embed = traced_query.span_named("serve.embed").expect("embed span");
    assert_eq!(embed.parent, root.span);
    let search = traced_query.span_named("serve.search").expect("search span");
    assert_eq!(search.parent, root.span);
    let shards = cfg().shard.shards;
    let knn = traced_query.spans_named("shard.knn");
    let rerank = traced_query.spans_named("shard.rerank");
    assert_eq!(knn.len(), shards, "one knn span per shard");
    assert_eq!(rerank.len(), shards, "one rerank span per shard");
    for s in knn.iter().chain(rerank.iter()) {
        assert_eq!(s.parent, search.span, "shard spans nest under the scatter-gather span");
    }
    let merge = traced_query.span_named("serve.merge").expect("merge span");
    assert_eq!(merge.parent, search.span, "merge is grouped under the scatter-gather span");

    // The append path records its own stages.
    let traces = trace::recent();
    let appends: Vec<_> = traces.iter().filter(|t| t.name == "serve.append").collect();
    assert_eq!(appends.len(), on_outcomes.len(), "one trace per append");
    for (i, a) in appends.iter().enumerate() {
        assert!(a.is_well_formed(), "append trace {i} malformed");
        assert!(a.span_named("stream.step").is_some(), "append {i} lacks stream.step");
        if i > 0 {
            assert!(a.span_named("stream.delta").is_some(), "append {i} lacks stream.delta");
        }
        assert!(a.span_named("stream.reindex").is_some(), "append {i} lacks stream.reindex");
    }

    // The first re-insert into a shard whose deletes passed its tombstone
    // ratio rebuilds it inside the append, and the rebuild's span names
    // that tail. Re-inserts leave no tombstone, so no later append
    // rebuilds again.
    let compactions: Vec<_> =
        appends.iter().filter_map(|a| Some((a, a.span_named("shard.compact")?))).collect();
    assert_eq!(compactions.len(), 1, "exactly one append must compact its shard");
    let (a, compact) = compactions[0];
    let reindex = a.span_named("stream.reindex").expect("checked above");
    assert_eq!(compact.parent, reindex.span, "the rebuild nests under the re-index");
    for key in ["live", "tombstones"] {
        assert!(compact.attrs.iter().any(|a| a.key == key), "shard.compact lacks {key}");
    }

    // Only re-indexed appends count as re-indexes: under an unreachable
    // `reembed_min_delta` a stream's first append re-indexes and the rest
    // skip the index. Run untraced, after the traced workload.
    let filtered = ServeEngine::start(
        ModelKind::TmnNm,
        &MCFG,
        ServeConfig { reembed_min_delta: f64::MAX, ..cfg() },
    )
    .unwrap();
    let fh = filtered.handle();
    let mut appended_outcomes = on_outcomes.clone();
    for &p in traj(9, 5).points() {
        appended_outcomes.push(format!("{:?}", fh.append_point(900, p).unwrap()));
    }
    filtered.shutdown();

    // Exemplar linkage: each serving histogram names a trace that the
    // flight recorder (capture-all, nothing evicted) holds.
    let snap = metrics::snapshot();
    for name in ["query_embed_ns", "query_index_ns", "query_rank_ns", "append_ns"] {
        let hist = snap.histogram(name).unwrap_or_else(|| panic!("{name} histogram missing"));
        let id = hist
            .exemplar_trace_id
            .unwrap_or_else(|| panic!("{name} lacks an exemplar trace id"));
        assert!(
            trace::find(id).is_some(),
            "{name} exemplar names trace {id}, which the flight recorder does not hold"
        );
        assert!(hist.exemplar_ns.unwrap_or(0) > 0, "{name} exemplar value must be observed");
    }

    // Queue accounting flows alongside the traces.
    assert!(snap.gauge(tmn_serve::SERVE_QUEUE_DEPTH).is_some(), "queue depth gauge missing");
    let wait_h = snap.histogram(tmn_serve::SERVE_QUEUE_WAIT_NS).expect("queue wait histogram");
    assert!(wait_h.count >= stats.finished, "every request passes the admission queue");

    // Stream counters account for every append (outcomes are the Debug
    // renderings of each `AppendOutcome`).
    let appended = appended_outcomes.len() as u64;
    let reindexed =
        appended_outcomes.iter().filter(|o| o.contains("reindexed: true")).count() as u64;
    assert!(reindexed < appended, "the filtered engine must skip some re-indexes");
    assert_eq!(snap.counter(tmn_serve::STREAM_APPENDS_TOTAL), Some(appended), "append counter");
    assert_eq!(snap.counter(tmn_serve::STREAM_REINDEX_TOTAL), Some(reindexed), "reindex counter");
    let append_h = snap.histogram(tmn_serve::APPEND_NS).expect("append_ns histogram");
    assert_eq!(append_h.count, appended, "append_ns histogram count");
    let prom = export::to_prometheus(&snap);
    for needle in [
        format!("tmn_stream_appends_total {appended}\n"),
        format!("tmn_stream_reindex_total {reindexed}\n"),
        "tmn_append_ns".to_string(),
    ] {
        assert!(prom.contains(&needle), "exposition lacks {needle}:\n{prom}");
    }

    assert_eq!(off_results, on_results, "tracing changed query results bitwise");
    assert_eq!(off_outcomes, on_outcomes, "tracing changed append outcomes");
    assert_eq!(off_shape, on_shape, "tracing changed engine status counters");

    trace::configure(TraceConfig::default());
    trace::reset();
}
