//! Training-throughput benchmark: serial vs data-parallel gradient steps,
//! naive-vs-blocked GEMM kernel microbenchmarks, and the tape-free
//! inference fast path (embed qps and per-call latency percentiles).
//!
//! Trains TMN under the paper's default recipe (batch of 64 pairs) at
//! several worker counts and reports steps/second; then times the scalar
//! reference kernels against the cache-blocked ones at a few GEMM shapes;
//! then benches `embed_nograd` against the graphed forward.
//!
//! Usage: `cargo run -p tmn-bench --release --bin throughput [--quick|--full]`
//!
//! Results land in `results/BENCH_throughput.json`.

use std::time::Instant;
use tmn::prelude::*;
use tmn_autograd::kernels;
use tmn_bench::{time_inference_split, write_json, Scale, Table};
use tmn_obs::metrics;

#[derive(serde::Serialize)]
struct TrainRow {
    threads: usize,
    steps_per_sec: f64,
    pairs_per_sec: f64,
    speedup_vs_serial: f64,
}

#[derive(serde::Serialize)]
struct KernelRow {
    kernel: String,
    m: usize,
    k: usize,
    n: usize,
    naive_gflops: f64,
    /// Cache-blocked kernel with SIMD dispatch forced to the scalar tile.
    scalar_gflops: f64,
    /// Cache-blocked kernel under the host's best dispatch (AVX2+FMA here).
    blocked_gflops: f64,
    speedup: f64,
    /// blocked (dispatched) over blocked (forced scalar): the SIMD win alone.
    simd_speedup: f64,
}

#[derive(serde::Serialize)]
struct InferRow {
    /// Active SIMD path ("avx2" / "scalar"). A string, so `bench_diff`
    /// reports it as informational rather than gating it — two captures on
    /// different hosts should not fail the gate over hardware.
    simd_dispatch: String,
    trajectories: usize,
    /// Tape-free trajectories embedded per second (batched encode, batch 16).
    infer_qps: f64,
    /// Graphed wall / tape-free wall over the same encode workload — the
    /// autograd overhead the serving path skips.
    nograd_speedup: f64,
    /// Single-pair `embed_nograd` latency percentiles in nanoseconds.
    embed_ns_p50: f64,
    embed_ns_p99: f64,
}

#[derive(serde::Serialize)]
struct ServeRow {
    shards: usize,
    corpus: usize,
    /// Vector-level inserts/second into the sharded incremental index
    /// (single writer; includes graph linking and any triggered compaction).
    insert_qps: f64,
    /// End-to-end engine queries/second through admission batching —
    /// includes the amortized `embed_nograd` forward, the scatter-gather
    /// shortlist and the exact rerank.
    batch_qps: f64,
    /// Data-plane query latency percentiles measured *under concurrent
    /// writer churn* (a writer thread inserts/deletes throughout).
    query_p50_ns: f64,
    query_p99_ns: f64,
    /// max/mean live shard occupancy after the run (1.0 = balanced).
    shard_imbalance: f64,
}

#[derive(serde::Serialize)]
struct StreamRow {
    /// Live streams driven concurrently through one engine.
    streams: usize,
    /// Points appended across all streams.
    appends: usize,
    /// End-to-end `append_point` calls/second through the engine thread
    /// (incremental stream step + conditional re-index + reply).
    appends_per_sec: f64,
    /// Per-append wall latency percentiles in nanoseconds, measured at the
    /// handle (includes the channel round-trip the serving path pays).
    append_ns_p50: f64,
    append_ns_p99: f64,
    /// Fraction of appends whose moved embedding was re-inserted into the
    /// index; the rest fell under `reembed_min_delta` and skipped the
    /// churn. Workload-dependent, so informational rather than gated.
    reindex_ratio: f64,
}

#[derive(serde::Serialize)]
struct TraceRow {
    /// Queries driven through the engine in each timed pass.
    traced_queries: usize,
    /// End-to-end batched queries/second with tracing disabled (the
    /// default): the near-zero-cost baseline.
    trace_off_qps: f64,
    /// Same workload with the flight recorder in capture-all mode
    /// (slow_threshold 0, sample_every 1) — the worst-case tracing cost;
    /// production configs sample and pay less.
    trace_on_qps: f64,
    /// (off - on) / off, in percent. Gated LowerBetter by `bench_diff`.
    overhead_pct: f64,
    /// Mean spans per captured query trace — how much detail the overhead
    /// above buys.
    spans_per_query: f64,
    /// Traces held by the flight recorder after the traced pass.
    flight_captured: usize,
}

#[derive(serde::Serialize, Default)]
struct StoreRow {
    /// Trajectories in the on-disk corpus (10x the table-experiment corpus
    /// at every scale — the point of the data plane is headroom).
    corpus_n: usize,
    /// Ground-truth tile edge used for the blocked build.
    tile: usize,
    /// Corpus file size on disk (header + points + index).
    file_bytes: usize,
    /// Streaming corpus write throughput, file bytes / wall.
    build_mb_s: f64,
    /// Latency of `CorpusFile::open` (mmap + header/index validation),
    /// best of several opens.
    mmap_open_ns: f64,
    /// Wall seconds for the blocked, spill-to-disk ground-truth build.
    gt_blocked_wall_s: f64,
    /// Wall seconds for the dense in-RAM build of the same matrix.
    gt_inram_wall_s: f64,
    /// Heap high-water growth during the blocked build; `null` when the
    /// bench was compiled without `--features mem` and measured nothing.
    gt_blocked_peak_bytes: Option<usize>,
    /// What a fully materialized n x n f64 matrix would take — the
    /// footprint the blocked path must stay under.
    gt_full_matrix_bytes: usize,
    /// Shard-per-core evaluation throughput over the mmap-backed
    /// embedding store (queries/second).
    eval_qps: f64,
    eval_queries: usize,
    eval_shards: usize,
    /// HR-10 of the synthetic endpoint embeddings against the stored
    /// ground truth — deterministic, so any drift is a real change.
    hr10: f64,
}

#[derive(serde::Serialize)]
struct Report {
    host_cores: usize,
    batch_pairs: usize,
    dim: usize,
    train_trajectories: usize,
    training: Vec<TrainRow>,
    kernels: Vec<KernelRow>,
    infer: InferRow,
    serve: ServeRow,
    stream: StreamRow,
    trace: TraceRow,
    store: StoreRow,
    /// Training-side metrics registry at end of run (`train_batch_ns`
    /// histogram, batch counter, wall/memory gauges) — the payload
    /// `bench_diff` gates across two captures.
    metrics: tmn_obs::MetricsSnapshot,
    note: String,
}

/// Steps/second for one worker count: one warm-up epoch (fills the
/// sub-trajectory prefix cache), then a timed epoch.
fn bench_training(ds: &Dataset, dmat: &DistanceMatrix, dim: usize, threads: usize) -> (f64, f64) {
    let mcfg = ModelConfig { dim, seed: 42 };
    let model = ModelKind::Tmn.build(&mcfg);
    let cfg = TrainConfig { epochs: 2, batch_pairs: 64, threads, ..Default::default() };
    let mut trainer = Trainer::new(
        model.as_ref(),
        &ds.train,
        dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        cfg.clone(),
        None,
    )
    .with_replicas(ModelKind::Tmn, mcfg);
    trainer.train_epoch(0); // warm-up: prefix cache + allocator
    let timed = trainer.train_epoch(1);
    let steps = (timed.pairs as f64 / cfg.batch_pairs as f64).max(1.0);
    (steps / timed.seconds, timed.pairs as f64 / timed.seconds)
}

/// GFLOP/s of one kernel over `reps` runs on freshly filled buffers.
fn bench_kernel(f: impl Fn(&[f32], &[f32], &mut [f32]), a: &[f32], b: &[f32], out_len: usize, flops: usize) -> f64 {
    let mut out = vec![0.0f32; out_len];
    f(a, b, &mut out); // warm-up
    let reps = (2_000_000_000 / flops).clamp(3, 200);
    let t0 = Instant::now();
    for _ in 0..reps {
        out.iter_mut().for_each(|v| *v = 0.0);
        f(a, b, &mut out);
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    (reps * flops) as f64 / secs / 1e9
}

/// Benchmark the tape-free serving path: batched encode throughput and
/// speedup over the graphed forward, and single-pair latency percentiles.
fn bench_inference(ds: &Dataset, dim: usize) -> InferRow {
    let model = ModelKind::Tmn.build(&ModelConfig { dim, seed: 42 });
    let n = ds.test.len().min(64);
    let trajs = &ds.test[..n];

    let split = time_inference_split(model.as_ref(), trajs, 16);
    let infer_qps = split.trajectories as f64 / split.nograd_s.max(1e-12);

    // Single-pair latency: batch construction stays outside the clock so
    // the percentiles cover the model forward only.
    for t in trajs.iter().take(8) {
        let batch = PairBatch::build(&[t], &[t]);
        std::hint::black_box(model.embed_nograd(&batch.a, &batch.b));
    }
    let mut samples: Vec<f64> = Vec::new();
    let reps = 200usize.div_ceil(n.max(1));
    for _ in 0..reps {
        for t in trajs {
            let batch = PairBatch::build(&[t], &[t]);
            let t0 = Instant::now();
            let out = model.embed_nograd(&batch.a, &batch.b);
            let ns = t0.elapsed().as_nanos() as f64;
            std::hint::black_box(&out);
            samples.push(ns);
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: usize| samples[(samples.len() * p / 100).min(samples.len() - 1)];

    InferRow {
        simd_dispatch: tmn_autograd::simd::dispatch_name().to_string(),
        trajectories: n,
        infer_qps,
        nograd_speedup: split.speedup(),
        embed_ns_p50: pct(50),
        embed_ns_p99: pct(99),
    }
}

/// Benchmark the serving engine: single-writer insert throughput, query
/// latency percentiles while a churn writer races the reader, and
/// end-to-end admission-batched queries through a live `ServeEngine`.
fn bench_serve(ds: &Dataset, dim: usize) -> ServeRow {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tmn_serve::{ServeConfig, ServeEngine, ShardSet, ShardSetConfig};

    let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 4);
    let corpus = 1500u64;
    let vec_for = move |id: u64, ver: u64| -> Vec<f32> {
        (0..dim)
            .map(|d| (tmn_index::splitmix64(id * 31 + ver * 977 + d as u64) % 1000) as f32 / 1000.0)
            .collect()
    };

    // Phase 1: single-writer insert throughput into the sharded index.
    let set = Arc::new(ShardSet::new(
        dim,
        ShardSetConfig { shards, shortlist: 64, ..Default::default() },
    ));
    let t0 = Instant::now();
    for id in 0..corpus {
        set.insert(id, &vec_for(id, 0)).expect("serve bench insert");
    }
    let insert_qps = corpus as f64 / t0.elapsed().as_secs_f64();

    // Phase 2: query percentiles under concurrent writer churn.
    let done = Arc::new(AtomicBool::new(false));
    let churn = {
        let set = Arc::clone(&set);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut ver = 1u64;
            while !done.load(Ordering::Relaxed) {
                for id in corpus..corpus + 64 {
                    let _ = set.insert(id, &vec_for(id, ver));
                }
                for id in (corpus..corpus + 64).step_by(2) {
                    let _ = set.delete(id);
                }
                ver += 1;
            }
        })
    };
    let mut samples: Vec<f64> = Vec::with_capacity(400);
    for qi in 0..400u64 {
        let q = vec_for(1_000_000 + qi, 0);
        let t0 = Instant::now();
        let hits = set.query(&q, 10).expect("serve bench query");
        samples.push(t0.elapsed().as_nanos() as f64);
        std::hint::black_box(&hits);
    }
    done.store(true, Ordering::Relaxed);
    churn.join().expect("churn writer panicked");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: usize| samples[(samples.len() * p / 100).min(samples.len() - 1)];
    let (query_p50_ns, query_p99_ns) = (pct(50), pct(99));
    let shard_imbalance = set.status().shard_imbalance;

    // Phase 3: end-to-end admission-batched queries through the engine
    // (TMN-NM: the full model is pair-dependent and cannot sit behind a
    // vector index; the ablation keeps its independent-embedding RNN).
    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim, seed: 42 },
        ServeConfig {
            shard: ShardSetConfig { shards, shortlist: 64, ..Default::default() },
            max_batch: 16,
            ..Default::default()
        },
    )
    .expect("serve engine start");
    let handle = engine.handle();
    let n_corpus = ds.test.len().min(128);
    for (i, t) in ds.test.iter().take(n_corpus).enumerate() {
        handle.insert(i as u64, t.clone()).expect("engine insert");
    }
    let total_queries = 256usize;
    let batch: Vec<_> = ds.test.iter().take(16).cloned().collect();
    let t0 = Instant::now();
    for _ in 0..total_queries / batch.len() {
        let res = handle.query_batch(batch.clone(), 10).expect("engine batch query");
        std::hint::black_box(&res);
    }
    let batch_qps = total_queries as f64 / t0.elapsed().as_secs_f64();
    engine.shutdown();

    ServeRow {
        shards,
        corpus: corpus as usize,
        insert_qps,
        batch_qps,
        query_p50_ns,
        query_p99_ns,
        shard_imbalance,
    }
}

/// Measure what request tracing costs on the serve path: the same
/// admission-batched query workload as `bench_serve` phase 3, once with
/// tracing disabled (the default) and once with the flight recorder in
/// capture-all mode — the worst case, since every span is recorded and
/// every trace retained. Production configs sample and pay less.
fn bench_trace(ds: &Dataset, dim: usize) -> TraceRow {
    use tmn_obs::{trace, TraceConfig};
    use tmn_serve::{ServeConfig, ServeEngine, ShardSetConfig};

    let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 4);
    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim, seed: 42 },
        ServeConfig {
            shard: ShardSetConfig { shards, shortlist: 64, ..Default::default() },
            max_batch: 16,
            ..Default::default()
        },
    )
    .expect("trace bench engine start");
    let handle = engine.handle();
    let n_corpus = ds.test.len().min(128);
    for (i, t) in ds.test.iter().take(n_corpus).enumerate() {
        handle.insert(i as u64, t.clone()).expect("trace bench insert");
    }

    let total_queries = 256usize;
    let batch: Vec<_> = ds.test.iter().take(16).cloned().collect();
    let run_pass = || {
        let t0 = Instant::now();
        for _ in 0..total_queries / batch.len() {
            let res = handle.query_batch(batch.clone(), 10).expect("trace bench query");
            std::hint::black_box(&res);
        }
        total_queries as f64 / t0.elapsed().as_secs_f64()
    };

    trace::set_enabled(false);
    let _warmup = run_pass();
    let trace_off_qps = run_pass();

    trace::configure(TraceConfig {
        span_ring: 8192,
        flight: 64,
        slow_threshold_ns: 0,
        sample_every: 1,
    });
    trace::reset();
    trace::set_enabled(true);
    let trace_on_qps = run_pass();
    let stats = trace::stats();
    let query_traces: Vec<_> =
        trace::recent().into_iter().filter(|t| t.name == "serve.query_batch").collect();
    let spans_per_query = if query_traces.is_empty() {
        0.0
    } else {
        query_traces.iter().map(|t| t.spans.len()).sum::<usize>() as f64
            / query_traces.len() as f64
    };
    trace::set_enabled(false);
    trace::configure(TraceConfig::default());
    trace::reset();
    engine.shutdown();

    TraceRow {
        traced_queries: total_queries,
        trace_off_qps,
        trace_on_qps,
        overhead_pct: (trace_off_qps - trace_on_qps) / trace_off_qps * 100.0,
        spans_per_query,
        flight_captured: stats.flight_len,
    }
}

/// Benchmark the streaming path: replay test trajectories point-by-point
/// through `append_point` and measure per-append latency, throughput, and
/// how often the moved embedding actually re-entered the index under a
/// small `reembed_min_delta`.
fn bench_stream(ds: &Dataset, dim: usize) -> StreamRow {
    use tmn_serve::{ServeConfig, ServeEngine, ShardSetConfig};

    let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 4);
    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim, seed: 42 },
        ServeConfig {
            shard: ShardSetConfig { shards, shortlist: 64, ..Default::default() },
            max_batch: 16,
            // Small but nonzero: late appends to a long trajectory barely
            // move the embedding, so the skip path gets real coverage.
            reembed_min_delta: 1e-3,
        },
    )
    .expect("stream bench engine start");
    let handle = engine.handle();

    let n_streams = ds.test.len().min(24);
    // Warm-up stream: fills the engine thread's buffer pool and the HNSW
    // entry layers so the timed appends measure the steady state.
    for p in ds.test[0].points() {
        handle.append_point(1_000_000, *p).expect("warm-up append");
    }

    let mut samples: Vec<f64> = Vec::new();
    let mut reindexed = 0usize;
    let t0 = Instant::now();
    for (i, t) in ds.test.iter().take(n_streams).enumerate() {
        let id = 2_000_000 + i as u64;
        for p in t.points() {
            let ta = Instant::now();
            let out = handle.append_point(id, *p).expect("stream append");
            samples.push(ta.elapsed().as_nanos() as f64);
            reindexed += out.reindexed as usize;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    engine.shutdown();

    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: usize| samples[(samples.len() * p / 100).min(samples.len() - 1)];
    let appends = samples.len();
    StreamRow {
        streams: n_streams,
        appends,
        appends_per_sec: appends as f64 / wall.max(1e-12),
        append_ns_p50: pct(50),
        append_ns_p99: pct(99),
        reindex_ratio: reindexed as f64 / appends.max(1) as f64,
    }
}

/// Benchmark the scale-out data plane: stream a 10x-scale corpus to disk,
/// reopen it as an mmap view, build the ground truth out-of-core (tiled,
/// CRC-framed, spilled) vs fully in RAM, then run the shard-per-core
/// Table II evaluation off the mmap-backed embedding store.
fn bench_store(scale: Scale) -> StoreRow {
    use tmn_obs::memory;
    use tmn_store::{BlockedDistanceMatrix, CorpusFile, CorpusWriter};
    use tmn_traj::GroundTruth;

    // 10x the largest table-experiment corpus (300 at default scale): the
    // data plane exists for sizes the in-RAM path was never meant to hold.
    let corpus_n = (scale.dataset_size() * 10).max(3000);
    let tile = 256usize;
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let dir = std::env::temp_dir().join(format!("tmn-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store bench dir");

    // Deterministic 16-point trajectories (short on purpose: the bench
    // gates data-plane cost, not metric kernels).
    let traj_for = |i: usize| -> Trajectory {
        (0..16)
            .map(|t| {
                let h = tmn_index::splitmix64((i as u64) * 131 + t as u64);
                Point {
                    lon: (h % 10_000) as f64 / 10_000.0 + (i % 7) as f64 * 0.1,
                    lat: ((h >> 16) % 10_000) as f64 / 10_000.0,
                }
            })
            .collect()
    };
    let trajs: Vec<Trajectory> = (0..corpus_n).map(traj_for).collect();

    // Streaming corpus write -> MB/s.
    let corpus_path = dir.join("corpus.tmns");
    let t0 = Instant::now();
    let mut w = CorpusWriter::create(&corpus_path).expect("corpus writer");
    for t in &trajs {
        w.push(t).expect("corpus push");
    }
    w.finish().expect("corpus finish");
    let build_s = t0.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&corpus_path).expect("corpus metadata").len() as usize;
    let build_mb_s = file_bytes as f64 / 1e6 / build_s.max(1e-12);

    // mmap open latency (open + header/index CRC validation), best of 5.
    let mut open_ns = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let f = CorpusFile::open(&corpus_path).expect("corpus open");
        open_ns = open_ns.min(t0.elapsed().as_nanos() as f64);
        std::hint::black_box(&f);
    }

    // Blocked out-of-core ground truth, peak-heap accounted.
    let gt_path = dir.join("gt.tmns");
    let live_before = memory::live_bytes();
    memory::reset_peak();
    let t0 = Instant::now();
    let blocked = BlockedDistanceMatrix::compute(
        &gt_path,
        &trajs,
        Metric::Hausdorff,
        &MetricParams::default(),
        threads,
        tile,
    )
    .expect("blocked ground truth");
    let gt_blocked_wall_s = t0.elapsed().as_secs_f64();
    let gt_blocked_peak_bytes = peak_growth_bytes(live_before);
    let gt_full_matrix_bytes = corpus_n * corpus_n * std::mem::size_of::<f64>();
    if let Some(peak) = gt_blocked_peak_bytes {
        assert!(
            peak < gt_full_matrix_bytes,
            "blocked ground truth peaked at {peak} B, not below the \
             {gt_full_matrix_bytes} B full-materialization footprint"
        );
    }

    // The dense in-RAM build of the same matrix, for the wall comparison.
    let t0 = Instant::now();
    let dense = DistanceMatrix::compute(&trajs, Metric::Hausdorff, &MetricParams::default(), threads);
    let gt_inram_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        dense.get(1, corpus_n - 1).to_bits(),
        blocked.get(1, corpus_n - 1).to_bits(),
        "blocked/dense ground truth diverged (spot check)"
    );
    drop(dense);

    // Cheap deterministic endpoint embeddings -> CRC-framed file -> mmap.
    let vecs: Vec<Vec<f32>> = trajs
        .iter()
        .map(|t| {
            let pts = t.points();
            let (a, b) = (&pts[0], &pts[pts.len() - 1]);
            vec![a.lon as f32, a.lat as f32, b.lon as f32, b.lat as f32]
        })
        .collect();
    let emb_path = dir.join("emb.tmns");
    EmbeddingStore::from_vectors(&vecs).save(&emb_path).expect("embeddings save");
    let store = EmbeddingStore::open_mmap(&emb_path).expect("embeddings mmap");

    // Shard-per-core Table II evaluation straight off the two stores.
    let eval_queries = 200.min(corpus_n);
    let queries: Vec<usize> =
        (0..eval_queries).map(|i| i * corpus_n / eval_queries.max(1)).collect();
    let truth: &dyn GroundTruth = &blocked;
    let t0 = Instant::now();
    let eval = tmn_eval::evaluate_sharded(&store, truth, &queries, threads);
    let eval_s = t0.elapsed().as_secs_f64();

    StoreRow {
        corpus_n,
        tile,
        file_bytes,
        build_mb_s,
        mmap_open_ns: open_ns,
        gt_blocked_wall_s,
        gt_inram_wall_s,
        gt_blocked_peak_bytes,
        gt_full_matrix_bytes,
        eval_qps: queries.len() as f64 / eval_s.max(1e-12),
        eval_queries,
        eval_shards: threads,
        hr10: eval.hr10,
    }
}

/// Heap high-water growth since `live_before`, or `None` without the
/// counting allocator: `memory::peak_bytes()` then reads 0, and a 0 in a
/// lower-better `_bytes` field would read as a perfect score.
fn peak_growth_bytes(live_before: u64) -> Option<usize> {
    use tmn_obs::memory;
    memory::is_active().then(|| memory::peak_bytes().saturating_sub(live_before) as usize)
}

fn main() {
    let scale = Scale::from_args();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let size = scale.dataset_size();
    let dim = scale.dim();
    eprintln!("throughput bench — scale {} ({host_cores} host cores)", scale.name());

    let ds = Dataset::generate(&DatasetConfig::new(DatasetKind::PortoLike, size, 42));
    let dmat = ds.train_distance_matrix(Metric::Dtw, &MetricParams::default(), host_cores);

    metrics::set_enabled(true);
    metrics::reset();

    let mut training = Vec::new();
    let mut serial_sps = 0.0f64;
    for threads in [1usize, 2, 4] {
        let (sps, pps) = bench_training(&ds, &dmat, dim, threads);
        if threads == 1 {
            serial_sps = sps;
        }
        eprintln!("  threads={threads}: {sps:.2} steps/s ({pps:.0} pairs/s)");
        training.push(TrainRow {
            threads,
            steps_per_sec: sps,
            pairs_per_sec: pps,
            speedup_vs_serial: sps / serial_sps,
        });
    }

    // The last two shapes are the TMN-NM recurrent GEMM at dim 32 (h·W_hh,
    // k = 32, n = 4·32): one served or streamed step, then the batch-16
    // encode. New rows go last so existing `kernels[i]` paths keep their
    // meaning across captures.
    let mut kernel_rows = Vec::new();
    for (m, k, n) in [
        (64usize, 64usize, 64usize),
        (128, 128, 128),
        (48, 256, 48),
        (1, 32, 128),
        (16, 32, 128),
    ] {
        let a: Vec<f32> = (0..m * k).map(|x| (x % 17) as f32 / 17.0 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x % 13) as f32 / 13.0 - 0.5).collect();
        let flops = 2 * m * k * n;
        let naive = bench_kernel(
            |a, b, out| kernels::reference::mm_nn(a, b, m, k, n, out),
            &a, &b, m * n, flops,
        );
        tmn_autograd::simd::force_scalar(true);
        let scalar = bench_kernel(
            |a, b, out| kernels::mm_nn(a, b, m, k, n, out),
            &a, &b, m * n, flops,
        );
        tmn_autograd::simd::force_scalar(false);
        let blocked = bench_kernel(
            |a, b, out| kernels::mm_nn(a, b, m, k, n, out),
            &a, &b, m * n, flops,
        );
        eprintln!(
            "  mm_nn {m}x{k}x{n}: naive {naive:.2} vs blocked-scalar {scalar:.2} \
             vs blocked-{} {blocked:.2} GFLOP/s",
            tmn_autograd::simd::dispatch_name()
        );
        kernel_rows.push(KernelRow {
            kernel: "mm_nn".to_string(),
            m, k, n,
            naive_gflops: naive,
            scalar_gflops: scalar,
            blocked_gflops: blocked,
            speedup: blocked / naive,
            simd_speedup: blocked / scalar,
        });
    }

    let infer = bench_inference(&ds, dim);
    eprintln!(
        "  infer ({}): {:.0} traj/s tape-free ({:.2}x vs graphed), \
         embed p50 {:.0}ns p99 {:.0}ns",
        infer.simd_dispatch,
        infer.infer_qps,
        infer.nograd_speedup,
        infer.embed_ns_p50,
        infer.embed_ns_p99,
    );

    let store = bench_store(scale);
    eprintln!(
        "  store (n={}): corpus {:.1} MB at {:.0} MB/s, mmap open {:.0}ns, \
         GT blocked {:.1}s (peak {}) vs in-RAM {:.1}s (full {} B), \
         eval {:.0} q/s on {} shards, HR-10 {:.3}",
        store.corpus_n,
        store.file_bytes as f64 / 1e6,
        store.build_mb_s,
        store.mmap_open_ns,
        store.gt_blocked_wall_s,
        store
            .gt_blocked_peak_bytes
            .map_or("unmeasured".to_string(), |b| format!("{b} B")),
        store.gt_inram_wall_s,
        store.gt_full_matrix_bytes,
        store.eval_qps,
        store.eval_shards,
        store.hr10,
    );

    let serve = bench_serve(&ds, dim);
    eprintln!(
        "  serve ({} shards, {} vectors): {:.0} inserts/s, {:.0} batched q/s end-to-end, \
         query p50 {:.0}ns p99 {:.0}ns under churn, imbalance {:.3}",
        serve.shards,
        serve.corpus,
        serve.insert_qps,
        serve.batch_qps,
        serve.query_p50_ns,
        serve.query_p99_ns,
        serve.shard_imbalance,
    );

    let stream = bench_stream(&ds, dim);
    eprintln!(
        "  stream ({} streams, {} appends): {:.0} appends/s, p50 {:.0}ns p99 {:.0}ns, \
         reindex ratio {:.3} under reembed_min_delta",
        stream.streams,
        stream.appends,
        stream.appends_per_sec,
        stream.append_ns_p50,
        stream.append_ns_p99,
        stream.reindex_ratio,
    );

    let trace = bench_trace(&ds, dim);
    eprintln!(
        "  trace ({} queries): {:.0} q/s off vs {:.0} q/s capture-all ({:+.1}% overhead), \
         {:.1} spans/query, {} traces in flight recorder",
        trace.traced_queries,
        trace.trace_off_qps,
        trace.trace_on_qps,
        trace.overhead_pct,
        trace.spans_per_query,
        trace.flight_captured,
    );

    let mut table = Table::new(&["Threads", "Steps/s", "Pairs/s", "Speedup"]);
    for r in &training {
        table.row(&[
            r.threads.to_string(),
            format!("{:.2}", r.steps_per_sec),
            format!("{:.0}", r.pairs_per_sec),
            format!("{:.2}x", r.speedup_vs_serial),
        ]);
    }
    println!();
    table.print();

    let report = Report {
        host_cores,
        batch_pairs: 64,
        dim,
        train_trajectories: ds.train.len(),
        training,
        kernels: kernel_rows,
        infer,
        serve,
        stream,
        trace,
        store,
        metrics: metrics::snapshot(),
        note: "Data-parallel workers run on scoped OS threads; on a single-core host the \
               remaining gain comes from per-chunk padding (each worker pads to its chunk's \
               longest trajectory, not the batch maximum). Multi-core hosts additionally get \
               real parallel speedup."
            .to_string(),
    };
    write_json("BENCH_throughput", &report).expect("write results");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmeasured_peak_is_null_not_zero() {
        assert_eq!(peak_growth_bytes(0).is_some(), tmn_obs::memory::is_active());
        let row = StoreRow {
            gt_blocked_peak_bytes: None,
            ..Default::default()
        };
        let json = serde_json::to_string(&row).unwrap();
        assert!(json.contains("\"gt_blocked_peak_bytes\":null"), "{json}");
    }
}
