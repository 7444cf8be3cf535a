//! Per-layer probes: each layer timed from outside, by calling its public
//! functions on inputs drawn from the seed. A traced run of every workload
//! reports all of them, so each layer's cost sits next to the workload
//! numbers it should explain. Engine-thread internals are read from the
//! histograms and counters the engine already emits.

use crate::affinity::OneCpu;
use crate::report::{Counts, Report, Samples};
use crate::workloads::{
    ingest, model_config, porto, porto_parts, start_engine, train_config, us_since, Scratch,
    BATCH_PAIRS, DIM, K, SHARDS, THREADS, TRAIN_N,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tmn_autograd::kernels;
use tmn_autograd::optim::{clip_grad_norm, Adam};
use tmn_core::{pair_loss, ModelKind, PairBatch, PairTargets, Trainer};
use tmn_data::{RankSampler, Sampler};
use tmn_eval::encode_all;
use tmn_obs::{metrics, TelemetrySink};
use tmn_serve::{ShardSet, ShardSetConfig};
use tmn_store::BlockedDistanceMatrix;
use tmn_traj::metrics::{prefix_distances, Metric, MetricParams};
use tmn_traj::{DistanceMatrix, SimilarityTransform, Trajectory};

/// Report every probe; returns `train.coverage`, which is also the
/// coverage of `train_tmn`.
pub fn run_all(r: &mut Report, seed: u64) -> f64 {
    kernel_probes(r);
    infer_probes(r, seed);
    shard_probes(r, seed);
    gt_probes(r, seed);
    let train_coverage = train_probes(r, seed);
    engine_probes(r, seed);
    train_coverage
}

/// GFLOP/s of `kernels::mm_nn` at one shape: median of 15 batches.
fn gflops(m: usize, k: usize, n: usize) -> f64 {
    let a: Vec<f32> = (0..m * k).map(|x| (x % 17) as f32 / 17.0 - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|x| (x % 13) as f32 / 13.0 - 0.5).collect();
    let mut out = vec![0.0f32; m * n];
    let flops = 2 * m * k * n;
    let reps = (20_000_000 / flops).max(1);
    let mut rates = Samples::default();
    for _ in 0..15 {
        out.fill(0.0);
        let t = Instant::now();
        for _ in 0..reps {
            kernels::mm_nn(black_box(&a), black_box(&b), m, k, n, &mut out);
        }
        rates.push((flops * reps) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    black_box(&out);
    rates.median()
}

/// The TMN-NM GEMM shapes at dim 32: the recurrent step `h · W_hh` at
/// batch 1 (every served forward and stream step) and 64 (training and
/// batched encode), and the gate pre-projection of one 64-point trajectory.
fn kernel_probes(r: &mut Report) {
    let (h, gates, d_in) = (DIM, 4 * DIM, DIM / 2);
    r.metric("kernels.rec_m1_gflops", gflops(1, h, gates), "GFLOP/s");
    r.metric("kernels.rec_m64_gflops", gflops(64, h, gates), "GFLOP/s");
    r.metric("kernels.preproj_gflops", gflops(64, d_in, gates), "GFLOP/s");
}

/// Tape-free inference: one trajectory, a batch of 16, and one stream step.
fn infer_probes(r: &mut Report, seed: u64) {
    let model = ModelKind::TmnNm.build(&model_config());
    let trajs = porto(96, seed ^ 0x1F);
    let mut one = Samples::default();
    for (i, t) in trajs.iter().enumerate() {
        let s = Instant::now();
        black_box(encode_all(model.as_ref(), std::slice::from_ref(t), 1));
        if i >= 16 {
            one.push(us_since(s));
        }
    }
    r.metric("infer.embed1_us", one.median(), "us");

    let mut per_traj = Samples::default();
    for (i, chunk) in trajs.chunks(16).cycle().take(18).enumerate() {
        let s = Instant::now();
        black_box(encode_all(model.as_ref(), chunk, 16));
        if i >= 6 {
            per_traj.push(us_since(s) / chunk.len() as f64);
        }
    }
    r.metric("infer.embed16_us_per_traj", per_traj.median(), "us");

    let mut step = Samples::default();
    for t in &trajs[..24] {
        let mut stream = model.stream_begin().expect("TMN-NM streams");
        for &p in t.points() {
            let s = Instant::now();
            black_box(model.embed_incremental(&mut stream, p));
            step.push(us_since(s));
        }
    }
    r.metric("infer.stream_step_us", step.median(), "us");
}

/// The sharded index alone: inserts into and queries against a two-shard
/// set of 2000 model embeddings.
fn shard_probes(r: &mut Report, seed: u64) {
    let model = ModelKind::TmnNm.build(&model_config());
    let parts = porto_parts(&[2000, 500], seed ^ 0x5A);
    let corpus = encode_all(model.as_ref(), &parts[0], 16);
    let queries = encode_all(model.as_ref(), &parts[1], 16);
    let set = ShardSet::new(
        DIM,
        ShardSetConfig {
            shards: SHARDS,
            ..Default::default()
        },
    );
    let mut insert = Samples::default();
    for (id, v) in corpus.iter().enumerate() {
        let s = Instant::now();
        let res = set.insert(id as u64, v);
        insert.push(us_since(s));
        r.counts.record(res);
    }
    let mut query = Samples::default();
    for q in queries.iter().cycle().take(1500) {
        let s = Instant::now();
        let res = set.query(q, K);
        query.push(us_since(s));
        r.counts.record(res);
    }
    r.metric("shard.insert_us", insert.median(), "us");
    r.metric("shard.query_us", query.median(), "us");
}

/// Mean single-threaded `Metric::Dtw` time over `pairs` seeded pairs.
pub fn mean_dtw_us(trajs: &[Trajectory], pairs: usize, seed: u64) -> f64 {
    let params = MetricParams::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD7);
    let picks: Vec<(usize, usize)> = (0..pairs)
        .map(|_| (rng.gen_range(0..trajs.len()), rng.gen_range(0..trajs.len())))
        .collect();
    let s = Instant::now();
    for &(i, j) in &picks {
        black_box(Metric::Dtw.distance(&trajs[i], &trajs[j], &params));
    }
    us_since(s) / pairs as f64
}

/// The exact metric, and how much of a two-thread blocked build's thread
/// time goes into it.
fn gt_probes(r: &mut Report, seed: u64) {
    let trajs = porto(200, seed ^ 0x67);
    let dtw_us = mean_dtw_us(&trajs, 4000, seed);
    r.metric("traj.dtw_us_per_pair", dtw_us, "us");
    let dir = Scratch::new("probe-gt");
    let s = Instant::now();
    let built = BlockedDistanceMatrix::compute(
        &dir.path("gt.tmns"),
        &trajs,
        Metric::Dtw,
        &MetricParams::default(),
        THREADS,
        64,
    );
    let wall_us = us_since(s);
    let pairs = (trajs.len() * (trajs.len() - 1) / 2) as f64;
    r.counts.record(built);
    r.metric(
        "store.gt_parallel_efficiency",
        pairs * dtw_us / (THREADS as f64 * wall_us),
        "fraction",
    );
}

/// Median wall time of the trainer's steps after the first, from its own
/// telemetry, with `threads` data-parallel workers.
fn trainer_step_us(
    train: &[Trajectory],
    truth: &DistanceMatrix,
    seed: u64,
    threads: usize,
    steps: u64,
    counts: &mut Counts,
) -> f64 {
    let mcfg = model_config();
    let model = ModelKind::Tmn.build(&mcfg);
    let (sink, buf) = TelemetrySink::memory();
    let mut trainer = Trainer::new(
        model.as_ref(),
        train,
        truth,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        train_config(seed, threads),
        None,
    )
    .with_replicas(ModelKind::Tmn, mcfg)
    .with_telemetry(sink)
    .with_step_limit(1 + steps);
    trainer.train_epoch(0);
    let mut lat = Samples::default();
    crate::workloads::telemetry_steps(&buf.lines()[1..], &mut lat, counts);
    lat.median()
}

/// One 64-pair training step of the full TMN replayed stage by stage
/// through public calls at one thread, against the `Trainer`'s own step
/// time at one and two workers. Returns the replay's coverage.
fn train_probes(r: &mut Report, seed: u64) -> f64 {
    const STEPS: usize = 4;
    let train = porto(TRAIN_N, seed);
    let params = MetricParams::default();
    let truth = DistanceMatrix::compute(&train, Metric::Dtw, &params, THREADS);
    let cfg = train_config(seed, 1);
    let sim = SimilarityTransform::from_truth(&truth, Metric::Dtw.default_alpha());
    let model = ModelKind::Tmn.build(&model_config());
    let mut adam = Adam::new(model.params(), cfg.lr);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A);
    let mut sub_cache: HashMap<(usize, usize), Vec<(usize, f32)>> = HashMap::new();
    let stages = [
        "train.sample_us",
        "train.batch_us",
        "train.forward_us",
        "train.backward_us",
        "train.adam_us",
    ];
    let mut times: Vec<Samples> = stages.iter().map(|_| Samples::default()).collect();
    for step in 0..=STEPS {
        let mut t = [0.0f64; 5];
        let s = Instant::now();
        let mut pairs = Vec::with_capacity(2 * BATCH_PAIRS);
        while pairs.len() < BATCH_PAIRS {
            let anchor = rng.gen_range(0..train.len());
            pairs.extend(
                RankSampler
                    .sample(anchor, cfg.k(), &truth, &mut rng)
                    .pairs(),
            );
        }
        pairs.truncate(BATCH_PAIRS);
        t[0] = us_since(s);

        let s = Instant::now();
        let anchors: Vec<&Trajectory> = pairs.iter().map(|&(a, _, _)| &train[a]).collect();
        let samples: Vec<&Trajectory> = pairs.iter().map(|&(_, b, _)| &train[b]).collect();
        let batch = PairBatch::build(&anchors, &samples);
        let mut sub = Vec::with_capacity(pairs.len());
        for &(a, b, _) in &pairs {
            let key = (a.min(b), a.max(b));
            let row = sub_cache.entry(key).or_insert_with(|| {
                prefix_distances(
                    Metric::Dtw,
                    &train[key.0],
                    &train[key.1],
                    cfg.sub_stride,
                    &params,
                )
                .into_iter()
                .map(|(i, d)| (i, sim.of_distance(d) as f32))
                .collect()
            });
            sub.push(row.clone());
        }
        let targets = PairTargets {
            sim: pairs
                .iter()
                .map(|&(a, b, _)| sim.of_distance(truth.get(a, b)) as f32)
                .collect(),
            weight: pairs.iter().map(|&(_, _, w)| w).collect(),
            sub,
        };
        t[1] = us_since(s);

        let s = Instant::now();
        let encoded = model.encode_pairs(&batch);
        let loss = pair_loss(&encoded, &batch, &targets, cfg.loss);
        t[2] = us_since(s);

        let s = Instant::now();
        model.params().zero_grad();
        loss.backward();
        t[3] = us_since(s);

        let s = Instant::now();
        clip_grad_norm(model.params(), cfg.clip);
        adam.step(model.params());
        t[4] = us_since(s);
        if step > 0 {
            for (acc, v) in times.iter_mut().zip(t) {
                acc.push(v);
            }
        }
    }
    let mut replayed = 0.0;
    for (name, acc) in stages.iter().zip(&times) {
        r.metric(name, acc.median(), "us");
        replayed += acc.median();
    }
    let one = trainer_step_us(&train, &truth, seed, 1, STEPS as u64, &mut r.counts);
    let two = trainer_step_us(&train, &truth, seed, THREADS, STEPS as u64, &mut r.counts);
    let coverage = replayed / one;
    r.metric("train.coverage", coverage, "fraction");
    r.metric(
        "train.parallel_efficiency",
        one / (THREADS as f64 * two),
        "fraction",
    );
    coverage
}

/// The request plane at small scale: by-id queries for engine overhead,
/// queue wait and cache hits, then appends for index churn.
fn engine_probes(r: &mut Report, seed: u64) {
    let _pin = OneCpu::pin();
    let parts = porto_parts(&[300, 40], seed ^ 0xE9);
    let (corpus, movers) = (&parts[0], &parts[1]);
    let engine = start_engine();
    let h = engine.handle();
    ingest(&h, corpus, &mut r.counts);

    const QUERIES: u64 = 1500;
    metrics::reset();
    let mut lat = Samples::default();
    for i in 0..QUERIES {
        let s = Instant::now();
        let res = h.query_id(i % corpus.len() as u64, K);
        lat.push(us_since(s));
        r.counts.record(res);
    }
    let snap = metrics::snapshot();
    let sum_us = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum_ns as f64 / 1e3);
    let engine_side = sum_us(tmn_eval::QUERY_EMBED_NS)
        + sum_us(tmn_eval::QUERY_INDEX_NS)
        + sum_us(tmn_eval::QUERY_RANK_NS);
    r.metric(
        "engine.overhead_us",
        lat.mean() - engine_side / QUERIES as f64,
        "us",
    );
    let queue_p50 = snap
        .histogram(tmn_serve::SERVE_QUEUE_WAIT_NS)
        .map_or(f64::NAN, |h| h.p50_ns as f64);
    r.metric("engine.queue_wait_us_p50", queue_p50 / 1e3, "us");
    let hits = snap.counter(tmn_serve::SERVE_CACHE_HITS_TOTAL).unwrap_or(0);
    r.metric(
        "engine.cache_hit_ratio",
        hits as f64 / QUERIES as f64,
        "fraction",
    );

    metrics::reset();
    for (j, m) in movers.iter().enumerate() {
        for &p in m.points() {
            r.counts.record(h.append_point(10_000 + j as u64, p));
        }
    }
    let snap = metrics::snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let inserts = count(tmn_serve::SERVE_INSERTS_TOTAL).max(1.0);
    r.metric(
        "shard.compactions_per_1k_inserts",
        count(tmn_serve::SERVE_COMPACTIONS_TOTAL) * 1e3 / inserts,
        "count",
    );
    let appends = count(tmn_serve::STREAM_APPENDS_TOTAL).max(1.0);
    r.metric(
        "stream.reindex_ratio",
        count(tmn_serve::STREAM_REINDEX_TOTAL) / appends,
        "fraction",
    );
    let tombstones = r.counts.record(h.status()).map_or(f64::NAN, |status| {
        let s = status.shards;
        s.tombstones as f64 / (s.live + s.tombstones).max(1) as f64
    });
    r.metric("shard.tombstone_ratio", tombstones, "fraction");
}
