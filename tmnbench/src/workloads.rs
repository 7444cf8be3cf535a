//! The five workloads. Each builds its inputs from the seed, sets the
//! program up several times (the median is `setup_s`), warms up, measures
//! for the requested seconds, and checks the program's outputs.
//!
//! Load model: one process, at most two runnable threads. The serving
//! workloads are a closed loop with one client thread next to the engine
//! thread, pinned to one CPU (see `affinity`); training is serial; ground
//! truth uses two threads. A second client on a two-CPU host measures the
//! scheduler rather than the program.

use crate::affinity::OneCpu;
use crate::probes;
use crate::report::{peak_rss_mib, Counts, Report, Samples};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tmn_core::{ModelConfig, ModelKind, TrainConfig, Trainer};
use tmn_data::{Dataset, DatasetConfig, DatasetKind, RankSampler};
use tmn_eval::{encode_all, EmbeddingStore};
use tmn_obs::{metrics, trace, TelemetrySink};
use tmn_serve::{ServeConfig, ServeEngine, ServeHandle, ShardSetConfig};
use tmn_store::{BlockedDistanceMatrix, CorpusFile};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{DistanceMatrix, Trajectory};

pub const WORKLOADS: [&str; 5] = [
    "query_adhoc",
    "query_cached",
    "stream_append",
    "train_tmn",
    "exact_gt",
];

/// Embedding dimension of every model the benchmark builds.
pub const DIM: usize = 32;
/// Serving shards, and ground-truth (and data-parallel probe) threads.
pub const SHARDS: usize = 2;
pub const THREADS: usize = 2;
/// Neighbours per query.
pub const K: usize = 10;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Unrecorded operations before measuring, in seconds.
const WARMUP_S: f64 = 1.0;
/// Fixed probe requests behind the serving output checks.
const CHECK_PROBES: usize = 200;
/// The served top-10 must find at least this share of the exact top-10.
const RECALL_FLOOR: f64 = 0.9;

/// Corpus sizes. The cached corpus is four times the ad-hoc one, so the
/// two query workloads differ in index working set as well as in the
/// forward pass.
const ADHOC_CORPUS: usize = 2000;
const CACHED_CORPUS: usize = 8000;
const STREAM_CORPUS: usize = 2000;
/// Trajectories that are queried or replayed but never ingested.
const HELD_OUT: usize = 1000;
/// Training trajectories of the full TMN, and pairs per gradient step.
pub const TRAIN_N: usize = 60;
pub const BATCH_PAIRS: usize = 64;
/// Ground truth: trajectories per build and tile edge. 36 tiles let the
/// two threads balance when one CPU is slowed by outside load.
const GT_N: usize = 512;
const GT_TILE: usize = 64;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// A traced run reports per-layer metrics only, so one set-up will do.
    fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }
}

pub fn run(name: &str, o: &Opts) -> Option<Report> {
    let r = match name {
        "query_adhoc" => query_adhoc(o),
        "query_cached" => query_cached(o),
        "stream_append" => stream_append(o),
        "train_tmn" => train_tmn(o),
        "exact_gt" => exact_gt(o),
        _ => return None,
    };
    Some(r)
}

// ---- inputs ----------------------------------------------------------------

/// Normalized PortoLike trajectories, `sizes[p]` of them in part `p`.
///
/// Every part holds the same evenly spaced multiset of lengths from 16 to
/// 96 points whatever the seed; the seed picks the geometry and which
/// trajectory gets which length. Forward, DTW and padding costs all scale
/// with length, so without this the work of a run would vary with its
/// seed by several percent.
pub fn porto_parts(sizes: &[usize], seed: u64) -> Vec<Vec<Trajectory>> {
    const MIN_LEN: usize = 16;
    const MAX_LEN: usize = 96;
    let total = sizes.iter().sum();
    let mut cfg = DatasetConfig::new(DatasetKind::PortoLike, total, seed);
    cfg.gen.min_len = MAX_LEN;
    let ds = Dataset::generate(&cfg);
    let mut all = ds.train.into_iter().chain(ds.test);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1E6);
    let parts: Vec<Vec<Trajectory>> = sizes
        .iter()
        .map(|&n| {
            let mut lens: Vec<usize> = (0..n)
                .map(|i| MIN_LEN + i * (MAX_LEN - MIN_LEN + 1) / n.max(1))
                .collect();
            lens.shuffle(&mut rng);
            lens.iter()
                .filter_map(|&len| Some(Trajectory::new(all.next()?.points()[..len].to_vec())))
                .collect()
        })
        .collect();
    assert!(
        parts.iter().zip(sizes).all(|(p, &n)| p.len() == n),
        "the generator fell short"
    );
    parts
}

pub fn porto(n: usize, seed: u64) -> Vec<Trajectory> {
    porto_parts(&[n], seed).remove(0)
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0DE7_5EED));
    order
}

pub fn model_config() -> ModelConfig {
    ModelConfig { dim: DIM, seed: 42 }
}

/// The training recipe of `train_tmn`: the paper's TMN recipe (rank
/// sampling, sub-trajectory loss) with 64-pair steps.
pub fn train_config(seed: u64, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs: usize::MAX,
        batch_pairs: BATCH_PAIRS,
        threads,
        seed,
        ..Default::default()
    }
}

/// TMN-NM behind two shards, everything else at the engine's defaults
/// (`reembed_min_delta = 0`: every append re-indexes).
fn serve_config() -> ServeConfig {
    ServeConfig {
        shard: ShardSetConfig {
            shards: SHARDS,
            ..Default::default()
        },
        ..Default::default()
    }
}

pub fn start_engine() -> ServeEngine {
    ServeEngine::start(ModelKind::TmnNm, &model_config(), serve_config())
        .expect("TMN-NM is an independent-embedding model")
}

/// Cold ingest: every trajectory through `ServeHandle::insert`, id = index.
pub fn ingest(h: &ServeHandle, corpus: &[Trajectory], counts: &mut Counts) {
    for (i, t) in corpus.iter().enumerate() {
        counts.record(h.insert(i as u64, t.clone()));
    }
}

/// The cold-start set-up of `query_adhoc` and `stream_append`: an empty
/// engine, then `corpus` ingested. Timed `o.setups()` times, keeping the
/// last engine.
fn cold_engine(o: &Opts, corpus: &[Trajectory], counts: &mut Counts) -> (ServeEngine, Samples) {
    let mut setup = Samples::default();
    let mut engine = None;
    for _ in 0..o.setups() {
        drop(engine.take());
        let t0 = Instant::now();
        let e = start_engine();
        ingest(&e.handle(), corpus, counts);
        setup.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    (engine.expect("at least one set-up"), setup)
}

/// A directory inside the working directory, removed when dropped. The
/// benchmark writes nowhere else.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = Path::new(".tmnbench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".tmnbench_tmp");
    }
}

// ---- measurement -----------------------------------------------------------

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Measurement windows are cut into slices of about this many seconds (a
/// request longer than that is a slice of its own).
const SLICE_S: f64 = 1.5;

/// Slices a window needs before figures over slices are used.
const MIN_SLICES: usize = 5;

struct Slice {
    /// Latency of each request that finished in the slice.
    lat: Samples,
    /// Work units (queries, appends, pairs) per second.
    rate: f64,
}

/// What one measurement saw.
struct Measured {
    slices: Vec<Slice>,
    /// Every request's latency, the unfinished last slice's included.
    all: Samples,
    /// Work units done and seconds taken over the whole window.
    work: u64,
    secs: f64,
    /// Traced runs only: throughput lost to tracing, in percent.
    trace_overhead_pct: f64,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            slices: Vec::new(),
            all: Samples::default(),
            work: 0,
            secs: 0.0,
            trace_overhead_pct: f64::NAN,
        }
    }

    /// Call `step` until `secs` have passed, cutting slices as it goes.
    /// Returns the work units done and the seconds taken.
    fn run_for(&mut self, secs: f64, mut step: impl FnMut(&mut Samples) -> u64) -> (u64, f64) {
        let t0 = Instant::now();
        let (mut work, mut slice_work, mut slice_start) = (0, 0, Instant::now());
        let mut lat = Samples::default();
        while t0.elapsed().as_secs_f64() < secs {
            let w = step(&mut lat);
            work += w;
            slice_work += w;
            let elapsed = slice_start.elapsed().as_secs_f64();
            if elapsed >= SLICE_S {
                self.all.extend(&lat);
                self.slices.push(Slice {
                    lat: std::mem::take(&mut lat),
                    rate: slice_work as f64 / elapsed,
                });
                (slice_work, slice_start) = (0, Instant::now());
            }
        }
        self.all.extend(&lat);
        let secs = t0.elapsed().as_secs_f64();
        self.work += work;
        self.secs += secs;
        (work, secs)
    }

    /// Throughput: the upper quartile of the slices' work rates. Load from
    /// other tenants of a shared host comes in bursts of seconds and only
    /// ever slows a slice down, so the quicker quarter of the window is the
    /// steadiest estimate of the program's own speed (on a two-CPU host it
    /// cut the run-to-run spread by about a third against the median).
    fn rate(&self) -> f64 {
        if self.slices.len() < MIN_SLICES {
            return self.work as f64 / self.secs;
        }
        let mut rates = Samples::default();
        self.slices.iter().for_each(|s| rates.push(s.rate));
        rates.percentile(0.75)
    }

    /// Median request latency by the same rule: the lower quartile of the
    /// slices' medians.
    fn p50(&self) -> f64 {
        if self.slices.len() < MIN_SLICES {
            return self.all.median();
        }
        let mut medians = Samples::default();
        self.slices
            .iter()
            .for_each(|s| medians.push(s.lat.median()));
        medians.percentile(0.25)
    }
}

/// Measure `step` (one request; it pushes its latencies and returns the
/// work it did). Untraced runs measure one window of `o.seconds`. Traced
/// runs measure half that, in four windows with tracing off-on-on-off, so
/// a linear drift cancels out of the overhead. The metrics registry is
/// cleared first, so its histograms hold the measured requests only.
fn measure(
    o: &Opts,
    warmup: bool,
    counts: &mut Counts,
    mut step: impl FnMut(&mut Samples, &mut Counts) -> u64,
) -> Measured {
    if warmup {
        Measured::new().run_for(WARMUP_S, |lat| step(lat, counts));
    }
    metrics::reset();
    let mut m = Measured::new();
    if !o.trace {
        m.run_for(o.seconds, |lat| step(lat, counts));
        return m;
    }
    let mut off = (0u64, 0.0f64);
    let mut on = (0u64, 0.0f64);
    for traced in [false, true, true, false] {
        trace::set_enabled(traced);
        let (w, s) = m.run_for(o.seconds / 8.0, |lat| step(lat, counts));
        let acc = if traced { &mut on } else { &mut off };
        acc.0 += w;
        acc.1 += s;
    }
    trace::set_enabled(false);
    let (rate_off, rate_on) = (off.0 as f64 / off.1, on.0 as f64 / on.1);
    m.trace_overhead_pct = (rate_off - rate_on) / rate_off * 100.0;
    m
}

/// The end-to-end metrics every workload reports, then the latency tail as
/// a printed line: `tail_q` is the highest percentile the workload's sample
/// count supports with ten samples beyond it. Tails are not part of the
/// result, because bursts of outside load move them by 15-30% between runs.
fn end_to_end(r: &mut Report, setup: &Samples, m: &Measured, tail_q: f64) {
    r.metric("setup_s", setup.median(), "s");
    r.metric("ops_per_s", m.rate(), "1/s");
    r.metric("latency_p50_us", m.p50(), "us");
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    r.info("latency_tail_us", m.all.percentile(tail_q), "us");
    r.info("latency_tail_quantile", tail_q, "fraction");
    r.info("latency_p999_us", m.all.percentile(0.999), "us");
    r.info("latency_samples", m.all.len() as f64, "count");
    r.info("slices", m.slices.len() as f64, "count");
    r.info("setup_runs", setup.len() as f64, "count");
}

/// The per-layer metrics of a traced run: the workload's own coverage and
/// tracing overhead, then the layer probes.
fn per_layer(r: &mut Report, o: &Opts, m: &Measured, coverage: Option<f64>) {
    r.metric("trace.overhead_pct", m.trace_overhead_pct, "%");
    let train_coverage = probes::run_all(r, o.seed);
    let coverage = coverage.unwrap_or(train_coverage);
    r.metric("coverage", coverage, "fraction");
    if coverage < 0.9 {
        eprintln!(
            "# coverage {:.1}% of the mean request time: {:.1} points short of 90%",
            coverage * 100.0,
            (0.9 - coverage) * 100.0
        );
    }
}

fn finish(
    r: &mut Report,
    o: &Opts,
    setup: &Samples,
    m: &Measured,
    tail_q: f64,
    coverage: Option<f64>,
) {
    r.info(
        "error_rate",
        r.counts.failed as f64 / r.counts.attempted.max(1) as f64,
        "fraction",
    );
    if o.trace {
        per_layer(r, o, m, coverage);
    } else {
        end_to_end(r, setup, m, tail_q);
    }
}

/// Share of the mean client-side request time that the engine's own
/// histograms account for (queue wait, forward, shard search, append),
/// printing the breakdown. `None` when nothing was measured.
fn serving_coverage(r: &Report, lat: &Samples) -> Option<f64> {
    let snap = metrics::snapshot();
    let sum_us = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum_ns as f64 / 1e3);
    let n = lat.len().max(1) as f64;
    let layers = [
        (
            "layer.queue_wait_us",
            sum_us(tmn_serve::SERVE_QUEUE_WAIT_NS),
        ),
        ("layer.embed_us", sum_us(tmn_eval::QUERY_EMBED_NS)),
        (
            "layer.shard_search_us",
            sum_us(tmn_eval::QUERY_INDEX_NS) + sum_us(tmn_eval::QUERY_RANK_NS),
        ),
        ("layer.append_us", sum_us(tmn_serve::APPEND_NS)),
    ];
    let mut covered = 0.0;
    for (name, total) in layers {
        r.info(name, total / n, "us");
        covered += total;
    }
    let mean = lat.mean();
    r.info("layer.request_mean_us", mean, "us");
    r.info("layer.uncovered_us", mean - covered / n, "us");
    (lat.len() > 0).then(|| covered / lat.sum())
}

// ---- serving ---------------------------------------------------------------

/// Checks served top-10 lists against the data plane: `served` must be
/// bitwise equal to `ShardSet::query` over the embedding the benchmark
/// computed itself, and the recall against `query_exact` is reported.
struct TopkCheck {
    probes: usize,
    mismatches: usize,
    recall_sum: f64,
}

impl TopkCheck {
    fn new() -> TopkCheck {
        TopkCheck {
            probes: 0,
            mismatches: 0,
            recall_sum: 0.0,
        }
    }

    fn add(
        &mut self,
        engine: &ServeEngine,
        served: &[(u64, f64)],
        emb: &[f32],
        counts: &mut Counts,
    ) {
        let bits = |v: &[(u64, f64)]| {
            v.iter()
                .map(|&(id, d)| (id, d.to_bits()))
                .collect::<Vec<_>>()
        };
        self.probes += 1;
        match counts.record(engine.shards().query(emb, K)) {
            Some(direct) if bits(&direct) == bits(served) => {}
            _ => self.mismatches += 1,
        }
        if let Some(exact) = counts.record(engine.shards().query_exact(emb, K)) {
            let hits = served
                .iter()
                .filter(|(id, _)| exact.iter().any(|(e, _)| e == id))
                .count();
            self.recall_sum += hits as f64 / exact.len().max(1) as f64;
        }
    }

    fn report(&self, r: &mut Report) {
        let recall = self.recall_sum / self.probes.max(1) as f64;
        r.info("recall10", recall, "fraction");
        r.check(
            "served_topk_bitwise",
            self.mismatches == 0 && self.probes == CHECK_PROBES,
            format!(
                "{} of {} probes differ from ShardSet::query",
                self.mismatches, self.probes
            ),
        );
        r.check(
            "recall10",
            recall >= RECALL_FLOOR,
            format!("{recall:.4} against query_exact"),
        );
    }
}

/// Interactive "trips like this one": ad-hoc queries over held-out
/// trajectories. Each pays one single-trajectory forward, so model and
/// kernel changes dominate.
fn query_adhoc(o: &Opts) -> Report {
    let mut r = Report::new("query_adhoc");
    let pin = OneCpu::pin();
    let parts = porto_parts(&[ADHOC_CORPUS, HELD_OUT], o.seed);
    let (corpus, held) = (&parts[0], &parts[1]);
    let order = permutation(held.len(), o.seed);

    let (engine, setup) = cold_engine(o, corpus, &mut r.counts);
    let h = engine.handle();

    let mut next = 0usize;
    let m = measure(o, true, &mut r.counts, |lat, counts| {
        let q = held[order[next % order.len()]].clone();
        next += 1;
        let t = Instant::now();
        let res = h.query(q, K);
        lat.push(us_since(t));
        counts.record(res);
        1
    });
    let coverage = serving_coverage(&r, &m.all);

    let model = ModelKind::TmnNm.build(&model_config());
    let mut check = TopkCheck::new();
    for &i in order.iter().take(CHECK_PROBES) {
        let q = &held[i];
        let Some(served) = r.counts.record(h.query(q.clone(), K)) else {
            continue;
        };
        let emb = encode_all(model.as_ref(), std::slice::from_ref(q), 1).remove(0);
        check.add(&engine, &served, &emb, &mut r.counts);
    }
    check.report(&mut r);
    drop((engine, pin));
    finish(&mut r, o, &setup, &m, 0.99, coverage);
    r
}

/// "Trips like stored trip X" after a restart: by-id queries against a
/// corpus warm-started from benchmark-written TMNS files. No forward at
/// all, and four times the ad-hoc index, so index and engine overhead
/// dominate and model-side changes should not show here.
fn query_cached(o: &Opts) -> Report {
    let mut r = Report::new("query_cached");
    let pin = OneCpu::pin();
    let corpus = porto(CACHED_CORPUS, o.seed);
    let dir = Scratch::new("query_cached");
    let (corpus_path, emb_path) = (dir.path("corpus.tmns"), dir.path("emb.tmns"));

    // Set-up is the warm start a restart pays: batch-16 encode, both TMNS
    // files written and mapped back, and the shards rebuilt from them.
    let mut setup = Samples::default();
    let mut started = None;
    for _ in 0..o.setups() {
        drop(started.take());
        let t0 = Instant::now();
        let model = ModelKind::TmnNm.build(&model_config());
        let emb = encode_all(model.as_ref(), &corpus, 16);
        let written = tmn_store::write_corpus(&corpus_path, &corpus)
            .and_then(|()| EmbeddingStore::from_vectors(&emb).save(&emb_path));
        let opened = r.counts.record(written).and_then(|()| {
            let files = CorpusFile::open(&corpus_path)
                .and_then(|c| EmbeddingStore::open_mmap(&emb_path).map(|e| (c, e)));
            r.counts.record(files)
        });
        let Some((corpus_file, store)) = opened else {
            break;
        };
        let engine = r.counts.record(ServeEngine::start_warm(
            ModelKind::TmnNm,
            &model_config(),
            serve_config(),
            &corpus_file,
            &store,
        ));
        setup.push(t0.elapsed().as_secs_f64());
        started = engine.map(|e| (e, store));
    }
    let Some((engine, store)) = started else {
        r.check("warm_start", false, "the engine did not start".into());
        return r;
    };
    let h = engine.handle();

    let mut rng = StdRng::seed_from_u64(o.seed ^ 0x1D5);
    let m = measure(o, true, &mut r.counts, |lat, counts| {
        let id = rng.gen_range(0..CACHED_CORPUS as u64);
        let t = Instant::now();
        let res = h.query_id(id, K);
        lat.push(us_since(t));
        counts.record(res);
        1
    });
    let coverage = serving_coverage(&r, &m.all);

    let mut check = TopkCheck::new();
    for &i in permutation(CACHED_CORPUS, o.seed).iter().take(CHECK_PROBES) {
        let Some(served) = r.counts.record(h.query_id(i as u64, K)) else {
            continue;
        };
        check.add(&engine, &served, store.get(i), &mut r.counts);
    }
    check.report(&mut r);
    drop((engine, pin));
    finish(&mut r, o, &setup, &m, 0.99, coverage);
    r
}

/// Live monitoring: movers replayed point by point into an engine holding
/// a corpus. Each append is one incremental cell step plus one index
/// re-insert (`reembed_min_delta = 0`); tombstones and compactions land in
/// the tail.
fn stream_append(o: &Opts) -> Report {
    let mut r = Report::new("stream_append");
    let pin = OneCpu::pin();
    let parts = porto_parts(&[STREAM_CORPUS, HELD_OUT], o.seed);
    let (corpus, movers) = (&parts[0], &parts[1]);
    let order = permutation(movers.len(), o.seed);

    let (engine, setup) = cold_engine(o, corpus, &mut r.counts);
    let h = engine.handle();

    // Every replay of a mover streams under a fresh id, so each id's
    // points are exactly one mover's trajectory.
    let mut replay = 0usize;
    let mut point = 0usize;
    let mut completed: Vec<(u64, usize)> = Vec::new();
    let m = measure(o, true, &mut r.counts, |lat, counts| {
        let mover = order[replay % order.len()];
        let pts = movers[mover].points();
        let id = 1_000_000 + replay as u64;
        let t = Instant::now();
        let res = h.append_point(id, pts[point]);
        lat.push(us_since(t));
        counts.record(res);
        point += 1;
        if point == pts.len() {
            completed.push((id, mover));
            replay += 1;
            point = 0;
        }
        1
    });
    let coverage = serving_coverage(&r, &m.all);

    // Streamed index entries must equal a whole re-embed, bitwise.
    let model = ModelKind::TmnNm.build(&model_config());
    let sampled: Vec<_> = completed.iter().step_by(16).take(40).collect();
    let mut mismatches = 0;
    for &&(id, mover) in &sampled {
        let whole = encode_all(model.as_ref(), std::slice::from_ref(&movers[mover]), 1).remove(0);
        if engine.shards().get_vec(id) != Some(whole) {
            mismatches += 1;
        }
    }
    r.check(
        "streamed_equals_reembed",
        !sampled.is_empty() && mismatches == 0,
        format!("{mismatches} of {} sampled movers differ", sampled.len()),
    );
    if let Some(status) = r.counts.record(h.status()) {
        let s = status.shards;
        r.info(
            "tombstone_ratio",
            s.tombstones as f64 / (s.live + s.tombstones).max(1) as f64,
            "fraction",
        );
    }
    let snap = metrics::snapshot();
    let inserts = snap.counter(tmn_serve::SERVE_INSERTS_TOTAL).unwrap_or(0);
    let compactions = snap
        .counter(tmn_serve::SERVE_COMPACTIONS_TOTAL)
        .unwrap_or(0);
    r.info(
        "compactions_per_1k_inserts",
        compactions as f64 * 1e3 / inserts.max(1) as f64,
        "count",
    );
    drop((engine, pin));
    finish(&mut r, o, &setup, &m, 0.99, coverage);
    r
}

// ---- batch workloads -------------------------------------------------------

/// Per-step wall times and skipped steps from new telemetry lines.
pub fn telemetry_steps(lines: &[String], lat: &mut Samples, counts: &mut Counts) {
    for line in lines {
        let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
            continue;
        };
        let field = |k: &str| v.get_field(k).cloned();
        match field("record") {
            Some(serde_json::Value::Str(s)) if s == "batch" => {
                counts.attempted += 1;
                if let Some(serde_json::Value::Float(ms)) = field("wall_ms") {
                    lat.push(ms * 1e3);
                }
            }
            Some(serde_json::Value::Str(s)) if s == "event" => {
                if matches!(field("event"), Some(serde_json::Value::Str(e)) if e == "nonfinite_skip")
                {
                    counts.attempted += 1;
                    counts.failed += 1;
                }
            }
            _ => {}
        }
    }
}

/// Offline training of the paper's full, pair-dependent TMN: large-m
/// GEMMs, graphed forward, backward and Adam, no serving layer. A request
/// is one 64-pair gradient step; work is training pairs.
///
/// It runs the trainer's default serial path. With two data-parallel
/// workers every step spawns two threads and waits for the slower CPU, and
/// on a shared two-CPU host that put the run-to-run spread at 15-25%
/// against 3-5% serially; `train.parallel_efficiency` covers that path.
fn train_tmn(o: &Opts) -> Report {
    let mut r = Report::new("train_tmn");
    let train = porto(TRAIN_N, o.seed);
    let params = MetricParams::default();
    let mcfg = model_config();

    let mut setup = Samples::default();
    let mut result = None;
    // Set-up is everything before the first timed step: DTW targets, the
    // model, and one warm-up epoch that fills the trainer's prefix cache.
    for i in 0..o.setups() {
        let t0 = Instant::now();
        let truth = DistanceMatrix::compute(&train, Metric::Dtw, &params, THREADS);
        let model = ModelKind::Tmn.build(&mcfg);
        let (sink, buf) = TelemetrySink::memory();
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &truth,
            Metric::Dtw,
            params,
            Box::new(RankSampler),
            train_config(o.seed, 1),
            None,
        )
        .with_telemetry(sink);
        let first = trainer.train_epoch(0);
        setup.push(t0.elapsed().as_secs_f64());
        if i + 1 < o.setups() {
            continue;
        }
        let mut seen = buf.lines().len();
        let mut losses = vec![first.loss];
        let mut epoch = 0;
        let m = measure(o, false, &mut r.counts, |lat, counts| {
            epoch += 1;
            let stats = trainer.train_epoch(epoch);
            let lines = buf.lines();
            telemetry_steps(&lines[seen..], lat, counts);
            seen = lines.len();
            losses.push(stats.loss);
            stats.pairs as u64
        });
        result = Some((m, losses));
    }
    let (m, losses) = result.expect("at least one set-up");
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    r.info("train_loss", last as f64, "loss");
    r.check(
        "loss_finite_and_falling",
        losses.iter().all(|l| l.is_finite()) && losses.len() > 1 && last < first,
        format!(
            "epoch losses {first:.5} -> {last:.5} over {} epochs",
            losses.len()
        ),
    );
    finish(&mut r, o, &setup, &m, 0.9, None);
    r
}

/// The paper's exact "computation" baseline and the trainer's target
/// source: blocked, spilled DTW ground truth on two threads. No model and
/// no index. A request is one whole-matrix build; work is DTW pairs.
fn exact_gt(o: &Opts) -> Report {
    let mut r = Report::new("exact_gt");
    let dir = Scratch::new("exact_gt");
    let params = MetricParams::default();
    let generated = porto(GT_N, o.seed);

    // Set-up loads the corpus the way a ground-truth job reads it: written
    // to a TMNS file, mapped, CRC-verified and decoded.
    let corpus_path = dir.path("corpus.tmns");
    let mut setup = Samples::default();
    let mut trajs = Vec::new();
    for _ in 0..o.setups() {
        let t0 = Instant::now();
        let loaded = tmn_store::write_corpus(&corpus_path, &generated)
            .and_then(|()| CorpusFile::open(&corpus_path))
            .and_then(|f| {
                f.verify()
                    .map(|()| (0..f.len()).map(|i| f.get(i)).collect::<Vec<_>>())
            });
        trajs = r.counts.record(loaded).unwrap_or_default();
        setup.push(t0.elapsed().as_secs_f64());
    }
    let gt_path = dir.path("gt.tmns");
    let pairs = (GT_N * (GT_N - 1) / 2) as u64;
    let mut last = None;
    let m = measure(o, true, &mut r.counts, |lat, counts| {
        drop(last.take());
        let t = Instant::now();
        let res = BlockedDistanceMatrix::compute(
            &gt_path,
            &trajs,
            Metric::Dtw,
            &params,
            THREADS,
            GT_TILE,
        );
        lat.push(us_since(t));
        last = counts.record(res);
        pairs
    });

    // Spot cells must equal the metric bitwise, and every tile its CRC.
    let mut coverage = None;
    match &last {
        Some(gt) => {
            let mut rng = StdRng::seed_from_u64(o.seed ^ 0x6E7);
            let cells: Vec<(usize, usize)> = (0..64)
                .map(|_| (rng.gen_range(0..GT_N), rng.gen_range(0..GT_N)))
                .collect();
            let bad = cells
                .iter()
                .filter(|&&(i, j)| {
                    let want = if i == j {
                        0.0
                    } else {
                        Metric::Dtw.distance(&trajs[i], &trajs[j], &params)
                    };
                    gt.get(i, j).to_bits() != want.to_bits()
                })
                .count();
            r.check(
                "spot_cells_bitwise",
                bad == 0,
                format!("{bad} of {} cells differ", cells.len()),
            );
            let verified = gt.verify();
            r.check(
                "verify",
                verified.is_ok() && gt.len() == GT_N,
                format!("{verified:?}"),
            );
            if o.trace {
                // Share of the build's thread time spent in DTW itself.
                let dtw_us = probes::mean_dtw_us(&trajs, 2000, o.seed);
                let per_build = m.all.mean();
                coverage = Some(pairs as f64 * dtw_us / (THREADS as f64 * per_build));
            }
        }
        None => r.check("build", false, "no ground-truth build succeeded".into()),
    }
    finish(&mut r, o, &setup, &m, 0.9, coverage);
    r
}
