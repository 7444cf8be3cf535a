//! The request plane: one engine thread owning the model, corpus, and warm
//! embedding cache, fed by an admission queue.
//!
//! The models are built from `Rc`-based tensors and are deliberately
//! `!Send`, so the engine thread *builds* its own model from
//! (`ModelKind`, `ModelConfig`) rather than receiving one. Everything that
//! crosses the channel is plain data: trajectories in, `(id, distance)`
//! lists out.
//!
//! Admission batching: the loop blocks on one request, then drains whatever
//! else is already queued (up to `max_batch`). Every trajectory that needs
//! an embedding across the drained batch — inserts and ad-hoc queries alike
//! — goes through a *single* [`encode_all`] call, so the fused-RNN
//! `embed_nograd` forward amortizes over the whole admission window instead
//! of running once per request.

use crate::shard::{ShardSet, ShardSetConfig, ShardSetStatus};
use crate::{
    ServeError, APPEND_NS, SERVE_BATCH_SIZE, SERVE_CACHE_CORRUPT_TOTAL, SERVE_CACHE_HITS_TOTAL,
    SERVE_QUERIES_TOTAL, SERVE_QUEUE_DEPTH, SERVE_QUEUE_WAIT_NS, STREAM_APPENDS_TOTAL,
    STREAM_REINDEX_TOTAL,
};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use tmn_core::{ModelConfig, ModelKind, PairModel};
use tmn_eval::{encode_all, EmbeddingStore};
use tmn_store::CorpusFile;
use tmn_obs::metrics;
use tmn_obs::trace::{self, TraceCtx};
use tmn_traj::{Point, Trajectory};

/// Request-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub shard: ShardSetConfig,
    /// Admission window: how many queued requests one engine iteration
    /// drains (and therefore how many embeddings one forward amortizes).
    pub max_batch: usize,
    /// Streaming re-index threshold: an appended point re-inserts the
    /// trajectory into the HNSW index only when its embedding moved at
    /// least this far (L2) from the currently *indexed* one. `0.0` (the
    /// default) re-indexes on every append. While an append is skipped the
    /// index and warm cache keep serving the last indexed embedding; the
    /// stream state itself is always exact.
    pub reembed_min_delta: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { shard: ShardSetConfig::default(), max_batch: 32, reembed_min_delta: 0.0 }
    }
}

type Reply<T> = mpsc::Sender<Result<T, ServeError>>;

enum Req {
    Insert { id: u64, traj: Trajectory, reply: Reply<()> },
    Delete { id: u64, reply: Reply<bool> },
    Query { traj: Trajectory, k: usize, reply: Reply<Vec<(u64, f64)>> },
    QueryBatch { trajs: Vec<Trajectory>, k: usize, reply: Reply<Vec<Vec<(u64, f64)>>> },
    QueryId { id: u64, k: usize, reply: Reply<Vec<(u64, f64)>> },
    AppendPoint { id: u64, point: Point, reply: Reply<AppendOutcome> },
    QueryWindow { id: u64, last_k: usize, k: usize, reply: Reply<Vec<(u64, f64)>> },
    Status { reply: Reply<EngineStatus> },
    CorruptCache { id: u64, reply: Reply<bool> },
    Shutdown,
}

/// What actually crosses the admission queue: the request plus its trace
/// context and enqueue timestamp. The context is plain `Copy` data, so a
/// caller's trace survives the hop onto the engine thread; the timestamp
/// opens the queue-wait span that closes at drain time.
struct Envelope {
    ctx: TraceCtx,
    enq_ns: u64,
    req: Req,
}

/// What one [`ServeHandle::append_point`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendOutcome {
    /// Points the trajectory holds after this append.
    pub len: usize,
    /// Whether the moved embedding was re-inserted into the index (false
    /// when the move stayed under `reembed_min_delta`).
    pub reindexed: bool,
    /// L2 distance between the new embedding and the previously indexed
    /// one (`inf` for a trajectory's first point).
    pub delta: f64,
}

/// A cached embedding plus the checksum taken when it was computed. The
/// checksum is verified on every read; a mismatch means the bytes rotted
/// (or a fault test flipped them) and the entry must not be served.
struct CacheEntry {
    vec: Vec<f32>,
    sum: u64,
}

impl CacheEntry {
    fn new(vec: Vec<f32>) -> CacheEntry {
        let sum = checksum(&vec);
        CacheEntry { vec, sum }
    }

    fn valid(&self) -> bool {
        checksum(&self.vec) == self.sum
    }
}

/// FNV-1a over the embedding's f32 bit patterns.
fn checksum(v: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Point-in-time engine snapshot, JSON-serializable for scrapers.
#[derive(Debug, Clone, Serialize)]
pub struct EngineStatus {
    pub model: String,
    pub dim: usize,
    /// Trajectories retained for cache recovery.
    pub corpus: usize,
    /// Warm embeddings currently cached.
    pub cache_entries: usize,
    /// Live per-id streaming states (trajectories being appended to).
    pub streams: usize,
    pub shards: ShardSetStatus,
    /// True while any shard is fenced off; the engine is still serving,
    /// from the remaining shards.
    pub degraded_mode: bool,
}

impl EngineStatus {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("EngineStatus is always serializable")
    }
}

/// Cheap clonable front door to the engine thread. Methods block until the
/// engine replies; any number of threads may hold handles.
#[derive(Clone)]
pub struct ServeHandle {
    tx: mpsc::Sender<Envelope>,
    shards: Arc<ShardSet>,
}

impl ServeHandle {
    /// Single choke point for every request: begins the request trace
    /// (inert when tracing is off), stamps the enqueue time, blocks for the
    /// reply, then finishes the trace — by which point every span the
    /// engine thread recorded for it is already in the global ring, so the
    /// flight recorder assembles a complete tree.
    fn call<T>(&self, name: &'static str, make: impl FnOnce(Reply<T>) -> Req) -> Result<T, ServeError> {
        let req_span = trace::request_begin(name);
        let (tx, rx) = mpsc::channel();
        let env = Envelope { ctx: req_span.ctx(), enq_ns: trace::now_ns(), req: make(tx) };
        self.tx.send(env).map_err(|_| ServeError::EngineDown)?;
        let res = rx.recv().map_err(|_| ServeError::EngineDown)?;
        req_span.finish();
        res
    }

    /// Insert (or re-insert) trajectory `id`. A re-insert replaces the
    /// stored embedding and invalidates the cached one. Empty trajectories
    /// and non-finite coordinates are refused with
    /// [`ServeError::InvalidInput`], as in every call that carries points.
    pub fn insert(&self, id: u64, traj: Trajectory) -> Result<(), ServeError> {
        validate(traj.points())?;
        self.call("serve.insert", |reply| Req::Insert { id, traj, reply })
    }

    /// Delete trajectory `id`; `Ok(false)` when it was not live.
    pub fn delete(&self, id: u64) -> Result<bool, ServeError> {
        self.call("serve.delete", |reply| Req::Delete { id, reply })
    }

    /// Top-`k` most similar corpus trajectories to an ad-hoc query
    /// trajectory, as `(id, embedding distance)` ascending.
    pub fn query(&self, traj: Trajectory, k: usize) -> Result<Vec<(u64, f64)>, ServeError> {
        validate(traj.points())?;
        self.call("serve.query", |reply| Req::Query { traj, k, reply })
    }

    /// Batched [`query`](ServeHandle::query): all embeddings computed in
    /// one forward.
    pub fn query_batch(
        &self,
        trajs: Vec<Trajectory>,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f64)>>, ServeError> {
        trajs.iter().try_for_each(|t| validate(t.points()))?;
        self.call("serve.query_batch", |reply| Req::QueryBatch { trajs, k, reply })
    }

    /// Top-`k` for a trajectory already in the corpus, served from the warm
    /// embedding cache when its checksum verifies (recomputed via
    /// `embed_nograd` when it does not).
    pub fn query_id(&self, id: u64, k: usize) -> Result<Vec<(u64, f64)>, ServeError> {
        self.call("serve.query_id", |reply| Req::QueryId { id, k, reply })
    }

    /// Append one GPS point to trajectory `id`'s live stream. The embedding
    /// advances by one incremental model step (exact — bitwise equal to
    /// re-embedding the grown trajectory) and is re-inserted into the index
    /// unless it moved less than `reembed_min_delta` since the last
    /// re-index. Unknown ids start a fresh one-point trajectory; ids
    /// inserted whole (or warm-loaded) are resumed by replaying their
    /// stored points through the stream once.
    ///
    /// Fails with [`ServeError::DegradedShard`] — before any model work —
    /// when the id's shard is fenced off.
    pub fn append_point(&self, id: u64, point: Point) -> Result<AppendOutcome, ServeError> {
        validate(std::slice::from_ref(&point))?;
        self.call("serve.append", |reply| Req::AppendPoint { id, point, reply })
    }

    /// Top-`k` neighbours of the sliding window holding the last `last_k`
    /// points of corpus trajectory `id` (the whole trajectory when it is
    /// shorter). The window is embedded as a standalone trajectory.
    pub fn query_window(
        &self,
        id: u64,
        last_k: usize,
        k: usize,
    ) -> Result<Vec<(u64, f64)>, ServeError> {
        self.call("serve.query_window", |reply| Req::QueryWindow { id, last_k, k, reply })
    }

    pub fn status(&self) -> Result<EngineStatus, ServeError> {
        self.call("serve.status", |reply| Req::Status { reply })
    }

    /// Fault-injection hook: flip one bit of `id`'s cached embedding
    /// without touching its checksum. `Ok(false)` when nothing was cached.
    pub fn corrupt_cache(&self, id: u64) -> Result<bool, ServeError> {
        self.call("serve.corrupt_cache", |reply| Req::CorruptCache { id, reply })
    }

    /// Direct access to the vector-level data plane (bypasses the model;
    /// used by stress tests and by callers that precompute embeddings).
    pub fn shards(&self) -> &Arc<ShardSet> {
        &self.shards
    }
}

/// Refuse what the model cannot embed before it reaches the engine thread:
/// an empty trajectory would panic the batch builder there (taking the
/// engine down for every handle), and a non-finite coordinate would enter
/// the index as a NaN embedding that corrupts later rankings.
fn validate(points: &[Point]) -> Result<(), ServeError> {
    if points.is_empty() {
        return Err(ServeError::InvalidInput("empty trajectory".into()));
    }
    match points.iter().position(|p| !(p.lon.is_finite() && p.lat.is_finite())) {
        Some(i) => Err(ServeError::InvalidInput(format!("non-finite coordinate at point {i}"))),
        None => Ok(()),
    }
}

/// The serving engine: owns the worker thread. Dropping it (or calling
/// [`shutdown`](ServeEngine::shutdown)) stops the thread after the
/// in-flight admission batch drains.
pub struct ServeEngine {
    handle: ServeHandle,
    join: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Spawn the engine thread for `kind`. Pair-dependent models (full TMN)
    /// are rejected up front: their representations depend on the paired
    /// candidate, so a precomputed vector index cannot serve them — use
    /// [`ModelKind::TmnNm`] (the paper's ablation keeps 99%+ of the
    /// quality) or any other independent-embedding model.
    pub fn start(
        kind: ModelKind,
        mcfg: &ModelConfig,
        cfg: ServeConfig,
    ) -> Result<ServeEngine, ServeError> {
        ServeEngine::spawn(kind, mcfg, cfg, None, None)
    }

    /// [`start`](ServeEngine::start), but with trained weights: `params`
    /// is an encoded parameter buffer from
    /// [`tmn_core::checkpoint::save_params`] (typically a trained model's
    /// `params()`). Models are thread-local by design, so weights cross
    /// the thread boundary as bytes, not tensors; the buffer is validated
    /// against a scratch model here (shape, names, checksums) before the
    /// engine thread loads it into its own copy.
    pub fn start_with_params(
        kind: ModelKind,
        mcfg: &ModelConfig,
        cfg: ServeConfig,
        params: Vec<u8>,
    ) -> Result<ServeEngine, ServeError> {
        ServeEngine::spawn(kind, mcfg, cfg, Some(params), None)
    }

    /// [`start`](ServeEngine::start), but warm: the corpus trajectories and
    /// their embeddings come from the on-disk store (`tmn-store` files), so
    /// the engine begins life with every shard populated and every cache
    /// entry checksummed — no per-trajectory re-encoding, no cold queries.
    /// Row `i` of both files becomes external id `i`.
    ///
    /// The embeddings must have been produced by the same model/weights the
    /// engine is being started with; the engine checks dimensions and
    /// counts, not provenance.
    pub fn start_warm(
        kind: ModelKind,
        mcfg: &ModelConfig,
        cfg: ServeConfig,
        corpus_file: &CorpusFile,
        embeddings: &EmbeddingStore,
    ) -> Result<ServeEngine, ServeError> {
        ServeEngine::spawn(kind, mcfg, cfg, None, Some((corpus_file, embeddings)))
    }

    /// The one path behind every `start*`: refuse pair-dependent models,
    /// validate the optional weight buffer, build the shard set (for a warm
    /// start, bulk-loaded from the stores, with the corpus and cache
    /// prefilled), then spawn the engine thread, which builds its own model.
    fn spawn(
        kind: ModelKind,
        mcfg: &ModelConfig,
        cfg: ServeConfig,
        params: Option<Vec<u8>>,
        warm: Option<(&CorpusFile, &EmbeddingStore)>,
    ) -> Result<ServeEngine, ServeError> {
        if kind == ModelKind::Tmn {
            return Err(ServeError::PairDependentModel(kind.name()));
        }
        if let Some(params) = &params {
            let scratch = kind.build(mcfg);
            tmn_core::checkpoint::load_params(scratch.params(), params)
                .map_err(|e| ServeError::BadWeights(e.to_string()))?;
        }
        let shards = Arc::new(ShardSet::new(mcfg.dim, cfg.shard.clone()));
        let mut corpus: HashMap<u64, Trajectory> = HashMap::new();
        let mut cache: HashMap<u64, CacheEntry> = HashMap::new();
        if let Some((corpus_file, embeddings)) = warm {
            // Refuses an embedding store whose dim is not the model's.
            shards.warm_load(embeddings)?;
            assert_eq!(
                corpus_file.len(),
                embeddings.len(),
                "corpus and embedding stores must have one row per trajectory"
            );
            let view = corpus_file.view();
            corpus.reserve(corpus_file.len());
            cache.reserve(corpus_file.len());
            for i in 0..corpus_file.len() {
                corpus.insert(i as u64, view.get(i));
                cache.insert(i as u64, CacheEntry::new(embeddings.get(i).to_vec()));
            }
        }
        let (tx, rx) = mpsc::channel();
        let thread_shards = Arc::clone(&shards);
        let mcfg = *mcfg;
        let join = std::thread::Builder::new()
            .name("tmn-serve-engine".into())
            .spawn(move || {
                let model = kind.build(&mcfg);
                if let Some(params) = &params {
                    tmn_core::checkpoint::load_params(model.params(), params)
                        .expect("weight buffer was validated before spawn");
                }
                assert!(!model.is_pair_dependent(), "pair-dependence was checked at start");
                assert_eq!(model.dim(), thread_shards.dim(), "model dim vs shard dim");
                run(
                    model,
                    thread_shards,
                    rx,
                    cfg.max_batch.max(1),
                    cfg.reembed_min_delta,
                    corpus,
                    cache,
                );
            })
            .expect("spawn tmn-serve engine thread");
        Ok(ServeEngine { handle: ServeHandle { tx, shards }, join: Some(join) })
    }

    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    pub fn shards(&self) -> &Arc<ShardSet> {
        &self.handle.shards
    }

    /// Stop the engine thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.handle.tx.send(Envelope {
                ctx: TraceCtx::disabled(),
                enq_ns: trace::now_ns(),
                req: Req::Shutdown,
            });
            let _ = join.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The engine loop. Runs on the engine thread, which is the only place the
/// model (and therefore any tensor) exists. `corpus`/`cache` arrive empty
/// from a cold start and prefilled from [`ServeEngine::start_warm`]; the
/// loop treats both identically.
fn run(
    model: Box<dyn PairModel>,
    shards: Arc<ShardSet>,
    rx: mpsc::Receiver<Envelope>,
    max_batch: usize,
    reembed_min_delta: f64,
    mut corpus: HashMap<u64, Trajectory>,
    mut cache: HashMap<u64, CacheEntry>,
) {
    // Live per-id stream states — the resumable model side of the warm
    // cache (which holds the *indexed* embedding for the same id).
    let mut streams: HashMap<u64, tmn_core::models::ModelStream> = HashMap::new();
    let can_stream = model.stream_begin().is_some();
    let mut batch_id: u64 = 0;
    loop {
        // Block for one request, then drain the admission window.
        let Ok(first) = rx.recv() else { return };
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(env) => batch.push(env),
                Err(_) => break,
            }
        }

        // Queue accounting at the drain boundary: depth is how many
        // requests this admission window swallowed; each request's
        // queue-wait span runs from its enqueue stamp to its close here.
        batch_id = batch_id.wrapping_add(1);
        metrics::gauge_set(SERVE_QUEUE_DEPTH, batch.len() as f64);
        for env in &batch {
            trace::span_since(env.ctx, "serve.queue_wait", env.enq_ns)
                .attr("batch_id", batch_id)
                .attr("batch_size", batch.len() as u64)
                .histogram(SERVE_QUEUE_WAIT_NS)
                .finish();
        }

        // One fused forward for every trajectory the batch needs embedded.
        // Inserts routed to a degraded shard are refused later without an
        // embed slot: checking here keeps the fused forward from spending
        // work on a write that cannot be applied.
        let mut trajs: Vec<Trajectory> = Vec::new();
        let mut skip_insert = vec![false; batch.len()];
        // Trajectories request i contributed to the fused forward (> 0 ⇒
        // this request's latency includes the shared embed).
        let mut contributed = vec![0usize; batch.len()];
        for (i, env) in batch.iter().enumerate() {
            match &env.req {
                Req::Insert { id, traj, .. } => {
                    if shards.is_degraded(shards.shard_of(*id)) {
                        skip_insert[i] = true;
                    } else {
                        trajs.push(traj.clone());
                        contributed[i] = 1;
                    }
                }
                Req::Query { traj, .. } => {
                    trajs.push(traj.clone());
                    contributed[i] = 1;
                }
                Req::QueryBatch { trajs: ts, .. } => {
                    trajs.extend(ts.iter().cloned());
                    contributed[i] = ts.len();
                }
                _ => {}
            }
        }
        let embeds = if trajs.is_empty() {
            Vec::new()
        } else {
            metrics::gauge_set(SERVE_BATCH_SIZE, trajs.len() as f64);
            // The forward is shared: one serve.embed span times it, lands in
            // the first traced contributor's tree and carries the histogram
            // exemplar. Every other traced contributor gets a span over the
            // same interval, so each request's tree shows the full embed
            // cost it waited on.
            let first =
                (0..batch.len()).find(|&i| contributed[i] > 0 && batch[i].ctx.is_active());
            let attrs = |i: usize| {
                [
                    ("batch_id", batch_id),
                    ("embed_batch", trajs.len() as u64),
                    ("trajs", contributed[i] as u64),
                ]
            };
            let ctx = first.map_or_else(TraceCtx::disabled, |i| batch[i].ctx);
            let span = attrs(first.unwrap_or(0))
                .into_iter()
                .fold(trace::span_under(ctx, "serve.embed"), |s, (k, v)| s.attr(k, v))
                .histogram(tmn_eval::QUERY_EMBED_NS);
            let start = span.start_ns().expect("histogram spans are timed");
            let out = encode_all(model.as_ref(), &trajs, trajs.len());
            let dur = span.finish();
            for (i, env) in batch.iter().enumerate() {
                if contributed[i] > 0 && Some(i) != first {
                    trace::record_span(env.ctx, "serve.embed", start, dur, &attrs(i));
                }
            }
            out
        };

        let mut cursor = 0usize;
        let mut shutdown = false;
        for (i, env) in batch.into_iter().enumerate() {
            let Envelope { ctx, req, .. } = env;
            // Everything dispatched below (shard search spans, rerank,
            // merge, stream steps, traced metric observations) lands under
            // this request's trace via the thread-local ambient context.
            let _ambient = trace::attach(ctx);
            match req {
                Req::Insert { id, traj, reply } => {
                    if skip_insert[i] {
                        let _ = reply.send(Err(ServeError::DegradedShard(shards.shard_of(id))));
                        continue;
                    }
                    let emb = &embeds[cursor];
                    cursor += 1;
                    let res = shards.insert(id, emb);
                    if res.is_ok() {
                        corpus.insert(id, traj);
                        // Re-inserts overwrite: explicit cache invalidation.
                        cache.insert(id, CacheEntry::new(emb.clone()));
                        // The whole trajectory replaced whatever was
                        // streamed; the next append re-seeds from the corpus.
                        streams.remove(&id);
                    }
                    let _ = reply.send(res);
                }
                Req::Delete { id, reply } => {
                    let res = shards.delete(id);
                    if let Ok(true) = res {
                        corpus.remove(&id);
                        cache.remove(&id);
                        streams.remove(&id);
                    }
                    let _ = reply.send(res);
                }
                Req::Query { traj: _, k, reply } => {
                    let emb = &embeds[cursor];
                    cursor += 1;
                    metrics::counter_add(SERVE_QUERIES_TOTAL, 1);
                    let _ = reply.send(shards.query(emb, k));
                }
                Req::QueryBatch { trajs: ts, k, reply } => {
                    let n = ts.len();
                    let res: Result<Vec<_>, ServeError> =
                        embeds[cursor..cursor + n].iter().map(|e| shards.query(e, k)).collect();
                    cursor += n;
                    metrics::counter_add(SERVE_QUERIES_TOTAL, n as u64);
                    let _ = reply.send(res);
                }
                Req::QueryId { id, k, reply } => {
                    let emb = match cached_embedding(&mut cache, &corpus, model.as_ref(), id) {
                        Ok(emb) => emb,
                        Err(e) => {
                            let _ = reply.send(Err(e));
                            continue;
                        }
                    };
                    metrics::counter_add(SERVE_QUERIES_TOTAL, 1);
                    let _ = reply.send(shards.query(&emb, k));
                }
                Req::AppendPoint { id, point, reply } => {
                    let shard = shards.shard_of(id);
                    // Degraded check before any model work: a refused
                    // append consumes nothing, so the caller can retry the
                    // same point once the shard is unfenced.
                    if shards.is_degraded(shard) {
                        let _ = reply.send(Err(ServeError::DegradedShard(shard)));
                        continue;
                    }
                    if !can_stream {
                        let _ = reply.send(Err(ServeError::NoStreamPath(model.name())));
                        continue;
                    }
                    let append = trace::span("stream.append").histogram(APPEND_NS);
                    let emb = {
                        let _step = trace::span("stream.step");
                        let stream = streams.entry(id).or_insert_with(|| {
                            let mut s = model.stream_begin().expect("checked at engine start");
                            // Resume an id inserted whole (or warm-loaded):
                            // replay its stored points through the stream,
                            // once, O(len).
                            if let Some(existing) = corpus.get(&id) {
                                for &p in existing.points() {
                                    model.embed_incremental(&mut s, p);
                                }
                            }
                            s
                        });
                        model.embed_incremental(stream, point)
                    };
                    let entry = corpus.entry(id).or_default();
                    entry.push(point);
                    let len = entry.len();
                    let delta = {
                        let _delta = trace::span("stream.delta");
                        match cache.get(&id) {
                            Some(indexed) => l2(&emb, &indexed.vec),
                            None => f64::INFINITY, // first point always indexes
                        }
                    };
                    let res = if delta >= reembed_min_delta {
                        let _reindex = trace::span("stream.reindex");
                        // A re-insert updates the id's graph node in place
                        // (no tombstone); cache mirrors whatever the index
                        // holds.
                        match shards.insert(id, &emb) {
                            Ok(()) => {
                                cache.insert(id, CacheEntry::new(emb));
                                metrics::counter_add(STREAM_REINDEX_TOTAL, 1);
                                Ok(AppendOutcome { len, reindexed: true, delta })
                            }
                            // Lost a race with a concurrent fault: the point
                            // is consumed (the stream cannot step back) but
                            // the index keeps the previous embedding.
                            Err(e) => Err(e),
                        }
                    } else {
                        Ok(AppendOutcome { len, reindexed: false, delta })
                    };
                    metrics::counter_add(STREAM_APPENDS_TOTAL, 1);
                    append.finish();
                    let _ = reply.send(res);
                }
                Req::QueryWindow { id, last_k, k, reply } => {
                    // Resolved at dispatch (not admission) time so appends
                    // earlier in the same batch are already visible.
                    let res = match corpus.get(&id) {
                        None => Err(ServeError::UnknownId(id)),
                        Some(traj) => {
                            let emb = embed_one(model.as_ref(), &traj.last_window(last_k.max(1)));
                            metrics::counter_add(SERVE_QUERIES_TOTAL, 1);
                            shards.query(&emb, k)
                        }
                    };
                    let _ = reply.send(res);
                }
                Req::Status { reply } => {
                    let shard_status = shards.status();
                    let degraded = shard_status.degraded_mode;
                    let _ = reply.send(Ok(EngineStatus {
                        model: model.name().to_string(),
                        dim: model.dim(),
                        corpus: corpus.len(),
                        cache_entries: cache.len(),
                        streams: streams.len(),
                        shards: shard_status,
                        degraded_mode: degraded,
                    }));
                }
                Req::CorruptCache { id, reply } => {
                    let hit = match cache.get_mut(&id) {
                        Some(entry) if !entry.vec.is_empty() => {
                            entry.vec[0] = f32::from_bits(entry.vec[0].to_bits() ^ 1);
                            true
                        }
                        _ => false,
                    };
                    let _ = reply.send(Ok(hit));
                }
                Req::Shutdown => shutdown = true,
            }
        }
        if shutdown {
            return;
        }
    }
}

/// L2 distance between two embeddings (f64 accumulation).
fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// One trajectory through the tape-free forward, timed by a `serve.embed`
/// span under the ambient request: it feeds `query_embed_ns` with that
/// request's trace id as exemplar.
fn embed_one(model: &dyn PairModel, traj: &Trajectory) -> Vec<f32> {
    let _span = trace::span("serve.embed").histogram(tmn_eval::QUERY_EMBED_NS);
    encode_all(model, std::slice::from_ref(traj), 1).remove(0)
}

/// Resolve the embedding for a corpus id: warm cache when the checksum
/// verifies, recompute (and repair the cache) when it does not.
fn cached_embedding(
    cache: &mut HashMap<u64, CacheEntry>,
    corpus: &HashMap<u64, Trajectory>,
    model: &dyn PairModel,
    id: u64,
) -> Result<Vec<f32>, ServeError> {
    match cache.get(&id) {
        Some(entry) if entry.valid() => {
            metrics::counter_add(SERVE_CACHE_HITS_TOTAL, 1);
            return Ok(entry.vec.clone());
        }
        Some(_) => metrics::counter_add(SERVE_CACHE_CORRUPT_TOTAL, 1),
        None => {}
    }
    let traj = corpus.get(&id).ok_or(ServeError::UnknownId(id))?;
    let emb = embed_one(model, traj);
    cache.insert(id, CacheEntry::new(emb.clone()));
    Ok(emb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_traj::Point;

    fn traj(seed: u64, len: usize) -> Trajectory {
        let pts = (0..len)
            .map(|i| {
                let h = tmn_index::splitmix64(seed * 131 + i as u64);
                Point {
                    lon: (h % 1000) as f64 / 1000.0,
                    lat: ((h >> 10) % 1000) as f64 / 1000.0,
                }
            })
            .collect();
        Trajectory::new(pts)
    }

    fn engine() -> ServeEngine {
        let cfg = ServeConfig {
            shard: ShardSetConfig { shards: 2, shortlist: 32 },
            max_batch: 8,
            ..Default::default()
        };
        ServeEngine::start(ModelKind::TmnNm, &ModelConfig { dim: 16, seed: 7 }, cfg).unwrap()
    }

    #[test]
    fn pair_dependent_model_is_rejected() {
        let err = ServeEngine::start(
            ModelKind::Tmn,
            &ModelConfig { dim: 16, seed: 7 },
            ServeConfig::default(),
        )
        .err()
        .expect("full TMN must be rejected");
        assert_eq!(err, ServeError::PairDependentModel("TMN"));
    }

    #[test]
    fn insert_query_roundtrip() {
        let engine = engine();
        let h = engine.handle();
        for id in 0..20u64 {
            h.insert(id, traj(id, 12)).unwrap();
        }
        // A corpus trajectory's own embedding is its nearest neighbour.
        let top = h.query(traj(5, 12), 3).unwrap();
        assert_eq!(top.len(), 3, "query must return k results");
        assert_eq!(top[0].0, 5);
        assert!(top[0].1 <= 1e-6, "self-distance {} not ~0", top[0].1);
        // By-id path agrees with the ad-hoc path.
        assert_eq!(h.query_id(5, 3).unwrap(), top);
        assert!(h.delete(5).unwrap());
        assert!(h.query(traj(5, 12), 20).unwrap().iter().all(|&(id, _)| id != 5));
        assert_eq!(h.query_id(5, 3), Err(ServeError::UnknownId(5)));
        engine.shutdown();
    }

    #[test]
    fn batched_queries_match_singles() {
        let engine = engine();
        let h = engine.handle();
        for id in 0..30u64 {
            h.insert(id, traj(id, 10)).unwrap();
        }
        let queries: Vec<Trajectory> = (0..6).map(|i| traj(100 + i, 10)).collect();
        let batched = h.query_batch(queries.clone(), 5).unwrap();
        for (q, b) in queries.into_iter().zip(batched) {
            // Embedding numerics may differ at the ULP level between batch
            // shapes; ranked ids must agree and distances stay within fp
            // noise of each other.
            let single = h.query(q, 5).unwrap();
            let ids = |r: &[(u64, f64)]| r.iter().map(|&(id, _)| id).collect::<Vec<_>>();
            assert_eq!(ids(&single), ids(&b), "batched ranking diverged from single");
            for (s, t) in single.iter().zip(&b) {
                assert!((s.1 - t.1).abs() < 1e-5, "distance drift {} vs {}", s.1, t.1);
            }
        }
    }

    #[test]
    fn status_reports_corpus_and_cache() {
        let engine = engine();
        let h = engine.handle();
        for id in 0..10u64 {
            h.insert(id, traj(id, 8)).unwrap();
        }
        h.delete(3).unwrap();
        let status = h.status().unwrap();
        assert_eq!(status.model, "TMN-NM");
        assert_eq!(status.dim, 16);
        assert_eq!(status.corpus, 9);
        assert_eq!(status.cache_entries, 9);
        assert_eq!(status.shards.live, 9);
        assert!(!status.degraded_mode);
        let json = status.to_json();
        assert!(json.contains("\"degraded_mode\":false"), "flag missing from {json}");
    }

    #[test]
    fn append_point_matches_whole_insert_bitwise() {
        // Stream id 1 point-by-point; insert the identical trajectory whole
        // as id 2. Sequential blocking calls keep every admission batch at
        // size 1, so both ids embed at bs = 1 and the indexed vectors must
        // be bitwise equal — the engine-level face of the stream oracle.
        let engine = engine();
        let h = engine.handle();
        let t = traj(77, 9);
        for (i, &p) in t.points().iter().enumerate() {
            let out = h.append_point(1, p).unwrap();
            assert_eq!(out.len, i + 1);
            assert!(out.reindexed, "default config re-indexes every append");
            // Delta is measured against the indexed embedding: none exists
            // before the first point.
            if i == 0 {
                assert!(out.delta.is_infinite(), "first append has no previous embedding");
            } else {
                assert!(out.delta.is_finite() && out.delta >= 0.0, "bad delta {}", out.delta);
            }
        }
        h.insert(2, t).unwrap();
        let bits = |id| {
            engine.shards().get_vec(id).unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(1), bits(2), "streamed index entry diverged from whole-trajectory insert");
        // The streamed id serves queries like any other corpus entry.
        assert_eq!(h.query_id(1, 2).unwrap()[0].0, 1);
        assert_eq!(h.status().unwrap().streams, 1);
        engine.shutdown();
    }

    #[test]
    fn append_resumes_a_whole_inserted_trajectory() {
        let engine = engine();
        let h = engine.handle();
        let t = traj(31, 7);
        h.insert(4, t.clone()).unwrap();
        // The first append replays the stored points into a fresh stream;
        // the later ones step that stream incrementally.
        let mut grown = t;
        for (i, p) in traj(32, 5).points().iter().enumerate() {
            let out = h.append_point(4, *p).unwrap();
            assert_eq!(out.len, 8 + i, "append {i} must extend the 7 stored points");
            grown.push(*p);
        }
        // Reference: the grown trajectory inserted whole under another id.
        h.insert(5, grown).unwrap();
        let bits = |id| {
            engine.shards().get_vec(id).unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(4), bits(5), "appends after a whole insert diverged from the grown one");
        engine.shutdown();
    }

    #[test]
    fn reembed_min_delta_skips_index_churn() {
        let cfg = ServeConfig {
            shard: ShardSetConfig { shards: 2, shortlist: 32 },
            max_batch: 8,
            reembed_min_delta: f64::MAX,
        };
        let engine =
            ServeEngine::start(ModelKind::TmnNm, &ModelConfig { dim: 16, seed: 7 }, cfg).unwrap();
        let h = engine.handle();
        let t = traj(12, 6);
        let first = h.append_point(9, t.points()[0]).unwrap();
        assert!(first.reindexed, "a trajectory's first point must always index");
        assert!(first.delta.is_infinite());
        let bits = || {
            engine.shards().get_vec(9).unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let indexed = bits();
        for &p in &t.points()[1..] {
            let out = h.append_point(9, p).unwrap();
            assert!(!out.reindexed, "delta {} cannot clear f64::MAX", out.delta);
            assert!(out.delta.is_finite());
        }
        // The index (and the cache feeding query_id) still hold the first
        // point's embedding: skipped appends cause zero churn.
        assert_eq!(bits(), indexed);
        assert_eq!(h.status().unwrap().corpus, 1);
        engine.shutdown();
    }

    #[test]
    fn query_window_embeds_the_last_points() {
        let engine = engine();
        let h = engine.handle();
        for id in 0..15u64 {
            h.insert(id, traj(id, 10)).unwrap();
        }
        let t = traj(50, 12);
        for &p in t.points() {
            h.append_point(50, p).unwrap();
        }
        // The window query must rank exactly like an ad-hoc query over the
        // same suffix (both embed at bs = 1 → bitwise-equal embeddings).
        let window = t.last_window(4);
        assert_eq!(h.query_window(50, 4, 5).unwrap(), h.query(window, 5).unwrap());
        // Window larger than the trajectory = the whole trajectory.
        assert_eq!(h.query_window(50, 99, 5).unwrap(), h.query(t, 5).unwrap());
        assert_eq!(h.query_window(777, 4, 5), Err(ServeError::UnknownId(777)));
        engine.shutdown();
    }

    #[test]
    fn degraded_shard_refuses_writes_before_embedding() {
        // Regression: inserts used to burn an embed slot even when the
        // target shard was fenced off. The empty trajectory is the tripwire
        // — embedding it panics in SideBatch::build, so if the engine
        // survives and answers DegradedShard, no embedding was attempted.
        // It goes through `call` directly: the handle's input validation
        // would refuse it before it reached the engine thread.
        let engine = engine();
        let h = engine.handle();
        let victim = engine.shards().shard_of(3);
        // A corpus id on the OTHER shard, so reads stay answerable.
        let healthy = (0..64u64).find(|&id| engine.shards().shard_of(id) != victim).unwrap();
        h.insert(healthy, traj(healthy, 8)).unwrap();
        engine.shards().fault_poison(victim);
        let tripwire = h.call("serve.insert", |reply| Req::Insert {
            id: 3,
            traj: Trajectory::default(),
            reply,
        });
        assert_eq!(tripwire, Err(ServeError::DegradedShard(victim)));
        assert_eq!(h.status().unwrap().corpus, 1, "a refused insert must not reach the corpus");
        // Appends check the shard before any model work too: no stream
        // state may be created for a refused append.
        let streams_before = h.status().unwrap().streams;
        assert_eq!(
            h.append_point(3, Point { lon: 0.1, lat: 0.2 }),
            Err(ServeError::DegradedShard(victim))
        );
        assert_eq!(h.status().unwrap().streams, streams_before);
        // The engine thread is alive and healthy shards keep serving.
        assert!(!h.query(traj(healthy, 8), 1).unwrap().is_empty());
        engine.shutdown();
    }

    #[test]
    fn engine_down_after_shutdown() {
        let engine = engine();
        let h = engine.handle();
        h.insert(1, traj(1, 8)).unwrap();
        engine.shutdown();
        assert_eq!(h.delete(1), Err(ServeError::EngineDown));
    }
}
