//! The concurrent data plane: per-core HNSW shards behind `RwLock`s.
//!
//! Locking choice: RwLock-per-shard rather than epoch-based snapshots.
//! Queries take read locks (many concurrent readers per shard), mutations
//! take the one shard's write lock — so a write stalls only the readers of
//! that shard, 1/N of traffic, and never blocks the scatter-gather on the
//! other shards. Every mutation bumps the shard's epoch; a reader observes
//! one epoch for the whole critical section (verified by the concurrency
//! stress suite), which is exactly the consistency the merge needs: each
//! per-shard shortlist is a snapshot, and the merged top-k is a pure
//! function of those snapshots.
//!
//! A panic inside a write critical section poisons that shard's lock. The
//! set detects the poison on the next access, fences the shard off
//! (degraded mode: reads skip it, writes to it are refused with
//! [`ServeError::DegradedShard`]) and keeps serving from the rest.

use crate::{
    ServeError, SERVE_COMPACTIONS_TOTAL, SERVE_DEGRADED_SHARDS, SERVE_DELETES_TOTAL,
    SERVE_INSERTS_TOTAL, SHARD_IMBALANCE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use tmn_eval::embedding_distance;
use tmn_index::{Hnsw, HnswConfig, ShardRouter};
use tmn_obs::metrics;
use tmn_obs::trace;

/// Data-plane configuration: the two settings a deployment chooses. Every
/// shard's graph uses [`HnswConfig::default`], and the rebuild policy is
/// fixed by [`COMPACT_RATIO`] and [`COMPACT_MIN`].
#[derive(Debug, Clone)]
pub struct ShardSetConfig {
    /// Shard count; defaults to the host's available parallelism.
    pub shards: usize,
    /// Per-shard shortlist (beam width); candidates are exact-reranked.
    pub shortlist: usize,
}

impl Default for ShardSetConfig {
    fn default() -> ShardSetConfig {
        ShardSetConfig {
            shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            shortlist: 64,
        }
    }
}

/// An insert rebuilds its shard once the shard's tombstones exceed this
/// fraction of its nodes.
pub const COMPACT_RATIO: f64 = 0.35;

/// A shard with fewer nodes than this never rebuilds: churn on a tiny
/// shard is cheaper to tolerate than to rebuild.
pub const COMPACT_MIN: usize = 64;

/// Seed of the per-shard level-draw RNGs (shard `s` uses `SEED + s`).
const SEED: u64 = 0x5EED_5EED;

/// One shard's guarded state.
struct ShardInner {
    /// The graph, and the only copy of each vector: rerank, rebuilds and
    /// exact scans read a live id's row through `int_of_ext`.
    hnsw: Hnsw,
    /// Internal HNSW id → external trajectory id (aligned with insertion).
    ext_of_int: Vec<u64>,
    /// External id → its *current* internal id.
    int_of_ext: HashMap<u64, usize>,
    /// Bumped on every mutation; constant across a read critical section.
    epoch: u64,
    rng: StdRng,
}

impl ShardInner {
    fn new(dim: usize, seed: u64) -> ShardInner {
        ShardInner {
            hnsw: Hnsw::new(dim, HnswConfig::default()),
            ext_of_int: Vec::new(),
            int_of_ext: HashMap::new(),
            epoch: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Graph walk only: the approximate shortlist as internal ids. Split
    /// from [`rerank`](ShardInner::rerank) so the two stages are separately
    /// attributable (each gets its own trace span under the scatter-gather).
    fn shortlist_ints(&self, q: &[f32], shortlist: usize) -> Vec<usize> {
        self.hnsw.knn_ef(q, shortlist, shortlist).into_iter().map(|(int, _)| int).collect()
    }

    /// Exact-f32 rerank of a shortlist. Returns exact-distance candidates,
    /// unsorted.
    fn rerank(&self, q: &[f32], ints: &[usize]) -> Vec<(u64, f64)> {
        ints.iter()
            .filter_map(|&int| {
                let ext = self.ext_of_int[int];
                // A tombstoned int never surfaces, so `ext` maps back to
                // `int` unless the maps were corrupted — keep the check as
                // defence in depth against serving a stale embedding.
                if self.int_of_ext.get(&ext) != Some(&int) {
                    return None;
                }
                Some((ext, embedding_distance(q, self.hnsw.vector(int))))
            })
            .collect()
    }

    /// Rebuild the HNSW from the live vectors (drops every tombstone).
    /// Deterministic: ids are re-inserted in ascending external order. The
    /// `shard.compact` span puts the rebuild under the request that
    /// triggered it (a `stream.reindex`, say), so the flight recorder
    /// names the tail it causes.
    fn compact(&mut self, dim: usize) {
        let _span = trace::span("shard.compact")
            .attr("live", self.hnsw.live_len() as u64)
            .attr("tombstones", self.hnsw.tombstones() as u64);
        let mut live: Vec<(u64, usize)> = self.int_of_ext.iter().map(|(&e, &i)| (e, i)).collect();
        live.sort_unstable();
        let mut hnsw = Hnsw::new(dim, HnswConfig::default());
        hnsw.reserve(live.len());
        let mut ext_of_int = Vec::with_capacity(live.len());
        let mut int_of_ext = HashMap::with_capacity(live.len());
        for &(id, old) in &live {
            let int = hnsw.insert(self.hnsw.vector(old), &mut self.rng);
            ext_of_int.push(id);
            int_of_ext.insert(id, int);
        }
        self.hnsw = hnsw;
        self.ext_of_int = ext_of_int;
        self.int_of_ext = int_of_ext;
        self.epoch += 1;
        metrics::counter_add(SERVE_COMPACTIONS_TOTAL, 1);
    }
}

/// Merge exact-distance candidates into one ascending top-`k`;
/// deterministic (distance then id) regardless of shard arrival order.
fn merge_topk64(mut candidates: Vec<(u64, f64)>, k: usize) -> Vec<(u64, f64)> {
    candidates.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    candidates.truncate(k);
    candidates
}

/// Status of one shard at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardStatus {
    pub shard: usize,
    pub live: usize,
    pub tombstones: usize,
    pub epoch: u64,
    pub degraded: bool,
}

/// Status of the whole set; `degraded_mode` is true while any shard is
/// fenced off.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardSetStatus {
    pub shards: Vec<ShardStatus>,
    pub live: usize,
    pub tombstones: usize,
    pub degraded_mode: bool,
    /// max/mean live occupancy over healthy shards (1.0 = balanced).
    pub shard_imbalance: f64,
}

/// Epochs one query observed on one shard: captured right after the read
/// lock was granted and again before it was released. The concurrency
/// suite asserts `start == end` — the lock discipline's visible invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochObservation {
    pub shard: usize,
    pub start: u64,
    pub end: u64,
}

/// Sharded incremental vector index: the `Sync` core of the serving engine.
pub struct ShardSet {
    /// Per-shard shortlist ([`ShardSetConfig::shortlist`]).
    shortlist: usize,
    dim: usize,
    router: ShardRouter,
    shards: Vec<RwLock<ShardInner>>,
    degraded: Vec<AtomicBool>,
}

impl ShardSet {
    pub fn new(dim: usize, cfg: ShardSetConfig) -> ShardSet {
        assert!(dim > 0, "ShardSet: dimension must be positive");
        let shards = cfg.shards.max(1);
        let router = ShardRouter::new(shards);
        let inners = (0..shards)
            .map(|s| RwLock::new(ShardInner::new(dim, SEED.wrapping_add(s as u64))))
            .collect();
        let degraded = (0..shards).map(|_| AtomicBool::new(false)).collect();
        ShardSet { shortlist: cfg.shortlist, dim, router, shards: inners, degraded }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Which shard owns `id` (stable across the set's lifetime).
    pub fn shard_of(&self, id: u64) -> usize {
        self.router.shard_of(id)
    }

    fn mark_degraded(&self, s: usize) {
        if !self.degraded[s].swap(true, Ordering::SeqCst) {
            let n = self.degraded.iter().filter(|d| d.load(Ordering::SeqCst)).count();
            metrics::gauge_set(SERVE_DEGRADED_SHARDS, n as f64);
        }
    }

    /// Whether shard `s` is fenced off.
    pub fn is_degraded(&self, s: usize) -> bool {
        self.degraded[s].load(Ordering::SeqCst)
    }

    /// Refuse a vector the shards cannot index or rank: the wrong length,
    /// or a NaN/±inf component — which would enter the graph, and whose
    /// distances the merge would order as ties.
    fn validate(&self, v: &[f32]) -> Result<(), ServeError> {
        if v.len() != self.dim {
            return Err(ServeError::DimMismatch { expected: self.dim, got: v.len() });
        }
        match v.iter().position(|x| !x.is_finite()) {
            Some(i) => Err(ServeError::InvalidInput(format!("non-finite component at index {i}"))),
            None => Ok(()),
        }
    }

    fn read_shard(&self, s: usize) -> Option<RwLockReadGuard<'_, ShardInner>> {
        if self.degraded[s].load(Ordering::SeqCst) {
            return None;
        }
        match self.shards[s].read() {
            Ok(g) => Some(g),
            Err(_) => {
                self.mark_degraded(s);
                None
            }
        }
    }

    fn write_shard(&self, s: usize) -> Option<RwLockWriteGuard<'_, ShardInner>> {
        if self.degraded[s].load(Ordering::SeqCst) {
            return None;
        }
        match self.shards[s].write() {
            Ok(g) => Some(g),
            Err(_) => {
                self.mark_degraded(s);
                None
            }
        }
    }

    /// Insert (or replace) the embedding for external id `id`. A re-insert
    /// of a live id updates its graph node in place ([`Hnsw::update`]): it
    /// leaves no tombstone, so only deletes bring a shard towards
    /// compaction, which the next insert into it triggers once tombstones
    /// pass [`COMPACT_RATIO`]. A wrong-length vector is refused with
    /// [`ServeError::DimMismatch`], a non-finite one with
    /// [`ServeError::InvalidInput`] (as are such queries).
    pub fn insert(&self, id: u64, v: &[f32]) -> Result<(), ServeError> {
        self.validate(v)?;
        let s = self.shard_of(id);
        let mut guard = self.write_shard(s).ok_or(ServeError::DegradedShard(s))?;
        let inner = &mut *guard;
        if let Some(&int) = inner.int_of_ext.get(&id) {
            inner.hnsw.update(int, v);
        } else {
            let int = inner.hnsw.insert(v, &mut inner.rng);
            debug_assert_eq!(int, inner.ext_of_int.len());
            inner.ext_of_int.push(id);
            inner.int_of_ext.insert(id, int);
        }
        inner.epoch += 1;
        metrics::counter_add(SERVE_INSERTS_TOTAL, 1);
        let (len, tomb) = (inner.hnsw.len(), inner.hnsw.tombstones());
        if len >= COMPACT_MIN && (tomb as f64) > COMPACT_RATIO * len as f64 {
            inner.compact(self.dim);
        }
        Ok(())
    }

    /// Bulk-load a fresh set from an embedding store: row `i` becomes
    /// external id `i`. Each shard is pre-sized for exactly the rows the
    /// router sends it, then filled through the normal insert path (same
    /// epochs, same metrics) — so a warm-started set is indistinguishable
    /// from one that ingested the rows over the wire.
    pub fn warm_load(&self, store: &tmn_eval::EmbeddingStore) -> Result<(), ServeError> {
        if store.dim() != self.dim {
            return Err(ServeError::DimMismatch { expected: self.dim, got: store.dim() });
        }
        let mut per_shard = vec![0usize; self.shards.len()];
        for i in 0..store.len() {
            per_shard[self.shard_of(i as u64)] += 1;
        }
        for (s, &count) in per_shard.iter().enumerate() {
            if count > 0 {
                let mut inner = self.write_shard(s).ok_or(ServeError::DegradedShard(s))?;
                inner.hnsw.reserve(count);
                inner.ext_of_int.reserve(count);
                inner.int_of_ext.reserve(count);
            }
        }
        for i in 0..store.len() {
            self.insert(i as u64, store.get(i))?;
        }
        Ok(())
    }

    /// Delete external id `id`. `Ok(false)` when the id was not live.
    pub fn delete(&self, id: u64) -> Result<bool, ServeError> {
        let s = self.shard_of(id);
        let mut inner = self.write_shard(s).ok_or(ServeError::DegradedShard(s))?;
        let Some(int) = inner.int_of_ext.remove(&id) else {
            return Ok(false);
        };
        inner.hnsw.remove(int);
        inner.epoch += 1;
        metrics::counter_add(SERVE_DELETES_TOTAL, 1);
        Ok(true)
    }

    /// Whether `id` is live (false for degraded shards).
    pub fn contains(&self, id: u64) -> bool {
        let s = self.shard_of(id);
        self.read_shard(s).map(|g| g.int_of_ext.contains_key(&id)).unwrap_or(false)
    }

    /// The exact stored embedding for `id`, if live.
    pub fn get_vec(&self, id: u64) -> Option<Vec<f32>> {
        let s = self.shard_of(id);
        let inner = self.read_shard(s)?;
        inner.int_of_ext.get(&id).map(|&int| inner.hnsw.vector(int).to_vec())
    }

    /// Approximate top-`k` with exact rerank, scatter-gathered across every
    /// healthy shard. Degraded shards are skipped — the engine keeps
    /// answering from the rest (that is what the degraded flag reports).
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<(u64, f64)>, ServeError> {
        Ok(self.query_with_epochs(q, k)?.0)
    }

    /// [`query`](ShardSet::query) plus the epoch each shard was observed
    /// at; the stress suite asserts every observation is internally
    /// consistent (`start == end`).
    #[allow(clippy::type_complexity)]
    pub fn query_with_epochs(
        &self,
        q: &[f32],
        k: usize,
    ) -> Result<(Vec<(u64, f64)>, Vec<EpochObservation>), ServeError> {
        self.validate(q)?;
        let shortlist = self.shortlist.max(k);
        let mut candidates = Vec::new();
        let mut epochs = Vec::with_capacity(self.shards.len());
        // Per-shard knn and rerank each get their own span under the
        // serve.search span, which groups them with the final merge. The
        // query_index_ns histogram keeps its historical meaning — knn +
        // rerank, everything spent inside shard read critical sections — as
        // the sum of those spans; query_rank_ns is the rest of serve.search.
        let search = trace::span("serve.search").attr("shards", self.shards.len() as u64).timed();
        let mut index_ns = 0u64;
        for s in 0..self.shards.len() {
            let Some(inner) = self.read_shard(s) else { continue };
            let start = inner.epoch;
            let knn = trace::span("shard.knn").attr("shard", s as u64).timed();
            let ints = inner.shortlist_ints(q, shortlist);
            index_ns += knn.finish();
            let rerank = trace::span("shard.rerank")
                .attr("shard", s as u64)
                .attr("shortlist", ints.len() as u64)
                .timed();
            let mut shard_hits = inner.rerank(q, &ints);
            index_ns += rerank.finish();
            candidates.append(&mut shard_hits);
            epochs.push(EpochObservation { shard: s, start, end: inner.epoch });
        }
        let merged = {
            let _merge = trace::span("serve.merge").attr("candidates", candidates.len() as u64);
            merge_topk64(candidates, k)
        };
        let trace_id = search.trace_id();
        let total_ns = search.finish();
        metrics::observe_ns_traced(tmn_eval::QUERY_INDEX_NS, index_ns, trace_id);
        metrics::observe_ns_traced(
            tmn_eval::QUERY_RANK_NS,
            total_ns.saturating_sub(index_ns),
            trace_id,
        );
        Ok((merged, epochs))
    }

    /// Exact top-`k` by brute-force scan over every healthy shard's live
    /// vectors. Bitwise-identical to the oracle a test computes from the
    /// same live set — the anchor the approximate path is judged against,
    /// and a correct (if slow) fallback regardless of graph state.
    pub fn query_exact(&self, q: &[f32], k: usize) -> Result<Vec<(u64, f64)>, ServeError> {
        self.validate(q)?;
        let mut candidates = Vec::new();
        for s in 0..self.shards.len() {
            let Some(inner) = self.read_shard(s) else { continue };
            candidates.extend(
                inner
                    .int_of_ext
                    .iter()
                    .map(|(&id, &int)| (id, embedding_distance(q, inner.hnsw.vector(int)))),
            );
        }
        Ok(merge_topk64(candidates, k))
    }

    /// Force-compact one shard (rebuild from live vectors, dropping every
    /// tombstone). Queries on other shards proceed concurrently; queries on
    /// this shard briefly block on the write lock — the
    /// "query-during-rebuild" fault test drives exactly that interleaving.
    pub fn compact_shard(&self, s: usize) -> Result<(), ServeError> {
        let mut inner = self.write_shard(s).ok_or(ServeError::DegradedShard(s))?;
        inner.compact(self.dim);
        Ok(())
    }

    /// Total live vectors across healthy shards.
    pub fn live(&self) -> usize {
        (0..self.shards.len())
            .filter_map(|s| self.read_shard(s).map(|g| g.hnsw.live_len()))
            .sum()
    }

    /// Snapshot per-shard status and refresh the `shard_imbalance` /
    /// `serve_degraded_shards` gauges.
    pub fn status(&self) -> ShardSetStatus {
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            match self.read_shard(s) {
                Some(inner) => shards.push(ShardStatus {
                    shard: s,
                    live: inner.hnsw.live_len(),
                    tombstones: inner.hnsw.tombstones(),
                    epoch: inner.epoch,
                    degraded: false,
                }),
                None => shards.push(ShardStatus {
                    shard: s,
                    live: 0,
                    tombstones: 0,
                    epoch: 0,
                    degraded: true,
                }),
            }
        }
        let healthy: Vec<&ShardStatus> = shards.iter().filter(|s| !s.degraded).collect();
        let live: usize = healthy.iter().map(|s| s.live).sum();
        let tombstones: usize = healthy.iter().map(|s| s.tombstones).sum();
        let degraded = shards.len() - healthy.len();
        let imbalance = if healthy.is_empty() || live == 0 {
            1.0
        } else {
            let max = healthy.iter().map(|s| s.live).max().unwrap_or(0) as f64;
            max / (live as f64 / healthy.len() as f64)
        };
        metrics::gauge_set(SHARD_IMBALANCE, imbalance);
        metrics::gauge_set(SERVE_DEGRADED_SHARDS, degraded as f64);
        ShardSetStatus {
            shards,
            live,
            tombstones,
            degraded_mode: degraded > 0,
            shard_imbalance: imbalance,
        }
    }

    /// Fault-injection hook: poison shard `s`'s lock the way a crashed
    /// writer would — by panicking inside the write critical section. Used
    /// by the fault suite (`fault_injection.rs`) and the engine's
    /// degraded-shard unit test; after this, the set runs in degraded mode
    /// until rebuilt.
    pub fn fault_poison(&self, s: usize) {
        let lock = &self.shards[s];
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.write();
            panic!("injected shard fault");
        }));
        // Detection is lazy (next lock attempt); force it now so status()
        // immediately reflects reality.
        let _ = self.read_shard(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_for(id: u64, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|d| (tmn_index::splitmix64(id * 31 + d as u64) % 1000) as f32 / 1000.0)
            .collect()
    }

    fn small_set(n: u64, shards: usize) -> ShardSet {
        let set = ShardSet::new(4, ShardSetConfig { shards, shortlist: 32 });
        for id in 0..n {
            set.insert(id, &vec_for(id, 4)).unwrap();
        }
        set
    }

    #[test]
    fn insert_query_delete_lifecycle() {
        let set = small_set(40, 3);
        assert_eq!(set.live(), 40);
        let q = vec_for(7, 4);
        let top = set.query(&q, 5).unwrap();
        assert_eq!(top[0].0, 7, "own vector must be its own nearest neighbour");
        assert_eq!(top[0].1, 0.0);
        assert!(set.delete(7).unwrap());
        assert!(!set.delete(7).unwrap(), "second delete is a no-op");
        assert!(!set.contains(7));
        let top = set.query(&q, 5).unwrap();
        assert!(top.iter().all(|&(id, _)| id != 7), "deleted id resurfaced");
        assert_eq!(set.live(), 39);
    }

    #[test]
    fn reinsert_replaces_embedding() {
        let set = small_set(10, 2);
        let newv = vec![9.0f32, 9.0, 9.0, 9.0];
        set.insert(3, &newv).unwrap();
        assert_eq!(set.get_vec(3).unwrap(), newv);
        assert_eq!(set.live(), 10, "re-insert must not duplicate the id");
        let top = set.query(&newv, 1).unwrap();
        assert_eq!(top[0], (3, 0.0));
        // The node was updated in place: no tombstone, no new internal id.
        assert_eq!(set.status().tombstones, 0);
        let s = set.shard_of(3);
        let owned = (0..10).filter(|&id| set.shard_of(id) == s).count();
        assert_eq!(set.shards[s].read().unwrap().ext_of_int.len(), owned);
    }

    #[test]
    fn exact_query_merges_across_shards_bitwise() {
        let set = small_set(60, 4);
        let q = vec_for(999, 4);
        // Oracle over the same live vectors, computed independently.
        let mut oracle: Vec<(u64, f64)> = (0..60)
            .map(|id| (id, embedding_distance(&q, &vec_for(id, 4))))
            .collect();
        oracle.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        oracle.truncate(10);
        assert_eq!(set.query_exact(&q, 10).unwrap(), oracle);
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let set = small_set(5, 2);
        assert_eq!(
            set.insert(99, &[1.0, 2.0]),
            Err(ServeError::DimMismatch { expected: 4, got: 2 })
        );
        assert_eq!(
            set.query(&[1.0], 3),
            Err(ServeError::DimMismatch { expected: 4, got: 1 })
        );
        // Non-finite components are refused the same way, before they can
        // enter a graph or tie in the merge.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let v = [0.5, bad, 0.5, 0.5];
            let want = ServeError::InvalidInput("non-finite component at index 1".into());
            assert_eq!(set.insert(99, &v), Err(want.clone()));
            assert_eq!(set.insert(2, &v), Err(want.clone()), "re-insert keeps the old vector");
            assert_eq!(set.query(&v, 3), Err(want.clone()));
            assert_eq!(set.query_exact(&v, 3), Err(want));
            assert_eq!(set.live(), 5);
            assert!(!set.contains(99));
        }
        assert_eq!(set.get_vec(2).unwrap(), vec_for(2, 4));
    }

    #[test]
    fn merge_is_order_independent_and_tie_broken_by_id() {
        let a = vec![(3u64, 1.0f64), (1, 0.5), (7, 2.0)];
        let b = vec![(2u64, 0.5f64), (9, 1.5)];
        let mut ab = a.clone();
        ab.extend(&b);
        let mut ba = b.clone();
        ba.extend(&a);
        let m1 = merge_topk64(ab, 3);
        let m2 = merge_topk64(ba, 3);
        assert_eq!(m1, m2, "merge must not depend on shard arrival order");
        assert_eq!(m1, vec![(1, 0.5), (2, 0.5), (3, 1.0)], "ties break on id");
    }

    #[test]
    fn rerank_straddling_two_shards_equals_exact_bitwise() {
        // 400 scattered vectors over 2 shards with a shortlist as large as
        // the corpus: each shard's HNSW walk returns its whole live set, so
        // the reranked scatter-gather must equal the exact scan bit for bit,
        // including every top-k split across shards.
        let dim = 6;
        let vectors: Vec<Vec<f32>> = (0..400usize)
            .map(|i| {
                (0..dim)
                    .map(|d| (((i + 1) * (d + 7) * 2654435761_usize) % 1000) as f32 / 1000.0)
                    .collect()
            })
            .collect();
        let set = ShardSet::new(dim, ShardSetConfig { shards: 2, shortlist: 400 });
        for (id, v) in vectors.iter().enumerate() {
            set.insert(id as u64, v).unwrap();
        }
        let bits = |top: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            top.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
        };
        let mut straddling = 0usize;
        for qi in 0..40usize {
            let q: Vec<f32> =
                (0..dim).map(|d| ((qi * 13 + d * 29) % 100) as f32 / 100.0).collect();
            let exact = set.query_exact(&q, 10).unwrap();
            let shard0 = exact.iter().filter(|&&(id, _)| set.shard_of(id) == 0).count();
            if shard0 > 0 && shard0 < exact.len() {
                straddling += 1;
            }
            assert_eq!(bits(set.query(&q, 10).unwrap()), bits(exact), "query {qi}");
        }
        assert!(straddling >= 30, "test vacuous, only {straddling}/40 top-10s straddle shards");
    }

    #[test]
    fn compaction_drops_tombstones() {
        let shard = || ShardSet::new(4, ShardSetConfig { shards: 1, ..Default::default() });
        // Below COMPACT_MIN (64) nodes a shard keeps its tombstones, whatever
        // their share; the insert that brings it to 64 nodes rebuilds it.
        let small = shard();
        for id in 0..62 {
            small.insert(id, &vec_for(id, 4)).unwrap();
        }
        for id in 0..31 {
            small.delete(id).unwrap();
        }
        small.insert(1000, &vec_for(1000, 4)).unwrap();
        assert_eq!(small.status().tombstones, 31, "a 63-node shard rebuilt");
        small.insert(1001, &vec_for(1001, 4)).unwrap();
        assert_eq!(small.status().tombstones, 0, "a 64-node shard kept its tombstones");

        // The ratio is strict: 35 tombstones of 101 nodes (35.35 allowed)
        // keep the graph; 36 of 102 (35.7 allowed) rebuild it.
        const { assert!(35.0 < COMPACT_RATIO * 101.0 && 36.0 > COMPACT_RATIO * 102.0) };
        let set = shard();
        for id in 0..100 {
            set.insert(id, &vec_for(id, 4)).unwrap();
        }
        for id in 0..35 {
            set.delete(id).unwrap();
        }
        set.insert(100, &vec_for(100, 4)).unwrap();
        assert_eq!(set.status().tombstones, 35, "35 of 101 rebuilt the shard");
        set.delete(35).unwrap();
        set.insert(101, &vec_for(101, 4)).unwrap();
        let status = set.status();
        assert_eq!(status.tombstones, 0, "compaction must drop tombstones");
        assert_eq!(status.live, 66);
        let q = vec_for(50, 4);
        assert_eq!(set.query(&q, 1).unwrap()[0].0, 50, "live ids survive the rebuild");
        // The rebuild copies each row out of the old graph: every live id
        // keeps its inserted vector bit for bit.
        let bits = |v: Vec<f32>| -> Vec<u32> { v.into_iter().map(f32::to_bits).collect() };
        for id in 36..102 {
            let got = set.get_vec(id).unwrap_or_else(|| panic!("id {id} lost by the rebuild"));
            assert_eq!(bits(got), bits(vec_for(id, 4)), "id {id} vector changed");
        }
        assert_eq!(set.get_vec(3), None, "a deleted id has no vector");
    }

    /// The `stream_append` write path's output bits: 600 ids over two
    /// shards, then perturbed re-inserts of ids 0..400, which update their
    /// nodes in place and leave no tombstone. The constant is a 64-bit
    /// FNV-1a over `query(q, 10)` for 100 probes (id and distance bits),
    /// computed before the graph's internal layout was rewritten, when each
    /// re-insert still tombstoned its old node and the shards rebuilt; the
    /// exact rerank of a 64-wide shortlist returns the same top 10.
    #[test]
    fn stream_path_query_bits_are_pinned() {
        let dim = 8;
        let set = ShardSet::new(dim, ShardSetConfig { shards: 2, ..Default::default() });
        for id in 0..600 {
            set.insert(id, &vec_for(id, dim)).unwrap();
        }
        for id in 0..400 {
            let v: Vec<f32> = vec_for(id, dim)
                .iter()
                .zip(vec_for(id + 10_000, dim))
                .map(|(&x, dx)| x + 0.05 * dx)
                .collect();
            set.insert(id, &v).unwrap();
        }
        let status = set.status();
        assert_eq!(status.tombstones, 0, "a re-insert left a tombstone");
        assert_eq!(status.live, 600);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for probe in 0..100 {
            for (id, d) in set.query(&vec_for(20_000 + probe, dim), 10).unwrap() {
                for byte in id.to_le_bytes().into_iter().chain(d.to_bits().to_le_bytes()) {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0x99b3_85ac_9f50_d71b, "ShardSet query bits changed");
    }

    /// The rebuild path's output bits under the default config: 600 ids
    /// over two shards, every even id deleted, then ids 600..700 inserted.
    /// The inserts take each shard past the compaction ratio, so both
    /// shards rebuild from their live ids and end with no tombstone. The
    /// constant is a 64-bit FNV-1a over `query(q, 10)` for 100 probes (id
    /// and distance bits), as in `stream_path_query_bits_are_pinned`.
    #[test]
    fn rebuild_path_query_bits_are_pinned() {
        let dim = 8;
        let set = ShardSet::new(dim, ShardSetConfig { shards: 2, ..Default::default() });
        for id in 0..600 {
            set.insert(id, &vec_for(id, dim)).unwrap();
        }
        for id in (0..600).step_by(2) {
            assert!(set.delete(id).unwrap());
        }
        for id in 600..700 {
            set.insert(id, &vec_for(id, dim)).unwrap();
        }
        let status = set.status();
        assert_eq!(status.tombstones, 0, "a shard did not rebuild");
        assert_eq!(status.live, 400);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for probe in 0..100 {
            for (id, d) in set.query(&vec_for(20_000 + probe, dim), 10).unwrap() {
                for byte in id.to_le_bytes().into_iter().chain(d.to_bits().to_le_bytes()) {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0xb9bd_8c5f_3d9e_789c, "ShardSet query bits changed");
    }

    #[test]
    fn huge_k_with_tombstones_returns_every_live_id() {
        // The shard's shortlist becomes `k`; its graph must clamp the
        // tombstone-widened beam instead of overflowing `ef * len`.
        let set = small_set(10, 2);
        set.delete(3).unwrap();
        let q = vec_for(99, 4);
        let want = set.query_exact(&q, 10).unwrap();
        assert_eq!(want.len(), 9);
        for k in [usize::MAX, 1 << 63] {
            assert_eq!(set.query(&q, k).unwrap(), want, "k = {k}");
        }
    }

    #[test]
    fn epochs_advance_on_mutation_and_hold_during_reads() {
        let set = small_set(12, 2);
        let q = vec_for(3, 4);
        let (_, epochs) = set.query_with_epochs(&q, 3).unwrap();
        for obs in &epochs {
            assert_eq!(obs.start, obs.end, "epoch changed inside a read critical section");
        }
        let before: u64 = epochs.iter().map(|e| e.start).sum();
        set.insert(50, &vec_for(50, 4)).unwrap();
        let (_, after) = set.query_with_epochs(&q, 3).unwrap();
        assert!(after.iter().map(|e| e.start).sum::<u64>() > before);
    }
}
