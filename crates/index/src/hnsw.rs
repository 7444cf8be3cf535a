//! Hierarchical Navigable Small World graphs (Malkov et al.).
//!
//! The paper (Section I) points out that once trajectories are embedded,
//! state-of-the-art vector indexes like HNSW apply immediately to nearest
//! neighbour search over the embeddings. This is that index, built for the
//! `d`-dimensional embeddings the models emit.

use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Build/search configuration.
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Max connections per node per layer (the paper's `M`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Default beam width during search (can be overridden per query).
    pub ef_search: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 100, ef_search: 64 }
    }
}

/// Min-heap adapter over (distance, id).
#[derive(PartialEq)]
struct Candidate {
    dist: f32,
    id: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap pops the smallest distance.
        other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct HnswNode {
    /// Neighbour lists, one per layer this node exists on (`0..=level`).
    neighbours: Vec<Vec<usize>>,
}

/// An HNSW index over vectors of a fixed dimension.
///
/// Supports incremental deletion via tombstones: a removed node stays in the
/// graph as a navigable waypoint (its edges keep the small world connected)
/// but never appears in search results, and [`knn_ef`](Hnsw::knn_ef) widens
/// its beam by the tombstone ratio so the *live* shortlist stays as large as
/// the caller asked for. Callers that churn heavily should rebuild once
/// tombstones dominate (see `tmn-serve`'s per-shard compaction).
pub struct Hnsw {
    config: HnswConfig,
    dim: usize,
    /// Row-major vectors, `dim` f32s per node, indexed like `nodes`.
    vectors: Vec<f32>,
    nodes: Vec<HnswNode>,
    /// Tombstone flags, indexed like `nodes`.
    deleted: Vec<bool>,
    /// Count of non-tombstoned nodes.
    live: usize,
    entry: Option<usize>,
    max_level: usize,
    level_mult: f64,
}

fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl Hnsw {
    pub fn new(dim: usize, config: HnswConfig) -> Hnsw {
        assert!(dim > 0, "Hnsw: dimension must be positive");
        assert!(config.m >= 2, "Hnsw: m must be >= 2");
        Hnsw {
            config,
            dim,
            vectors: Vec::new(),
            nodes: Vec::new(),
            deleted: Vec::new(),
            live: 0,
            entry: None,
            max_level: 0,
            level_mult: 1.0 / (config.m as f64).ln(),
        }
    }

    /// Pre-size the node, tombstone and vector buffers for `additional`
    /// more inserts. Bulk loaders (warm start from an on-disk store) call
    /// this once so a known-size load doesn't pay O(log n) regrowths.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.deleted.reserve(additional);
        self.vectors.reserve(additional * self.dim);
    }

    /// Total node count, tombstones included (ids are `0..len()`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes that are still searchable (not tombstoned).
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Tombstoned node count; rebuild when this dominates [`len`](Hnsw::len).
    pub fn tombstones(&self) -> usize {
        self.nodes.len() - self.live
    }

    /// Whether `id` has been removed (out-of-range ids read as deleted).
    pub fn is_deleted(&self, id: usize) -> bool {
        self.deleted.get(id).copied().unwrap_or(true)
    }

    /// Tombstone a vector: it vanishes from every future search result but
    /// stays in the graph as a navigation waypoint. Returns `false` if the
    /// id is unknown or already deleted. O(1).
    pub fn remove(&mut self, id: usize) -> bool {
        if id >= self.nodes.len() || self.deleted[id] {
            return false;
        }
        self.deleted[id] = true;
        self.live -= 1;
        true
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vector stored under internal id `id` (tombstoned ids included),
    /// exactly as it was inserted. Panics when `id >= len()`.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id * self.dim..(id + 1) * self.dim]
    }

    fn dist_to(&self, query: &[f32], id: usize) -> f32 {
        dist_sq(query, self.vector(id))
    }

    /// Insert a vector; returns its id (= insertion order).
    pub fn insert(&mut self, v: &[f32], rng: &mut impl Rng) -> usize {
        assert_eq!(v.len(), self.dim, "Hnsw: vector dimension mismatch");
        let id = self.nodes.len();
        self.vectors.extend_from_slice(v);
        let level = (-rng.gen_range(f64::MIN_POSITIVE..1.0).ln() * self.level_mult) as usize;
        self.nodes.push(HnswNode { neighbours: vec![Vec::new(); level + 1] });
        self.deleted.push(false);
        self.live += 1;

        let Some(mut cur) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return id;
        };

        // Greedy descent through layers above `level`.
        for l in (level + 1..=self.max_level).rev() {
            cur = self.greedy_closest(v, cur, l);
        }
        // Insert with beam search on each layer from min(level, max_level) down.
        for l in (0..=level.min(self.max_level)).rev() {
            let candidates = self.search_layer(v, cur, l, self.config.ef_construction, true);
            let m_max = if l == 0 { self.config.m * 2 } else { self.config.m };
            // Prefer live neighbours so new edges don't waste slots on
            // tombstones; fall back to tombstoned waypoints only when the
            // layer has too few live candidates to stay connected.
            let mut selected: Vec<usize> = candidates
                .iter()
                .filter(|&&(_, i)| !self.deleted[i])
                .take(self.config.m)
                .map(|&(_, i)| i)
                .collect();
            if selected.is_empty() {
                selected.extend(candidates.iter().take(self.config.m).map(|&(_, i)| i));
            }
            for &nb in &selected {
                self.nodes[id].neighbours[l].push(nb);
                self.nodes[nb].neighbours[l].push(id);
                // Prune over-full neighbour lists, keeping the closest.
                if self.nodes[nb].neighbours[l].len() > m_max {
                    let mut list = std::mem::take(&mut self.nodes[nb].neighbours[l]);
                    let base = self.vector(nb);
                    list.sort_by(|&a, &b| {
                        self.dist_to(base, a)
                            .partial_cmp(&self.dist_to(base, b))
                            .unwrap_or(Ordering::Equal)
                    });
                    list.truncate(m_max);
                    self.nodes[nb].neighbours[l] = list;
                }
            }
            if let Some(&(_, best)) = candidates.first() {
                cur = best;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
        id
    }

    fn greedy_closest(&self, query: &[f32], start: usize, layer: usize) -> usize {
        let mut cur = start;
        let mut cur_d = self.dist_to(query, cur);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[cur].neighbours[layer] {
                let d = self.dist_to(query, nb);
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search on one layer; returns up to `ef` `(dist_sq, id)` pairs
    /// sorted ascending. With `include_deleted = false`, tombstoned nodes
    /// still steer the traversal (the frontier walks through them) but are
    /// excluded from the result list — the standard filtered-HNSW scheme.
    fn search_layer(
        &self,
        query: &[f32],
        entry: usize,
        layer: usize,
        ef: usize,
        include_deleted: bool,
    ) -> Vec<(f32, usize)> {
        let mut visited = vec![false; self.nodes.len()];
        visited[entry] = true;
        let d0 = self.dist_to(query, entry);
        let mut frontier = BinaryHeap::new(); // pops nearest first
        frontier.push(Candidate { dist: d0, id: entry });
        let mut results: Vec<(f32, usize)> = if include_deleted || !self.deleted[entry] {
            vec![(d0, entry)]
        } else {
            Vec::new()
        };
        while let Some(Candidate { dist, id }) = frontier.pop() {
            let worst = if results.len() >= ef {
                results.last().map(|r| r.0).unwrap_or(f32::INFINITY)
            } else {
                f32::INFINITY
            };
            if dist > worst {
                break;
            }
            for &nb in &self.nodes[id].neighbours[layer] {
                if visited[nb] {
                    continue;
                }
                visited[nb] = true;
                let d = self.dist_to(query, nb);
                let worst = if results.len() >= ef {
                    results.last().map(|r| r.0).unwrap_or(f32::INFINITY)
                } else {
                    f32::INFINITY
                };
                if d < worst {
                    frontier.push(Candidate { dist: d, id: nb });
                    if include_deleted || !self.deleted[nb] {
                        let pos = results.partition_point(|r| r.0 < d);
                        results.insert(pos, (d, nb));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        results
    }

    /// The `k` approximate nearest neighbours of `query` as
    /// `(id, euclidean_distance)` sorted ascending.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        self.knn_ef(query, k, self.config.ef_search)
    }

    /// `knn` with an explicit beam width `ef >= k`. Tombstoned vectors never
    /// appear in the result; the beam is widened by the tombstone ratio
    /// (shortlist compensation) so the *live* candidate pool stays as large
    /// as the caller requested and recall holds under churn.
    pub fn knn_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<(usize, f32)> {
        assert_eq!(query.len(), self.dim, "Hnsw: query dimension mismatch");
        let Some(mut cur) = self.entry else {
            return Vec::new();
        };
        if k == 0 || self.live == 0 {
            return Vec::new();
        }
        let mut ef = ef.max(k);
        if self.live < self.nodes.len() {
            ef = (ef * self.nodes.len()).div_ceil(self.live).min(self.nodes.len());
        }
        for l in (1..=self.max_level).rev() {
            cur = self.greedy_closest(query, cur, l);
        }
        let mut res = self.search_layer(query, cur, 0, ef, false);
        res.truncate(k);
        res.into_iter().map(|(d, i)| (i, d.sqrt())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
    }

    fn brute_knn(points: &[Vec<f32>], q: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..points.len()).collect();
        idx.sort_by(|&a, &b| {
            dist_sq(q, &points[a]).partial_cmp(&dist_sq(q, &points[b])).unwrap()
        });
        idx.truncate(k);
        idx
    }

    #[test]
    fn empty_index_returns_nothing() {
        let h = Hnsw::new(4, HnswConfig::default());
        assert!(h.knn(&[0.0; 4], 5).is_empty());
    }

    #[test]
    fn single_point() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut h = Hnsw::new(2, HnswConfig::default());
        h.insert(&[1.0, 2.0], &mut rng);
        let nn = h.knn(&[1.0, 2.0], 3);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0], (0, 0.0));
        assert_eq!(h.vector(0), [1.0, 2.0]);
    }

    #[test]
    fn high_recall_on_random_data() {
        let dim = 8;
        let pts = random_vectors(500, dim, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut h = Hnsw::new(dim, HnswConfig { m: 12, ef_construction: 120, ef_search: 80 });
        for p in &pts {
            h.insert(p, &mut rng);
        }
        let queries = random_vectors(30, dim, 9);
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let got: Vec<usize> = h.knn(q, 10).into_iter().map(|(i, _)| i).collect();
            let want = brute_knn(&pts, q, 10);
            total += want.len();
            hits += want.iter().filter(|w| got.contains(w)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "recall too low: {recall}");
    }

    #[test]
    fn results_sorted_ascending() {
        let pts = random_vectors(100, 4, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut h = Hnsw::new(4, HnswConfig::default());
        for p in &pts {
            h.insert(p, &mut rng);
        }
        let nn = h.knn(&pts[0], 10);
        for w in nn.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // The query point itself is its own nearest neighbour.
        assert_eq!(nn[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut h = Hnsw::new(3, HnswConfig::default());
        h.insert(&[0.0, 0.0], &mut rng);
    }
}
