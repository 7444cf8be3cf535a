//! Hierarchical Navigable Small World graphs (Malkov et al.).
//!
//! The paper (Section I) points out that once trajectories are embedded,
//! state-of-the-art vector indexes like HNSW apply immediately to nearest
//! neighbour search over the embeddings. This is that index, built for the
//! `d`-dimensional embeddings the models emit.
//!
//! Inside the graph, ids are `u32`. Layer 0, where every node lives, keeps
//! its links in one flat `Vec<u32>`, `2m + 1` slots per node (a list is
//! pushed to at most `2m + 1` and pruned back to `2m`), plus a `u32` length:
//! 136 bytes a node at the default `m = 16`. The upper layers, which about
//! one node in `m` reaches, are per-node `Vec<Vec<u32>>`. A prune scores
//! each member of the over-full list once and stable-sorts the `(distance,
//! id)` pairs, so equal distances keep list order. The search frontier pops
//! packed `u64` keys, `dist.to_bits() << 32 | id`: a squared distance
//! between finite vectors is `+0.0`, positive or `+inf`, whose bit order is
//! the numeric order, so keys pop by distance and then by the smaller id.

use rand::Rng;
use std::cmp::{Ordering, Reverse};
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

/// An HNSW index over vectors of a fixed dimension.
///
/// Vectors and queries must be finite: the search orders distances by
/// their bits (see the module docs). Debug builds assert it, and
/// `tmn-serve`'s `ShardSet` refuses non-finite input before it reaches a
/// graph.
///
/// Supports incremental deletion via tombstones: a removed node stays in the
/// graph as a navigable waypoint (its edges keep the small world connected)
/// but never appears in search results, and [`knn_ef`](Hnsw::knn_ef) widens
/// its beam by the tombstone ratio so the *live* shortlist stays as large as
/// the caller asked for. Callers that delete heavily should rebuild once
/// tombstones dominate (see `tmn-serve`'s per-shard compaction). A vector
/// that changes is not removed and re-inserted: [`update`](Hnsw::update)
/// overwrites its row in place and re-selects its links, so replacing
/// vectors leaves no tombstones (hnswlib's `updatePoint`, without its
/// re-selection of the neighbours' own links).
pub struct Hnsw {
    config: HnswConfig,
    dim: usize,
    /// Row-major vectors, `dim` f32s per node, indexed by id.
    vectors: Vec<f32>,
    /// Layer-0 links: node `i`'s list is the first `links0_len[i]` of its
    /// `2m + 1` slots starting at `i * (2m + 1)`.
    links0: Vec<u32>,
    links0_len: Vec<u32>,
    /// Links on layers `1..=level`: `upper[i][l - 1]` is node `i`'s list on
    /// layer `l`, so `upper[i].len()` is the node's level.
    upper: Vec<Vec<Vec<u32>>>,
    /// Tombstone flags, indexed by id.
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

/// Min-heap key of a frontier entry: the distance's bits above the id, so
/// keys order as `(dist, id)` for the non-negative, non-NaN distances
/// `dist_sq` returns on finite input.
fn frontier_key(dist: f32, id: u32) -> Reverse<u64> {
    Reverse(u64::from(dist.to_bits()) << 32 | u64::from(id))
}

impl Hnsw {
    pub fn new(dim: usize, config: HnswConfig) -> Hnsw {
        assert!(dim > 0, "Hnsw: dimension must be positive");
        assert!(config.m >= 2, "Hnsw: m must be >= 2");
        Hnsw {
            config,
            dim,
            vectors: Vec::new(),
            links0: Vec::new(),
            links0_len: Vec::new(),
            upper: Vec::new(),
            deleted: Vec::new(),
            live: 0,
            entry: None,
            max_level: 0,
            level_mult: 1.0 / (config.m as f64).ln(),
        }
    }

    /// Pre-size the vector, link and tombstone buffers for `additional`
    /// more inserts. Bulk loaders (warm start from an on-disk store, shard
    /// compaction) call this once so a known-size load doesn't pay
    /// O(log n) regrowths.
    pub fn reserve(&mut self, additional: usize) {
        self.vectors.reserve(additional * self.dim);
        self.links0.reserve(additional * self.stride0());
        self.links0_len.reserve(additional);
        self.upper.reserve(additional);
        self.deleted.reserve(additional);
    }

    /// Total node count, tombstones included (ids are `0..len()`).
    pub fn len(&self) -> usize {
        self.deleted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty()
    }

    /// Nodes that are still searchable (not tombstoned).
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Tombstoned node count; rebuild when this dominates [`len`](Hnsw::len).
    pub fn tombstones(&self) -> usize {
        self.len() - self.live
    }

    /// Whether `id` has been removed (out-of-range ids read as deleted).
    pub fn is_deleted(&self, id: usize) -> bool {
        self.deleted.get(id).copied().unwrap_or(true)
    }

    /// Tombstone a vector: it vanishes from every future search result but
    /// stays in the graph as a navigation waypoint. Returns `false` if the
    /// id is unknown or already deleted. O(1).
    pub fn remove(&mut self, id: usize) -> bool {
        if id >= self.len() || self.deleted[id] {
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

    /// Slots per node on layer 0: room for `2m` links plus the one pushed
    /// before a prune.
    fn stride0(&self) -> usize {
        2 * self.config.m + 1
    }

    /// Node `id`'s links on `layer`.
    fn links(&self, id: usize, layer: usize) -> &[u32] {
        if layer == 0 {
            let start = id * self.stride0();
            &self.links0[start..start + self.links0_len[id] as usize]
        } else {
            &self.upper[id][layer - 1]
        }
    }

    fn push_link(&mut self, id: usize, layer: usize, target: u32) {
        if layer == 0 {
            let stride = self.stride0();
            let len = self.links0_len[id] as usize;
            // Indexing the node's own slots panics on an over-full list
            // instead of writing into the next node's.
            self.links0[id * stride..(id + 1) * stride][len] = target;
            self.links0_len[id] += 1;
        } else {
            self.upper[id][layer - 1].push(target);
        }
    }

    fn clear_links(&mut self, id: usize, layer: usize) {
        if layer == 0 {
            self.links0_len[id] = 0;
        } else {
            self.upper[id][layer - 1].clear();
        }
    }

    /// Cut node `id`'s list on `layer` back to its `m_max` nearest members.
    /// Each member is scored once (into the reused `scored`), and the
    /// stable sort keeps equal distances in list order.
    fn prune(&mut self, id: usize, layer: usize, m_max: usize, scored: &mut Vec<(f32, u32)>) {
        let base = self.vector(id);
        scored.clear();
        let links = self.links(id, layer);
        scored.extend(links.iter().map(|&nb| (self.dist_to(base, nb as usize), nb)));
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let kept = scored[..m_max].iter().map(|&(_, nb)| nb);
        if layer == 0 {
            let start = id * self.stride0();
            for (slot, nb) in self.links0[start..start + m_max].iter_mut().zip(kept) {
                *slot = nb;
            }
            self.links0_len[id] = m_max as u32;
        } else {
            let list = &mut self.upper[id][layer - 1];
            list.clear();
            list.extend(kept);
        }
    }

    /// The level a new node is drawn at: the one draw an insert takes from
    /// its `rng`.
    fn draw_level(&self, rng: &mut impl Rng) -> usize {
        (-rng.gen_range(f64::MIN_POSITIVE..1.0).ln() * self.level_mult) as usize
    }

    /// Insert a vector; returns its id (= insertion order). The vector must
    /// be finite (see [`Hnsw`]).
    pub fn insert(&mut self, v: &[f32], rng: &mut impl Rng) -> usize {
        assert_eq!(v.len(), self.dim, "Hnsw: vector dimension mismatch");
        assert!(self.len() < u32::MAX as usize, "Hnsw: node ids must fit in u32");
        debug_assert!(v.iter().all(|x| x.is_finite()), "Hnsw: non-finite vector");
        let id = self.len();
        self.vectors.extend_from_slice(v);
        let level = self.draw_level(rng);
        self.links0.resize(self.links0.len() + self.stride0(), 0);
        self.links0_len.push(0);
        self.upper.push(vec![Vec::new(); level]);
        self.deleted.push(false);
        self.live += 1;

        let Some(entry) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return id;
        };
        self.link(id, v, level, entry, false);
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
        id
    }

    /// Replace the vector of live node `id` with `v` and re-select its
    /// links: the node keeps its id, its level and the links other nodes
    /// hold to it, and nothing is tombstoned. Each of its layers runs an
    /// insert's search from the entry point (which finds the node itself at
    /// distance 0, skipped) and its list becomes the new selection; each
    /// selected neighbour that does not link back yet gets a reverse link,
    /// pruned as an insert prunes. Draws nothing from an RNG. Panics when
    /// `id` is removed or unknown, or `v` is not finite (see [`Hnsw`]).
    pub fn update(&mut self, id: usize, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "Hnsw: vector dimension mismatch");
        assert!(!self.is_deleted(id), "Hnsw: update of removed or unknown id {id}");
        debug_assert!(v.iter().all(|x| x.is_finite()), "Hnsw: non-finite vector");
        self.vectors[id * self.dim..(id + 1) * self.dim].copy_from_slice(v);
        let entry = self.entry.expect("a live node implies an entry point");
        self.link(id, v, self.upper[id].len(), entry, true);
    }

    /// Link node `id` (vector `v`, drawn at `level`) into the graph, walking
    /// down from `cur`: a greedy descent through the layers above `level`,
    /// then on each layer from `min(level, max_level)` down a beam search
    /// with `ef_construction` and up to `m` neighbours, with reverse links
    /// and prunes. An update replaces the node's own lists and skips a
    /// reverse link the neighbour already holds; a new node has empty lists
    /// and no node links to it yet, so neither step applies to an insert.
    fn link(&mut self, id: usize, v: &[f32], level: usize, mut cur: usize, update: bool) {
        // Greedy descent through layers above `level`.
        for l in (level + 1..=self.max_level).rev() {
            cur = self.greedy_closest(v, cur, l);
        }
        // Beam search on each layer from min(level, max_level) down.
        let mut scored = Vec::new();
        for l in (0..=level.min(self.max_level)).rev() {
            let candidates = self.search_layer(v, cur, l, self.config.ef_construction, true);
            let m_max = if l == 0 { self.config.m * 2 } else { self.config.m };
            // Prefer live neighbours so new edges don't waste slots on
            // tombstones; fall back to tombstoned waypoints only when the
            // layer has too few live candidates to stay connected. An
            // update's search finds the node itself, never a neighbour.
            let others = candidates.iter().filter(|&&(_, i)| i as usize != id);
            let mut selected: Vec<u32> = others
                .clone()
                .filter(|&&(_, i)| !self.deleted[i as usize])
                .take(self.config.m)
                .map(|&(_, i)| i)
                .collect();
            if selected.is_empty() {
                selected.extend(others.take(self.config.m).map(|&(_, i)| i));
            }
            if update {
                self.clear_links(id, l);
            }
            for &nb in &selected {
                self.push_link(id, l, nb);
                let nb = nb as usize;
                if update && self.links(nb, l).contains(&(id as u32)) {
                    continue;
                }
                self.push_link(nb, l, id as u32);
                if self.links(nb, l).len() > m_max {
                    self.prune(nb, l, m_max, &mut scored);
                }
            }
            if let Some(&(_, best)) = candidates.first() {
                cur = best as usize;
            }
        }
    }

    fn greedy_closest(&self, query: &[f32], start: usize, layer: usize) -> usize {
        let mut cur = start;
        let mut cur_d = self.dist_to(query, cur);
        loop {
            let mut improved = false;
            for &nb in self.links(cur, layer) {
                let d = self.dist_to(query, nb as usize);
                if d < cur_d {
                    cur = nb as usize;
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
    ) -> Vec<(f32, u32)> {
        let mut visited = vec![false; self.len()];
        visited[entry] = true;
        let d0 = self.dist_to(query, entry);
        let mut frontier = BinaryHeap::new(); // pops the smallest key first
        frontier.push(frontier_key(d0, entry as u32));
        let mut results: Vec<(f32, u32)> = if include_deleted || !self.deleted[entry] {
            vec![(d0, entry as u32)]
        } else {
            Vec::new()
        };
        while let Some(Reverse(key)) = frontier.pop() {
            let (dist, id) = (f32::from_bits((key >> 32) as u32), key as u32 as usize);
            let worst = if results.len() >= ef {
                results.last().map(|r| r.0).unwrap_or(f32::INFINITY)
            } else {
                f32::INFINITY
            };
            if dist > worst {
                break;
            }
            for &nb in self.links(id, layer) {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = self.dist_to(query, nb as usize);
                let worst = if results.len() >= ef {
                    results.last().map(|r| r.0).unwrap_or(f32::INFINITY)
                } else {
                    f32::INFINITY
                };
                if d < worst {
                    frontier.push(frontier_key(d, nb));
                    if include_deleted || !self.deleted[nb as usize] {
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
    /// as the caller requested and recall holds under churn. The query must
    /// be finite (see [`Hnsw`]).
    pub fn knn_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<(usize, f32)> {
        assert_eq!(query.len(), self.dim, "Hnsw: query dimension mismatch");
        debug_assert!(query.iter().all(|x| x.is_finite()), "Hnsw: non-finite query");
        let Some(mut cur) = self.entry else {
            return Vec::new();
        };
        if k == 0 || self.live == 0 {
            return Vec::new();
        }
        // A beam wider than the graph finds nothing more, and clamping first
        // keeps `ef * len` below `u32::MAX²`.
        let len = self.len();
        let mut ef = ef.max(k).min(len);
        if self.live < len {
            ef = (ef * len).div_ceil(self.live).min(len);
        }
        for l in (1..=self.max_level).rev() {
            cur = self.greedy_closest(query, cur, l);
        }
        let mut res = self.search_layer(query, cur, 0, ef, false);
        res.truncate(k);
        res.into_iter().map(|(d, i)| (i as usize, d.sqrt())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// Checks every list of the graph against the layout's invariants:
    /// each fits its layer's bound (an over-full layer-0 list would spill
    /// into the next node's slots), links neither its own node nor any id
    /// twice, and points at a node that exists on that layer. Each node has
    /// one upper list per level it was drawn at, the entry point tops the
    /// hierarchy, and every row reads back as inserted.
    fn check_layout(h: &Hnsw, rows: &[Vec<f32>], levels: &[usize]) -> Result<(), String> {
        let m = h.config.m;
        prop_assert_eq!(h.len(), rows.len());
        prop_assert_eq!(Some(h.max_level), levels.iter().copied().max());
        prop_assert_eq!(h.entry.map(|e| levels[e]), Some(h.max_level), "entry below the top");
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(h.vector(i), &row[..], "row {i} reads back changed");
            prop_assert_eq!(h.upper[i].len(), levels[i], "node {i}: upper lists vs level");
            for l in 0..=levels[i] {
                let list = h.links(i, l);
                let cap = if l == 0 { 2 * m } else { m };
                prop_assert!(list.len() <= cap, "node {i} layer {l}: {} links", list.len());
                let mut distinct = list.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), list.len(), "node {i} layer {l}: repeated id");
                for &nb in list {
                    let nb = nb as usize;
                    prop_assert!(nb < h.len(), "node {i} layer {l}: target {nb} out of range");
                    prop_assert!(nb != i, "node {i} links itself on layer {l}");
                    prop_assert!(levels[nb] >= l, "node {i} layer {l}: {nb} is not on it");
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Inserts interleaved with removes and in-place updates; an update
        /// must also keep the node count, the tombstone count and the
        /// node's level, and its row must read back as the new vector.
        #[test]
        fn layout_invariants_hold_after_every_insert(
            m in 2usize..=12,
            dim in 1usize..=8,
            n in 1usize..=300,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = HnswConfig { m, ef_construction: 4 * m, ef_search: 2 * m };
            let mut h = Hnsw::new(dim, config);
            let (mut rows, mut levels) = (Vec::new(), Vec::new());
            // Coordinates from {0, 1, 2}: in low dimensions most rows
            // repeat, so distance ties are common.
            let draw_row = |rng: &mut StdRng| -> Vec<f32> {
                (0..dim).map(|_| rng.gen_range(0..3) as f32).collect()
            };
            for i in 0..n {
                let row = draw_row(&mut rng);
                levels.push(h.draw_level(&mut rng.clone()));
                h.insert(&row, &mut rng);
                rows.push(row);
                if i % 4 == 3 {
                    h.remove(rng.gen_range(0..=i));
                }
                check_layout(&h, &rows, &levels)?;
                let id = rng.gen_range(0..=i);
                if i % 3 == 1 && !h.is_deleted(id) {
                    let row = draw_row(&mut rng);
                    let before = (h.len(), h.tombstones(), h.upper[id].len());
                    h.update(id, &row);
                    prop_assert_eq!((h.len(), h.tombstones(), h.upper[id].len()), before);
                    rows[id] = row;
                    check_layout(&h, &rows, &levels)?;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "update of removed or unknown id 1")]
    fn update_of_a_removed_id_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut h = Hnsw::new(2, HnswConfig::default());
        h.insert(&[0.0, 0.0], &mut rng);
        h.insert(&[1.0, 0.0], &mut rng);
        h.remove(1);
        h.update(1, &[2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut h = Hnsw::new(3, HnswConfig::default());
        h.insert(&[0.0, 0.0], &mut rng);
    }
}
