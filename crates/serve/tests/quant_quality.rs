//! Quantization quality gate (Table II harness): a `ShardSet` holding
//! int8-quantized vectors, with its exact f32 rerank, must reproduce the
//! full-precision hitting ratio to within 0.5% absolute at every shortlist
//! size of the sweep documented in EXPERIMENTS.md.
//!
//! Protocol: encode a synthetic clustered dataset with TMN-NM, rank
//! ground-truth neighbours by DTW (the Table II protocol), then compare
//! HR@10 of (a) exact f32 linear scan and (b) the int8 shard's HNSW
//! shortlist + exact f32 rerank. The rerank step rescores the shortlist
//! against the exact embeddings, so with a shortlist a few times k the only
//! quality risk is a true neighbour falling outside the (slightly
//! perturbed) shortlist. The int8 storage bound itself (≤ 30% of the f32
//! bytes at d = 16) is gated in `tmn-index` by
//! `quantized_store_is_under_30_percent_of_f32`.
//!
//! Run with `--nocapture` to see the sweep.

use tmn_core::{ModelConfig, ModelKind};
use tmn_eval::{encode_all, EmbeddingStore};
use tmn_serve::{ShardSet, ShardSetConfig};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{Point, Trajectory};

/// The shortlist sizes the sweep reports (k = 10, plus the query itself).
const SHORTLISTS: [usize; 7] = [10, 15, 20, 30, 40, 60, 80];

/// 120 trajectories in 12 loose clusters so nearest neighbours are
/// well-defined but not degenerate.
fn clustered_trajs() -> Vec<Trajectory> {
    let mut out = Vec::new();
    for c in 0..12u64 {
        let (cx, cy) = ((c % 4) as f64 * 0.25, (c / 4) as f64 * 0.3);
        for j in 0..10u64 {
            let len = 8 + ((c * 10 + j) % 7) as usize;
            let traj: Trajectory = (0..len)
                .map(|t| {
                    let wob = ((c * 131 + j * 17 + t as u64 * 7) % 23) as f64 / 230.0;
                    Point::new(cx + 0.02 * t as f64 + wob * 0.1, cy + wob)
                })
                .collect();
            out.push(traj);
        }
    }
    out
}

/// How many of the ranked ids' top 10 (query `q` itself excluded) are in
/// `truth`.
fn hits10(ranked: impl Iterator<Item = usize>, q: usize, truth: &[usize]) -> usize {
    ranked.filter(|&i| i != q).take(10).filter(|i| truth.contains(i)).count()
}

#[test]
fn int8_rerank_reproduces_f32_hitting_ratio() {
    let trajs = clustered_trajs();
    let model = ModelKind::TmnNm.build(&ModelConfig { dim: 16, seed: 21 });
    let emb = encode_all(model.as_ref(), &trajs, 16);
    let store = EmbeddingStore::from_vectors(&emb);

    // Ground truth: DTW top-10 per query (the Table II protocol).
    let params = MetricParams::default();
    let queries: Vec<usize> = (0..trajs.len()).step_by(6).collect(); // 20 queries
    let truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|&q| {
            let row: Vec<f64> =
                trajs.iter().map(|t| Metric::Dtw.distance(&trajs[q], t, &params)).collect();
            tmn_eval::top_k_indices(&row, 10, q)
        })
        .collect();
    // HR@10 = hits / slots; a 0.5% absolute delta is slots / 200 hits.
    let slots = 10 * queries.len();
    let hr = |hits: usize| hits as f64 / slots as f64;

    let f32_hits: usize = queries
        .iter()
        .zip(&truth)
        .map(|(&q, t)| hits10(store.knn_exact(&emb[q], 11).into_iter().map(|(i, _)| i), q, t))
        .sum();
    let hr_f32 = hr(f32_hits);

    println!("shortlist sweep (HR@10 f32 = {hr_f32:.4}):");
    for shortlist in SHORTLISTS {
        // One shard seeded like a standalone index: the shortlist is the
        // HNSW beam, the rerank is exact f32.
        let cfg = ShardSetConfig {
            shards: 1,
            quantized: true,
            shortlist,
            seed: 33,
            ..Default::default()
        };
        let set = ShardSet::new(store.dim(), cfg);
        set.warm_load(&store).unwrap();
        let int8_hits: usize = queries
            .iter()
            .zip(&truth)
            .map(|(&q, t)| {
                let top = set.query(&emb[q], 11).unwrap();
                hits10(top.into_iter().map(|(id, _)| id as usize), q, t)
            })
            .sum();
        let hr_int8 = hr(int8_hits);
        println!("  shortlist {shortlist:3}: HR@10 {hr_int8:.4} (delta {:+.4})", hr_int8 - hr_f32);
        assert!(
            200 * int8_hits.abs_diff(f32_hits) <= slots,
            "shortlist {shortlist}: HR@10 moved by more than 0.005 under int8+rerank \
             (f32 {hr_f32:.4}, int8 {hr_int8:.4})"
        );
    }
}
