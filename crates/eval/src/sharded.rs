//! Shard-per-core Table II evaluation over an [`EmbeddingStore`].
//!
//! [`evaluate`](crate::evaluate) wants every predicted and true distance
//! row materialized up front — `2 * queries * n` f64s live at once, which
//! is exactly what an out-of-core ground truth was built to avoid. This
//! module walks the store instead: each worker owns two scratch rows,
//! streams its queries' predicted distances straight off the (possibly
//! mmap-backed) embeddings and its truth rows through [`GroundTruth`],
//! and emits only the per-query scalars.
//!
//! Determinism contract: per-query scores land in a slot array indexed by
//! query position and are reduced **sequentially in query order**, so the
//! result is bitwise identical for any shard count — and bitwise identical
//! to [`evaluate`](crate::evaluate) on materialized rows, which scores each
//! query and reduces through the same two functions.

use crate::embedding_distance;
use crate::metrics::{reduce, score_query, Evaluation, QueryScores};
use crate::store::EmbeddingStore;
use tmn_traj::GroundTruth;

/// Score one query against the store and the ground truth, reusing the
/// caller's scratch rows.
fn score_stored(
    store: &EmbeddingStore,
    truth: &dyn GroundTruth,
    q: usize,
    pred_row: &mut Vec<f64>,
    true_row: &mut Vec<f64>,
) -> QueryScores {
    let n = store.len();
    pred_row.clear();
    let qe = store.get(q);
    pred_row.extend((0..n).map(|i| embedding_distance(qe, store.get(i))));
    truth.row_into(q, true_row);
    score_query(pred_row, true_row, q)
}

/// HR-10 / HR-50 / R10@50 / Spearman over `queries`, with predicted
/// distances taken between the store's embeddings and truth rows streamed
/// from `truth`, fanned out over `shards` worker threads.
///
/// Row memory is `O(shards * n)`, not `O(queries * n)`; the result is
/// bitwise independent of `shards`.
pub fn evaluate_sharded(
    store: &EmbeddingStore,
    truth: &dyn GroundTruth,
    queries: &[usize],
    shards: usize,
) -> Evaluation {
    assert_eq!(store.len(), truth.len(), "store and ground truth must cover the same corpus");
    let shards = shards.max(1).min(queries.len().max(1));
    let mut slots: Vec<Option<QueryScores>> = vec![None; queries.len()];
    if shards <= 1 {
        let (mut pred_row, mut true_row) = (Vec::new(), Vec::new());
        for (slot, &q) in slots.iter_mut().zip(queries) {
            *slot = Some(score_stored(store, truth, q, &mut pred_row, &mut true_row));
        }
    } else {
        // Striped partition (as in the parallel inference path); the stripe
        // choice cannot affect results because each slot's value depends on
        // its query alone and the reduction below is order-fixed.
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<QueryScores>)>();
            for t in 0..shards {
                let tx = tx.clone();
                s.spawn(move || {
                    let (mut pred_row, mut true_row) = (Vec::new(), Vec::new());
                    let scores: Vec<QueryScores> = queries
                        .iter()
                        .skip(t)
                        .step_by(shards)
                        .map(|&q| score_stored(store, truth, q, &mut pred_row, &mut true_row))
                        .collect();
                    tx.send((t, scores)).expect("main thread alive");
                });
            }
            drop(tx);
            for (t, scores) in rx {
                for (slot, sc) in (t..queries.len()).step_by(shards).zip(scores) {
                    slots[slot] = Some(sc);
                }
            }
        });
    }
    // Sequential reduction in query order, the one `evaluate` uses.
    reduce(slots.into_iter().map(|s| s.expect("all query slots filled")), queries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use tmn_traj::metrics::{Metric, MetricParams};
    use tmn_traj::{DistanceMatrix, Point, Trajectory};

    fn corpus(n: usize) -> (Vec<Trajectory>, DistanceMatrix, EmbeddingStore) {
        let trajs: Vec<Trajectory> = (0..n)
            .map(|i| {
                let off = (i as f64 * 0.61) % 1.7;
                (0..6 + i % 5).map(|t| Point::new(0.1 * t as f64 + off, off * 0.5)).collect()
            })
            .collect();
        let dmat = DistanceMatrix::compute(&trajs, Metric::Hausdorff, &MetricParams::default(), 1);
        // Embeddings correlated-but-not-equal to the truth: first/last point.
        let vecs: Vec<Vec<f32>> = trajs
            .iter()
            .map(|t| {
                let pts = t.points();
                let (a, b) = (&pts[0], &pts[pts.len() - 1]);
                vec![a.lon as f32, a.lat as f32, b.lon as f32, b.lat as f32]
            })
            .collect();
        (trajs, dmat, EmbeddingStore::from_vectors(&vecs))
    }

    fn bits(e: &Evaluation) -> (u64, u64, u64, Option<u64>) {
        (e.hr10.to_bits(), e.hr50.to_bits(), e.r10_50.to_bits(), e.spearman.map(f64::to_bits))
    }

    #[test]
    fn sharded_matches_materialized_evaluate_bitwise() {
        let (_trajs, dmat, store) = corpus(40);
        let queries: Vec<usize> = (0..40).step_by(3).collect();
        let pred_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|&q| (0..40).map(|i| embedding_distance(store.get(q), store.get(i))).collect())
            .collect();
        let true_rows: Vec<Vec<f64>> = queries.iter().map(|&q| dmat.row(q).to_vec()).collect();
        let dense = evaluate(&pred_rows, &true_rows, &queries);
        let sharded = evaluate_sharded(&store, &dmat, &queries, 3);
        assert_eq!(bits(&dense), bits(&sharded));
        assert_eq!(dense.queries, sharded.queries);
    }

    #[test]
    fn result_is_bitwise_independent_of_shard_count() {
        let (_trajs, dmat, store) = corpus(35);
        let queries: Vec<usize> = (0..35).collect();
        let one = evaluate_sharded(&store, &dmat, &queries, 1);
        for shards in [2usize, 4, 9] {
            let multi = evaluate_sharded(&store, &dmat, &queries, shards);
            assert_eq!(bits(&one), bits(&multi), "shards={shards}");
        }
    }
}
