//! Encoding test trajectories and computing predicted distances.
//!
//! Independent models (SRN, NeuTraj, T3S, Traj2SimVec, TMN-NM) encode every
//! trajectory once; queries then cost one Euclidean distance per candidate.
//! TMN's representations are pair-dependent, so a query re-encodes
//! (query, candidate) pairs — the paper's Table III reflects exactly this
//! cost asymmetry (0.072 s vs 0.00059 s per-trajectory inference).
//!
//! Encoding takes the tape-free path ([`PairModel::embed_nograd`]), which
//! every model implements bitwise-identically to its graphed forward while
//! skipping graph-node construction entirely.

use tmn_core::{PairBatch, PairModel, SideBatch};
use tmn_obs::{metrics, trace, Span};
use tmn_traj::Trajectory;

/// Euclidean distance between two embedding vectors.
pub fn embedding_distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| ((x - y) * (x - y)) as f64).sum::<f64>().sqrt()
}

/// Encode each trajectory independently (self-paired batch), returning one
/// `d`-dim embedding per trajectory. Intended for models with
/// `is_pair_dependent() == false`.
///
/// Each chunk builds one [`SideBatch`], padded to its longest trajectory,
/// and passes it as both sides of the tape-free forward.
pub fn encode_all(model: &dyn PairModel, trajs: &[Trajectory], batch_size: usize) -> Vec<Vec<f32>> {
    assert!(batch_size > 0, "encode_all: batch_size must be positive");
    let _prof = Span::phase("search.encode_all");
    let d = model.dim();
    let mut out = Vec::with_capacity(trajs.len());
    for chunk in trajs.chunks(batch_size) {
        let refs: Vec<&Trajectory> = chunk.iter().collect();
        let max_len = chunk.iter().map(Trajectory::len).max().unwrap_or(0);
        let side = SideBatch::build(&refs, max_len);
        let flat = model.embed_nograd(&side, &side);
        out.extend(flat.chunks_exact(d).map(<[f32]>::to_vec));
    }
    out
}

/// Predicted distances from one query to every candidate for a
/// pair-dependent model: encodes `(query, candidate)` pairs in chunks.
pub fn pairwise_query_distances(
    model: &dyn PairModel,
    query: &Trajectory,
    candidates: &[Trajectory],
    batch_size: usize,
) -> Vec<f64> {
    assert!(batch_size > 0, "pairwise_query_distances: batch_size must be positive");
    let _prof = Span::phase("search.pairwise_query");
    let d = model.dim();
    let mut out = Vec::with_capacity(candidates.len());
    for chunk in candidates.chunks(batch_size) {
        let queries: Vec<&Trajectory> = chunk.iter().map(|_| query).collect();
        let cands: Vec<&Trajectory> = chunk.iter().collect();
        let batch = PairBatch::build(&queries, &cands);
        // Two tape-free passes, one per side of the pair.
        let qa = model.embed_nograd(&batch.a, &batch.b);
        let cb = model.embed_nograd(&batch.b, &batch.a);
        for row in 0..chunk.len() {
            out.push(embedding_distance(&qa[row * d..(row + 1) * d], &cb[row * d..(row + 1) * d]));
        }
    }
    out
}

/// Predicted distance rows for a set of query indices against the whole
/// `trajs` database, dispatching on pair dependence.
///
/// As a serving entry point this also feeds the global metrics registry:
/// `queries_total` advances by `queries.len()`, and embed spans land in the
/// `query_embed_ns` histogram (per query for pair-dependent models, one
/// whole-batch span otherwise).
pub fn predicted_distance_rows(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    queries: &[usize],
    batch_size: usize,
) -> Vec<Vec<f64>> {
    metrics::counter_add(crate::timing::QUERIES_TOTAL, queries.len() as u64);
    let embed_span = || trace::span("eval.embed").histogram(crate::timing::QUERY_EMBED_NS);
    if model.is_pair_dependent() {
        queries
            .iter()
            .map(|&q| {
                let _span = embed_span();
                pairwise_query_distances(model, &trajs[q], trajs, batch_size)
            })
            .collect()
    } else {
        let emb = {
            let _span = embed_span();
            encode_all(model, trajs, batch_size)
        };
        queries
            .iter()
            .map(|&q| emb.iter().map(|e| embedding_distance(&emb[q], e)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmn_autograd::{no_grad, ops};
    use tmn_core::{ModelConfig, ModelKind};
    use tmn_traj::Point;

    fn trajs(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let off = i as f64 * 0.07;
                (0..6 + i % 5).map(|t| Point::new(0.1 * t as f64, off)).collect()
            })
            .collect()
    }

    #[test]
    fn encode_all_shapes() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let ts = trajs(7);
        let emb = encode_all(model.as_ref(), &ts, 3);
        assert_eq!(emb.len(), 7);
        assert!(emb.iter().all(|e| e.len() == 8));
    }

    #[test]
    fn encode_all_batch_invariant() {
        // Same embeddings regardless of batch size (padding must not leak).
        let model = ModelKind::TmnNm.build(&ModelConfig { dim: 8, seed: 2 });
        let ts = trajs(5);
        let e1 = encode_all(model.as_ref(), &ts, 1);
        let e5 = encode_all(model.as_ref(), &ts, 5);
        for (a, b) in e1.iter().zip(&e5) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5, "batch size changed embeddings");
            }
        }
    }

    #[test]
    fn fast_and_graphed_encodings_are_bitwise_equal() {
        let ts = trajs(7);
        for kind in ModelKind::ALL {
            let model = kind.build(&ModelConfig { dim: 8, seed: 6 });
            let fast = encode_all(model.as_ref(), &ts, 3);
            // Graphed oracle over the same chunks of 3 ragged trajectories:
            // the training forward under `no_grad`, last valid step gathered.
            let graphed: Vec<Vec<f32>> = no_grad(|| {
                ts.chunks(3)
                    .flat_map(|chunk| {
                        let refs: Vec<&Trajectory> = chunk.iter().collect();
                        let batch = PairBatch::build(&refs, &refs);
                        let enc = model.encode_pairs(&batch);
                        let last = ops::gather_time(&enc.out_a, &batch.a.last_idx).to_vec();
                        last.chunks_exact(8).map(<[f32]>::to_vec).collect::<Vec<_>>()
                    })
                    .collect()
            });
            assert_eq!(fast, graphed, "{kind}: fast path diverged from graphed forward");
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 3 });
        let ts = trajs(4);
        let rows = predicted_distance_rows(model.as_ref(), &ts, &[0, 2], 4);
        assert_eq!(rows.len(), 2);
        assert!(rows[0][0] < 1e-6);
        assert!(rows[1][2] < 1e-6);
    }

    #[test]
    fn pair_dependent_path_used_for_tmn() {
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 4 });
        let ts = trajs(4);
        let rows = predicted_distance_rows(model.as_ref(), &ts, &[1], 2);
        assert_eq!(rows[0].len(), 4);
        // Self pair: identical inputs on both sides -> identical outputs.
        assert!(rows[0][1] < 1e-5, "self distance {}", rows[0][1]);
        assert!(rows[0].iter().all(|d| d.is_finite()));
    }

    #[test]
    fn embedding_distance_basics() {
        assert_eq!(embedding_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(embedding_distance(&[1.0], &[1.0]), 0.0);
    }
}
