//! Ranking quality metrics: HR-k and Rk@t (Section V-A3).
//!
//! HR-k is the top-k hitting ratio — the overlap fraction between the
//! learned top-k and the ground-truth top-k. Rk@t is the top-t recall of the
//! top-k ground truth — the fraction of the true top-k recovered inside the
//! predicted top-t.

use serde::Serialize;

/// The three headline numbers of Tables II and IV, plus the mean Spearman
/// rank correlation between predicted and true distance rows (a
/// finer-grained ranking-quality signal than top-k overlap).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Evaluation {
    pub hr10: f64,
    pub hr50: f64,
    pub r10_50: f64,
    /// Mean Spearman correlation over queries (None if undefined for all).
    pub spearman: Option<f64>,
    /// Number of queries averaged over.
    pub queries: usize,
}

impl std::fmt::Display for Evaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HR-10 {:.4}  HR-50 {:.4}  R10@50 {:.4}", self.hr10, self.hr50, self.r10_50)
    }
}

/// Indices of the `k` smallest values in `row`, excluding `exclude`
/// (normally the query itself), ties broken by index.
pub fn top_k_indices(row: &[f64], k: usize, exclude: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).filter(|&i| i != exclude).collect();
    idx.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap().then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Overlap fraction `|A ∩ B| / k` between two top-k lists.
fn overlap(a: &[usize], b: &[usize], k: usize) -> f64 {
    let hits = a.iter().filter(|x| b.contains(x)).count();
    hits as f64 / k as f64
}

/// HR-k for one query: overlap of predicted and true top-k.
pub fn hitting_ratio(pred_row: &[f64], true_row: &[f64], k: usize, query: usize) -> f64 {
    let p = top_k_indices(pred_row, k, query);
    let t = top_k_indices(true_row, k, query);
    overlap(&p, &t, k)
}

/// Rk@t for one query: fraction of the true top-k inside the predicted
/// top-t (`t >= k`).
pub fn recall_at(pred_row: &[f64], true_row: &[f64], k: usize, t: usize, query: usize) -> f64 {
    assert!(t >= k, "Rk@t requires t >= k");
    let p = top_k_indices(pred_row, t, query);
    let tr = top_k_indices(true_row, k, query);
    tr.iter().filter(|x| p.contains(x)).count() as f64 / k as f64
}

/// One query's scores: everything the reduction needs.
#[derive(Clone, Copy)]
pub(crate) struct QueryScores {
    hr10: f64,
    hr50: f64,
    r10_50: f64,
    rho: Option<f64>,
}

/// HR-10, HR-50, R10@50 and Spearman for query `query`, from its predicted
/// and true distance rows.
pub(crate) fn score_query(pred_row: &[f64], true_row: &[f64], query: usize) -> QueryScores {
    QueryScores {
        hr10: hitting_ratio(pred_row, true_row, 10, query),
        hr50: hitting_ratio(pred_row, true_row, 50, query),
        r10_50: recall_at(pred_row, true_row, 10, 50, query),
        rho: crate::spearman(pred_row, true_row),
    }
}

/// Average `queries` per-query scores, summed in the order given. Every
/// evaluator reduces through here, so the same scores in the same order
/// give the same bits.
pub(crate) fn reduce(scores: impl IntoIterator<Item = QueryScores>, queries: usize) -> Evaluation {
    let mut hr10 = 0.0;
    let mut hr50 = 0.0;
    let mut r10_50 = 0.0;
    let mut rho_sum = 0.0;
    let mut rho_n = 0usize;
    for sc in scores {
        hr10 += sc.hr10;
        hr50 += sc.hr50;
        r10_50 += sc.r10_50;
        if let Some(rho) = sc.rho {
            rho_sum += rho;
            rho_n += 1;
        }
    }
    let n = queries.max(1) as f64;
    Evaluation {
        hr10: hr10 / n,
        hr50: hr50 / n,
        r10_50: r10_50 / n,
        spearman: (rho_n > 0).then(|| rho_sum / rho_n as f64),
        queries,
    }
}

/// Aggregate HR-10 / HR-50 / R10@50 over a set of queries.
///
/// `pred_rows[q]` and `true_rows[q]` are distance rows from query
/// `queries[q]` to every database trajectory (including itself; the query
/// is excluded from rankings).
pub fn evaluate(pred_rows: &[Vec<f64>], true_rows: &[Vec<f64>], queries: &[usize]) -> Evaluation {
    assert_eq!(pred_rows.len(), queries.len(), "one prediction row per query");
    assert_eq!(true_rows.len(), queries.len(), "one truth row per query");
    let scores =
        pred_rows.iter().zip(true_rows).zip(queries).map(|((p, t), &q)| score_query(p, t, q));
    reduce(scores, queries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        // Pred == truth: all metrics are 1.
        let row: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let e = evaluate(std::slice::from_ref(&row), std::slice::from_ref(&row), &[0]);
        assert_eq!(e.hr10, 1.0);
        assert_eq!(e.hr50, 1.0);
        assert_eq!(e.r10_50, 1.0);
    }

    #[test]
    fn reversed_prediction_scores_zero_hr10() {
        let truth: Vec<f64> = (0..61).map(|i| i as f64).collect();
        let pred: Vec<f64> = (0..61).rev().map(|i| i as f64).collect();
        let e = evaluate(&[pred], &[truth], &[0]);
        assert_eq!(e.hr10, 0.0);
    }

    #[test]
    fn query_excluded_from_ranking() {
        let truth = vec![0.0, 1.0, 2.0, 3.0];
        let top = top_k_indices(&truth, 2, 0);
        assert_eq!(top, vec![1, 2]);
    }

    #[test]
    fn recall_allows_wider_net() {
        // True top-1 = index 1; predicted ranks it 3rd. R1@3 hits, HR-1 misses.
        let truth = vec![0.0, 0.1, 5.0, 6.0, 7.0];
        let pred = vec![0.0, 4.0, 2.0, 3.0, 9.0];
        assert_eq!(hitting_ratio(&pred, &truth, 1, 0), 0.0);
        assert_eq!(recall_at(&pred, &truth, 1, 3, 0), 1.0);
    }

    #[test]
    fn hr_is_fraction_for_partial_overlap() {
        // 25 candidates; true top-10 (excluding query 0) is 1..=10. Pushing
        // 1..=5 beyond rank 10 promotes 11..=15 instead, so the predicted
        // top-10 = {6..=15}, sharing exactly 5 items with the truth.
        let truth: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let mut pred = truth.clone();
        for (i, v) in pred.iter_mut().enumerate().take(6).skip(1) {
            *v = 100.0 + i as f64;
        }
        let hr = hitting_ratio(&pred, &truth, 10, 0);
        assert!((hr - 0.5).abs() < 1e-12, "hr {hr}");
    }

    #[test]
    #[should_panic(expected = "t >= k")]
    fn recall_with_t_less_than_k_panics() {
        let r = vec![0.0, 1.0];
        let _ = recall_at(&r, &r, 5, 2, 0);
    }
}
