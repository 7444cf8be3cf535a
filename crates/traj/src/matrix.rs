//! Ground-truth distance matrices and the similarity transform.
//!
//! The training objective compares predicted similarities against
//! `S = exp(−α·D)` where `D` is the pre-computed pairwise distance matrix
//! (Section IV-D). Full pairwise computation is O(N²·n²); it is parallelized
//! across rows with `std::thread::scope` workers.

use crate::metrics::{Metric, MetricParams};
use crate::Trajectory;

/// Read access to a symmetric pairwise ground-truth distance matrix.
///
/// Two implementations exist: the dense in-RAM [`DistanceMatrix`] below
/// (small n), and `tmn_store::BlockedDistanceMatrix` — a tiled, CRC-framed
/// on-disk matrix for corpora whose n² footprint does not fit in RAM. The
/// trainer, samplers, and evaluator all read ground truth through this
/// trait, so they are oblivious to where the matrix lives; the two paths
/// are bitwise-identical on the same inputs (differentially tested).
///
/// `Sync` is a supertrait because the data-parallel trainer and the
/// shard-per-core evaluator read rows from worker threads.
pub trait GroundTruth: Sync {
    /// Number of trajectories covered (the matrix is `len × len`).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance between trajectories `i` and `j` (symmetric, 0 on the
    /// diagonal).
    fn get(&self, i: usize, j: usize) -> f64;

    /// Overwrite `out` with row `i` (all `len` distances from `i`). Takes a
    /// caller-owned buffer so hot loops can reuse one allocation.
    fn row_into(&self, i: usize, out: &mut Vec<f64>);

    /// Maximum entry (used to normalize distances before `exp(−αD)`).
    fn max_value(&self) -> f64;
}

impl GroundTruth for DistanceMatrix {
    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        DistanceMatrix::get(self, i, j)
    }

    fn row_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.row(i));
    }

    fn max_value(&self) -> f64 {
        DistanceMatrix::max_value(self)
    }
}

/// The paper's similarity transform `S = exp(−α·D̂)` as a pure function,
/// with `D̂ = D/scale` scaled to `[0, 1]` by the ground truth's maximum so α
/// has a dataset-independent effect. Values lie in `(0, 1]`: 1 on the
/// diagonal, `exp(−α)` at the maximum distance.
///
/// The trainer applies it on demand to entries of any [`GroundTruth`]
/// instead of materializing an n² similarity matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityTransform {
    alpha: f64,
    scale: f64,
}

impl SimilarityTransform {
    /// Transform with `scale` taken from the ground truth's maximum entry
    /// (clamped away from zero).
    pub fn from_truth(truth: &dyn GroundTruth, alpha: f64) -> SimilarityTransform {
        SimilarityTransform { alpha, scale: truth.max_value().max(f64::MIN_POSITIVE) }
    }

    pub fn new(alpha: f64, scale: f64) -> SimilarityTransform {
        SimilarityTransform { alpha, scale: scale.max(f64::MIN_POSITIVE) }
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The distance normalization constant used by the transform.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Similarity of a distance value under the transform.
    pub fn of_distance(&self, d: f64) -> f64 {
        (-self.alpha * d / self.scale).exp()
    }
}

/// A dense symmetric pairwise distance matrix.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Compute all pairwise distances using `threads` worker threads.
    pub fn compute(
        trajectories: &[Trajectory],
        metric: Metric,
        params: &MetricParams,
        threads: usize,
    ) -> DistanceMatrix {
        let n = trajectories.len();
        if n == 0 {
            return DistanceMatrix { n, data: Vec::new() };
        }
        let mut data = vec![0.0f64; n * n];
        let threads = threads.max(1);
        // Row i contributes n-1-i upper-triangle cells, so a plain round-robin
        // assignment front-loads the low-index workers. Pairing row k with row
        // n-1-k gives every pair the same n-1 cells; sending the pair to
        // worker min(k, n-1-k) % threads balances the triangle.
        let chunks: Vec<(usize, &mut [f64])> = data.chunks_mut(n).enumerate().collect();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            let mut partitions: Vec<Vec<(usize, &mut [f64])>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (k, row) in chunks {
                partitions[k.min(n - 1 - k) % threads].push((k, row));
            }
            for part in partitions {
                handles.push(s.spawn(move || {
                    for (i, row) in part {
                        // Symmetric: compute the upper triangle only; the
                        // lower triangle is filled by the mirror pass.
                        for j in i + 1..n {
                            row[j] = metric.distance(&trajectories[i], &trajectories[j], params);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().expect("distance worker panicked");
            }
        });
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                data[i * n + j] = data[j * n + i];
            }
        }
        DistanceMatrix { n, data }
    }

    /// Build from a row-major buffer (e.g. deserialized).
    pub fn from_raw(n: usize, data: Vec<f64>) -> DistanceMatrix {
        assert_eq!(data.len(), n * n, "DistanceMatrix: buffer must be n*n");
        DistanceMatrix { n, data }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Maximum finite entry (used to normalize distances before `exp(−αD)`).
    pub fn max_value(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trajectory;

    fn toy() -> Vec<Trajectory> {
        vec![
            Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0)]),
            Trajectory::from_coords(&[(0.0, 0.1), (1.0, 0.1)]),
            Trajectory::from_coords(&[(5.0, 5.0), (6.0, 5.0)]),
        ]
    }

    #[test]
    fn symmetric_zero_diagonal() {
        let m = DistanceMatrix::compute(&toy(), Metric::Dtw, &MetricParams::default(), 2);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        // Close pair closer than far pair.
        assert!(m.get(0, 1) < m.get(0, 2));
    }

    #[test]
    fn parallel_matches_serial() {
        let trajs = toy();
        let p = MetricParams::default();
        let serial = DistanceMatrix::compute(&trajs, Metric::Frechet, &p, 1);
        let parallel = DistanceMatrix::compute(&trajs, Metric::Frechet, &p, 4);
        assert_eq!(serial.raw(), parallel.raw());
    }

    #[test]
    fn similarity_transform_properties() {
        let m = DistanceMatrix::compute(&toy(), Metric::Dtw, &MetricParams::default(), 1);
        let t = SimilarityTransform::from_truth(&m, 8.0);
        let s = |i: usize, j: usize| t.of_distance(m.get(i, j));
        for i in 0..3 {
            assert_eq!(s(i, i), 1.0); // exp(0)
            for j in 0..3 {
                let v = s(i, j);
                assert!(v > 0.0 && v <= 1.0);
            }
        }
        // Monotone: smaller distance => larger similarity.
        assert!(s(0, 1) > s(0, 2));
        // Max-distance entry maps to exp(-alpha).
        let min_sim = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| s(i, j))
            .fold(f64::INFINITY, f64::min);
        assert!((min_sim - (-8.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn ground_truth_trait_matches_inherent_api() {
        let m = DistanceMatrix::compute(&toy(), Metric::Dtw, &MetricParams::default(), 1);
        let gt: &dyn GroundTruth = &m;
        assert_eq!(gt.len(), 3);
        assert_eq!(gt.max_value().to_bits(), m.max_value().to_bits());
        let mut row = Vec::new();
        for i in 0..3 {
            gt.row_into(i, &mut row);
            assert_eq!(row.as_slice(), m.row(i));
            for j in 0..3 {
                assert_eq!(gt.get(i, j).to_bits(), m.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn from_raw_roundtrip() {
        let m = DistanceMatrix::from_raw(2, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.len(), 2);
    }
}
