//! Differential oracle: the blocked, out-of-core ground truth must be
//! *bitwise* identical to the dense in-RAM `DistanceMatrix` on the same
//! inputs — across metrics, tile sizes (including ragged edges and
//! degenerate tile=1), and worker counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmn_store::BlockedDistanceMatrix;
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{DistanceMatrix, Point, Trajectory};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmn-store-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn random_trajs(n: usize, seed: u64) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(3..12);
            let (mut lon, mut lat) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            (0..len)
                .map(|_| {
                    lon += rng.gen_range(-0.05..0.05);
                    lat += rng.gen_range(-0.05..0.05);
                    Point::new(lon, lat)
                })
                .collect()
        })
        .collect()
}

fn assert_bitwise_equal(dense: &DistanceMatrix, blocked: &BlockedDistanceMatrix, label: &str) {
    let n = dense.len();
    assert_eq!(blocked.len(), n, "{label}: dimension");
    // Every cell, both triangles and the diagonal.
    for i in 0..n {
        for j in 0..n {
            assert_eq!(
                dense.get(i, j).to_bits(),
                blocked.get(i, j).to_bits(),
                "{label}: cell ({i},{j})"
            );
        }
    }
    // Whole rows through the GroundTruth interface.
    let mut row = Vec::new();
    for i in 0..n {
        blocked.row_into(i, &mut row);
        assert_eq!(row.len(), n, "{label}: row {i} length");
        for (j, v) in row.iter().enumerate() {
            assert_eq!(dense.row(i)[j].to_bits(), v.to_bits(), "{label}: row {i} col {j}");
        }
    }
    // The derived quantity the trainer/evaluator consume.
    assert_eq!(dense.max_value().to_bits(), blocked.max_value().to_bits(), "{label}: max");
}

#[test]
fn blocked_matches_dense_across_tile_sizes() {
    // n=33 with tile 8 exercises ragged edge blocks; tile 64 puts the whole
    // matrix in one tile; tile 1 makes every cell its own tile. n=0 and
    // n=1 are the empty and the single-cell matrix.
    let params = MetricParams::default();
    for n in [0usize, 1, 33] {
        let trajs = random_trajs(n, 11);
        let dense = DistanceMatrix::compute(&trajs, Metric::Dtw, &params, 2);
        for tile in [1usize, 8, 64] {
            let p = tmp(&format!("tiles-{n}-{tile}.tmns"));
            let blocked =
                BlockedDistanceMatrix::compute(&p, &trajs, Metric::Dtw, &params, 2, tile).unwrap();
            assert_bitwise_equal(&dense, &blocked, &format!("n={n} tile={tile}"));
        }
    }
}

#[test]
fn blocked_matches_dense_across_thread_counts() {
    let trajs = random_trajs(26, 23);
    let params = MetricParams::default();
    let dense = DistanceMatrix::compute(&trajs, Metric::Hausdorff, &params, 1);
    for threads in [1usize, 3, 7] {
        let p = tmp(&format!("threads-{threads}.tmns"));
        let blocked =
            BlockedDistanceMatrix::compute(&p, &trajs, Metric::Hausdorff, &params, threads, 7)
                .unwrap();
        assert_bitwise_equal(&dense, &blocked, &format!("threads={threads}"));
    }
}

#[test]
fn blocked_matches_dense_across_metrics() {
    let trajs = random_trajs(17, 31);
    let params = MetricParams::default();
    for metric in [Metric::Frechet, Metric::Erp, Metric::Edr, Metric::Lcss] {
        let dense = DistanceMatrix::compute(&trajs, metric, &params, 2);
        let p = tmp(&format!("metric-{metric:?}.tmns"));
        let blocked = BlockedDistanceMatrix::compute(&p, &trajs, metric, &params, 2, 6).unwrap();
        assert_bitwise_equal(&dense, &blocked, &format!("{metric:?}"));
    }
}

#[test]
fn reopened_file_stays_bitwise_equal() {
    let trajs = random_trajs(20, 47);
    let params = MetricParams::default();
    let dense = DistanceMatrix::compute(&trajs, Metric::Dtw, &params, 2);
    let p = tmp("reopen.tmns");
    drop(BlockedDistanceMatrix::compute(&p, &trajs, Metric::Dtw, &params, 2, 6).unwrap());
    let reopened = BlockedDistanceMatrix::open(&p).unwrap();
    reopened.verify().unwrap();
    assert_bitwise_equal(&dense, &reopened, "reopened");
}
