//! Edge-case integration tests: degenerate trajectories, tiny batches,
//! extreme parameters, and failure-injection paths.

use tmn::prelude::*;

#[test]
fn single_point_trajectories_work_everywhere() {
    let a = Trajectory::from_coords(&[(0.3, 0.4)]);
    let b = Trajectory::from_coords(&[(0.6, 0.1)]);
    let p = MetricParams::default();
    for metric in Metric::ALL {
        let d = metric.distance(&a, &b, &p);
        assert!(d.is_finite() && d >= 0.0, "{metric}");
    }
    // Model encoding of single-point trajectories.
    let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 });
    let enc = model.encode_pairs(&PairBatch::build(&[&a], &[&b]));
    assert_eq!(enc.out_a.shape(), &[1, 1, 8]);
    assert!(enc.out_a.to_vec().iter().all(|v| v.is_finite()));
}

#[test]
fn identical_point_repeated_trajectory() {
    // A stationary object: all points equal.
    let t = Trajectory::from_coords(&[(0.5, 0.5); 12]);
    let p = MetricParams::default();
    for metric in Metric::ALL {
        assert_eq!(metric.distance(&t, &t, &p), 0.0, "{metric}");
    }
    assert_eq!(t.path_length(), 0.0);
    assert_eq!(t.simplify(4).len(), 4);
}

#[test]
fn extreme_alpha_similarities_stay_in_range() {
    let trajs: Vec<Trajectory> = (0..4)
        .map(|i| Trajectory::from_coords(&[(0.0, i as f64), (1.0, i as f64)]))
        .collect();
    let dmat = DistanceMatrix::compute(&trajs, Metric::Dtw, &MetricParams::default(), 1);
    for alpha in [0.001, 1.0, 100.0] {
        let t = SimilarityTransform::from_truth(&dmat, alpha);
        for i in 0..4 {
            for j in 0..4 {
                let v = t.of_distance(dmat.get(i, j));
                assert!((0.0..=1.0).contains(&v), "alpha {alpha}: {v}");
            }
        }
    }
}

#[test]
fn batch_of_one_pair_trains() {
    let trajs: Vec<Trajectory> = (0..4)
        .map(|i| {
            (0..10)
                .map(|t| Point::new(0.1 * t as f64, 0.2 * i as f64))
                .collect()
        })
        .collect();
    let dmat = DistanceMatrix::compute(&trajs, Metric::Dtw, &MetricParams::default(), 1);
    let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 2 });
    let cfg = TrainConfig {
        epochs: 1,
        sampling_number: 2,
        batch_pairs: 1, // one pair per gradient step
        ..Default::default()
    };
    let mut trainer = Trainer::new(
        model.as_ref(),
        &trajs,
        &dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        cfg,
        None,
    );
    let stats = trainer.train();
    assert!(stats.final_loss().is_finite());
}

#[test]
fn checkpoint_rejects_wrong_architecture() {
    use tmn::core::{load_params, save_params, CheckpointError};
    let srn = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
    let buf = save_params(srn.params());
    let tmn_model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 });
    // Restoring SRN weights into TMN must fail as a recoverable error
    // (not a panic), naming what disagreed, and leave the model untouched.
    let before = tmn_model.params().snapshot();
    match load_params(tmn_model.params(), &buf) {
        Err(CheckpointError::Mismatch { .. }) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
    assert_eq!(tmn_model.params().snapshot(), before, "failed load must not write");
}

#[test]
fn corrupted_checkpoint_is_detected() {
    use tmn::core::{load_params, save_params};
    let model = ModelKind::TmnNm.build(&ModelConfig { dim: 8, seed: 3 });
    let mut buf = save_params(model.params()).to_vec();
    buf.truncate(buf.len() - 10);
    assert!(load_params(model.params(), &buf).is_err());
}

#[test]
fn hnsw_with_duplicate_vectors() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut h = Hnsw::new(4, HnswConfig::default());
    for _ in 0..20 {
        h.insert(&[1.0, 2.0, 3.0, 4.0], &mut rng);
    }
    let nn = h.knn(&[1.0, 2.0, 3.0, 4.0], 5);
    assert_eq!(nn.len(), 5);
    assert!(nn.iter().all(|&(_, d)| d == 0.0));
}

#[test]
fn kdtree_with_collinear_points() {
    let pts: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, 0.0]).collect();
    let tree = KdTree::build(pts);
    let nn = tree.knn(&[25.2, 0.0], 3);
    let ids: Vec<usize> = nn.iter().map(|&(i, _)| i).collect();
    assert!(ids.contains(&25));
    assert!(ids.contains(&24) || ids.contains(&26));
}

#[test]
fn evaluation_with_more_requested_than_available() {
    // 5 candidates but HR-10/HR-50 requested: top_k truncates gracefully.
    let truth: Vec<f64> = (0..5).map(|i| i as f64).collect();
    let e = evaluate(std::slice::from_ref(&truth), std::slice::from_ref(&truth), &[0]);
    assert_eq!(e.hr10, 0.4); // 4 candidates recovered out of k=10
}

#[test]
fn dataset_generation_with_tight_length_band() {
    let mut cfg = DatasetConfig::new(DatasetKind::GeolifeLike, 20, 5);
    cfg.gen.min_len = 10;
    cfg.gen.max_len = 10; // exact length
    let ds = Dataset::generate(&cfg);
    for t in ds.train.iter().chain(&ds.test) {
        assert_eq!(t.len(), 10);
    }
}

#[test]
fn sub_loss_skips_pairs_shorter_than_stride() {
    // Pairs shorter than the stride contribute no sub targets but still train.
    let trajs: Vec<Trajectory> = (0..6)
        .map(|i| {
            (0..4) // much shorter than sub_stride=10
                .map(|t| Point::new(0.1 * t as f64, 0.1 * i as f64))
                .collect()
        })
        .collect();
    let dmat = DistanceMatrix::compute(&trajs, Metric::Dtw, &MetricParams::default(), 1);
    let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 6 });
    let cfg = TrainConfig { epochs: 1, sampling_number: 2, use_sub_loss: true, ..Default::default() };
    let mut trainer = Trainer::new(
        model.as_ref(),
        &trajs,
        &dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        cfg,
        None,
    );
    assert!(trainer.train().final_loss().is_finite());
}
