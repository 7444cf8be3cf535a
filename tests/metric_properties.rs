//! Property-based tests (proptest) on the exact distance metrics and the
//! similarity transform — the axioms the learning pipeline relies on.

use proptest::prelude::*;
use tmn::prelude::*;
use tmn::traj::metrics::{dtw, dtw_matching, erp, lcss};

fn arb_trajectory(max_len: usize) -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..max_len)
        .prop_map(|coords| Trajectory::from_coords(&coords))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_metrics_nonnegative_symmetric_identity(
        a in arb_trajectory(20),
        b in arb_trajectory(20),
    ) {
        let p = MetricParams { eps: 0.15, ..Default::default() };
        for metric in Metric::ALL {
            let dab = metric.distance(&a, &b, &p);
            let dba = metric.distance(&b, &a, &p);
            prop_assert!(dab >= 0.0, "{metric}: negative distance {dab}");
            prop_assert!((dab - dba).abs() < 1e-9, "{metric}: asymmetric {dab} vs {dba}");
            prop_assert!(metric.distance(&a, &a, &p).abs() < 1e-9, "{metric}: d(a,a) != 0");
        }
    }

    #[test]
    fn dtw_upper_bounds_and_path_consistency(a in arb_trajectory(16), b in arb_trajectory(16)) {
        // DTW is bounded above by matching every point of the longer
        // trajectory to the best single point of the other times length.
        let (d, path) = dtw_matching(&a, &b);
        prop_assert!((d - dtw(&a, &b)).abs() < 1e-9);
        let path_sum: f64 = path.iter().map(|&(i, j)| a[i].dist(&b[j])).sum();
        prop_assert!((d - path_sum).abs() < 1e-6, "path sum {path_sum} != DTW {d}");
        // Path covers both trajectories end to end.
        prop_assert_eq!(path.first().copied(), Some((0usize, 0usize)));
        prop_assert_eq!(path.last().copied(), Some((a.len() - 1, b.len() - 1)));
    }

    #[test]
    fn frechet_at_most_dtw(a in arb_trajectory(16), b in arb_trajectory(16)) {
        // Fréchet takes the max over an optimal coupling, DTW the sum over
        // its own optimal path; max over any coupling <= sum over it, and
        // minimizing can only help: Fréchet <= DTW always.
        let p = MetricParams::default();
        let f = Metric::Frechet.distance(&a, &b, &p);
        let d = Metric::Dtw.distance(&a, &b, &p);
        prop_assert!(f <= d + 1e-9, "Frechet {f} > DTW {d}");
    }

    #[test]
    fn erp_triangle_inequality(
        a in arb_trajectory(10),
        b in arb_trajectory(10),
        c in arb_trajectory(10),
    ) {
        // ERP is a true metric.
        let g = Point::new(0.0, 0.0);
        let ab = erp(&a, &b, g);
        let bc = erp(&b, &c, g);
        let ac = erp(&a, &c, g);
        prop_assert!(ac <= ab + bc + 1e-9, "ERP triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn lcss_bounds(a in arb_trajectory(16), b in arb_trajectory(16), eps in 0.01f64..0.5) {
        let l = lcss(&a, &b, eps);
        prop_assert!(l <= a.len().min(b.len()));
        // LCSS grows (weakly) with eps.
        let l_wider = lcss(&a, &b, eps * 2.0);
        prop_assert!(l_wider >= l);
        // Distance form stays in [0, 1].
        let d = Metric::Lcss.distance(&a, &b, &MetricParams { eps, ..Default::default() });
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn edr_bounded_by_max_len(a in arb_trajectory(16), b in arb_trajectory(16)) {
        let p = MetricParams { eps: 0.1, ..Default::default() };
        let d = Metric::Edr.distance(&a, &b, &p);
        prop_assert!(d <= a.len().max(b.len()) as f64);
        prop_assert!(d >= (a.len() as f64 - b.len() as f64).abs());
    }

    #[test]
    fn similarity_transform_monotone(
        trajs in prop::collection::vec(arb_trajectory(12), 3..6),
        alpha in 1.0f64..20.0,
    ) {
        let dmat = DistanceMatrix::compute(&trajs, Metric::Dtw, &MetricParams::default(), 1);
        let t = SimilarityTransform::from_truth(&dmat, alpha);
        let s = |i: usize, j: usize| t.of_distance(dmat.get(i, j));
        let n = trajs.len();
        for i in 0..n {
            prop_assert!((s(i, i) - 1.0).abs() < 1e-12);
            for j in 0..n {
                for k in 0..n {
                    if dmat.get(i, j) < dmat.get(i, k) {
                        prop_assert!(s(i, j) >= s(i, k));
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_distances_agree_with_naive(
        a in arb_trajectory(18),
        b in arb_trajectory(18),
        stride in 2usize..6,
    ) {
        let p = MetricParams { eps: 0.1, ..Default::default() };
        for metric in Metric::ALL {
            for (i, d) in prefix_distances(metric, &a, &b, stride, &p) {
                let naive = metric.distance(&a.prefix(i), &b.prefix(i), &p);
                prop_assert!((d - naive).abs() < 1e-9, "{metric} prefix {i}");
            }
        }
    }
}
