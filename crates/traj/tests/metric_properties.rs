//! Property tests for the six exact metrics: metric axioms that must hold
//! for arbitrary trajectories (identity, symmetry, non-negativity), the
//! banded-DTW upper-bound guarantee, and `Metric::distances_into` against
//! `Metric::distance` column by column.

use proptest::prelude::*;
use tmn_traj::metrics::{dtw, dtw_banded, Metric, MetricParams};
use tmn_traj::{Point, Trajectory};

/// Strategy: a trajectory of 1..=12 points in the unit square.
fn arb_traj() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..=12)
        .prop_map(|pts| pts.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Columns per lane group of the one-against-many DTW kernel: up to
/// `2 * LANES + 1` columns give empty, full and ragged groups.
const LANES: usize = 4;

/// A coordinate in `[-1, 1)`, or one time in three within ±1.5e154, where
/// the square of a difference overflows to infinity.
fn arb_coord() -> impl Strategy<Value = f64> {
    (0u8..3, -1.0f64..1.0).prop_map(|(huge, u)| if huge == 0 { u * 1.5e154 } else { u })
}

/// A coordinate that is NaN, +inf or -inf about one time in twenty.
fn arb_wild_coord() -> impl Strategy<Value = f64> {
    (0u8..60, -1.0f64..1.0).prop_map(|(k, u)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => u,
    })
}

/// 1..=40 points with coordinates from `coord`; about a quarter repeat the
/// point before them.
fn arb_column<S: Strategy<Value = f64>>(coord: fn() -> S) -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((coord(), coord(), 0u8..4), 1..=40).prop_map(|pts| {
        let mut out: Vec<Point> = Vec::with_capacity(pts.len());
        for (x, y, repeat) in pts {
            let p = match out.last() {
                Some(&prev) if repeat == 0 => prev,
                _ => Point::new(x, y),
            };
            out.push(p);
        }
        Trajectory::new(out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// d(t, t) = 0 for the metrics whose cost of a perfect alignment is
    /// exactly zero (DTW, Fréchet, Hausdorff, ERP).
    #[test]
    fn identity_of_indiscernibles(t in arb_traj()) {
        let params = MetricParams::default();
        for m in [Metric::Dtw, Metric::Frechet, Metric::Hausdorff, Metric::Erp] {
            let d = m.distance(&t, &t, &params);
            prop_assert!(d.abs() < 1e-12, "{m}: d(t,t) = {d}, expected 0");
        }
    }

    /// All six metrics are symmetric: d(a, b) = d(b, a).
    #[test]
    fn symmetry(a in arb_traj(), b in arb_traj()) {
        let params = MetricParams::default();
        for m in Metric::ALL {
            let ab = m.distance(&a, &b, &params);
            let ba = m.distance(&b, &a, &params);
            let denom = ab.abs().max(ba.abs()).max(1.0);
            prop_assert!(
                (ab - ba).abs() / denom < 1e-9,
                "{m}: d(a,b) = {ab} but d(b,a) = {ba}"
            );
        }
    }

    /// All six metrics are non-negative and finite.
    #[test]
    fn non_negative_and_finite(a in arb_traj(), b in arb_traj()) {
        let params = MetricParams::default();
        for m in Metric::ALL {
            let d = m.distance(&a, &b, &params);
            prop_assert!(d.is_finite(), "{m}: d(a,b) = {d} not finite");
            prop_assert!(d >= 0.0, "{m}: d(a,b) = {d} negative");
        }
    }

    /// Restricting the warping path can only increase the DTW cost:
    /// dtw_banded(a, b, band) >= dtw(a, b), with equality once the band
    /// covers the unconstrained optimal path.
    #[test]
    fn banded_dtw_upper_bounds_full_dtw(
        a in arb_traj(),
        b in arb_traj(),
        band in 1usize..8,
    ) {
        let full = dtw(&a, &b);
        let banded = dtw_banded(&a, &b, band);
        prop_assert!(
            banded >= full - 1e-9,
            "banded DTW {banded} below exact DTW {full} (band {band})"
        );
        // A band wide enough to cover the whole DP table is exact.
        let wide = dtw_banded(&a, &b, a.len().max(b.len()));
        prop_assert!((wide - full).abs() < 1e-9, "full-width band {wide} != exact {full}");
    }

    /// Adversarial length ratios (down to 2 vs 200 points): the band is
    /// widened to at least the length difference + 1, so even band=1 stays
    /// feasible (finite) and still upper-bounds exact DTW.
    #[test]
    fn banded_dtw_survives_extreme_length_ratios(
        short_len in 2usize..=4,
        long_len in 50usize..=200,
        band in 1usize..4,
        seed in 0u64..1000,
    ) {
        let wobble = |i: usize| ((i as f64 + seed as f64) * 0.7).sin() * 0.3;
        let short: Trajectory = (0..short_len)
            .map(|i| Point::new(i as f64 / short_len as f64, wobble(i)))
            .collect();
        let long: Trajectory = (0..long_len)
            .map(|i| Point::new(i as f64 / long_len as f64, wobble(i + 1)))
            .collect();
        let full = dtw(&short, &long);
        for (a, b) in [(&short, &long), (&long, &short)] {
            let banded = dtw_banded(a, b, band);
            prop_assert!(
                banded.is_finite(),
                "band {band} infeasible for lengths {} vs {}", a.len(), b.len()
            );
            prop_assert!(
                banded >= full - 1e-9,
                "banded DTW {banded} below exact DTW {full} (band {band}, {} vs {} points)",
                a.len(), b.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every metric's `distances_into` equals `distance` per column, bit for
    /// bit.
    #[test]
    fn distances_into_equals_distance(
        a in arb_column(arb_coord),
        bs in prop::collection::vec(arb_column(arb_coord), 0..=2 * LANES + 1),
    ) {
        let params = MetricParams::default();
        for m in Metric::ALL {
            let mut out = vec![f64::NAN; bs.len()];
            m.distances_into(&a, &bs, &params, &mut out);
            for (k, b) in bs.iter().enumerate() {
                let want = m.distance(&a, b, &params);
                prop_assert_eq!(out[k].to_bits(), want.to_bits(), "{}: column {}", m, k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The DTW lanes reproduce `dtw` per column, bit for bit: empty, full
    /// and ragged lane groups, `a` shorter and longer than its columns,
    /// repeated points, and squared differences that overflow.
    #[test]
    fn dtw_lanes_equal_dtw_bitwise(
        a in arb_column(arb_coord),
        bs in prop::collection::vec(arb_column(arb_coord), 0..=2 * LANES + 1),
    ) {
        let mut out = vec![f64::NAN; bs.len()];
        Metric::Dtw.distances_into(&a, &bs, &MetricParams::default(), &mut out);
        for (k, b) in bs.iter().enumerate() {
            let want = dtw(&a, b);
            prop_assert_eq!(
                out[k].to_bits(), want.to_bits(),
                "column {} of {}: {} vs {} points", k, bs.len(), a.len(), b.len()
            );
        }
    }

    /// With NaN and infinite coordinates the lanes give the same bits as
    /// `dtw`, or NaN where `dtw` gives NaN.
    #[test]
    fn dtw_lanes_match_dtw_on_non_finite_coordinates(
        a in arb_column(arb_wild_coord),
        bs in prop::collection::vec(arb_column(arb_wild_coord), 0..=2 * LANES + 1),
    ) {
        let mut out = vec![0.0; bs.len()];
        Metric::Dtw.distances_into(&a, &bs, &MetricParams::default(), &mut out);
        for (k, b) in bs.iter().enumerate() {
            let (got, want) = (out[k], dtw(&a, b));
            prop_assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "column {k}: lanes {got} vs dtw {want}"
            );
        }
    }
}
