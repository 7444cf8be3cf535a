//! Exact trajectory distance metrics (Section III of the paper).
//!
//! Six metrics are implemented — DTW, discrete Fréchet, Hausdorff, ERP, EDR
//! and LCSS — each as an O(n·m) dynamic program (or scan, for Hausdorff).
//! DTW, Fréchet and LCSS also expose the *point matching* they induce
//! (Figure 1 in the paper), which motivates TMN's matching mechanism.

pub mod alignment;
pub mod banded;
pub mod dtw;
pub mod edr;
pub mod erp;
pub mod frechet;
pub mod hausdorff;
pub mod lcss;
pub mod prefix;
pub mod witness;

pub use alignment::{alignment_is_complete, edr_alignment, erp_alignment, EditOp};
pub use banded::dtw_banded;
pub use dtw::{dtw, dtw_matching};
pub use edr::edr;
pub use erp::erp;
pub use frechet::{frechet, frechet_matching};
pub use hausdorff::hausdorff;
pub use lcss::{lcss, lcss_distance, lcss_matching};
pub use prefix::prefix_distances;
pub use witness::{hausdorff_witness, nearest_assignment, HausdorffWitness};

use crate::{Point, Trajectory};
use serde::{Deserialize, Serialize};

/// Tunable parameters shared by the threshold/gap-based metrics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricParams {
    /// Matching threshold ε for EDR and LCSS.
    pub eps: f64,
    /// The gap reference point `g` of ERP.
    pub erp_gap: Point,
}

impl Default for MetricParams {
    fn default() -> Self {
        MetricParams { eps: 0.005, erp_gap: Point::new(0.0, 0.0) }
    }
}

/// One of the paper's six distance metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    Dtw,
    Frechet,
    Hausdorff,
    Erp,
    Edr,
    Lcss,
}

impl Metric {
    /// All six, in the paper's Table II order.
    pub const ALL: [Metric; 6] =
        [Metric::Dtw, Metric::Frechet, Metric::Erp, Metric::Edr, Metric::Hausdorff, Metric::Lcss];

    /// Compute the exact distance between two trajectories.
    pub fn distance(&self, a: &Trajectory, b: &Trajectory, params: &MetricParams) -> f64 {
        match self {
            Metric::Dtw => dtw(a, b),
            Metric::Frechet => frechet(a, b),
            Metric::Hausdorff => hausdorff(a, b),
            Metric::Erp => erp(a, b, params.erp_gap),
            Metric::Edr => edr(a, b, params.eps),
            Metric::Lcss => lcss_distance(a, b, params.eps),
        }
    }

    /// Distances from `a` to every trajectory of `bs`: sets
    /// `out[k] = self.distance(a, &bs[k], params)`, bit for bit. DTW fills
    /// the columns in length-sorted lanes; the other metrics call
    /// [`distance`](Metric::distance) per column.
    ///
    /// # Panics
    /// If `out.len() != bs.len()`, or wherever `distance` would panic.
    pub fn distances_into(
        &self,
        a: &Trajectory,
        bs: &[Trajectory],
        params: &MetricParams,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), bs.len(), "distances_into: one output per column");
        match self {
            Metric::Dtw => dtw::dtw_many(a, bs, out),
            _ => {
                for (o, b) in out.iter_mut().zip(bs) {
                    *o = self.distance(a, b, params);
                }
            }
        }
    }

    /// Whether the paper classifies this metric as *matching-based*
    /// (DTW, ERP, EDR, LCSS accumulate per-pair matches; Section V-B1).
    pub fn is_matching_based(&self) -> bool {
        matches!(self, Metric::Dtw | Metric::Erp | Metric::Edr | Metric::Lcss)
    }

    /// The paper's α for the similarity transform `S = exp(−α·D)`:
    /// 16 for DTW and ERP, 8 for the others (Section V-A4).
    pub fn default_alpha(&self) -> f64 {
        match self {
            Metric::Dtw | Metric::Erp => 16.0,
            _ => 8.0,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Metric::Dtw => "DTW",
            Metric::Frechet => "Frechet",
            Metric::Hausdorff => "Hausdorff",
            Metric::Erp => "ERP",
            Metric::Edr => "EDR",
            Metric::Lcss => "LCSS",
        }
    }
}

impl std::str::FromStr for Metric {
    type Err = String;
    fn from_str(s: &str) -> Result<Metric, String> {
        match s.to_ascii_lowercase().as_str() {
            "dtw" => Ok(Metric::Dtw),
            "frechet" | "fréchet" => Ok(Metric::Frechet),
            "hausdorff" => Ok(Metric::Hausdorff),
            "erp" => Ok(Metric::Erp),
            "edr" => Ok(Metric::Edr),
            "lcss" => Ok(Metric::Lcss),
            other => Err(format!("unknown metric: {other}")),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for m in Metric::ALL {
            let parsed: Metric = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("warp".parse::<Metric>().is_err());
    }

    #[test]
    fn alpha_matches_paper() {
        assert_eq!(Metric::Dtw.default_alpha(), 16.0);
        assert_eq!(Metric::Erp.default_alpha(), 16.0);
        assert_eq!(Metric::Hausdorff.default_alpha(), 8.0);
        assert_eq!(Metric::Lcss.default_alpha(), 8.0);
    }

    #[test]
    fn matching_based_classification() {
        assert!(Metric::Dtw.is_matching_based());
        assert!(Metric::Edr.is_matching_based());
        assert!(!Metric::Frechet.is_matching_based());
        assert!(!Metric::Hausdorff.is_matching_based());
    }

    #[test]
    fn identity_distance_is_zero_for_all() {
        let t = Trajectory::from_coords(&[(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)]);
        let p = MetricParams::default();
        for m in Metric::ALL {
            assert!(m.distance(&t, &t, &p).abs() < 1e-12, "{m}");
        }
    }

    #[test]
    fn symmetry_for_all() {
        let a = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.5)]);
        let b = Trajectory::from_coords(&[(0.1, 0.1), (0.9, -0.2)]);
        let p = MetricParams::default();
        for m in Metric::ALL {
            let (d1, d2) = (m.distance(&a, &b, &p), m.distance(&b, &a, &p));
            assert!((d1 - d2).abs() < 1e-12, "{m}: {d1} vs {d2}");
        }
    }
}
