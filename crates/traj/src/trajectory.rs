//! The [`Trajectory`] type: an ordered sequence of sample points.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// A trajectory `T = (p⁽¹⁾, .., p⁽ⁿ⁾)` (Definition 1).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trajectory {
    points: Vec<Point>,
}

impl Trajectory {
    pub fn new(points: Vec<Point>) -> Trajectory {
        Trajectory { points }
    }

    /// Build from `(lon, lat)` tuples.
    pub fn from_coords(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory { points: coords.iter().map(|&c| c.into()).collect() }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Append one point. A full buffer grows by an eighth (plus one point),
    /// not by doubling: a streamed trajectory then carries at most ~12.5%
    /// unused capacity, and growth is still geometric, so a push stays
    /// amortised O(1).
    pub fn push(&mut self, p: Point) {
        if self.points.len() == self.points.capacity() {
            self.points.reserve_exact(self.points.len() / 8 + 1);
        }
        self.points.push(p);
    }

    /// The prefix sub-trajectory `T^{(:i)}` containing the first `i` points
    /// (used by the sub-trajectory loss, Eq. 15).
    pub fn prefix(&self, i: usize) -> Trajectory {
        assert!(i <= self.len(), "prefix({i}) of length-{} trajectory", self.len());
        Trajectory { points: self.points[..i].to_vec() }
    }

    /// The suffix sub-trajectory holding the last `min(k, len)` points —
    /// the sliding window that streaming similarity queries embed.
    pub fn last_window(&self, k: usize) -> Trajectory {
        let n = self.points.len();
        Trajectory { points: self.points[n.saturating_sub(k)..].to_vec() }
    }

    /// Axis-aligned bounding box `((min_lon, min_lat), (max_lon, max_lat))`.
    pub fn bbox(&self) -> Option<((f64, f64), (f64, f64))> {
        if self.points.is_empty() {
            return None;
        }
        let mut min = (f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.points {
            min.0 = min.0.min(p.lon);
            min.1 = min.1.min(p.lat);
            max.0 = max.0.max(p.lon);
            max.1 = max.1.max(p.lat);
        }
        Some((min, max))
    }

    /// Total travelled path length (Euclidean in coordinate space).
    pub fn path_length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].dist(&w[1])).sum()
    }

    /// Arithmetic mean of the points (used by the k-d tree sampler's
    /// simplified representation).
    pub fn centroid(&self) -> Option<Point> {
        if self.points.is_empty() {
            return None;
        }
        let n = self.points.len() as f64;
        let (sx, sy) = self
            .points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.lon, sy + p.lat));
        Some(Point::new(sx / n, sy / n))
    }

    /// Downsample to exactly `k` points by even index striding (Traj2SimVec's
    /// trajectory simplification). If the trajectory is shorter than `k`, the
    /// last point is repeated.
    pub fn simplify(&self, k: usize) -> Trajectory {
        assert!(k > 0, "simplify: k must be positive");
        if self.points.is_empty() {
            return Trajectory::default();
        }
        let n = self.points.len();
        let points = (0..k)
            .map(|i| {
                let idx = if k == 1 { 0 } else { i * (n - 1) / (k - 1) };
                self.points[idx.min(n - 1)]
            })
            .collect();
        Trajectory { points }
    }

    /// Flatten to interleaved `[lon0, lat0, lon1, lat1, ..]` f32 features for
    /// model input.
    pub fn to_features(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.points.len() * 2);
        for p in &self.points {
            out.push(p.lon as f32);
            out.push(p.lat as f32);
        }
        out
    }
}

impl std::ops::Index<usize> for Trajectory {
    type Output = Point;
    fn index(&self, i: usize) -> &Point {
        &self.points[i]
    }
}

impl FromIterator<Point> for Trajectory {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Trajectory {
        Trajectory { points: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Trajectory {
        Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    }

    #[test]
    fn basic_accessors() {
        let t = t();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t[2], Point::new(1.0, 1.0));
    }

    #[test]
    fn push_grows_by_an_eighth() {
        let mut t = Trajectory::default();
        for i in 0..1000 {
            t.push(Point::new(i as f64, 0.0));
            let slack = t.points.capacity() - t.len();
            assert!(slack <= t.len() / 8 + 1, "{slack} spare slots at length {}", t.len());
        }
        assert_eq!(t[999], Point::new(999.0, 0.0));
    }

    #[test]
    fn prefix_matches_paper_notation() {
        let t = t();
        let p = t.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p[1], Point::new(1.0, 0.0));
    }

    #[test]
    fn last_window_clamps_to_length() {
        let t = t();
        assert_eq!(t.last_window(2).points(), &t.points()[2..]);
        assert_eq!(t.last_window(4), t);
        assert_eq!(t.last_window(99), t);
        assert!(t.last_window(0).is_empty());
        assert!(Trajectory::default().last_window(3).is_empty());
    }

    #[test]
    fn bbox_and_centroid() {
        let t = t();
        assert_eq!(t.bbox(), Some(((0.0, 0.0), (2.0, 1.0))));
        let c = t.centroid().unwrap();
        assert_eq!(c, Point::new(1.0, 0.5));
        assert!(Trajectory::default().bbox().is_none());
        assert!(Trajectory::default().centroid().is_none());
    }

    #[test]
    fn path_length_sums_segments() {
        assert_eq!(t().path_length(), 3.0);
    }

    #[test]
    fn simplify_keeps_endpoints() {
        let t = Trajectory::from_coords(&(0..10).map(|i| (i as f64, 0.0)).collect::<Vec<_>>());
        let s = t.simplify(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], Point::new(0.0, 0.0));
        assert_eq!(s[3], Point::new(9.0, 0.0));
    }

    #[test]
    fn simplify_shorter_than_k_repeats() {
        let t = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 1.0)]);
        let s = t.simplify(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[4], Point::new(1.0, 1.0));
    }

    #[test]
    fn features_interleave() {
        let f = Trajectory::from_coords(&[(1.0, 2.0), (3.0, 4.0)]).to_features();
        assert_eq!(f, vec![1.0, 2.0, 3.0, 4.0]);
    }
}
