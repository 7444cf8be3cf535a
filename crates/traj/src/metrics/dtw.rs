//! Dynamic Time Warping.

use crate::{Point, Trajectory};

/// DTW distance with O(min(m,n)) memory (rolling rows).
///
/// `DTW(i,j) = d(pᵢ, qⱼ) + min(DTW(i−1,j), DTW(i,j−1), DTW(i−1,j−1))`.
pub fn dtw(a: &Trajectory, b: &Trajectory) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "dtw: empty trajectory");
    let (pa, pb) = (a.points(), b.points());
    // Keep the inner loop over the shorter trajectory.
    let (outer, inner) = if pa.len() >= pb.len() { (pa, pb) } else { (pb, pa) };
    let n = inner.len();
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut cur = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    for op in outer {
        cur[0] = f64::INFINITY;
        for (j, ip) in inner.iter().enumerate() {
            let cost = op.dist(ip);
            cur[j + 1] = cost + prev[j + 1].min(cur[j]).min(prev[j]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Columns per lane group of [`dtw_many`]: one independent DP chain each,
/// so the lanes hide each other's min–min–add latency. 4 measured best at
/// the default x86-64 target.
const LANES: usize = 4;

/// One-against-many DTW: `out[k] = dtw(a, &bs[k])`, bit for bit.
///
/// The columns are sorted by length, so that little of a group is padding,
/// and taken `LANES` at a time, the shorter ones padded with dummy points.
/// One DP over `a`'s points fills a `[f64; LANES]` lane per column, and
/// each lane's result is read at its own length. The bits cannot differ
/// from [`dtw`]'s:
/// - each cell is `d + min(up, left, diag)`; `f64::min` returns one of its
///   inputs and no cell is ever `-0.0`, so neither the order of the mins
///   nor which trajectory is on the outside changes a cell;
/// - `d` is the same bits in both directions;
/// - a lane never reads another lane's cells, and a cell past a column's
///   end feeds only cells further past it.
///
/// `up.min(diag)` goes first because it does not wait for `left`: one min
/// and the add are all that sit on a lane's serial chain.
pub(crate) fn dtw_many(a: &Trajectory, bs: &[Trajectory], out: &mut [f64]) {
    let mut order: Vec<usize> = (0..bs.len()).collect();
    order.sort_by_key(|&k| bs[k].len());
    if let Some(&shortest) = order.first() {
        assert!(!a.is_empty() && !bs[shortest].is_empty(), "dtw: empty trajectory");
    }
    let longest = order.last().map_or(0, |&k| bs[k].len());
    let mut xs = vec![[0.0f64; LANES]; longest];
    let mut ys = vec![[0.0f64; LANES]; longest];
    let mut row = vec![[0.0f64; LANES]; longest + 1];
    for group in order.chunks(LANES) {
        let width = bs[group[group.len() - 1]].len();
        for lane in 0..LANES {
            let pts = group.get(lane).map_or(&[][..], |&k| bs[k].points());
            for j in 0..width {
                let p = pts.get(j).copied().unwrap_or_default();
                (xs[j][lane], ys[j][lane]) = (p.lon, p.lat);
            }
        }
        row[0] = [0.0; LANES];
        row[1..=width].fill([f64::INFINITY; LANES]);
        for &Point { lon, lat } in a.points() {
            let mut diag = row[0];
            let mut left = [f64::INFINITY; LANES];
            row[0] = [f64::INFINITY; LANES];
            for ((x, y), slot) in xs[..width].iter().zip(&ys[..width]).zip(&mut row[1..=width]) {
                let up = *slot;
                let mut cell = [0.0f64; LANES];
                for l in 0..LANES {
                    let (dx, dy) = (lon - x[l], lat - y[l]);
                    cell[l] = (dx * dx + dy * dy).sqrt() + up[l].min(diag[l]).min(left[l]);
                }
                *slot = cell;
                (diag, left) = (up, cell);
            }
        }
        for (lane, &k) in group.iter().enumerate() {
            out[k] = row[bs[k].len()][lane];
        }
    }
}

/// DTW distance *and* the optimal warping path as `(i, j)` index pairs —
/// the point match pairs of Figure 1.
pub fn dtw_matching(a: &Trajectory, b: &Trajectory) -> (f64, Vec<(usize, usize)>) {
    assert!(!a.is_empty() && !b.is_empty(), "dtw_matching: empty trajectory");
    let (pa, pb) = (a.points(), b.points());
    let (m, n) = (pa.len(), pb.len());
    let mut dp = vec![f64::INFINITY; (m + 1) * (n + 1)];
    dp[0] = 0.0;
    let idx = |i: usize, j: usize| i * (n + 1) + j;
    for i in 1..=m {
        for j in 1..=n {
            let cost = pa[i - 1].dist(&pb[j - 1]);
            dp[idx(i, j)] = cost
                + dp[idx(i - 1, j)]
                    .min(dp[idx(i, j - 1)])
                    .min(dp[idx(i - 1, j - 1)]);
        }
    }
    // Backtrace from (m, n).
    let mut path = Vec::new();
    let (mut i, mut j) = (m, n);
    while i >= 1 && j >= 1 {
        path.push((i - 1, j - 1));
        if i == 1 && j == 1 {
            break;
        }
        let diag = dp[idx(i - 1, j - 1)];
        let up = dp[idx(i - 1, j)];
        let left = dp[idx(i, j - 1)];
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    (dp[idx(m, n)], path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trajectory;

    #[test]
    fn identical_is_zero() {
        let t = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(dtw(&t, &t), 0.0);
    }

    #[test]
    fn known_value_simple() {
        // a = (0,0)->(1,0); b = (0,1)->(1,1): every match costs 1, optimal
        // path is diagonal: total 2.
        let a = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = Trajectory::from_coords(&[(0.0, 1.0), (1.0, 1.0)]);
        assert_eq!(dtw(&a, &b), 2.0);
    }

    #[test]
    fn warping_absorbs_resampling() {
        // b is a duplicated-point version of a; DTW should still be 0.
        let a = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = Trajectory::from_coords(&[(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.0)]);
        assert_eq!(dtw(&a, &b), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = Trajectory::from_coords(&[(0.0, 0.0), (3.0, 1.0), (4.0, 4.0)]);
        let b = Trajectory::from_coords(&[(1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(dtw(&a, &b), dtw(&b, &a));
    }

    #[test]
    fn matching_path_is_monotone_and_complete() {
        let a = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = Trajectory::from_coords(&[(0.0, 0.5), (2.0, 0.5), (3.0, 0.5)]);
        let (d, path) = dtw_matching(&a, &b);
        assert!((d - dtw(&a, &b)).abs() < 1e-12);
        assert_eq!(path.first(), Some(&(0, 0)));
        assert_eq!(path.last(), Some(&(3, 2)));
        for w in path.windows(2) {
            let (di, dj) = (w[1].0 as i64 - w[0].0 as i64, w[1].1 as i64 - w[0].1 as i64);
            assert!((0..=1).contains(&di) && (0..=1).contains(&dj) && di + dj >= 1);
        }
    }

    #[test]
    fn matching_cost_equals_sum_of_pair_distances() {
        let a = Trajectory::from_coords(&[(0.0, 0.0), (1.0, 2.0), (2.5, 1.0)]);
        let b = Trajectory::from_coords(&[(0.5, 0.0), (1.5, 2.5)]);
        let (d, path) = dtw_matching(&a, &b);
        let sum: f64 = path.iter().map(|&(i, j)| a[i].dist(&b[j])).sum();
        assert!((d - sum).abs() < 1e-9, "{d} vs {sum}");
    }

    #[test]
    #[should_panic(expected = "empty trajectory")]
    fn empty_panics() {
        let _ = dtw(&Trajectory::default(), &Trajectory::from_coords(&[(0.0, 0.0)]));
    }
}
