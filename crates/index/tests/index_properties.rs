//! Property tests for the index crate: kd-tree exactness against brute
//! force and HNSW recall/ordering invariants under random data.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_index::{Hnsw, HnswConfig, KdTree};

fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn brute_distances(points: &[Vec<f32>], q: &[f32], k: usize) -> Vec<f32> {
    let mut d: Vec<f32> = points.iter().map(|p| dist_sq(q, p)).collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.truncate(k);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kdtree_knn_distances_match_brute_force(
        points in prop::collection::vec(
            prop::collection::vec(-10.0f32..10.0, 3), 1..120),
        query in prop::collection::vec(-10.0f32..10.0, 3),
        k in 1usize..12,
    ) {
        let tree = KdTree::build(points.clone());
        let got: Vec<f32> = tree.knn(&query, k).into_iter().map(|(_, d)| d * d).collect();
        let want = brute_distances(&points, &query, k.min(points.len()));
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-3, "kdtree distance {g} vs brute {w}");
        }
    }

    #[test]
    fn hnsw_results_sorted_and_contain_self(
        seed in 0u64..200,
        n in 20usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 7) as f32, (i % 11) as f32, (i % 13) as f32])
            .collect();
        let mut h = Hnsw::new(3, HnswConfig { m: 8, ef_construction: 60, ef_search: 40 });
        for p in &points {
            h.insert(p, &mut rng);
        }
        // A stored vector's nearest neighbour at distance 0 must be found.
        let nn = h.knn(&points[0], 3);
        prop_assert!(!nn.is_empty());
        prop_assert_eq!(nn[0].1, 0.0);
        for w in nn.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn hnsw_larger_ef_never_hurts_recall(
        seed in 0u64..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                let x = ((i * 37 + seed as usize) % 101) as f32 / 101.0;
                let y = ((i * 53) % 97) as f32 / 97.0;
                vec![x, y]
            })
            .collect();
        let mut h = Hnsw::new(2, HnswConfig { m: 8, ef_construction: 60, ef_search: 10 });
        for p in &points {
            h.insert(p, &mut rng);
        }
        let q = vec![0.5f32, 0.5];
        let exact: Vec<f32> = brute_distances(&points, &q, 10);
        let recall = |ef: usize| {
            let got = h.knn_ef(&q, 10, ef);
            let got_d: Vec<f32> = got.iter().map(|&(_, d)| d * d).collect();
            exact
                .iter()
                .filter(|&&e| got_d.iter().any(|&g| (g - e).abs() < 1e-4))
                .count()
        };
        let low = recall(10);
        let high = recall(120);
        prop_assert!(high >= low, "ef=120 recall {high} < ef=10 recall {low}");
        prop_assert!(high >= 8, "high-ef recall too low: {high}/10");
    }
}

/// 64-bit FNV-1a over `knn_ef(q, 10, 64)` and `knn_ef(q, 64, 64)` for every
/// query — each hit's id and distance bits — and then over every stored row.
fn hnsw_fingerprint(h: &Hnsw, queries: &[Vec<f32>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for q in queries {
        for k in [10, 64] {
            for (id, d) in h.knn_ef(q, k, 64) {
                absorb(id as u64);
                absorb(u64::from(d.to_bits()));
            }
        }
    }
    for id in 0..h.len() {
        for &x in h.vector(id) {
            absorb(u64::from(x.to_bits()));
        }
    }
    hash
}

fn uniform_rows(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f32>> {
    use rand::Rng;
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

/// The graph's absolute output bits — each search result and each stored
/// row — on five builds: the default config over clustered vectors, churn
/// through the shortlist-widening path, a duplicate-heavy grid where
/// distance ties reach the frontier and the result list, removes
/// interleaved with inserts, and in-place updates. The first four constants
/// were computed before the graph's internal layout was rewritten, the
/// fifth when `Hnsw::update` was added; a change to the graph must keep
/// them.
#[test]
fn hnsw_bits_are_pinned() {
    use rand::Rng;

    // Default config, dim 32, 2000 vectors around 20 centres.
    let mut rng = StdRng::seed_from_u64(101);
    let centres = uniform_rows(&mut rng, 20, 32);
    let mut h = Hnsw::new(32, HnswConfig::default());
    for i in 0..2000 {
        let v: Vec<f32> =
            centres[i % 20].iter().map(|&c| c + rng.gen_range(-0.1f32..0.1)).collect();
        h.insert(&v, &mut rng);
    }
    let queries = uniform_rows(&mut rng, 40, 32);
    assert_eq!(hnsw_fingerprint(&h, &queries), 0xcfbe_5c5a_e344_446a, "default config, dim 32");

    // m 12, dim 8: every third id removed, then more inserts over the
    // tombstones, so both the insert's live-first selection and the
    // search's widened beam run.
    let mut rng = StdRng::seed_from_u64(202);
    let mut h = Hnsw::new(8, HnswConfig { m: 12, ef_construction: 120, ef_search: 80 });
    for v in uniform_rows(&mut rng, 600, 8) {
        h.insert(&v, &mut rng);
    }
    for id in (0..600).step_by(3) {
        h.remove(id);
    }
    for v in uniform_rows(&mut rng, 150, 8) {
        h.insert(&v, &mut rng);
    }
    let queries = uniform_rows(&mut rng, 40, 8);
    assert_eq!(hnsw_fingerprint(&h, &queries), 0x92ee_9707_d082_ea54, "m 12 with tombstones");

    // m 2, dim 2: an 8x8 integer grid inserted three times, so equal
    // distances are the rule. Queries sit on grid points and cell centres.
    let mut rng = StdRng::seed_from_u64(303);
    let mut h = Hnsw::new(2, HnswConfig { m: 2, ef_construction: 8, ef_search: 8 });
    for round in 0..3 {
        for cell in 0..64 {
            let (x, y) = ((cell * 5 + round) % 8, cell / 8);
            h.insert(&[x as f32, y as f32], &mut rng);
        }
    }
    let queries: Vec<Vec<f32>> =
        (0..40).map(|i| vec![(i % 9) as f32 * 0.5, (i * 7 % 17) as f32 * 0.5]).collect();
    assert_eq!(hnsw_fingerprint(&h, &queries), 0x131b_4837_24a2_ff8a, "m 2 duplicate grid");

    // m 4, dim 4, 3000 vectors; every fifth insert removes an earlier id.
    let mut rng = StdRng::seed_from_u64(404);
    let mut h = Hnsw::new(4, HnswConfig { m: 4, ef_construction: 40, ef_search: 32 });
    for (i, v) in uniform_rows(&mut rng, 3000, 4).into_iter().enumerate() {
        h.insert(&v, &mut rng);
        if i % 5 == 4 {
            h.remove(rng.gen_range(0..i));
        }
    }
    let queries = uniform_rows(&mut rng, 40, 4);
    assert_eq!(hnsw_fingerprint(&h, &queries), 0xa619_d503_1628_0a9d, "m 4 interleaved removes");

    // m 8, dim 16: 800 vectors with every seventh removed, then in-place
    // updates of live ids drawn at random (the entry point among them): two
    // in three drift the row by at most 0.05 a coordinate, one in three
    // moves it to a fresh vector, so stale reverse links and tombstoned
    // candidates both reach the re-selection.
    let mut rng = StdRng::seed_from_u64(505);
    let mut h = Hnsw::new(16, HnswConfig { m: 8, ef_construction: 64, ef_search: 32 });
    for v in uniform_rows(&mut rng, 800, 16) {
        h.insert(&v, &mut rng);
    }
    for id in (0..800).step_by(7) {
        h.remove(id);
    }
    for i in 0..2400 {
        let id = rng.gen_range(0..800);
        if h.is_deleted(id) {
            continue;
        }
        let v: Vec<f32> = if i % 3 == 2 {
            uniform_rows(&mut rng, 1, 16).remove(0)
        } else {
            h.vector(id).iter().map(|&x| x + rng.gen_range(-0.05f32..0.05)).collect()
        };
        h.update(id, &v);
    }
    assert_eq!((h.len(), h.tombstones()), (800, 115));
    let queries = uniform_rows(&mut rng, 40, 16);
    assert_eq!(hnsw_fingerprint(&h, &queries), 0xb0e5_0c02_33ad_f9e3, "m 8 in-place updates");
}
