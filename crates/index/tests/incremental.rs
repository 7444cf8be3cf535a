//! Incremental insert/delete behaviour of the HNSW index: tombstones never
//! surface in results, and shortlist compensation keeps recall up under
//! churn.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tmn_index::{Hnsw, HnswConfig};

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

fn brute_knn_live(pts: &[Vec<f32>], live: &[bool], q: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pts.len()).filter(|&i| live[i]).collect();
    idx.sort_by(|&a, &b| {
        let da: f32 = q.iter().zip(&pts[a]).map(|(x, y)| (x - y) * (x - y)).sum();
        let db: f32 = q.iter().zip(&pts[b]).map(|(x, y)| (x - y) * (x - y)).sum();
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

#[test]
fn removed_ids_never_appear_in_results() {
    let dim = 4;
    let pts = vectors(120, dim, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let mut h = Hnsw::new(dim, HnswConfig::default());
    for p in &pts {
        h.insert(p, &mut rng);
    }
    assert_eq!(h.live_len(), 120);
    for id in (0..120).step_by(3) {
        assert!(h.remove(id), "first removal of {id} must succeed");
        assert!(!h.remove(id), "double removal of {id} must be a no-op");
    }
    assert_eq!(h.live_len(), 80);
    assert_eq!(h.tombstones(), 40);
    for q in pts.iter().take(20) {
        for (id, _) in h.knn(q, 10) {
            assert!(id % 3 != 0, "tombstoned id {id} surfaced in a search result");
            assert!(!h.is_deleted(id));
        }
    }
}

#[test]
fn recall_holds_after_heavy_deletion() {
    let dim = 8;
    let pts = vectors(500, dim, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let mut h = Hnsw::new(dim, HnswConfig { m: 12, ef_construction: 120, ef_search: 80 });
    for p in &pts {
        h.insert(p, &mut rng);
    }
    // Delete 40% — shortlist compensation must absorb the tombstones.
    let mut live = vec![true; pts.len()];
    for (id, alive) in live.iter_mut().enumerate() {
        if id % 5 < 2 {
            h.remove(id);
            *alive = false;
        }
    }
    let queries = vectors(30, dim, 9);
    let (mut hits, mut total) = (0usize, 0usize);
    for q in &queries {
        let got: Vec<usize> = h.knn(q, 10).into_iter().map(|(i, _)| i).collect();
        let want = brute_knn_live(&pts, &live, q, 10);
        total += want.len();
        hits += want.iter().filter(|w| got.contains(w)).count();
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.9, "post-deletion recall too low: {recall}");
}

#[test]
fn insert_after_delete_finds_the_new_vector() {
    let dim = 4;
    let pts = vectors(60, dim, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let mut h = Hnsw::new(dim, HnswConfig::default());
    for p in &pts {
        h.insert(p, &mut rng);
    }
    h.remove(5);
    // Re-insert the same vector: it gets a fresh id, and that id is what
    // searches must return (the serving layer maps external ids on top).
    let new_id = h.insert(&pts[5], &mut rng);
    assert_eq!(new_id, 60);
    let top = h.knn(&pts[5], 1);
    assert_eq!(top[0].0, new_id, "reinserted vector must be its own nearest neighbour");
    assert_eq!(top[0].1, 0.0);
}

#[test]
fn delete_everything_yields_empty_results() {
    let dim = 3;
    let pts = vectors(30, dim, 11);
    let mut rng = StdRng::seed_from_u64(12);
    let mut h = Hnsw::new(dim, HnswConfig::default());
    for p in &pts {
        h.insert(p, &mut rng);
    }
    for id in 0..30 {
        h.remove(id);
    }
    assert_eq!(h.live_len(), 0);
    assert!(h.knn(&pts[0], 5).is_empty(), "fully-tombstoned index must return nothing");
    // The graph is still navigable for new inserts.
    let id = h.insert(&pts[0], &mut rng);
    let top = h.knn(&pts[0], 5);
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].0, id);
}

#[test]
fn out_of_range_remove_is_rejected() {
    let mut h = Hnsw::new(2, HnswConfig::default());
    assert!(!h.remove(0));
    let mut rng = StdRng::seed_from_u64(0);
    h.insert(&[0.0, 0.0], &mut rng);
    assert!(h.is_deleted(17), "out-of-range ids read as deleted");
    assert!(!h.remove(17));
}
