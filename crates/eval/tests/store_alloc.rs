//! Allocation gate for the zero-copy read path (the mmap analogue of the
//! tape-free inference gate in `tmn-core`): once an mmap-backed
//! [`EmbeddingStore`] is open, reading rows allocates **nothing** — every
//! `get` is a slice into the kernel mapping — so a scan over N rows costs
//! O(1) allocations, not O(N).
//!
//! Measured with the counting `#[global_allocator]` from `tmn_obs::memory`
//! rather than inspection: any copy sneaking into the read path trips the
//! budget no matter which layer allocates it.

use tmn_eval::EmbeddingStore;
use tmn_obs::memory;
use tmn_store::{BlockedDistanceMatrix, CorpusFile};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{Point, Trajectory};

/// The armed counter is process-global; serialize measuring tests.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmn-eval-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn counting_allocator_is_compiled_in() {
    assert!(memory::is_active(), "tmn-obs alloc-count feature must be enabled for tests");
    assert!(memory::alloc_count() > 0, "allocator must have observed this binary's allocations");
}

#[test]
fn mmap_store_row_reads_are_allocation_free() {
    let _l = test_lock();
    const ROWS: usize = 2000;
    const DIM: usize = 24;
    let vecs: Vec<Vec<f32>> =
        (0..ROWS).map(|i| (0..DIM).map(|j| (i * 31 + j * 7) as f32 * 1e-3).collect()).collect();
    let path = tmp("rows.tmns");
    EmbeddingStore::from_vectors(&vecs).save(&path).unwrap();
    let store = EmbeddingStore::open_mmap(&path).unwrap();
    assert!(store.is_mapped());

    let before = memory::alloc_count();
    let mut sum = 0.0f32;
    for i in 0..ROWS {
        for &v in store.get(i) {
            sum += v;
        }
    }
    let delta = memory::alloc_count() - before;
    assert!(sum.is_finite());
    // O(1), not O(ROWS): the scan itself performs zero heap allocations;
    // allow a tiny constant of test-harness noise.
    assert!(delta <= 4, "reading {ROWS} mapped rows allocated {delta} times");
}

#[test]
fn corpus_point_slice_reads_are_allocation_free() {
    let _l = test_lock();
    const N: usize = 500;
    let trajs: Vec<Trajectory> = (0..N)
        .map(|i| (0..8).map(|t| Point::new(t as f64 * 0.1, i as f64 * 0.01)).collect())
        .collect();
    let path = tmp("corpus.tmns");
    tmn_store::write_corpus(&path, &trajs).unwrap();
    let corpus = CorpusFile::open(&path).unwrap();

    let before = memory::alloc_count();
    let mut sum = 0.0f64;
    let view = corpus.view();
    for i in 0..N {
        for &c in view.points_raw(i) {
            sum += c;
        }
    }
    let delta = memory::alloc_count() - before;
    assert!(sum.is_finite());
    assert!(delta <= 4, "reading {N} mapped trajectories allocated {delta} times");
}

#[test]
fn blocked_ground_truth_peak_heap_stays_below_the_dense_matrix() {
    // The blocked build holds a few tiles in flight and spills each one, so
    // its heap high-water mark stays a small fraction of the n x n f64
    // matrix that the dense build materializes.
    let _l = test_lock();
    const N: usize = 1024;
    let trajs: Vec<Trajectory> = (0..N)
        .map(|i| {
            (0..16)
                .map(|t| {
                    let h = ((i * 131 + t) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let unit = |bits: u64| (bits & 0xFF_FFFF) as f64 / 16_777_216.0;
                    Point::new(unit(h >> 40), unit(h >> 16))
                })
                .collect()
        })
        .collect();
    let path = tmp("gt.tmns");
    let live_before = memory::live_bytes();
    memory::reset_peak();
    let gt =
        BlockedDistanceMatrix::compute(&path, &trajs, Metric::Hausdorff, &MetricParams::default(), 2, 64)
            .unwrap();
    let growth = memory::peak_bytes().saturating_sub(live_before);
    let dense = (N * N * std::mem::size_of::<f64>()) as u64;
    assert_eq!(gt.len(), N);
    assert!(
        growth < dense / 4,
        "blocked ground truth grew the heap by {growth} B, not below a quarter of the \
         {dense} B dense matrix"
    );
}
