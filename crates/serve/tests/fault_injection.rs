//! Fault injection: the engine must keep serving through the failures the
//! design claims to absorb.
//!
//! - a shard worker that panics inside its write critical section poisons
//!   that shard's lock → the shard is fenced off, queries keep answering
//!   from the healthy shards, and degraded mode is visible in both the
//!   JSON status and the Prometheus exposition;
//! - a corrupt cached embedding fails its checksum on read → it is *not*
//!   served; the engine recomputes it from the corpus via `embed_nograd`,
//!   repairs the cache, and bumps `serve_cache_corrupt_total`;
//! - queries racing a shard rebuild (compaction) see before-state or
//!   after-state, never garbage;
//! - hostile requests (empty trajectories, NaN/±inf coordinates) are
//!   refused with `ServeError::InvalidInput` before they reach the engine
//!   thread, which keeps serving unchanged results.
//!
//! The metrics registry is process-global and tests share one binary, so
//! every test takes a shared lock (same idiom as
//! `crates/eval/tests/serving_metrics.rs`): even a test that reads no
//! metric sets the `serve_degraded_shards` gauge through `status()` or
//! `fault_poison`, which a parallel test asserting the gauge would read.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tmn_core::{ModelConfig, ModelKind};
use tmn_obs::{export, metrics};
use tmn_serve::{
    ServeConfig, ServeEngine, ServeError, ShardSet, ShardSetConfig, SERVE_CACHE_CORRUPT_TOTAL,
    SERVE_CACHE_HITS_TOTAL,
};
use tmn_traj::{Point, Trajectory};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const DIM: usize = 6;

fn vec_for(id: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| (tmn_index::splitmix64(id * 31 + d as u64) % 1000) as f32 / 1000.0)
        .collect()
}

fn traj(seed: u64, len: usize) -> Trajectory {
    let pts = (0..len)
        .map(|i| {
            let h = tmn_index::splitmix64(seed * 131 + i as u64);
            Point::new((h % 1000) as f64 / 1000.0, ((h >> 10) % 1000) as f64 / 1000.0)
        })
        .collect();
    Trajectory::new(pts)
}

fn populated_set(n: u64, shards: usize) -> ShardSet {
    let set = ShardSet::new(DIM, ShardSetConfig { shards, shortlist: 48 });
    for id in 0..n {
        set.insert(id, &vec_for(id)).unwrap();
    }
    set
}

#[test]
fn panicking_shard_worker_leaves_the_engine_serving() {
    let _l = test_lock();
    let set = populated_set(60, 3);
    let victim = 1usize;

    // A worker thread crashes mid-write: it takes the shard's write lock
    // and panics while holding it, exactly what `fault_poison` simulates.
    set.fault_poison(victim);

    // The shard is fenced; the rest of the engine is open for business.
    assert!(set.is_degraded(victim));
    let status = set.status();
    assert!(status.degraded_mode, "degraded mode not reported");
    assert!(status.shards[victim].degraded);
    assert_eq!(
        status.shards.iter().filter(|s| s.degraded).count(),
        1,
        "only the poisoned shard may be fenced"
    );

    // Queries keep flowing, returning every live id from healthy shards.
    let expected_live: Vec<u64> =
        (0..60).filter(|&id| set.shard_of(id) != victim).collect();
    assert_eq!(status.live, expected_live.len());
    let hits = set.query_exact(&vec_for(7), 60).unwrap();
    assert_eq!(hits.len(), expected_live.len());
    for &(id, _) in &hits {
        assert_ne!(set.shard_of(id), victim, "degraded shard served id {id}");
    }
    let approx = set.query(&vec_for(7), 10).unwrap();
    assert!(!approx.is_empty(), "approximate path went dark in degraded mode");

    // Writes routed to the dead shard are refused with a typed error;
    // writes to healthy shards succeed.
    let dead_id = (0..200).find(|&id| set.shard_of(id) == victim).unwrap();
    let live_id = (1000..1200).find(|&id| set.shard_of(id) != victim).unwrap();
    assert_eq!(set.insert(dead_id, &vec_for(dead_id)), Err(ServeError::DegradedShard(victim)));
    assert_eq!(set.delete(dead_id), Err(ServeError::DegradedShard(victim)));
    set.insert(live_id, &vec_for(live_id)).unwrap();
    assert!(set.contains(live_id));
}

#[test]
fn degraded_mode_is_visible_in_json_and_prometheus() {
    let _l = test_lock();
    metrics::set_enabled(true);
    metrics::reset();

    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim: 16, seed: 3 },
        ServeConfig {
            shard: ShardSetConfig { shards: 3, shortlist: 32 },
            max_batch: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let h = engine.handle();
    for id in 0..30u64 {
        h.insert(id, traj(id, 8)).unwrap();
    }

    engine.shards().fault_poison(2);
    let status = h.status().unwrap();
    assert!(status.degraded_mode);
    let json = status.to_json();
    assert!(json.contains("\"degraded_mode\":true"), "JSON lacks the flag: {json}");

    // The gauge flows through the standard exporters with the tmn_ prefix.
    let snap = metrics::snapshot();
    metrics::reset();
    assert_eq!(snap.gauge("serve_degraded_shards"), Some(1.0));
    let text = export::to_prometheus(&snap);
    assert!(
        text.contains("tmn_serve_degraded_shards 1"),
        "Prometheus exposition lacks the degraded gauge:\n{text}"
    );
    assert!(text.contains("tmn_shard_imbalance"), "imbalance gauge missing:\n{text}");
    assert!(text.contains("tmn_serve_batch_size"), "batch-size gauge missing:\n{text}");

    // Still serving: ad-hoc queries answer from the two healthy shards.
    let hits = h.query(traj(5, 8), 5).unwrap();
    assert!(!hits.is_empty());
    engine.shutdown();
}

#[test]
fn corrupt_cache_entry_is_detected_and_recomputed() {
    let _l = test_lock();
    metrics::set_enabled(true);
    metrics::reset();

    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim: 16, seed: 5 },
        ServeConfig {
            shard: ShardSetConfig { shards: 2, shortlist: 32 },
            max_batch: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let h = engine.handle();
    for id in 0..20u64 {
        h.insert(id, traj(id, 10)).unwrap();
    }
    let clean = h.query_id(7, 5).unwrap();
    assert_eq!(clean[0].0, 7, "sanity: id 7 is its own nearest neighbour");

    // Flip one bit of the cached embedding behind the checksum's back.
    assert!(h.corrupt_cache(7).unwrap());
    let repaired = h.query_id(7, 5).unwrap();
    assert_eq!(repaired, clean, "corrupt cache entry leaked into results");

    // And the repair is durable: the next read is a clean cache hit.
    let snap_before = metrics::snapshot();
    assert_eq!(h.query_id(7, 5).unwrap(), clean);
    let snap = metrics::snapshot();
    metrics::reset();
    let corrupt = snap.counter(SERVE_CACHE_CORRUPT_TOTAL).unwrap_or(0);
    assert_eq!(corrupt, 1, "exactly one checksum failure expected");
    let hits_before = snap_before.counter(SERVE_CACHE_HITS_TOTAL).unwrap_or(0);
    let hits_after = snap.counter(SERVE_CACHE_HITS_TOTAL).unwrap_or(0);
    assert!(hits_after > hits_before, "repaired entry did not serve as a cache hit");
    engine.shutdown();
}

#[test]
fn hostile_requests_get_typed_errors_and_the_engine_keeps_serving() {
    let _l = test_lock();
    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim: 16, seed: 9 },
        ServeConfig {
            shard: ShardSetConfig { shards: 2, shortlist: 32 },
            max_batch: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let h = engine.handle();
    for id in 0..20u64 {
        h.insert(id, traj(id, 10)).unwrap();
    }
    let probe = traj(500, 10);
    let before = h.query(probe.clone(), 10).unwrap();

    let nan = Trajectory::new(vec![Point::new(0.1, 0.2), Point::new(f64::NAN, 0.3)]);
    let inf = Trajectory::new(vec![Point::new(f64::INFINITY, 0.2)]);
    let invalid = |r: Result<_, ServeError>| matches!(r, Err(ServeError::InvalidInput(_)));
    assert!(invalid(h.query(Trajectory::new(vec![]), 10).map(|_| ())), "empty query");
    assert!(invalid(h.insert(50, Trajectory::new(vec![]))), "empty insert");
    assert!(invalid(h.insert(51, nan.clone())), "NaN insert");
    assert!(invalid(h.query(inf.clone(), 10).map(|_| ())), "inf query");
    assert!(invalid(h.query_batch(vec![probe.clone(), nan], 10).map(|_| ())), "NaN in a batch");
    assert!(invalid(h.query_batch(vec![Trajectory::default()], 10).map(|_| ())), "empty in batch");
    assert!(invalid(h.append_point(52, Point::new(0.1, -f64::INFINITY)).map(|_| ())), "inf append");
    assert!(invalid(h.append_point(3, Point::new(f64::NAN, f64::NAN)).map(|_| ())), "NaN append");

    // Nothing hostile was stored, and the engine answers exactly as before.
    let status = h.status().unwrap();
    assert_eq!((status.corpus, status.streams), (20, 0), "a refused request left state behind");
    assert_eq!(h.query(probe, 10).unwrap(), before, "top-10 changed after hostile requests");
    engine.shutdown();
}

#[test]
fn queries_race_compaction_without_corruption() {
    let _l = test_lock();
    let set = Arc::new(populated_set(80, 2));
    // Build up tombstones so compaction has real work to do.
    for id in (0..80).step_by(2) {
        set.delete(id).unwrap();
    }
    let live: Vec<u64> = (1..80).step_by(2).collect();

    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let compactor = {
        let set = Arc::clone(&set);
        let (done, started) = (Arc::clone(&done), Arc::clone(&started));
        std::thread::spawn(move || {
            let mut rounds = 0usize;
            while !done.load(Ordering::SeqCst) {
                started.store(true, Ordering::SeqCst);
                for s in 0..set.shards() {
                    set.compact_shard(s).unwrap();
                }
                rounds += 1;
            }
            rounds
        })
    };
    // The readers must overlap the rebuilds: start probing only once the
    // compactor is running (a fast build can otherwise finish every probe
    // before the compactor thread is first scheduled).
    while !started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }

    // Readers during the rebuild see exactly the live set, every time.
    for probe in 0..60u64 {
        let hits = set.query_exact(&vec_for(probe), 40).unwrap();
        assert_eq!(hits.len(), 40);
        for &(id, d) in &hits {
            assert!(live.contains(&id), "query during rebuild surfaced dead id {id}");
            assert_eq!(d, tmn_eval::embedding_distance(&vec_for(probe), &vec_for(id)));
        }
        let approx = set.query(&vec_for(probe), 10).unwrap();
        assert!(approx.iter().all(|&(id, _)| live.contains(&id)));
    }
    done.store(true, Ordering::Relaxed);
    let rounds = compactor.join().expect("compactor panicked");
    assert!(rounds > 0, "compactor never ran during the queries");
    assert_eq!(set.status().tombstones, 0, "compaction left tombstones");
    assert_eq!(set.live(), live.len());
}
