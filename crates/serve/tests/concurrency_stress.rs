//! Seeded N-writer / M-reader stress: concurrent inserts, deletes and
//! queries against one `ShardSet`, then a full accounting.
//!
//! Invariants checked:
//!
//! - **no lost inserts** — every id a writer left live at the end is
//!   present, with exactly the vector of its final insert;
//! - **no resurrected deletes** — every id whose last op was a delete is
//!   absent, and never shows up in query results taken after the join;
//! - **consistent shard epochs** — a reader never observes an epoch change
//!   inside one read critical section, and per-shard epochs are monotone
//!   across its successive queries.
//!
//! Thread count is `available_parallelism().clamp(2, 4)` so the test stays
//! bounded on a 1-core container and under `cargo test -q`'s time budget
//! (the whole binary is a few seconds, well inside the 30 s ceiling).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use tmn_core::{ModelConfig, ModelKind};
use tmn_serve::{ServeConfig, ServeEngine, ShardSet, ShardSetConfig};
use tmn_traj::{Point, Trajectory};

const DIM: usize = 8;
const OPS_PER_WRITER: usize = 400;
/// Each writer owns ids `[w * RANGE, w * RANGE + SPAN)` — disjoint by
/// construction, so writers never contend on an id and the final state is
/// exactly the union of per-writer expectations.
const RANGE: u64 = 100_000;
const SPAN: u64 = 64;

fn vec_for(id: u64, version: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| (tmn_index::splitmix64(id * 31 + version * 977 + d as u64) % 1000) as f32 / 1000.0)
        .collect()
}

fn thread_budget() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(2, 4)
}

/// Writer w's deterministic op stream; returns (live id → final version,
/// ids whose last op was a delete).
fn writer_plan(w: u64, seed: u64) -> (HashMap<u64, u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ (w * 7919));
    let mut live: HashMap<u64, u64> = HashMap::new();
    let mut versions: HashMap<u64, u64> = HashMap::new();
    let mut plan = Vec::with_capacity(OPS_PER_WRITER);
    for _ in 0..OPS_PER_WRITER {
        let id = w * RANGE + rng.gen_range(0..SPAN);
        // 70% insert/re-insert, 30% delete.
        if rng.gen_range(0..10) < 7 {
            let ver = versions.entry(id).or_insert(0);
            *ver += 1;
            live.insert(id, *ver);
            plan.push((id, Some(*ver)));
        } else {
            live.remove(&id);
            plan.push((id, None));
        }
    }
    let deleted: Vec<u64> = plan
        .iter()
        .map(|&(id, _)| id)
        .filter(|id| !live.contains_key(id))
        .collect();
    (live, deleted)
}

/// Replay writer w's plan against the shared set. Reconstructs the same
/// stream from the same seed, so plan and execution cannot drift.
fn run_writer(set: &ShardSet, w: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ (w * 7919));
    let mut versions: HashMap<u64, u64> = HashMap::new();
    for _ in 0..OPS_PER_WRITER {
        let id = w * RANGE + rng.gen_range(0..SPAN);
        if rng.gen_range(0..10) < 7 {
            let ver = versions.entry(id).or_insert(0);
            *ver += 1;
            set.insert(id, &vec_for(id, *ver)).unwrap();
        } else {
            set.delete(id).unwrap();
        }
    }
}

#[test]
fn writers_and_readers_race_without_losing_state() {
    let seed = 0xC0FFEE_u64;
    let threads = thread_budget();
    let writers = (threads / 2).max(1);
    let readers = (threads - writers).max(1);

    let set = Arc::new(ShardSet::new(
        DIM,
        ShardSetConfig { shards: 3, shortlist: 48 },
    ));
    let done = Arc::new(AtomicBool::new(false));
    // Every thread starts together, so the readers overlap the writers even
    // when a fast build could finish every write before a reader is first
    // scheduled.
    let start = Arc::new(Barrier::new(writers + readers));

    let writer_handles: Vec<_> = (0..writers as u64)
        .map(|w| {
            let set = Arc::clone(&set);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                run_writer(&set, w, seed)
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..readers as u64)
        .map(|r| {
            let set = Arc::clone(&set);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (r * 104729));
                let mut last_epoch: HashMap<usize, u64> = HashMap::new();
                let mut queries = 0usize;
                start.wait();
                // At least one query per reader, then until the writers end.
                while queries == 0 || !done.load(Ordering::Relaxed) {
                    let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let (hits, epochs) = set.query_with_epochs(&q, 10).unwrap();
                    for obs in &epochs {
                        assert_eq!(
                            obs.start, obs.end,
                            "reader {r}: epoch moved inside a read critical section"
                        );
                        let last = last_epoch.entry(obs.shard).or_insert(0);
                        assert!(
                            obs.start >= *last,
                            "reader {r}: shard {} epoch went backwards ({} < {})",
                            obs.shard, obs.start, last
                        );
                        *last = obs.start;
                    }
                    for &(id, d) in &hits {
                        assert!(
                            (id % RANGE) < SPAN,
                            "reader {r}: id {id} outside any writer's range"
                        );
                        assert!(d.is_finite() && d >= 0.0);
                    }
                    queries += 1;
                }
                queries
            })
        })
        .collect();

    for h in writer_handles {
        h.join().expect("writer panicked");
    }
    done.store(true, Ordering::Relaxed);
    let total_queries: usize =
        reader_handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    assert!(total_queries > 0, "readers never ran against the writers");

    // Full accounting against the per-writer plans.
    let mut expected_live = 0usize;
    for w in 0..writers as u64 {
        let (live, deleted) = writer_plan(w, seed);
        expected_live += live.len();
        for (&id, &ver) in &live {
            assert!(set.contains(id), "lost insert: id {id} (writer {w})");
            assert_eq!(
                set.get_vec(id).as_deref(),
                Some(vec_for(id, ver).as_slice()),
                "id {id} holds a stale vector (lost re-insert)"
            );
        }
        for &id in &deleted {
            assert!(!set.contains(id), "resurrected delete: id {id} (writer {w})");
        }
    }
    assert_eq!(set.live(), expected_live, "live count diverged from the union of plans");

    // Deleted ids must not show up even via full-size exact queries.
    let (_, deleted0) = writer_plan(0, seed);
    if let Some(&probe) = deleted0.first() {
        let hits = set.query_exact(&vec_for(probe, 1), expected_live).unwrap();
        assert!(hits.iter().all(|&(id, _)| id != probe), "deleted id {probe} resurfaced");
        assert_eq!(hits.len(), expected_live, "exact scan missed live vectors");
    }
    assert!(!set.status().degraded_mode, "stress must not degrade any shard");
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

/// The same race through the request plane: multiple threads sharing
/// clonable handles, one engine thread amortizing their embeddings.
#[test]
fn concurrent_handles_agree_with_the_engine_corpus() {
    let engine = ServeEngine::start(
        ModelKind::TmnNm,
        &ModelConfig { dim: 16, seed: 11 },
        ServeConfig {
            shard: ShardSetConfig { shards: 2, shortlist: 32 },
            max_batch: 16,
            ..Default::default()
        },
    )
    .unwrap();

    let writers = thread_budget().min(3);
    let per_writer = 30u64;
    let handles: Vec<_> = (0..writers as u64)
        .map(|w| {
            let h = engine.handle();
            std::thread::spawn(move || {
                let base = w * RANGE;
                for i in 0..per_writer {
                    h.insert(base + i, traj(base + i, 10)).unwrap();
                }
                // Delete every third id; the rest stay live.
                for i in (0..per_writer).step_by(3) {
                    assert!(h.delete(base + i).unwrap(), "delete lost its own insert");
                }
            })
        })
        .collect();

    // Reader races the writers through its own handle.
    let reader = engine.handle();
    for probe in 0..40u64 {
        let hits = reader.query(traj(probe, 10), 5).unwrap();
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1, "merged top-k out of order");
        }
    }
    for h in handles {
        h.join().expect("writer panicked");
    }

    let deleted_per_writer = per_writer.div_ceil(3);
    let expected = writers as u64 * (per_writer - deleted_per_writer);
    let status = engine.handle().status().unwrap();
    assert_eq!(status.corpus as u64, expected, "corpus diverged after the race");
    assert_eq!(status.shards.live as u64, expected, "index diverged after the race");
    // Spot-check: a surviving id answers by-id queries with itself on top.
    let survivor = RANGE + 1; // writer 1, id 1 — not divisible by 3.
    if writers > 1 {
        let top = engine.handle().query_id(survivor, 1).unwrap();
        assert_eq!(top[0].0, survivor);
    }
    engine.shutdown();
}
