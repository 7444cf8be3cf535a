//! Property tests: random insert/delete/re-insert/flush interleavings
//! against a brute-force oracle.
//!
//! The reference model is a plain `HashMap<id, vec>` mutated by the same
//! interleaving. After every interleaving:
//!
//! - `query_exact` must equal the oracle **bitwise** — same ids, same f64
//!   distances, same (distance, id) order — because both are exact scans
//!   over the same live f32 vectors.
//! - the approximate sharded path (HNSW shortlist + exact rerank +
//!   scatter-gather merge) must reach HR@10 within 0.5% of the oracle,
//!   aggregated across the case's queries.
//!
//! Flush (= forced shard compaction) is part of the op alphabet, so the
//! graph is exercised immediately after tombstones are dropped, too. A
//! long-churn case holds the same two checks after thousands of drifting
//! re-inserts of the same ids.

use proptest::prelude::*;
use std::collections::HashMap;
use tmn_eval::embedding_distance;
use tmn_index::splitmix64;
use tmn_serve::{ShardSet, ShardSetConfig};

const DIM: usize = 6;

/// Deterministic embedding for (id, version): re-inserts get a fresh
/// vector, so a stale embedding surviving a replace is detectable.
fn vec_for(id: u64, version: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| (splitmix64(id * 1315423911 + version * 2654435761 + d as u64) % 1000) as f32 / 1000.0)
        .collect()
}

fn query_vec(qi: u64) -> Vec<f32> {
    (0..DIM).map(|d| (splitmix64(qi * 97 + d as u64 * 13 + 5) % 1000) as f32 / 1000.0).collect()
}

/// Exact top-k on the reference state, with the engine's tie-break
/// (distance ascending, then id ascending).
fn oracle_topk(reference: &HashMap<u64, Vec<f32>>, q: &[f32], k: usize) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> =
        reference.iter().map(|(&id, v)| (id, embedding_distance(q, v))).collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Interpret one op byte: 0-5 insert, 6-7 delete, 8 re-insert (bump
/// version), 9 flush every shard. Ids live in a small space so deletes and
/// re-inserts actually collide with earlier inserts.
fn apply_ops(
    set: &ShardSet,
    reference: &mut HashMap<u64, Vec<f32>>,
    versions: &mut HashMap<u64, u64>,
    ops: &[(u8, u64)],
) {
    for &(op, id) in ops {
        match op % 10 {
            0..=5 => {
                let ver = *versions.entry(id).or_insert(0);
                let v = vec_for(id, ver);
                set.insert(id, &v).unwrap();
                reference.insert(id, v);
            }
            6 | 7 => {
                let was_live = set.delete(id).unwrap();
                assert_eq!(was_live, reference.remove(&id).is_some(), "delete({id}) liveness");
            }
            8 => {
                let ver = versions.entry(id).or_insert(0);
                *ver += 1;
                let v = vec_for(id, *ver);
                set.insert(id, &v).unwrap();
                reference.insert(id, v);
            }
            _ => {
                for s in 0..set.shards() {
                    set.compact_shard(s).unwrap();
                }
            }
        }
    }
}

fn run_case(shards: usize, ops: &[(u8, u64)]) -> Result<(), String> {
    let cfg = ShardSetConfig { shards, shortlist: 64 };
    let set = ShardSet::new(DIM, cfg);
    let mut reference: HashMap<u64, Vec<f32>> = HashMap::new();
    let mut versions: HashMap<u64, u64> = HashMap::new();
    apply_ops(&set, &mut reference, &mut versions, ops);

    prop_assert_eq!(set.live(), reference.len(), "live count diverged from the oracle state");

    let k = 10usize.min(reference.len());
    let mut hits = 0usize;
    let mut total = 0usize;
    for qi in 0..20u64 {
        let q = query_vec(qi);
        let oracle = oracle_topk(&reference, &q, k);

        // Exact path: bitwise-identical to the oracle, always.
        let exact = set.query_exact(&q, k).unwrap();
        prop_assert_eq!(&exact, &oracle, "query_exact diverged bitwise on query {}", qi);

        // Approximate path: distances of returned ids are exact (the rerank
        // reads the stored f32 rows), recall gated below.
        let approx = set.query(&q, k).unwrap();
        for &(id, d) in &approx {
            let want = embedding_distance(&q, &reference[&id]);
            prop_assert_eq!(d, want, "approx returned non-exact distance for id {}", id);
        }
        let approx_ids: Vec<u64> = approx.iter().map(|&(id, _)| id).collect();
        hits += oracle.iter().filter(|&&(id, _)| approx_ids.contains(&id)).count();
        total += oracle.len();
    }
    if total > 0 {
        let hr = hits as f64 / total as f64;
        prop_assert!(hr >= 0.995, "HR@10 {hr:.4} breaches the 0.5% gate");
    }
    Ok(())
}

/// Long churn: 600 ids over two shards, then twelve rounds in which every
/// id is re-inserted with its vector drifted by at most ±0.025 a
/// coordinate (clamped to [0, 1]), 7,200 re-inserts in all — a stream's
/// write pattern, where graph quality could decay under repeated
/// re-inserts of the same ids.
#[test]
fn long_churn_of_drifting_reinserts_tracks_the_oracle() {
    const CHURN_DIM: usize = 8;
    const IDS: u64 = 600;
    const ROUNDS: u64 = 12;
    let unit = |h: u64| (h % 1001) as f32 / 1000.0;
    let cfg = ShardSetConfig { shards: 2, shortlist: 32 };
    let set = ShardSet::new(CHURN_DIM, cfg);
    let mut reference: HashMap<u64, Vec<f32>> = HashMap::new();
    for id in 0..IDS {
        let v: Vec<f32> =
            (0..CHURN_DIM).map(|d| unit(splitmix64(id * 7919 + d as u64))).collect();
        set.insert(id, &v).unwrap();
        reference.insert(id, v);
    }
    for round in 1..=ROUNDS {
        for id in 0..IDS {
            let v = reference.get_mut(&id).unwrap();
            for (d, x) in v.iter_mut().enumerate() {
                let step = (unit(splitmix64((round * IDS + id) * 31 + d as u64)) - 0.5) * 0.05;
                *x = (*x + step).clamp(0.0, 1.0);
            }
            set.insert(id, v).unwrap();
        }
    }

    assert_eq!(set.live(), IDS as usize);
    assert_eq!(set.status().tombstones, 0, "a re-insert of a live id left a tombstone");
    let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    for (&id, v) in &reference {
        let got = set.get_vec(id).unwrap_or_else(|| panic!("id {id} lost"));
        assert_eq!(bits(&got), bits(v), "id {id} reads back another vector");
    }
    let (mut hits, mut total) = (0usize, 0usize);
    for qi in 0..200u64 {
        let q: Vec<f32> =
            (0..CHURN_DIM).map(|d| unit(splitmix64(qi * 104_729 + d as u64 + 1))).collect();
        let oracle = oracle_topk(&reference, &q, 10);
        assert_eq!(set.query_exact(&q, 10).unwrap(), oracle, "query_exact diverged on query {qi}");
        let approx: Vec<u64> = set.query(&q, 10).unwrap().into_iter().map(|(id, _)| id).collect();
        hits += oracle.iter().filter(|&&(id, _)| approx.contains(&id)).count();
        total += oracle.len();
    }
    let hr = hits as f64 / total as f64;
    assert!(hr >= 0.995, "HR@10 {hr:.4} after {} re-inserts", ROUNDS * IDS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_topk_tracks_oracle_under_interleavings(
        ops in prop::collection::vec((0u8..10, 0u64..48), 1..160),
        shards in 1usize..4,
    ) {
        run_case(shards, &ops)?;
    }

    #[test]
    fn flush_preserves_results_bitwise(
        ops in prop::collection::vec((0u8..9, 0u64..32), 1..80),
    ) {
        // Same interleaving with and without a trailing flush: compaction
        // rebuilds the graphs but must not change what the exact path (or
        // the live set) contains.
        let cfg = || ShardSetConfig { shards: 2, shortlist: 64 };
        let plain = ShardSet::new(DIM, cfg());
        let flushed = ShardSet::new(DIM, cfg());
        let (mut r1, mut v1) = (HashMap::new(), HashMap::new());
        let (mut r2, mut v2) = (HashMap::new(), HashMap::new());
        apply_ops(&plain, &mut r1, &mut v1, &ops);
        apply_ops(&flushed, &mut r2, &mut v2, &ops);
        for s in 0..flushed.shards() {
            flushed.compact_shard(s).unwrap();
        }
        prop_assert_eq!(flushed.live(), plain.live());
        let status = flushed.status();
        prop_assert_eq!(status.tombstones, 0, "flush left tombstones behind");
        for qi in 0..8u64 {
            let q = query_vec(qi);
            prop_assert_eq!(
                plain.query_exact(&q, 10).unwrap(),
                flushed.query_exact(&q, 10).unwrap(),
                "flush changed exact results on query {}", qi
            );
        }
    }
}
