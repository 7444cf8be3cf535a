//! Warm start ≡ cold start: an engine whose shards, corpus and embedding
//! cache are loaded from the on-disk `tmn-store` files must be
//! indistinguishable from one that ingested the same trajectories over the
//! insert path — same rankings, same distances, same status counters.
//!
//! The equivalence is exact (not approximate) because both paths feed the
//! same per-shard insert sequence to deterministically-seeded HNSW shards,
//! and the stored embeddings are produced by the same batch shape the cold
//! engine's one-request admission windows use.

use tmn_core::{ModelConfig, ModelKind};
use tmn_eval::{encode_all, EmbeddingStore};
use tmn_serve::{ServeConfig, ServeEngine, ServeError, ShardSetConfig};
use tmn_store::{write_corpus, CorpusFile};
use tmn_traj::{Point, Trajectory};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmn-serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn traj(seed: u64, len: usize) -> Trajectory {
    let pts = (0..len)
        .map(|i| {
            let h = tmn_index::splitmix64(seed * 131 + i as u64);
            Point { lon: (h % 1000) as f64 / 1000.0, lat: ((h >> 10) % 1000) as f64 / 1000.0 }
        })
        .collect();
    Trajectory::new(pts)
}

const MCFG: ModelConfig = ModelConfig { dim: 16, seed: 7 };

fn cfg() -> ServeConfig {
    ServeConfig {
        shard: ShardSetConfig { shards: 2, shortlist: 32 },
        max_batch: 8,
        ..Default::default()
    }
}

/// Persist `trajs` plus their embeddings (computed exactly as the cold
/// engine's singleton admission batches would) and reopen both stores.
fn persist(trajs: &[Trajectory], tag: &str) -> (CorpusFile, EmbeddingStore) {
    let model = ModelKind::TmnNm.build(&MCFG);
    // batch_size 1 reproduces the cold path: each insert arrives alone, so
    // each embedding comes from a batch of one.
    let embeds = encode_all(model.as_ref(), trajs, 1);
    let emb_path = tmp(&format!("{tag}-emb.tmns"));
    EmbeddingStore::from_vectors(&embeds).save(&emb_path).unwrap();
    let corpus_path = tmp(&format!("{tag}-corpus.tmns"));
    write_corpus(&corpus_path, trajs).unwrap();
    (CorpusFile::open(&corpus_path).unwrap(), EmbeddingStore::open_mmap(&emb_path).unwrap())
}

#[test]
fn warm_engine_matches_cold_engine_exactly() {
    let trajs: Vec<Trajectory> = (0..40).map(|i| traj(i, 8 + (i % 5) as usize)).collect();
    let (corpus, embeddings) = persist(&trajs, "match");
    let warm = ServeEngine::start_warm(ModelKind::TmnNm, &MCFG, cfg(), &corpus, &embeddings).unwrap();

    let cold = ServeEngine::start(ModelKind::TmnNm, &MCFG, cfg()).unwrap();
    let ch = cold.handle();
    for (i, t) in trajs.iter().enumerate() {
        ch.insert(i as u64, t.clone()).unwrap();
    }

    let wh = warm.handle();
    // Ad-hoc queries: identical rankings *and* identical distances.
    for q in [traj(3, 9), traj(77, 11), traj(200, 7)] {
        assert_eq!(wh.query(q.clone(), 5).unwrap(), ch.query(q, 5).unwrap());
    }
    // A stored trajectory is its own nearest neighbour on the warm engine.
    assert_eq!(wh.query(trajs[11].clone(), 3).unwrap()[0].0, 11, "warm self-NN failed");
    // By-id queries run off the warm cache on both sides.
    for id in [0u64, 17, 39] {
        assert_eq!(wh.query_id(id, 5).unwrap(), ch.query_id(id, 5).unwrap());
    }
    // Live mutations keep working on a warm engine.
    assert!(wh.delete(5).unwrap());
    assert!(wh.query(traj(5, 8), 40).unwrap().iter().all(|&(id, _)| id != 5));
}

#[test]
fn warm_status_reports_full_corpus_and_cache() {
    let trajs: Vec<Trajectory> = (0..25).map(|i| traj(100 + i, 10)).collect();
    let (corpus, embeddings) = persist(&trajs, "status");
    let engine =
        ServeEngine::start_warm(ModelKind::TmnNm, &MCFG, cfg(), &corpus, &embeddings).unwrap();
    let status = engine.handle().status().unwrap();
    assert_eq!(status.corpus, 25, "warm corpus must be fully populated");
    assert_eq!(status.cache_entries, 25, "warm cache must be fully populated");
    assert_eq!(status.shards.live, 25);
    assert!(!status.degraded_mode);
}

#[test]
fn warm_start_rejects_bad_configurations() {
    let trajs: Vec<Trajectory> = (0..5).map(|i| traj(i, 8)).collect();
    let (corpus, embeddings) = persist(&trajs, "reject");
    // Pair-dependent models cannot serve from a vector index, warm or not.
    assert_eq!(
        ServeEngine::start_warm(ModelKind::Tmn, &MCFG, cfg(), &corpus, &embeddings).err(),
        Some(ServeError::PairDependentModel("TMN"))
    );
    // A store whose rows don't match the model dimension is refused.
    let wrong = ModelConfig { dim: 8, seed: 7 };
    assert_eq!(
        ServeEngine::start_warm(ModelKind::TmnNm, &wrong, cfg(), &corpus, &embeddings).err(),
        Some(ServeError::DimMismatch { expected: 8, got: 16 })
    );
}
