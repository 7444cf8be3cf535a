//! File-level round trips: dataset I/O, model checkpoints, and embedding
//! stores written to and read from a temporary directory.

use tmn::prelude::*;

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmn-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn csv_file_roundtrip_via_load_path() {
    let dir = tmpdir();
    let path = dir.join("io_roundtrip.csv");
    let trajs = vec![
        Trajectory::from_coords(&[(116.3, 39.9), (116.31, 39.91)]),
        Trajectory::from_coords(&[(-8.6, 41.1), (-8.61, 41.12), (-8.62, 41.15)]),
    ];
    let file = std::fs::File::create(&path).unwrap();
    tmn::data::io::write_csv(file, &trajs).unwrap();
    let back = tmn::data::io::load_path(&path).unwrap();
    assert_eq!(back, trajs);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn jsonl_file_roundtrip_via_load_path() {
    let dir = tmpdir();
    let path = dir.join("io_roundtrip.jsonl");
    let trajs = vec![Trajectory::from_coords(&[(0.5, 0.25), (0.75, 0.5)])];
    let file = std::fs::File::create(&path).unwrap();
    tmn::data::io::write_jsonl(file, &trajs).unwrap();
    let back = tmn::data::io::load_path(&path).unwrap();
    assert_eq!(back, trajs);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn checkpoint_file_roundtrip() {
    use tmn::core::{load_params, save_params};
    let dir = tmpdir();
    let path = dir.join("model.weights");
    let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
    std::fs::write(&path, save_params(model.params())).unwrap();
    let clone = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1234 });
    let buf = std::fs::read(&path).unwrap();
    load_params(clone.params(), &buf).unwrap();
    for ((_, a), (_, b)) in model.params().iter().zip(clone.params().iter()) {
        assert_eq!(a.to_vec(), b.to_vec());
    }
    std::fs::remove_file(path).unwrap();
}

#[test]
fn embedding_store_file_roundtrip() {
    use tmn::eval::EmbeddingStore;
    let dir = tmpdir();
    let path = dir.join("test.emb");
    let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 10 });
    let trajs: Vec<Trajectory> = (0..5)
        .map(|i| {
            (0..6)
                .map(|t| Point::new(0.1 * t as f64, 0.2 * i as f64))
                .collect()
        })
        .collect();
    let emb = encode_all(model.as_ref(), &trajs, 8);
    let store = EmbeddingStore::from_vectors(&emb);
    store.save(&path).unwrap();
    let back = EmbeddingStore::open_mmap(&path).unwrap();
    assert!(back.is_mapped());
    assert_eq!(back, store);
    // Search works on the reloaded store.
    let nn = back.knn_exact(back.get(2), 1);
    assert_eq!(nn[0].0, 2);
    std::fs::remove_file(path).unwrap();
}
