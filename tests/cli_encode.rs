//! The `tmn-cli` file workflow end to end: `generate`, `train` and `encode`
//! run as subprocesses, and the embeddings file `encode` writes opens
//! through `EmbeddingStore::open_mmap`, the reader the serving side uses.

use std::path::Path;
use std::process::Command;
use tmn::eval::EmbeddingStore;

fn cli(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_tmn-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run tmn-cli");
    assert!(
        out.status.success(),
        "tmn-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn encode_output_opens_as_mmap_store() {
    let dir = std::env::temp_dir().join(format!("tmn-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    cli(
        &dir,
        &[
            "generate", "--kind", "porto", "--count", "40", "--seed", "7", "--out", "data.csv",
        ],
    );
    cli(
        &dir,
        &[
            "train", "--data", "data.csv", "--model", "srn", "--epochs", "1", "--dim", "8",
            "--out", "model",
        ],
    );
    cli(
        &dir,
        &[
            "encode", "--data", "data.csv", "--model", "model", "--out", "emb.emb",
        ],
    );

    let store = EmbeddingStore::open_mmap(&dir.join("emb.emb"))
        .expect("encode writes a TMNS embeddings file");
    assert_eq!(store.dim(), 8);
    assert!(!store.is_empty());
    assert!((0..store.len()).all(|i| store.get(i).iter().all(|v| v.is_finite())));
    std::fs::remove_dir_all(&dir).unwrap();
}
