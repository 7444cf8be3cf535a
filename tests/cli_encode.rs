//! The `tmn-cli` file workflow end to end: `generate`, `train` and `encode`
//! run as subprocesses, and the embeddings file `encode` writes opens
//! through `EmbeddingStore::open_mmap`, the reader the serving side uses.
//! Train/test splits the commands cannot use end in an error, not a panic.

use std::path::Path;
use std::process::{Command, Output};
use tmn::eval::EmbeddingStore;

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tmn-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run tmn-cli")
}

fn cli(dir: &Path, args: &[&str]) {
    let out = run(dir, args);
    assert!(
        out.status.success(),
        "tmn-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs a command that must fail with exit code 1 (not a panic's 101) and
/// an `error:` line containing `message`.
fn cli_error(dir: &Path, args: &[&str], message: &str) {
    let out = run(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "tmn-cli {args:?}:\n{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "tmn-cli {args:?}: expected an error naming {message:?}, got:\n{stderr}"
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

#[test]
fn unusable_splits_are_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("tmn-cli-split-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    cli(
        &dir,
        &[
            "generate", "--kind", "porto", "--count", "40", "--seed", "7", "--out", "data.csv",
        ],
    );
    let train = |ratio: &'static str| {
        [
            "train", "--data", "data.csv", "--model", "srn", "--epochs", "1", "--dim", "8",
            "--train-ratio", ratio, "--out", "model",
        ]
    };
    // An empty and a one-trajectory training partition, and a ratio
    // outside [0, 1].
    cli_error(&dir, &train("0"), "need at least 2");
    cli_error(&dir, &train("0.02"), "need at least 2");
    cli_error(&dir, &train("1.5"), "must be in [0, 1]");
    // A model trained on every trajectory leaves eval no test partition.
    cli(&dir, &train("1.0"));
    cli_error(&dir, &["eval", "--data", "data.csv", "--model", "model"], "no test trajectories");
    std::fs::remove_dir_all(&dir).unwrap();
}
