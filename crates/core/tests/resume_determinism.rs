//! Kill-and-resume determinism: a run interrupted at an arbitrary gradient
//! step and resumed from its rotating checkpoint pair must finish with
//! weights bit-identical to the uninterrupted run — for the serial trainer
//! and the data-parallel one — including when `latest` is corrupted and
//! recovery falls back to `prev`.
//!
//! The off-cadence and corrupted-`latest` cases run at two widths. At
//! `dim: 8` every forward `mm_nn` stays on the naive kernel; at `dim: 16`
//! the LSTM GEMMs (k·n = 1024 ≥ `ROW_STABLE_MIN_KN`) run the blocked
//! kernel and its thread-local pack buffers, so resume is checked through
//! both.

use tmn_core::{
    CheckpointStore, LoadedFrom, ModelConfig, ModelKind, TrainConfig, Trainer,
};
use tmn_data::RankSampler;
use tmn_traj::{DistanceMatrix, Point, Trajectory};
use tmn_traj::metrics::{Metric, MetricParams};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("tmn_resume_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn toy_set(n: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|i| {
            let off = i as f64 / n as f64;
            (0..12).map(|t| Point::new(0.08 * t as f64, off)).collect()
        })
        .collect()
}

fn config(threads: usize) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        lr: 5e-3,
        sampling_number: 6,
        batch_pairs: 12,
        sub_stride: 5,
        seed: 11,
        threads,
        ..Default::default()
    }
}

/// Model widths the off-cadence and corrupted-`latest` cases run at (see
/// the module docs).
const DIMS: [usize; 2] = [8, 16];

fn mcfg(dim: usize) -> ModelConfig {
    ModelConfig { dim, seed: 9 }
}

fn build_trainer<'a>(
    model: &'a dyn tmn_core::PairModel,
    train: &'a [Trajectory],
    dmat: &'a DistanceMatrix,
    dim: usize,
    cfg: TrainConfig,
) -> Trainer<'a> {
    let threads = cfg.threads;
    let trainer = Trainer::new(
        model,
        train,
        dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        cfg,
        None,
    );
    if threads > 1 {
        trainer.with_replicas(ModelKind::Tmn, mcfg(dim))
    } else {
        trainer
    }
}

/// Uninterrupted run → (weight fingerprint, per-epoch loss bits).
fn run_full(threads: usize, dim: usize) -> (u64, Vec<u32>) {
    let train = toy_set(12);
    let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
    let model = ModelKind::Tmn.build(&mcfg(dim));
    let mut trainer = build_trainer(model.as_ref(), &train, &dmat, dim, config(threads));
    let stats = trainer.train();
    (model.params().fingerprint(), stats.epochs.iter().map(|e| e.loss.to_bits()).collect())
}

/// Kill at `kill_at` steps, then resume in a fresh trainer (fresh model,
/// fresh RNG — everything must come off disk). Optionally corrupt `latest`
/// first to force `prev` recovery.
fn run_interrupted(
    threads: usize,
    dim: usize,
    kill_at: u64,
    corrupt_latest: bool,
) -> (u64, Vec<u32>) {
    let tmp = TempDir::new(&format!("t{threads}_d{dim}_k{kill_at}_c{corrupt_latest}"));
    let train = toy_set(12);
    let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
    let cfg = TrainConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(tmp.path()),
        ..config(threads)
    };
    {
        let model = ModelKind::Tmn.build(&mcfg(dim));
        let mut trainer = build_trainer(model.as_ref(), &train, &dmat, dim, cfg.clone())
            .with_step_limit(kill_at);
        trainer.train();
        assert_eq!(trainer.steps(), kill_at, "step limit did not halt the run");
    }
    if corrupt_latest {
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let mut bytes = std::fs::read(store.latest_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(store.latest_path(), &bytes).unwrap();
    }
    // "New process": model seeded differently on purpose — resume must
    // overwrite every weight from the checkpoint.
    let model = ModelKind::Tmn.build(&ModelConfig { dim, seed: 777 });
    let mut trainer = build_trainer(model.as_ref(), &train, &dmat, dim, cfg);
    let from = trainer.resume_latest().expect("resume from checkpoint pair");
    if corrupt_latest {
        assert_eq!(from, LoadedFrom::Prev, "corrupt latest must fall back to prev");
    } else {
        assert_eq!(from, LoadedFrom::Latest);
    }
    let resumed_stats = trainer.train();
    let mut losses: Vec<u32> = Vec::new();
    // The resumed stats only cover epochs finished after the kill; the
    // final epoch's loss must still match the uninterrupted curve tail.
    for e in &resumed_stats.epochs {
        losses.push(e.loss.to_bits());
    }
    (model.params().fingerprint(), losses)
}

#[test]
fn serial_resume_is_bit_identical() {
    for dim in DIMS {
        let (full_fp, full_losses) = run_full(1, dim);
        // Kill mid-epoch, off the checkpoint cadence (step 5, checkpoints at 2/4).
        let (resumed_fp, resumed_losses) = run_interrupted(1, dim, 5, false);
        assert_eq!(full_fp, resumed_fp, "threads=1 dim={dim} resumed weights diverged");
        // Epochs completed after the resume must replay the same losses.
        let tail = &full_losses[full_losses.len() - resumed_losses.len()..];
        assert_eq!(tail, &resumed_losses[..], "threads=1 dim={dim} resumed loss curve diverged");
    }
}

#[test]
fn parallel_resume_is_bit_identical() {
    for dim in DIMS {
        let (full_fp, full_losses) = run_full(4, dim);
        let (resumed_fp, resumed_losses) = run_interrupted(4, dim, 5, false);
        assert_eq!(full_fp, resumed_fp, "threads=4 dim={dim} resumed weights diverged");
        let tail = &full_losses[full_losses.len() - resumed_losses.len()..];
        assert_eq!(tail, &resumed_losses[..], "threads=4 dim={dim} resumed loss curve diverged");
    }
}

#[test]
fn corrupted_latest_recovers_from_prev_and_stays_deterministic() {
    for dim in DIMS {
        let (full_fp, _) = run_full(1, dim);
        // Resuming from the older `prev` checkpoint replays more steps, but the
        // replay is deterministic, so the final weights still match exactly.
        let (resumed_fp, _) = run_interrupted(1, dim, 5, true);
        assert_eq!(full_fp, resumed_fp, "dim={dim} prev-recovery resume diverged");
    }
}

#[test]
fn resume_at_checkpoint_boundary_is_bit_identical() {
    let (full_fp, _) = run_full(1, 8);
    // Kill exactly on the cadence: the checkpoint captures the kill point
    // itself and the resume replays nothing.
    let (resumed_fp, _) = run_interrupted(1, 8, 4, false);
    assert_eq!(full_fp, resumed_fp, "boundary resume diverged");
}
