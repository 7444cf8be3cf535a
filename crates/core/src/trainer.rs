//! The training loop: sample pairs per anchor, batch them, minimize the
//! pair loss with Adam (Section IV-C/D, parameter settings of Section V-A4).

use crate::batch::PairBatch;
use crate::checkpoint::store::{CheckpointStore, LoadedFrom};
use crate::checkpoint::{decode_checkpoint, save_checkpoint, CheckpointError, TrainerState};
use crate::config::{ModelConfig, TrainConfig};
use crate::loss::{pair_loss, PairTargets};
use crate::models::{ModelKind, PairModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;
use tmn_data::Sampler;
use tmn_traj::metrics::{prefix_distances, Metric, MetricParams};
use tmn_traj::{GroundTruth, SimilarityTransform, Trajectory};
use tmn_autograd::optim::{clip_grad_norm, Adam};
use tmn_obs::{memory, metrics, BatchTelemetry, EpochTelemetry, EventTelemetry, Span, TelemetrySink};

/// Registry names for the training-side metrics (see DESIGN.md §8).
pub const TRAIN_BATCH_NS: &str = "train_batch_ns";
pub const TRAIN_BATCHES_TOTAL: &str = "train_batches_total";
pub const TRAIN_BATCH_WALL_MS: &str = "train_batch_wall_ms";
pub const TRAIN_PEAK_BYTES: &str = "train_peak_bytes";
pub const TRAIN_LIVE_BYTES: &str = "train_live_bytes";

/// Consecutive non-finite batches tolerated before the trainer intervenes
/// (rollback to the last checkpoint, or a learning-rate halving).
const BAD_BATCH_LIMIT: usize = 3;

/// One pair's master-computed targets: (similarity, rank weight, prefix
/// sub-targets) — everything a data-parallel worker needs besides the
/// trajectories themselves.
type TargetRow = (f32, f32, Vec<(usize, f32)>);

/// What one gradient step reports back to the epoch loop.
struct StepInfo {
    /// Loss summed over the batch's pairs.
    loss_sum: f32,
    /// Pre-clip global gradient L2 norm.
    grad_norm: f32,
    /// Data-parallel workers actually used (1 = serial path).
    workers: usize,
    /// Whether the optimizer step was applied. `false` means the batch loss
    /// or gradient norm was non-finite and the update was skipped, leaving
    /// weights and optimizer state untouched.
    applied: bool,
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EpochStats {
    pub epoch: usize,
    /// Mean loss per pair.
    pub loss: f32,
    pub pairs: usize,
    pub seconds: f64,
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct TrainStats {
    pub epochs: Vec<EpochStats>,
}

impl TrainStats {
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.loss).unwrap_or(f32::NAN)
    }

    pub fn total_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.seconds).sum()
    }

    /// Mean seconds per epoch (the paper's Table III "Training" figure).
    pub fn seconds_per_epoch(&self) -> f64 {
        if self.epochs.is_empty() {
            0.0
        } else {
            self.total_seconds() / self.epochs.len() as f64
        }
    }
}

/// Trains a [`PairModel`] against one distance metric's ground truth.
pub struct Trainer<'a> {
    model: &'a dyn PairModel,
    train: &'a [Trajectory],
    truth: &'a dyn GroundTruth,
    sim: SimilarityTransform,
    metric: Metric,
    mparams: MetricParams,
    config: TrainConfig,
    sampler: Box<dyn Sampler + 'a>,
    optimizer: Adam,
    rng: StdRng,
    /// Cache of prefix similarities per (anchor, sample) pair.
    sub_cache: HashMap<(usize, usize), Vec<(usize, f32)>>,
    /// How to rebuild the model on worker threads for data-parallel steps
    /// (`Tensor` graphs are `!Send`, so replicas are constructed in-thread
    /// and loaded from a weight snapshot). `None` disables parallelism.
    replica_spec: Option<(ModelKind, ModelConfig)>,
    /// Optional JSONL stream of per-batch/per-epoch records. Telemetry reads
    /// only already-computed scalars, so it never perturbs training.
    telemetry: Option<TelemetrySink>,
    /// Rotating `latest`/`prev` checkpoint pair (from `config.checkpoint_dir`).
    store: Option<CheckpointStore>,
    /// Global gradient steps applied so far (all epochs, survives resume).
    steps: u64,
    /// Stop training once `steps` reaches this bound (kill-and-resume tests).
    step_limit: Option<u64>,
    /// First epoch to run (nonzero after [`Trainer::resume`]).
    start_epoch: usize,
    /// Mid-epoch cursor from a resumed checkpoint, consumed by the first
    /// epoch instead of a fresh shuffle.
    pending: Option<TrainerState>,
    /// Consecutive batches whose update was skipped as non-finite.
    bad_streak: usize,
    /// At least one good step happened since the last rollback — guards
    /// against rollback loops when the checkpoint itself replays badly.
    rollback_armed: bool,
}

impl<'a> Trainer<'a> {
    /// `alpha` defaults to the paper's per-metric value when `None`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: &'a dyn PairModel,
        train: &'a [Trajectory],
        truth: &'a dyn GroundTruth,
        metric: Metric,
        mparams: MetricParams,
        sampler: Box<dyn Sampler + 'a>,
        config: TrainConfig,
        alpha: Option<f64>,
    ) -> Trainer<'a> {
        assert_eq!(train.len(), truth.len(), "ground truth must cover the training set");
        assert!(train.len() >= 2, "need at least two training trajectories");
        let sim = SimilarityTransform::from_truth(truth, alpha.unwrap_or_else(|| metric.default_alpha()));
        let optimizer = Adam::new(model.params(), config.lr);
        let rng = StdRng::seed_from_u64(config.seed);
        let store = config
            .checkpoint_dir
            .as_ref()
            .map(|dir| CheckpointStore::open(dir).expect("checkpoint_dir must be creatable"));
        Trainer {
            model,
            train,
            truth,
            sim,
            metric,
            mparams,
            config,
            sampler,
            optimizer,
            rng,
            sub_cache: HashMap::new(),
            replica_spec: None,
            telemetry: None,
            store,
            steps: 0,
            step_limit: None,
            start_epoch: 0,
            pending: None,
            bad_streak: 0,
            rollback_armed: false,
        }
    }

    /// Enable data-parallel steps by telling the trainer how to rebuild the
    /// model on worker threads. `kind`/`mconfig` must describe the same
    /// architecture as the model passed to [`Trainer::new`]; takes effect
    /// when `config.threads > 1` and the model supports it.
    pub fn with_replicas(mut self, kind: ModelKind, mconfig: ModelConfig) -> Trainer<'a> {
        self.replica_spec = Some((kind, mconfig));
        self
    }

    /// Stream one [`BatchTelemetry`] record per gradient step and one
    /// [`EpochTelemetry`] record per epoch into `sink` as JSON lines.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Trainer<'a> {
        self.telemetry = Some(sink);
        self
    }

    /// Stop training (without saving) once this many gradient steps have
    /// been applied across the whole run. Simulates a kill at an arbitrary
    /// point for the resume tests and the CI smoke.
    pub fn with_step_limit(mut self, limit: u64) -> Trainer<'a> {
        self.step_limit = Some(limit);
        self
    }

    /// Gradient steps applied so far (all epochs, survives resume).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Resume from the newest valid checkpoint in `config.checkpoint_dir`
    /// (`latest`, falling back to `prev` when `latest` is corrupt).
    ///
    /// After a successful resume the next [`Trainer::train`] /
    /// [`Trainer::train_with`] call continues from the saved epoch and batch
    /// cursor with restored weights, Adam moments, and sampler RNG — the
    /// continuation is bit-identical to the uninterrupted run. The
    /// checkpoint's learning rate (which may have been decayed or halved)
    /// overrides `config.lr`.
    pub fn resume_latest(&mut self) -> Result<LoadedFrom, CheckpointError> {
        let store = self
            .store
            .as_ref()
            .ok_or_else(|| CheckpointError::Io("no checkpoint_dir configured".to_string()))?;
        let (ckpt, from) = store.load()?;
        self.apply_checkpoint(ckpt.params, ckpt.optimizer, ckpt.trainer)?;
        self.emit_event("resumed", self.start_epoch, format!("{from:?}"));
        Ok(from)
    }

    /// Resume from an explicit checkpoint file (see [`Trainer::resume_latest`]
    /// for semantics).
    pub fn resume(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        let ckpt = decode_checkpoint(&bytes)?;
        self.apply_checkpoint(ckpt.params, ckpt.optimizer, ckpt.trainer)?;
        self.emit_event("resumed", self.start_epoch, path.display().to_string());
        Ok(())
    }

    /// Validate a decoded checkpoint against this trainer and apply it.
    fn apply_checkpoint(
        &mut self,
        params: Vec<(String, Vec<usize>, Vec<f32>)>,
        optimizer: Option<tmn_autograd::optim::AdamState>,
        trainer: Option<TrainerState>,
    ) -> Result<(), CheckpointError> {
        let state =
            trainer.ok_or(CheckpointError::Corrupt("checkpoint has no trainer state"))?;
        let opt_state =
            optimizer.ok_or(CheckpointError::Corrupt("checkpoint has no optimizer state"))?;
        // The sampling recipe must be unchanged, or the replayed epoch
        // diverges from the original run.
        let mismatch = |name: &str, expected: String, found: String| CheckpointError::Mismatch {
            name: name.to_string(),
            expected,
            found,
        };
        let cfg = &self.config;
        if state.seed != cfg.seed {
            return Err(mismatch("seed", cfg.seed.to_string(), state.seed.to_string()));
        }
        if state.batch_pairs as usize != cfg.batch_pairs {
            return Err(mismatch(
                "batch_pairs",
                cfg.batch_pairs.to_string(),
                state.batch_pairs.to_string(),
            ));
        }
        if state.sampling_number as usize != cfg.sampling_number {
            return Err(mismatch(
                "sampling_number",
                cfg.sampling_number.to_string(),
                state.sampling_number.to_string(),
            ));
        }
        if state.sub_stride as usize != cfg.sub_stride {
            return Err(mismatch(
                "sub_stride",
                cfg.sub_stride.to_string(),
                state.sub_stride.to_string(),
            ));
        }
        if state.use_sub_loss != cfg.use_sub_loss {
            return Err(mismatch(
                "use_sub_loss",
                cfg.use_sub_loss.to_string(),
                state.use_sub_loss.to_string(),
            ));
        }
        if state.loss != cfg.loss {
            return Err(mismatch("loss", format!("{:?}", cfg.loss), format!("{:?}", state.loss)));
        }
        if state.epoch as usize >= cfg.epochs {
            return Err(mismatch(
                "epoch",
                format!("< {}", cfg.epochs),
                state.epoch.to_string(),
            ));
        }
        let n = self.train.len();
        let indices_ok = state.order.len() == n
            && state.next_anchor as usize <= n
            && state.order.iter().all(|&a| (a as usize) < n)
            && state.buffer.iter().all(|&(a, s, _)| (a as usize) < n && (s as usize) < n);
        if !indices_ok {
            return Err(mismatch(
                "training set",
                format!("{n} trajectories"),
                "checkpoint cursor indexes outside it".to_string(),
            ));
        }
        self.model.params().try_restore(&params)?;
        self.optimizer
            .restore_state(&opt_state)
            .map_err(|e| mismatch("optimizer state", "matching buffers".to_string(), e.to_string()))?;
        self.rng = StdRng::from_state(state.rng);
        self.steps = state.steps;
        self.start_epoch = state.epoch as usize;
        self.pending = Some(state);
        self.bad_streak = 0;
        self.rollback_armed = false;
        Ok(())
    }

    fn emit_event(&mut self, event: &str, epoch: usize, detail: String) {
        let (step, lr) = (self.steps, self.optimizer.lr());
        if let Some(sink) = self.telemetry.as_mut() {
            sink.emit(&EventTelemetry {
                record: EventTelemetry::RECORD.to_string(),
                event: event.to_string(),
                epoch,
                step,
                lr,
                detail,
            });
        }
    }

    /// Save a checkpoint if a periodic save is due at the current step.
    /// Called only after an applied (finite) step, so a checkpoint never
    /// captures diverged weights.
    #[allow(clippy::too_many_arguments)]
    fn maybe_checkpoint(
        &mut self,
        epoch: usize,
        order: &[usize],
        next_anchor: usize,
        buffer: &[(usize, usize, f32)],
        batches: usize,
        total_loss: f64,
        total_pairs: usize,
    ) {
        if self.config.checkpoint_every == 0 || self.store.is_none() {
            return;
        }
        if !self.steps.is_multiple_of(self.config.checkpoint_every as u64) {
            return;
        }
        let state = TrainerState {
            epoch: epoch as u64,
            steps: self.steps,
            batches: batches as u64,
            next_anchor: next_anchor as u64,
            total_pairs: total_pairs as u64,
            total_loss,
            rng: self.rng.state(),
            seed: self.config.seed,
            batch_pairs: self.config.batch_pairs as u32,
            sampling_number: self.config.sampling_number as u32,
            sub_stride: self.config.sub_stride as u32,
            use_sub_loss: self.config.use_sub_loss,
            loss: self.config.loss,
            order: order.iter().map(|&a| a as u32).collect(),
            buffer: buffer.iter().map(|&(a, s, w)| (a as u32, s as u32, w)).collect(),
        };
        let bytes = save_checkpoint(
            self.model.params(),
            Some(&self.optimizer.state_snapshot()),
            Some(&state),
        );
        let _prof = Span::phase("trainer.checkpoint_save");
        let result = self.store.as_ref().expect("store checked above").save(&bytes);
        match result {
            Ok(path) => self.emit_event("checkpoint_saved", epoch, path.display().to_string()),
            Err(e) => self.emit_event("checkpoint_error", epoch, e.to_string()),
        }
    }

    /// React to a skipped (non-finite) batch: after [`BAD_BATCH_LIMIT`]
    /// consecutive skips, roll weights and optimizer back to the last good
    /// checkpoint with a halved learning rate — or just halve the rate when
    /// no checkpoint is available (or the last rollback didn't help).
    fn handle_nonfinite(&mut self, epoch: usize, info: &StepInfo) {
        self.bad_streak += 1;
        self.emit_event(
            "nonfinite_skip",
            epoch,
            format!(
                "loss={} grad_norm={} streak={}",
                info.loss_sum, info.grad_norm, self.bad_streak
            ),
        );
        if self.bad_streak < BAD_BATCH_LIMIT {
            return;
        }
        self.bad_streak = 0;
        if self.rollback_armed && self.try_rollback(epoch) {
            return;
        }
        let lr = self.optimizer.lr() * 0.5;
        self.optimizer.set_lr(lr);
        self.emit_event("lr_halved", epoch, format!("lr={lr}"));
    }

    /// Restore weights + optimizer from the newest valid checkpoint and
    /// halve the learning rate. The data cursor keeps moving forward — only
    /// model state rolls back. Returns false when no usable checkpoint
    /// exists.
    fn try_rollback(&mut self, epoch: usize) -> bool {
        let Some(store) = self.store.as_ref() else { return false };
        let Ok((ckpt, from)) = store.load() else { return false };
        if self.model.params().try_restore(&ckpt.params).is_err() {
            return false;
        }
        let Some(opt_state) = ckpt.optimizer.as_ref() else { return false };
        if self.optimizer.restore_state(opt_state).is_err() {
            return false;
        }
        let lr = self.optimizer.lr() * 0.5;
        self.optimizer.set_lr(lr);
        self.rollback_armed = false;
        self.emit_event("rollback", epoch, format!("from={from:?} lr={lr}"));
        true
    }

    /// The similarity transform in use (needed to interpret predictions).
    pub fn similarity(&self) -> &SimilarityTransform {
        &self.sim
    }

    fn sub_targets(&mut self, a: usize, s: usize) -> Vec<(usize, f32)> {
        if !self.config.use_sub_loss {
            return Vec::new();
        }
        let key = if a <= s { (a, s) } else { (s, a) };
        if let Some(v) = self.sub_cache.get(&key) {
            return v.clone();
        }
        let prefixes = prefix_distances(
            self.metric,
            &self.train[key.0],
            &self.train[key.1],
            self.config.sub_stride,
            &self.mparams,
        );
        let v: Vec<(usize, f32)> = prefixes
            .into_iter()
            .map(|(i, d)| (i, self.sim.of_distance(d) as f32))
            .collect();
        self.sub_cache.insert(key, v.clone());
        v
    }

    /// One gradient step over a flat list of `(anchor, sample, weight)`.
    ///
    /// Dispatches to the data-parallel path when `config.threads > 1`, a
    /// replica spec is set, and the model supports batch splitting;
    /// otherwise (including `threads == 1`) runs the classic serial path
    /// unchanged, so single-threaded configs stay bit-identical to the
    /// original trainer.
    fn step(&mut self, pairs: &[(usize, usize, f32)]) -> StepInfo {
        let workers = self.config.threads.max(1).min(pairs.len());
        if workers > 1 && self.replica_spec.is_some() && self.model.supports_data_parallel() {
            self.step_parallel(pairs, workers)
        } else {
            self.step_serial(pairs)
        }
    }

    fn step_serial(&mut self, pairs: &[(usize, usize, f32)]) -> StepInfo {
        let (batch, targets) = {
            let _prof = Span::phase("trainer.batch_prep");
            let anchors: Vec<&Trajectory> = pairs.iter().map(|&(a, _, _)| &self.train[a]).collect();
            let samples: Vec<&Trajectory> = pairs.iter().map(|&(_, s, _)| &self.train[s]).collect();
            let batch = PairBatch::build(&anchors, &samples);
            let targets = PairTargets {
                sim: pairs
                    .iter()
                    .map(|&(a, s, _)| self.sim.of_distance(self.truth.get(a, s)) as f32)
                    .collect(),
                weight: pairs.iter().map(|&(_, _, w)| w).collect(),
                sub: pairs.iter().map(|&(a, s, _)| self.sub_targets(a, s)).collect(),
            };
            (batch, targets)
        };
        let encoded = self.model.encode_pairs(&batch);
        let loss = pair_loss(&encoded, &batch, &targets, self.config.loss);
        // Same op sequence as `optim::train_step`, with a finiteness gate
        // before the optimizer touches anything: a NaN/inf batch must not
        // poison the Adam moments or the weights.
        let params = self.model.params();
        params.zero_grad();
        loss.backward();
        let norm = clip_grad_norm(params, self.config.clip);
        let loss_val = loss.item();
        let applied = loss_val.is_finite() && norm.is_finite();
        if applied {
            self.optimizer.step(params);
            self.model.post_step(&batch, &encoded);
        }
        StepInfo { loss_sum: loss_val, grad_norm: norm, workers: 1, applied }
    }

    /// Synchronous data-parallel gradient step.
    ///
    /// The batch is split into `workers` contiguous chunks. Each worker
    /// thread builds a fresh model replica, restores the master weight
    /// snapshot, and runs forward + backward on its chunk only. Because
    /// [`pair_loss`] is a *sum* over pairs, the chunk losses and chunk
    /// gradients add up to exactly the full-batch quantities (up to f32
    /// reassociation), so the master can reduce worker gradients and take a
    /// single optimizer step. Reduction happens in spawn order — workers are
    /// joined sequentially — which makes every run with the same seed and
    /// thread count deterministic.
    ///
    /// Pairs are ordered by trajectory length (longest first, stable) before
    /// chunking, so each worker pads its chunk batch only to the chunk's own
    /// longest trajectory rather than the global batch maximum. The loss is
    /// a sum over pairs, so reordering within the batch changes nothing but
    /// f32 summation order.
    ///
    /// `post_step` is *not* invoked here: models that rely on it report
    /// `supports_data_parallel() == false` and never reach this path.
    fn step_parallel(&mut self, pairs: &[(usize, usize, f32)], workers: usize) -> StepInfo {
        let prep = Span::phase("trainer.batch_prep");
        let (kind, mconfig) = self.replica_spec.expect("step_parallel requires a replica spec");
        // Group similar-length pairs into the same chunk (longest first,
        // stable for determinism) so short chunks aren't padded to the
        // global batch maximum.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by_key(|&i| {
            let (a, s, _) = pairs[i];
            std::cmp::Reverse(self.train[a].len().max(self.train[s].len()))
        });
        let pairs: Vec<(usize, usize, f32)> = order.iter().map(|&i| pairs[i]).collect();
        // Targets come from the master so the sub-trajectory prefix cache
        // stays a plain single-threaded HashMap.
        let targets: Vec<TargetRow> = pairs
            .iter()
            .map(|&(a, s, w)| (self.sim.of_distance(self.truth.get(a, s)) as f32, w, self.sub_targets(a, s)))
            .collect();
        let pairs: &[(usize, usize, f32)] = &pairs;
        let snap = self.model.params().snapshot();
        drop(prep);
        let chunk_len = pairs.len().div_ceil(workers);
        let train = self.train;
        let loss_kind = self.config.loss;

        // The tensor graph is !Send: nothing model-related crosses the
        // thread boundary except the plain-f32 weight snapshot in and the
        // plain-f32 gradient snapshots out.
        let results: Vec<(Vec<Vec<f32>>, f32)> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk_len)
                .zip(targets.chunks(chunk_len))
                .map(|(chunk, tchunk)| {
                    let snap = &snap;
                    scope.spawn(move || {
                        let replica = kind.build(&mconfig);
                        replica.params().restore(snap);
                        let anchors: Vec<&Trajectory> =
                            chunk.iter().map(|&(a, _, _)| &train[a]).collect();
                        let samples: Vec<&Trajectory> =
                            chunk.iter().map(|&(_, s, _)| &train[s]).collect();
                        let batch = PairBatch::build(&anchors, &samples);
                        let targets = PairTargets {
                            sim: tchunk.iter().map(|t| t.0).collect(),
                            weight: tchunk.iter().map(|t| t.1).collect(),
                            sub: tchunk.iter().map(|t| t.2.clone()).collect(),
                        };
                        let encoded = replica.encode_pairs(&batch);
                        let loss = pair_loss(&encoded, &batch, &targets, loss_kind);
                        replica.params().zero_grad();
                        loss.backward();
                        (replica.params().grad_snapshot(), loss.item())
                    })
                })
                .collect();
            // Join in spawn order: the gradient reduction order is fixed
            // regardless of which worker finishes first.
            handles.into_iter().map(|h| h.join().expect("training worker panicked")).collect()
        });

        let params = self.model.params();
        params.zero_grad();
        let mut total_loss = 0.0f32;
        {
            let _prof = Span::phase("trainer.grad_reduce");
            for (grads, chunk_loss) in &results {
                params.accumulate_grads(grads);
                total_loss += chunk_loss;
            }
        }
        let norm = clip_grad_norm(params, self.config.clip);
        let applied = total_loss.is_finite() && norm.is_finite();
        if applied {
            self.optimizer.step(params);
        }
        StepInfo { loss_sum: total_loss, grad_norm: norm, workers, applied }
    }

    /// One gradient step plus its telemetry record.
    fn run_batch(&mut self, epoch: usize, batch: usize, chunk: &[(usize, usize, f32)]) -> StepInfo {
        let span = Span::new("trainer.batch").histogram(TRAIN_BATCH_NS);
        let info = self.step(chunk);
        let lr = self.optimizer.lr();
        // Serving-side registry shares the export surface with eval: the
        // one batch span feeds the histogram, the wall gauge and the
        // telemetry record; memory watermarks join when the counting
        // allocator is compiled in. Reads already-computed scalars only, so
        // it can never perturb the step itself (tests/metrics_invariance.rs).
        let wall_ms = span.finish() as f64 / 1e6;
        metrics::counter_add(TRAIN_BATCHES_TOTAL, 1);
        metrics::gauge_set(TRAIN_BATCH_WALL_MS, wall_ms);
        if memory::is_active() {
            metrics::gauge_set(TRAIN_PEAK_BYTES, memory::peak_bytes() as f64);
            metrics::gauge_set(TRAIN_LIVE_BYTES, memory::live_bytes() as f64);
        }
        // Skipped (non-finite) batches get an event record instead: NaN is
        // not representable in JSON numbers.
        if info.applied {
            if let Some(sink) = self.telemetry.as_mut() {
                let max_len = chunk
                    .iter()
                    .map(|&(a, s, _)| self.train[a].len().max(self.train[s].len()))
                    .max()
                    .unwrap_or(0);
                sink.emit(&BatchTelemetry {
                    record: BatchTelemetry::RECORD.to_string(),
                    epoch,
                    batch,
                    pairs: chunk.len(),
                    max_len,
                    workers: info.workers,
                    loss: info.loss_sum / chunk.len().max(1) as f32,
                    grad_norm: info.grad_norm,
                    lr,
                    wall_ms,
                });
            }
        }
        info
    }

    /// Handle one drained batch inside the epoch loop: step, account, maybe
    /// checkpoint (good steps only), maybe intervene (bad steps only).
    /// Returns `true` when the configured step limit was reached.
    #[allow(clippy::too_many_arguments)]
    fn process_batch(
        &mut self,
        epoch: usize,
        chunk: &[(usize, usize, f32)],
        order: &[usize],
        next_anchor: usize,
        buffer: &[(usize, usize, f32)],
        batches: &mut usize,
        total_loss: &mut f64,
        total_pairs: &mut usize,
    ) -> bool {
        let info = self.run_batch(epoch, *batches, chunk);
        *batches += 1;
        if info.applied {
            self.steps += 1;
            self.bad_streak = 0;
            self.rollback_armed = true;
            *total_loss += info.loss_sum as f64;
            *total_pairs += chunk.len();
            self.maybe_checkpoint(
                epoch,
                order,
                next_anchor,
                buffer,
                *batches,
                *total_loss,
                *total_pairs,
            );
        } else {
            self.handle_nonfinite(epoch, &info);
        }
        self.step_limit.is_some_and(|limit| self.steps >= limit)
    }

    /// Run one epoch: every training trajectory serves as anchor once.
    pub fn train_epoch(&mut self, epoch: usize) -> EpochStats {
        self.train_epoch_inner(epoch).0
    }

    /// The epoch loop, restructured around an explicit cursor
    /// (`order`/`next_anchor`/`buffer`) so a mid-epoch checkpoint captures
    /// the exact loop state and a resume replays the identical sample and
    /// batch sequence. Returns `(stats, completed)`; `completed == false`
    /// means the step limit halted the epoch early.
    fn train_epoch_inner(&mut self, epoch: usize) -> (EpochStats, bool) {
        let start = Instant::now();
        let k = self.config.k();
        let batch_pairs = self.config.batch_pairs;
        let mut order: Vec<usize>;
        let mut next_anchor: usize;
        let mut buffer: Vec<(usize, usize, f32)>;
        let mut batches: usize;
        let mut total_loss: f64;
        let mut total_pairs: usize;
        if let Some(state) = self.pending.take() {
            debug_assert_eq!(state.epoch as usize, epoch, "cursor applied to wrong epoch");
            order = state.order.iter().map(|&a| a as usize).collect();
            next_anchor = state.next_anchor as usize;
            buffer = state.buffer.iter().map(|&(a, s, w)| (a as usize, s as usize, w)).collect();
            batches = state.batches as usize;
            total_loss = state.total_loss;
            total_pairs = state.total_pairs as usize;
            self.rng = StdRng::from_state(state.rng);
        } else {
            order = (0..self.train.len()).collect();
            order.shuffle(&mut self.rng);
            next_anchor = 0;
            buffer = Vec::with_capacity(batch_pairs * 2);
            batches = 0;
            total_loss = 0.0;
            total_pairs = 0;
        }
        let mut halted = false;
        // Identical sample/step sequence to the classic
        // for-each-anchor-then-drain loop, expressed so the loop state lives
        // in plain variables at every batch boundary.
        'epoch: loop {
            while buffer.len() >= batch_pairs {
                let chunk: Vec<_> = buffer.drain(..batch_pairs).collect();
                if self.process_batch(
                    epoch,
                    &chunk,
                    &order,
                    next_anchor,
                    &buffer,
                    &mut batches,
                    &mut total_loss,
                    &mut total_pairs,
                ) {
                    halted = true;
                    break 'epoch;
                }
            }
            if next_anchor < order.len() {
                let anchor = order[next_anchor];
                next_anchor += 1;
                let samples = {
                    let _prof = Span::phase("trainer.sampling");
                    self.sampler.sample(anchor, k, self.truth, &mut self.rng)
                };
                buffer.extend(samples.pairs());
                continue;
            }
            if !buffer.is_empty() {
                let chunk: Vec<_> = std::mem::take(&mut buffer);
                if self.process_batch(
                    epoch,
                    &chunk,
                    &order,
                    next_anchor,
                    &buffer,
                    &mut batches,
                    &mut total_loss,
                    &mut total_pairs,
                ) {
                    halted = true;
                }
            }
            break;
        }
        let stats = EpochStats {
            epoch,
            loss: (total_loss / total_pairs.max(1) as f64) as f32,
            pairs: total_pairs,
            seconds: start.elapsed().as_secs_f64(),
        };
        if !halted {
            if let Some(sink) = self.telemetry.as_mut() {
                sink.emit(&EpochTelemetry {
                    record: EpochTelemetry::RECORD.to_string(),
                    epoch,
                    batches,
                    pairs: stats.pairs,
                    loss: stats.loss,
                    wall_s: stats.seconds,
                });
                sink.flush();
            }
        }
        (stats, !halted)
    }

    /// Run all configured epochs.
    pub fn train(&mut self) -> TrainStats {
        self.train_with(|_| {})
    }

    /// Run all configured epochs, invoking `on_epoch` after each one
    /// (progress reporting, early-stopping checks, checkpointing).
    ///
    /// After [`Trainer::resume`] the loop continues from the checkpoint's
    /// epoch; only epochs completed in *this* call appear in the returned
    /// stats. A step limit halts mid-epoch without recording the partial
    /// epoch.
    pub fn train_with(&mut self, mut on_epoch: impl FnMut(&EpochStats)) -> TrainStats {
        let mut stats = TrainStats::default();
        let start = std::mem::take(&mut self.start_epoch);
        for e in start..self.config.epochs {
            let (epoch, completed) = self.train_epoch_inner(e);
            if !completed {
                break;
            }
            on_epoch(&epoch);
            stats.epochs.push(epoch);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LossKind, ModelConfig};
    use crate::models::ModelKind;
    use tmn_data::RankSampler;
    use tmn_traj::{DistanceMatrix, Point};

    fn toy_set(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let off = i as f64 / n as f64;
                (0..12).map(|t| Point::new(0.08 * t as f64, off)).collect()
            })
            .collect()
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            lr: 5e-3,
            sampling_number: 6,
            batch_pairs: 12,
            loss: LossKind::Mse,
            use_sub_loss: true,
            sub_stride: 5,
            clip: 5.0,
            seed: 11,
            threads: 1,
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn loss_decreases_on_toy_data() {
        let train = toy_set(16);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 });
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { epochs: 6, ..quick_config() },
            None,
        );
        let stats = trainer.train();
        assert_eq!(stats.epochs.len(), 6);
        let first = stats.epochs[0].loss;
        let last = stats.final_loss();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn all_model_kinds_train_one_epoch() {
        let train = toy_set(10);
        let dmat = DistanceMatrix::compute(&train, Metric::Hausdorff, &MetricParams::default(), 1);
        for kind in ModelKind::ALL {
            let model = kind.build(&ModelConfig { dim: 8, seed: 2 });
            let mut trainer = Trainer::new(
                model.as_ref(),
                &train,
                &dmat,
                Metric::Hausdorff,
                MetricParams::default(),
                Box::new(RankSampler),
                TrainConfig { epochs: 1, ..quick_config() },
                None,
            );
            let stats = trainer.train();
            assert!(stats.final_loss().is_finite(), "{kind}: non-finite loss");
            assert!(stats.epochs[0].pairs > 0, "{kind}: no pairs trained");
        }
    }

    #[test]
    fn qerror_training_stays_finite() {
        let train = toy_set(10);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 3 });
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { loss: LossKind::QError, epochs: 2, ..quick_config() },
            None,
        );
        let stats = trainer.train();
        assert!(stats.final_loss().is_finite());
    }

    #[test]
    fn train_with_invokes_callback_per_epoch() {
        let train = toy_set(8);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 5 });
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { epochs: 3, ..quick_config() },
            None,
        );
        let mut seen = Vec::new();
        let stats = trainer.train_with(|e| seen.push(e.epoch));
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(stats.epochs.len(), 3);
    }

    /// Train one model kind at a given thread count (with the replica spec
    /// installed) and return the per-epoch losses plus final weights as bits.
    fn train_run(kind: ModelKind, threads: usize, replicas: bool) -> (Vec<u32>, Vec<Vec<u32>>) {
        let train = toy_set(12);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let mcfg = ModelConfig { dim: 8, seed: 9 };
        let model = kind.build(&mcfg);
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { epochs: 2, threads, ..quick_config() },
            None,
        );
        if replicas {
            trainer = trainer.with_replicas(kind, mcfg);
        }
        let stats = trainer.train();
        let losses = stats.epochs.iter().map(|e| e.loss.to_bits()).collect();
        let weights = model
            .params()
            .snapshot()
            .into_iter()
            .map(|(_, _, d)| d.into_iter().map(f32::to_bits).collect())
            .collect();
        (losses, weights)
    }

    #[test]
    fn threads_one_bit_identical_to_serial_trainer() {
        // threads=1 must dispatch to the untouched serial path even when a
        // replica spec is present: same losses, same weights, bit for bit.
        let (serial_losses, serial_weights) = train_run(ModelKind::Tmn, 1, false);
        let (dp_losses, dp_weights) = train_run(ModelKind::Tmn, 1, true);
        assert_eq!(serial_losses, dp_losses, "threads=1 changed the loss curve");
        assert_eq!(serial_weights, dp_weights, "threads=1 changed the trained weights");
    }

    #[test]
    fn parallel_training_is_deterministic() {
        // Fixed chunking + fixed-order gradient reduction: two identical
        // 4-worker runs must agree exactly.
        let (l1, w1) = train_run(ModelKind::Tmn, 4, true);
        let (l2, w2) = train_run(ModelKind::Tmn, 4, true);
        assert_eq!(l1, l2, "4-worker loss curve not reproducible");
        assert_eq!(w1, w2, "4-worker weights not reproducible");
    }

    #[test]
    fn parallel_training_matches_serial_closely() {
        // Chunked gradients equal the full-batch gradient up to f32
        // reassociation (the loss is a sum over pairs), so the 4-worker loss
        // curve should track the serial one tightly.
        let (serial_losses, _) = train_run(ModelKind::Tmn, 1, false);
        let (dp_losses, _) = train_run(ModelKind::Tmn, 4, true);
        for (s_bits, p_bits) in serial_losses.iter().zip(&dp_losses) {
            let (s, p) = (f32::from_bits(*s_bits), f32::from_bits(*p_bits));
            assert!(p.is_finite());
            assert!(
                (s - p).abs() / s.abs().max(1e-6) < 1e-2,
                "parallel loss drifted: serial {s} vs parallel {p}"
            );
        }
    }

    #[test]
    fn all_model_kinds_train_data_parallel() {
        // Every kind must at least train under threads=4 with replicas —
        // NeuTraj via its serial fallback (supports_data_parallel = false),
        // the rest via the data-parallel path.
        for kind in ModelKind::ALL {
            let (losses, _) = train_run(kind, 4, true);
            assert!(
                losses.iter().all(|b| f32::from_bits(*b).is_finite()),
                "{kind}: non-finite loss under data-parallel training"
            );
        }
    }

    #[test]
    fn neutraj_opts_out_of_data_parallel() {
        let model = ModelKind::NeuTraj.build(&ModelConfig { dim: 8, seed: 1 });
        assert!(!model.supports_data_parallel());
        assert!(ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 1 }).supports_data_parallel());
    }

    #[test]
    fn telemetry_streams_batch_and_epoch_records() {
        let train = toy_set(10);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 7 });
        let (sink, buf) = TelemetrySink::memory();
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { epochs: 2, ..quick_config() },
            None,
        )
        .with_telemetry(sink);
        let stats = trainer.train();

        let mut batch_records = Vec::new();
        let mut epoch_records = Vec::new();
        for line in buf.lines() {
            let v: serde_json::Value = serde_json::from_str(&line).expect("telemetry line is JSON");
            match v.get_field("record") {
                Some(serde_json::Value::Str(s)) if s == "batch" => {
                    batch_records.push(serde_json::from_str::<BatchTelemetry>(&line).unwrap())
                }
                Some(serde_json::Value::Str(s)) if s == "epoch" => {
                    epoch_records.push(serde_json::from_str::<EpochTelemetry>(&line).unwrap())
                }
                other => panic!("unknown record discriminator: {other:?}"),
            }
        }
        assert_eq!(epoch_records.len(), 2, "one epoch record per epoch");
        assert!(!batch_records.is_empty());
        // Per-epoch pair counts reconcile with the batch stream.
        for (e, er) in epoch_records.iter().enumerate() {
            let pairs: usize =
                batch_records.iter().filter(|b| b.epoch == e).map(|b| b.pairs).sum();
            assert_eq!(pairs, er.pairs, "epoch {e} pair count mismatch");
            let batches = batch_records.iter().filter(|b| b.epoch == e).count();
            assert_eq!(batches, er.batches);
            assert!((er.loss - stats.epochs[e].loss).abs() < 1e-6);
        }
        for b in &batch_records {
            assert_eq!(b.workers, 1);
            assert!(b.max_len > 0);
            assert!(b.loss.is_finite() && b.grad_norm.is_finite());
            assert!(b.lr > 0.0);
        }
    }

    #[test]
    fn telemetry_does_not_change_training_bits() {
        let (plain_losses, plain_weights) = train_run(ModelKind::Tmn, 1, false);
        let train = toy_set(12);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let mcfg = ModelConfig { dim: 8, seed: 9 };
        let model = ModelKind::Tmn.build(&mcfg);
        let (sink, _buf) = TelemetrySink::memory();
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { epochs: 2, ..quick_config() },
            None,
        )
        .with_telemetry(sink);
        let stats = trainer.train();
        let losses: Vec<u32> = stats.epochs.iter().map(|e| e.loss.to_bits()).collect();
        let weights: Vec<Vec<u32>> = model
            .params()
            .snapshot()
            .into_iter()
            .map(|(_, _, d)| d.into_iter().map(f32::to_bits).collect())
            .collect();
        assert_eq!(plain_losses, losses, "telemetry changed the loss curve");
        assert_eq!(plain_weights, weights, "telemetry changed the trained weights");
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("tmn_trainer_{tag}_{}", std::process::id()));
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

    #[test]
    fn periodic_checkpoints_are_saved_and_announced() {
        let tmp = TempDir::new("periodic");
        let train = toy_set(12);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
        let (sink, buf) = TelemetrySink::memory();
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig {
                epochs: 1,
                checkpoint_every: 2,
                checkpoint_dir: Some(tmp.path()),
                ..quick_config()
            },
            None,
        )
        .with_telemetry(sink);
        trainer.train();
        assert!(trainer.steps() >= 4, "toy epoch too small for this test");
        let saves = buf
            .lines()
            .iter()
            .filter(|l| l.contains("\"checkpoint_saved\""))
            .count();
        assert_eq!(saves as u64, trainer.steps() / 2, "one save every 2 steps");
        let store = CheckpointStore::open(&tmp.0).unwrap();
        let (ckpt, from) = store.load().unwrap();
        assert_eq!(from, LoadedFrom::Latest);
        let state = ckpt.trainer.expect("trainer section present");
        assert_eq!(state.steps, trainer.steps() - trainer.steps() % 2);
        assert!(ckpt.optimizer.is_some());
    }

    #[test]
    fn resume_rejects_mismatched_recipe_and_model() {
        let tmp = TempDir::new("mismatch");
        let train = toy_set(12);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let cfg = TrainConfig {
            epochs: 2,
            checkpoint_every: 1,
            checkpoint_dir: Some(tmp.path()),
            ..quick_config()
        };
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            cfg.clone(),
            None,
        );
        trainer.train();

        // Changed seed: the replayed epoch would diverge.
        let m2 = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
        let mut t2 = Trainer::new(
            m2.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { seed: 999, ..cfg.clone() },
            None,
        );
        assert!(matches!(t2.resume_latest(), Err(CheckpointError::Mismatch { .. })));

        // Wrong architecture: params don't fit.
        let m3 = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 9 });
        let mut t3 = Trainer::new(
            m3.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            cfg.clone(),
            None,
        );
        assert!(matches!(t3.resume_latest(), Err(CheckpointError::Mismatch { .. })));

        // No checkpoint_dir configured at all.
        let mut t4 = Trainer::new(
            m2.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { checkpoint_dir: None, ..cfg },
            None,
        );
        assert!(matches!(t4.resume_latest(), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn nonfinite_batches_are_skipped_and_rolled_back() {
        let tmp = TempDir::new("nonfinite");
        let train = toy_set(12);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
        let (sink, buf) = TelemetrySink::memory();
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig {
                epochs: 1,
                checkpoint_every: 1,
                checkpoint_dir: Some(tmp.path()),
                ..quick_config()
            },
            None,
        )
        .with_telemetry(sink);
        // One clean epoch fills the store with good checkpoints.
        trainer.train();
        let clean_steps = trainer.steps();
        assert!(clean_steps > 0);

        // Poison one weight: every forward pass now yields NaN, so without
        // the guard the next epoch would destroy the optimizer state.
        let (_, tensor) = model.params().iter().next().map(|(n, t)| (n.to_string(), t.clone())).unwrap();
        tensor.data_mut()[0] = f32::NAN;

        trainer.start_epoch = 0;
        trainer.config.epochs = 1;
        trainer.train();
        let lines = buf.lines();
        let skips = lines.iter().filter(|l| l.contains("\"nonfinite_skip\"")).count();
        let rollbacks = lines.iter().filter(|l| l.contains("\"rollback\"")).count();
        assert!(skips >= BAD_BATCH_LIMIT, "expected skip events, got {skips}");
        assert!(rollbacks >= 1, "expected a rollback event");
        // The rollback restored finite weights from the checkpoint, so
        // training recovered: later steps applied and the model is finite.
        assert!(trainer.steps() > clean_steps, "no step applied after recovery");
        for (_, t) in model.params().iter() {
            assert!(t.to_vec().iter().all(|v| v.is_finite()), "weights still non-finite");
        }
    }

    #[test]
    fn nonfinite_guard_without_store_never_panics() {
        let train = toy_set(10);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
        let (_, tensor) = model.params().iter().next().map(|(n, t)| (n.to_string(), t.clone())).unwrap();
        tensor.data_mut()[0] = f32::NAN;
        let (sink, buf) = TelemetrySink::memory();
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            TrainConfig { epochs: 1, ..quick_config() },
            None,
        )
        .with_telemetry(sink);
        let stats = trainer.train();
        // Nothing recoverable here (no checkpoint), but the run completes
        // with skips + lr halvings instead of panicking or corrupting Adam.
        assert_eq!(trainer.steps(), 0, "no non-finite step may be applied");
        assert_eq!(stats.epochs[0].pairs, 0);
        assert!(buf.lines().iter().any(|l| l.contains("\"lr_halved\"")));
    }

    #[test]
    fn step_limit_halts_and_resume_continues_bit_identically() {
        let run_full = || -> u64 {
            let train = toy_set(12);
            let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
            let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
            let mut trainer = Trainer::new(
                model.as_ref(),
                &train,
                &dmat,
                Metric::Dtw,
                MetricParams::default(),
                Box::new(RankSampler),
                TrainConfig { epochs: 2, ..quick_config() },
                None,
            );
            trainer.train();
            model.params().fingerprint()
        };
        let run_interrupted = || -> u64 {
            let tmp = TempDir::new("resume");
            let train = toy_set(12);
            let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
            let cfg = TrainConfig {
                epochs: 2,
                checkpoint_every: 3,
                checkpoint_dir: Some(tmp.path()),
                ..quick_config()
            };
            {
                let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 9 });
                let mut trainer = Trainer::new(
                    model.as_ref(),
                    &train,
                    &dmat,
                    Metric::Dtw,
                    MetricParams::default(),
                    Box::new(RankSampler),
                    cfg.clone(),
                    None,
                )
                .with_step_limit(7); // dies mid-epoch, off checkpoint cadence
                trainer.train();
                assert_eq!(trainer.steps(), 7);
            }
            // Fresh process: new model, new trainer, resume from disk.
            let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 12345 });
            let mut trainer = Trainer::new(
                model.as_ref(),
                &train,
                &dmat,
                Metric::Dtw,
                MetricParams::default(),
                Box::new(RankSampler),
                cfg,
                None,
            );
            trainer.resume_latest().unwrap();
            assert_eq!(trainer.steps(), 6, "resumes from the step-6 checkpoint");
            trainer.train();
            model.params().fingerprint()
        };
        assert_eq!(run_full(), run_interrupted(), "resumed run diverged from uninterrupted run");
    }

    #[test]
    fn sub_cache_fills_and_is_symmetric() {
        let train = toy_set(8);
        let dmat = DistanceMatrix::compute(&train, Metric::Dtw, &MetricParams::default(), 1);
        let model = ModelKind::Tmn.build(&ModelConfig { dim: 8, seed: 4 });
        let mut trainer = Trainer::new(
            model.as_ref(),
            &train,
            &dmat,
            Metric::Dtw,
            MetricParams::default(),
            Box::new(RankSampler),
            quick_config(),
            None,
        );
        let v1 = trainer.sub_targets(1, 3);
        let v2 = trainer.sub_targets(3, 1);
        assert_eq!(v1, v2, "sub-target cache must be symmetric");
        assert!(!v1.is_empty());
        assert!(trainer.sub_cache.len() == 1);
    }
}
