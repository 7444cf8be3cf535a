//! Shared experiment runner: builds datasets and ground truth (cached per
//! process), trains a model under one metric, and evaluates the top-k
//! search protocol.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use tmn::prelude::*;

/// Experiment scale. `Quick` is CI-sized; `Full` approaches the paper's
/// relative proportions within a CPU budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Default,
    Full,
}

impl Scale {
    /// Parse from argv: `--quick` / `--full`, default otherwise.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Total trajectories per dataset (20% train).
    pub fn dataset_size(&self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Default => 300,
            Scale::Full => 700,
        }
    }

    pub fn epochs(&self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Default => 8,
            Scale::Full => 12,
        }
    }

    pub fn dim(&self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Default => 32,
            Scale::Full => 48,
        }
    }

    pub fn queries(&self) -> usize {
        match self {
            Scale::Quick => 25,
            Scale::Default => 50,
            Scale::Full => 80,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// Which sampling strategy trains the model (Table IV ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// TMN's random-rank sampling (Section IV-C).
    Rank,
    /// Traj2SimVec's k-d-tree sampling.
    Kd,
}

/// One (dataset, metric, model, recipe) training + evaluation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub dataset: DatasetKind,
    pub dataset_size: usize,
    pub metric: Metric,
    pub model: ModelKind,
    pub dim: usize,
    pub train: TrainConfig,
    pub sampler: SamplerKind,
    pub queries: usize,
    pub seed: u64,
}

impl RunSpec {
    /// Standard spec for a model under the paper's recipe at a scale:
    /// sub-loss and sampler follow the model's published training recipe.
    pub fn standard(dataset: DatasetKind, metric: Metric, model: ModelKind, scale: Scale) -> RunSpec {
        let train = TrainConfig {
            epochs: scale.epochs(),
            use_sub_loss: model.uses_sub_loss(),
            ..Default::default()
        };
        RunSpec {
            dataset,
            dataset_size: scale.dataset_size(),
            metric,
            model,
            dim: scale.dim(),
            train,
            sampler: if model.uses_kd_sampling() { SamplerKind::Kd } else { SamplerKind::Rank },
            queries: scale.queries(),
            seed: 42,
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunResult {
    pub dataset: String,
    pub metric: String,
    pub model: String,
    pub sampler: String,
    pub eval: Evaluation,
    pub final_loss: f32,
    pub train_seconds_per_epoch: f64,
    pub eval_seconds: f64,
}

/// Per-process cache of datasets and ground-truth matrices so a table
/// binary computes each (dataset, metric) ground truth once.
#[derive(Default)]
pub struct Ctx {
    datasets: HashMap<(DatasetKind, usize, u64), Rc<Dataset>>,
    train_dmats: HashMap<(DatasetKind, usize, u64, Metric), Rc<DistanceMatrix>>,
    test_dmats: HashMap<(DatasetKind, usize, u64, Metric), Rc<DistanceMatrix>>,
    pub threads: usize,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx { threads: 2, ..Default::default() }
    }

    pub fn dataset(&mut self, kind: DatasetKind, size: usize, seed: u64) -> Rc<Dataset> {
        self.datasets
            .entry((kind, size, seed))
            .or_insert_with(|| Rc::new(Dataset::generate(&DatasetConfig::new(kind, size, seed))))
            .clone()
    }

    fn dmat(
        &mut self,
        kind: DatasetKind,
        size: usize,
        seed: u64,
        metric: Metric,
        test: bool,
    ) -> Rc<DistanceMatrix> {
        let ds = self.dataset(kind, size, seed);
        let threads = self.threads;
        let map = if test { &mut self.test_dmats } else { &mut self.train_dmats };
        map.entry((kind, size, seed, metric))
            .or_insert_with(|| {
                let params = MetricParams::default();
                let m = if test {
                    ds.test_distance_matrix(metric, &params, threads)
                } else {
                    ds.train_distance_matrix(metric, &params, threads)
                };
                Rc::new(m)
            })
            .clone()
    }

    /// Run one spec end-to-end: train, then evaluate top-k search.
    pub fn run(&mut self, spec: &RunSpec) -> RunResult {
        let ds = self.dataset(spec.dataset, spec.dataset_size, spec.seed);
        let train_dmat = self.dmat(spec.dataset, spec.dataset_size, spec.seed, spec.metric, false);
        let test_dmat = self.dmat(spec.dataset, spec.dataset_size, spec.seed, spec.metric, true);
        let params = MetricParams::default();

        let model = spec.model.build(&ModelConfig { dim: spec.dim, seed: spec.seed });
        let sampler: Box<dyn Sampler> = match spec.sampler {
            SamplerKind::Rank => Box::new(RankSampler),
            SamplerKind::Kd => Box::new(KdSampler::build(&ds.train, 10)),
        };
        let mut trainer = Trainer::new(
            model.as_ref(),
            &ds.train,
            &*train_dmat,
            spec.metric,
            params,
            sampler,
            spec.train.clone(),
            None,
        )
        .with_replicas(spec.model, ModelConfig { dim: spec.dim, seed: spec.seed });
        let stats = trainer.train();

        let nq = spec.queries.min(ds.test.len());
        let queries: Vec<usize> = (0..nq).collect();
        let t_eval = Instant::now();
        let pred = predicted_distance_rows(model.as_ref(), &ds.test, &queries, 64);
        let truth: Vec<Vec<f64>> = queries.iter().map(|&q| test_dmat.row(q).to_vec()).collect();
        let eval = evaluate(&pred, &truth, &queries);
        RunResult {
            dataset: ds.name.to_string(),
            metric: spec.metric.name().to_string(),
            model: spec.model.name().to_string(),
            sampler: match spec.sampler {
                SamplerKind::Rank => "rank".to_string(),
                SamplerKind::Kd => "kdtree".to_string(),
            },
            eval,
            final_loss: stats.final_loss(),
            train_seconds_per_epoch: stats.seconds_per_epoch(),
            eval_seconds: t_eval.elapsed().as_secs_f64(),
        }
    }
}

/// Per-trajectory inference wall clock, split by forward implementation.
#[derive(Debug, Clone, Copy)]
pub struct InferenceTimings {
    /// Total seconds for the tape-free serving path (`encode_all`).
    pub nograd_s: f64,
    /// Total seconds for the graphed autograd forward under `no_grad`.
    pub graphed_s: f64,
    /// Trajectories encoded by each pass.
    pub trajectories: u64,
}

impl InferenceTimings {
    /// Graphed-over-fast ratio — the autograd overhead factor.
    pub fn speedup(&self) -> f64 {
        self.graphed_s / self.nograd_s.max(1e-12)
    }
}

/// Time both forward implementations over the same self-paired chunks so
/// Table III can report model cost (tape-free) and autograd overhead
/// (graphed: the training forward under `no_grad`, last valid step
/// gathered) as separate numbers.
pub fn time_inference_split(
    model: &dyn PairModel,
    trajs: &[Trajectory],
    batch_size: usize,
) -> InferenceTimings {
    let start = Instant::now();
    let emb = encode_all(model, trajs, batch_size);
    std::hint::black_box(&emb);
    let nograd_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    no_grad(|| {
        for chunk in trajs.chunks(batch_size) {
            let refs: Vec<&Trajectory> = chunk.iter().collect();
            let batch = PairBatch::build(&refs, &refs);
            let enc = model.encode_pairs(&batch);
            std::hint::black_box(ops::gather_time(&enc.out_a, &batch.a.last_idx).to_vec());
        }
    });
    let graphed_s = start.elapsed().as_secs_f64();
    InferenceTimings {
        nograd_s,
        graphed_s,
        trajectories: trajs.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults() {
        // from_args reads real argv; just check the table values.
        assert!(Scale::Quick.dataset_size() < Scale::Full.dataset_size());
        assert!(Scale::Quick.epochs() < Scale::Full.epochs());
    }

    #[test]
    fn standard_spec_follows_recipes() {
        let s = RunSpec::standard(DatasetKind::PortoLike, Metric::Dtw, ModelKind::Traj2SimVec, Scale::Quick);
        assert_eq!(s.sampler, SamplerKind::Kd);
        assert!(s.train.use_sub_loss);
        let s2 = RunSpec::standard(DatasetKind::PortoLike, Metric::Dtw, ModelKind::Srn, Scale::Quick);
        assert_eq!(s2.sampler, SamplerKind::Rank);
        assert!(!s2.train.use_sub_loss);
    }

    #[test]
    fn ctx_caches_datasets() {
        let mut ctx = Ctx::new();
        let a = ctx.dataset(DatasetKind::PortoLike, 40, 1);
        let b = ctx.dataset(DatasetKind::PortoLike, 40, 1);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn inference_split_reports_both_paths() {
        let model = ModelKind::Srn.build(&ModelConfig { dim: 8, seed: 1 });
        let trajs: Vec<Trajectory> = (0..6)
            .map(|i| {
                (0..10)
                    .map(|t| Point::new(0.01 * t as f64, 0.05 * i as f64))
                    .collect()
            })
            .collect();
        let t = time_inference_split(model.as_ref(), &trajs, 3);
        assert!(t.nograd_s > 0.0 && t.graphed_s > 0.0);
        assert_eq!(t.trajectories, 6);
        assert!(t.speedup().is_finite() && t.speedup() > 0.0);
    }

    #[test]
    fn tiny_run_produces_finite_metrics() {
        let mut ctx = Ctx::new();
        let mut spec =
            RunSpec::standard(DatasetKind::PortoLike, Metric::Hausdorff, ModelKind::Srn, Scale::Quick);
        spec.dataset_size = 60;
        spec.train.epochs = 1;
        spec.queries = 5;
        let r = ctx.run(&spec);
        assert!(r.final_loss.is_finite());
        assert!((0.0..=1.0).contains(&r.eval.hr10));
        assert!((0.0..=1.0).contains(&r.eval.r10_50));
    }
}
