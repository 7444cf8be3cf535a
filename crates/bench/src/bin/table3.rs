//! Table III — efficiency study on the Porto-like dataset: exact distance
//! computation vs learning-based models (training s/epoch, per-trajectory
//! inference, per-pair similarity computation).
//!
//! Usage: `cargo run -p tmn-bench --release --bin table3 [--quick|--full]`

use std::time::Instant;
use tmn::prelude::*;
use tmn_bench::{time_inference_split, write_json, Ctx, Scale, Table};
use tmn_eval::{time_embedding_distance, time_exact_pairwise_counted, EfficiencyRow};

fn main() {
    let scale = Scale::from_args();
    // Exact pairwise over a sample of trajectories (the paper samples 1,000).
    let n_exact = match scale {
        Scale::Quick => 100,
        Scale::Default => 300,
        Scale::Full => 1000,
    };
    let mut ctx = Ctx::new();
    let ds = ctx.dataset(DatasetKind::PortoLike, scale.dataset_size(), 42);
    let params = MetricParams::default();

    eprintln!("Table III reproduction — scale {} (exact over {n_exact} trajectories)", scale.name());
    let mut rows: Vec<EfficiencyRow> = Vec::new();

    // Exact metrics: Fréchet, DTW, ERP as in the paper's Table III.
    let exact_sample: Vec<Trajectory> = ds
        .test
        .iter()
        .cycle()
        .take(n_exact)
        .cloned()
        .collect();
    for metric in [Metric::Frechet, Metric::Dtw, Metric::Erp] {
        // Counted timing hands back the denominator, so the per-pair mean
        // in `computation_s` needs no re-derived n*(n-1)/2.
        let (secs, pairs) = time_exact_pairwise_counted(&exact_sample, metric, &params);
        eprintln!("  exact {metric}: {secs:.2}s for all pairwise ({pairs} pairs)");
        rows.push(EfficiencyRow {
            method: metric.name().to_string(),
            training_s: None,
            inference_s: None,
            inference_graphed_s: None,
            computation_s: secs / pairs.max(1) as f64,
            computation_ops: Some(pairs),
        });
    }

    // Learning-based models: SRN, NeuTraj, T3S, TMN as in the paper.
    let dmat = ds.train_distance_matrix(Metric::Dtw, &params, 2);
    let per_pair = time_embedding_distance(scale.dim() * 4, 10_000);
    for kind in [ModelKind::Srn, ModelKind::NeuTraj, ModelKind::T3s, ModelKind::Tmn] {
        let model = kind.build(&ModelConfig { dim: scale.dim(), seed: 42 });
        let cfg = TrainConfig { epochs: 1, use_sub_loss: kind.uses_sub_loss(), ..Default::default() };
        let mut trainer = Trainer::new(
            model.as_ref(),
            &ds.train,
            &dmat,
            Metric::Dtw,
            params,
            Box::new(RankSampler),
            cfg,
            None,
        );
        let t0 = Instant::now();
        trainer.train_epoch(0);
        let train_s = t0.elapsed().as_secs_f64();
        // Inference: TMN's representations are pair-dependent, so encoding a
        // trajectory costs a full pair forward (the paper's 0.072 s vs
        // 0.00059 s asymmetry); for the others one siamese pass amortizes.
        // Both forwards are timed: the tape-free serving path is the model's
        // real cost, the graphed pass shows the autograd overhead that older
        // revisions folded into a single conflated number.
        let split =
            time_inference_split(model.as_ref(), &ds.test[..50.min(ds.test.len())], 16);
        let n = split.trajectories.max(1) as f64;
        let (infer_s, infer_graphed_s) = (split.nograd_s / n, split.graphed_s / n);
        eprintln!(
            "  {kind}: train {train_s:.2}s/epoch, inference {infer_s:.6}s/traj \
             (graphed {infer_graphed_s:.6}s, {n} trajs)"
        );
        rows.push(EfficiencyRow {
            method: kind.name().to_string(),
            training_s: Some(train_s),
            inference_s: Some(infer_s),
            inference_graphed_s: Some(infer_graphed_s),
            computation_s: per_pair,
            computation_ops: Some(10_000),
        });
    }

    let mut table =
        Table::new(&["Method", "Training(s)", "Inference(s)", "Infer-graphed(s)", "Computation(s)"]);
    for r in &rows {
        table.row(&[
            r.method.clone(),
            r.training_s.map(|v| format!("{v:.2}")).unwrap_or_else(|| "/".into()),
            r.inference_s.map(|v| format!("{v:.6}")).unwrap_or_else(|| "/".into()),
            r.inference_graphed_s.map(|v| format!("{v:.6}")).unwrap_or_else(|| "/".into()),
            format!("{:.2e}", r.computation_s),
        ]);
    }
    println!();
    table.print();
    write_json("table3", &rows).expect("write results");
}
