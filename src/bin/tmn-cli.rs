//! `tmn-cli` — train, encode and search trajectory similarity models from
//! the command line.
//!
//! ```text
//! tmn-cli generate --kind porto --count 300 --seed 7 --out data.csv
//! tmn-cli train    --data data.csv --metric dtw --model tmn --dim 32 \
//!                  --epochs 8 --out model
//! tmn-cli search   --data data.csv --model model --query 0 --k 10
//! tmn-cli eval     --data data.csv --model model --queries 50
//! ```
//!
//! `train` writes `<out>.meta.json` (model kind, dimension, metric,
//! normalizer, split ratio) and `<out>.weights` (binary checkpoint); the
//! other commands read both. `encode` writes the CRC-framed `TMNS`
//! embeddings file that `EmbeddingStore::open_mmap` reads.

use std::collections::HashMap;
use std::process::ExitCode;
use tmn::prelude::*;
use tmn::core::{load_params, save_params};

#[derive(serde::Serialize, serde::Deserialize)]
struct ModelMeta {
    kind: String,
    dim: usize,
    seed: u64,
    metric: String,
    train_ratio: f64,
    normalizer: Normalizer,
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                out.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                out.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

fn model_kind(name: &str) -> Result<ModelKind, String> {
    match name.to_lowercase().as_str() {
        "srn" => Ok(ModelKind::Srn),
        "neutraj" => Ok(ModelKind::NeuTraj),
        "t3s" => Ok(ModelKind::T3s),
        "traj2simvec" => Ok(ModelKind::Traj2SimVec),
        "tmn-nm" | "tmnnm" => Ok(ModelKind::TmnNm),
        "tmn" => Ok(ModelKind::Tmn),
        other => Err(format!("unknown model {other}")),
    }
}

fn load_data(flags: &HashMap<String, String>) -> Result<Vec<Trajectory>, String> {
    let path = flags.get("data").ok_or("--data <file.csv|file.jsonl> is required")?;
    tmn::data::io::load_path(path).map_err(|e| e.to_string())
}

fn load_model(flags: &HashMap<String, String>) -> Result<(Box<dyn PairModel>, ModelMeta), String> {
    let base = flags.get("model").ok_or("--model <path-prefix> is required")?;
    let meta: ModelMeta = serde_json::from_str(
        &std::fs::read_to_string(format!("{base}.meta.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let kind = model_kind(&meta.kind)?;
    let model = kind.build(&ModelConfig { dim: meta.dim, seed: meta.seed });
    let weights = std::fs::read(format!("{base}.weights")).map_err(|e| e.to_string())?;
    load_params(model.params(), &weights).map_err(|e| e.to_string())?;
    Ok((model, meta))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = match flags.get("kind").map(|s| s.as_str()).unwrap_or("porto") {
        "porto" => DatasetKind::PortoLike,
        "geolife" => DatasetKind::GeolifeLike,
        other => return Err(format!("unknown dataset kind {other} (porto|geolife)")),
    };
    let count: usize = flags.get("count").map(|s| s.parse()).transpose().map_err(|e| format!("{e}"))?.unwrap_or(300);
    let seed: u64 = flags.get("seed").map(|s| s.parse()).transpose().map_err(|e| format!("{e}"))?.unwrap_or(7);
    let out = flags.get("out").ok_or("--out <file.csv> is required")?;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let trajs = kind.generate(&GenConfig { count, ..Default::default() }, &mut rng);
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    tmn::data::io::write_csv(file, &trajs).map_err(|e| e.to_string())?;
    println!("wrote {count} {} trajectories to {out}", kind.name());
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let raw = load_data(flags)?;
    let metric: Metric = flags.get("metric").map(|s| s.as_str()).unwrap_or("dtw").parse()?;
    let kind = model_kind(flags.get("model").map(|s| s.as_str()).unwrap_or("tmn"))?;
    let dim: usize = flags.get("dim").and_then(|s| s.parse().ok()).unwrap_or(32);
    let epochs: usize = flags.get("epochs").and_then(|s| s.parse().ok()).unwrap_or(8);
    let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42);
    let train_ratio: f64 = flags.get("train-ratio").and_then(|s| s.parse().ok()).unwrap_or(0.2);
    if !(0.0..=1.0).contains(&train_ratio) {
        return Err(format!("--train-ratio must be in [0, 1], got {train_ratio}"));
    }
    let out = flags.get("out").ok_or("--out <path-prefix> is required")?;

    let kept = filter(raw, &FilterConfig::default());
    if kept.len() < 10 {
        return Err(format!("only {} trajectories after filtering; need at least 10", kept.len()));
    }
    let normalizer = Normalizer::fit(&kept);
    let normalized = normalizer.transform_all(&kept);
    let (train, _) = train_test_split(&normalized, train_ratio);
    if train.len() < 2 {
        return Err(format!(
            "--train-ratio {train_ratio} leaves {} training trajectories; need at least 2",
            train.len()
        ));
    }
    println!("training {} on {} trajectories under {metric} (d={dim}, {epochs} epochs)...", kind.name(), train.len());
    let params = MetricParams::default();
    let dmat = DistanceMatrix::compute(&train, metric, &params, 2);
    let model = kind.build(&ModelConfig { dim, seed });
    let cfg = TrainConfig { epochs, use_sub_loss: kind.uses_sub_loss(), ..Default::default() };
    let sampler: Box<dyn Sampler> = if kind.uses_kd_sampling() {
        Box::new(KdSampler::build(&train, 10))
    } else {
        Box::new(RankSampler)
    };
    let mut trainer = Trainer::new(model.as_ref(), &train, &dmat, metric, params, sampler, cfg, None);
    let stats = trainer.train();
    for e in &stats.epochs {
        println!("  epoch {}: loss {:.5} ({:.1}s)", e.epoch, e.loss, e.seconds);
    }

    let meta = ModelMeta {
        kind: kind.name().to_string(),
        dim,
        seed,
        metric: metric.name().to_string(),
        train_ratio,
        normalizer,
    };
    std::fs::write(format!("{out}.meta.json"), serde_json::to_string_pretty(&meta).unwrap())
        .map_err(|e| e.to_string())?;
    std::fs::write(format!("{out}.weights"), save_params(model.params()))
        .map_err(|e| e.to_string())?;
    println!("saved {out}.meta.json and {out}.weights");
    Ok(())
}

/// Normalize + test-split the data file the same way training did.
fn test_partition(meta: &ModelMeta, raw: Vec<Trajectory>) -> Vec<Trajectory> {
    let kept = filter(raw, &FilterConfig::default());
    let normalized = meta.normalizer.transform_all(&kept);
    let (_, test) = train_test_split(&normalized, meta.train_ratio);
    test
}

fn cmd_encode(flags: &HashMap<String, String>) -> Result<(), String> {
    let (model, meta) = load_model(flags)?;
    if model.is_pair_dependent() {
        return Err("TMN representations are pair-dependent; encode works for \
                    independent encoders (tmn-nm, srn, neutraj, t3s, traj2simvec)"
            .into());
    }
    let test = test_partition(&meta, load_data(flags)?);
    let out = flags.get("out").ok_or("--out <file.emb> is required")?;
    let embeddings = encode_all(model.as_ref(), &test, 64);
    let store = tmn::eval::EmbeddingStore::from_vectors(&embeddings);
    store.save(std::path::Path::new(out)).map_err(|e| e.to_string())?;
    println!("encoded {} trajectories (d={}) into {out}", store.len(), store.dim());
    Ok(())
}

fn cmd_search(flags: &HashMap<String, String>) -> Result<(), String> {
    let (model, meta) = load_model(flags)?;
    let test = test_partition(&meta, load_data(flags)?);
    let query: usize = flags.get("query").and_then(|s| s.parse().ok()).unwrap_or(0);
    let k: usize = flags.get("k").and_then(|s| s.parse().ok()).unwrap_or(10);
    if query >= test.len() {
        return Err(format!("query {query} out of range ({} test trajectories)", test.len()));
    }
    let rows = predicted_distance_rows(model.as_ref(), &test, &[query], 64);
    let top = top_k_indices(&rows[0], k, query);
    println!("learned top-{k} similar to test trajectory {query} under {}:", meta.metric);
    for (rank, &i) in top.iter().enumerate() {
        println!("  {}. #{i} (predicted embedding distance {:.4})", rank + 1, rows[0][i]);
    }
    Ok(())
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let (model, meta) = load_model(flags)?;
    let test = test_partition(&meta, load_data(flags)?);
    if test.is_empty() {
        let ratio = meta.train_ratio;
        return Err(format!("no test trajectories (model trained at --train-ratio {ratio})"));
    }
    let metric: Metric = meta.metric.parse()?;
    let nq: usize = flags.get("queries").and_then(|s| s.parse().ok()).unwrap_or(50);
    let queries: Vec<usize> = (0..nq.min(test.len())).collect();
    println!("evaluating {} queries against exact {metric}...", queries.len());
    let pred = predicted_distance_rows(model.as_ref(), &test, &queries, 64);
    let dmat = DistanceMatrix::compute(&test, metric, &MetricParams::default(), 2);
    let truth: Vec<Vec<f64>> = queries.iter().map(|&q| dmat.row(q).to_vec()).collect();
    println!("{}", evaluate(&pred, &truth, &queries));
    Ok(())
}

const USAGE: &str = "usage: tmn-cli <generate|train|encode|search|eval> [--flags]
  generate --kind porto|geolife --count N --seed S --out data.csv
  train    --data data.csv --metric dtw|frechet|hausdorff|erp|edr|lcss
           --model tmn|tmn-nm|srn|neutraj|t3s|traj2simvec
           [--dim 32] [--epochs 8] [--seed 42] [--train-ratio 0.2] --out model
  encode   --data data.csv --model model --out embeddings.emb   (TMNS embeddings file)
  search   --data data.csv --model model [--query 0] [--k 10]
  eval     --data data.csv --model model [--queries 50]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "encode" => cmd_encode(&flags),
        "search" => cmd_search(&flags),
        "eval" => cmd_eval(&flags),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
