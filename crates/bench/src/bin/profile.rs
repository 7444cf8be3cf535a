//! Op-level profiling run: a short TMN train + eval cycle with the
//! `tmn-obs` profiler enabled, reporting where the wall-clock time goes.
//!
//! Usage:
//!   `cargo run -p tmn-bench --release --bin profile [--quick|--full]`
//!   `cargo run -p tmn-bench --release --bin profile -- --check`
//!   `cargo run -p tmn-bench --release --bin profile -- --nodes`
//!
//! The default mode trains for a few epochs (threads=1 so op time and wall
//! time are directly comparable), runs a top-k search, and emits:
//!
//! - `results/PROFILE_ops.json` — per-op `{name, kind, calls, total_ns,
//!   flops, mean_ns, gflops}` records for the training and eval sections,
//!   the training coverage fraction (instrumented ns / wall ns), and the
//!   eval embed/index/rank phase breakdown;
//! - `results/PROFILE_telemetry.jsonl` — the training run's per-batch and
//!   per-epoch telemetry stream;
//! - a human-readable top-K table on stdout.
//!
//! `--check` re-reads both files and validates their schema, that training
//! coverage is ≥95%, and that every forward/backward record's name is
//! registered in `tmn_autograd::INSTRUMENTED_OPS` (CI smoke).
//!
//! `--nodes` builds each recurrent layer once and asserts the fused path
//! stays within its graph-node budget of ≤3 nodes per time step — the
//! regression gate for the time-major RNN fusion.

use std::time::Instant;
use tmn::prelude::*;
use tmn_bench::{write_json, Scale, Table};
use tmn_eval::{time_search_phases_detailed, SearchPhases};
use tmn_obs::{metrics, profiler, BatchTelemetry, EpochTelemetry, MetricsSnapshot, OpRecord, TelemetrySink};

const OPS_PATH: &str = "results/PROFILE_ops.json";
const TELEMETRY_PATH: &str = "results/PROFILE_telemetry.jsonl";
const TOP_K: usize = 12;

#[derive(serde::Serialize, serde::Deserialize)]
struct TrainSection {
    wall_s: f64,
    epochs: usize,
    pairs: usize,
    /// Nanoseconds attributed to instrumented ops/phases (disjoint scopes).
    instrumented_ns: u64,
    /// `instrumented_ns` over training wall time.
    coverage: f64,
    ops: Vec<OpRecord>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct EvalSection {
    phases: SearchPhases,
    ops: Vec<OpRecord>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Report {
    scale: String,
    dim: usize,
    train_trajectories: usize,
    queries: usize,
    telemetry_path: String,
    train: TrainSection,
    eval: EvalSection,
    /// Serving/training metrics registry at end of run: `queries_total`,
    /// `query_*_ns` latency histograms (p50/p90/p95/p99), per-batch
    /// trainer gauges. Same payload `tmn_obs::export::to_prometheus` serves.
    metrics: MetricsSnapshot,
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        match check() {
            Ok(summary) => println!("profile check OK: {summary}"),
            Err(e) => {
                eprintln!("profile check FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if std::env::args().any(|a| a == "--nodes") {
        match check_node_budget() {
            Ok(summary) => println!("node budget OK: {summary}"),
            Err(e) => {
                eprintln!("node budget FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    run();
}

/// Assert the fused recurrent layers stay within ≤3 graph nodes per time
/// step. Run by `scripts/ci.sh` so a change that quietly reintroduces
/// per-step op chains (select/matmul/slice/... ≈ 16 nodes/step) fails
/// loudly instead of only showing up as a slow profile.
fn check_node_budget() -> Result<String, String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tmn_autograd::nn::{Gru, Lstm, ParamSet, Recurrent};
    use tmn_autograd::Tensor;

    const T: usize = 32;
    const BUDGET_PER_STEP: u64 = 3;
    let x = Tensor::from_vec((0..2 * T * 6).map(|i| (i as f32 * 0.13).sin()).collect(), &[2, T, 6]);

    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(7);
    let layers: Vec<(&str, Box<dyn Recurrent>)> = vec![
        ("lstm", Box::new(Lstm::new(&mut ps, "lstm", 6, 8, &mut rng))),
        ("gru", Box::new(Gru::new(&mut ps, "gru", 6, 8, &mut rng))),
    ];
    let budget = BUDGET_PER_STEP * T as u64;
    let mut parts = Vec::new();
    for (name, layer) in &layers {
        let before = Tensor::scalar(0.0).id();
        let out = layer.forward_seq(&x);
        let nodes = out.id() - before - 1;
        if nodes > budget {
            return Err(format!(
                "{name}: {nodes} graph nodes for {T} steps, budget {budget}"
            ));
        }
        parts.push(format!("{name} {nodes}/{budget}"));
    }
    Ok(format!("{} ({T} steps)", parts.join(", ")))
}

fn run() {
    let scale = Scale::from_args();
    let size = scale.dataset_size();
    let dim = scale.dim();
    let epochs = scale.epochs().min(3);
    let queries: Vec<usize> = (0..scale.queries().min(8)).collect();
    eprintln!("profile run — scale {} ({size} trajectories, dim {dim}, {epochs} epochs)", scale.name());

    let ds = Dataset::generate(&DatasetConfig::new(DatasetKind::PortoLike, size, 42));
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let dmat = ds.train_distance_matrix(Metric::Dtw, &MetricParams::default(), host_cores);

    let mcfg = ModelConfig { dim, seed: 42 };
    let model = ModelKind::Tmn.build(&mcfg);
    // threads=1: all instrumented work happens on this thread, so summed op
    // time is directly comparable to the training wall clock.
    let cfg = TrainConfig { epochs, batch_pairs: 64, threads: 1, ..Default::default() };
    let sink = TelemetrySink::to_file(TELEMETRY_PATH).expect("create telemetry file");
    let mut trainer = Trainer::new(
        model.as_ref(),
        &ds.train,
        &dmat,
        Metric::Dtw,
        MetricParams::default(),
        Box::new(RankSampler),
        cfg,
        None,
    )
    .with_telemetry(sink);

    profiler::set_enabled(true);
    profiler::reset();
    metrics::set_enabled(true);
    metrics::reset();
    let t0 = Instant::now();
    let stats = trainer.train();
    let train_wall = t0.elapsed();
    let train_ops = profiler::snapshot();
    let instrumented_ns = profiler::total_ns();
    let coverage = instrumented_ns as f64 / train_wall.as_nanos().max(1) as f64;

    profiler::reset();
    let (phases, _, _) = time_search_phases_detailed(model.as_ref(), &ds.train, &queries, 10, 32);
    let eval_ops = profiler::snapshot();
    profiler::set_enabled(false);

    let wall_ns = train_wall.as_nanos() as u64;
    let mut table = Table::new(&["Op", "Kind", "Calls", "Total ms", "% wall", "Mean ns", "GFLOP/s"]);
    // The snapshot is (name, kind)-sorted for stable JSON diffs; the human
    // table wants the expensive rows first.
    let mut by_time: Vec<&OpRecord> = train_ops.iter().collect();
    by_time.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| a.name.cmp(&b.name)));
    for r in by_time.iter().take(TOP_K) {
        table.row(&[
            r.name.clone(),
            r.kind.clone(),
            r.calls.to_string(),
            format!("{:.2}", r.total_ns as f64 / 1e6),
            format!("{:.1}%", 100.0 * r.total_ns as f64 / wall_ns.max(1) as f64),
            format!("{:.0}", r.mean_ns),
            if r.flops > 0 { format!("{:.2}", r.gflops) } else { "-".to_string() },
        ]);
    }
    println!("\nTraining: top {TOP_K} ops by total time ({:.2} s wall, {:.1}% instrumented)", train_wall.as_secs_f64(), 100.0 * coverage);
    table.print();
    let (fe, fi, fr) = phases.fractions();
    println!(
        "\nEval search ({} queries): embed {:.1}% | index {:.1}% | rank {:.1}% of {:.3} s",
        phases.queries,
        100.0 * fe,
        100.0 * fi,
        100.0 * fr,
        phases.total_s()
    );
    let metrics_snap = metrics::snapshot();
    for h in &metrics_snap.histograms {
        if h.name.starts_with("query_") {
            println!(
                "{}: n={} p50 {:.1}µs p95 {:.1}µs p99 {:.1}µs max {:.1}µs",
                h.name,
                h.count,
                h.p50_ns as f64 / 1e3,
                h.p95_ns as f64 / 1e3,
                h.p99_ns as f64 / 1e3,
                h.max_ns as f64 / 1e3,
            );
        }
    }

    let report = Report {
        scale: scale.name().to_string(),
        dim,
        train_trajectories: ds.train.len(),
        queries: queries.len(),
        telemetry_path: TELEMETRY_PATH.to_string(),
        train: TrainSection {
            wall_s: train_wall.as_secs_f64(),
            epochs: stats.epochs.len(),
            pairs: stats.epochs.iter().map(|e| e.pairs).sum(),
            instrumented_ns,
            coverage,
            ops: train_ops,
        },
        eval: EvalSection { phases, ops: eval_ops },
        metrics: metrics_snap,
    };
    write_json("PROFILE_ops", &report).expect("write results");
}

/// Validate the emitted artifacts (used by `scripts/ci.sh` as a smoke test).
fn check() -> Result<String, String> {
    let text = std::fs::read_to_string(OPS_PATH).map_err(|e| format!("read {OPS_PATH}: {e}"))?;
    let report: Report =
        serde_json::from_str(&text).map_err(|e| format!("parse {OPS_PATH}: {e}"))?;

    if report.train.ops.is_empty() {
        return Err("no training op records".into());
    }
    for r in report.train.ops.iter().chain(&report.eval.ops) {
        if r.calls == 0 {
            return Err(format!("op {} has zero calls", r.name));
        }
        if !matches!(r.kind.as_str(), "forward" | "backward" | "phase") {
            return Err(format!("op {} has unknown kind {:?}", r.name, r.kind));
        }
        // Every tensor op must be in the autograd FLOP-estimator registry;
        // phases (trainer.*, optim.*, ...) are exempt by kind.
        if r.kind != "phase" && !tmn_autograd::INSTRUMENTED_OPS.contains(&r.name.as_str()) {
            return Err(format!("op {} not registered in INSTRUMENTED_OPS", r.name));
        }
        let expect_mean = if r.calls == 0 { 0.0 } else { r.total_ns as f64 / r.calls as f64 };
        if (r.mean_ns - expect_mean).abs() > 1e-6 * expect_mean.max(1.0) {
            return Err(format!("op {}: mean_ns {} inconsistent with counters", r.name, r.mean_ns));
        }
    }
    for kind in ["forward", "backward"] {
        if !report.train.ops.iter().any(|r| r.kind == kind && r.flops > 0) {
            return Err(format!("no {kind} record with a FLOP estimate"));
        }
    }
    // Fused ops shrank uninstrumented graph bookkeeping to a sliver; hold
    // that line. (>1.0 is possible only through timer jitter; cap loosely.)
    if !(report.train.coverage >= 0.95 && report.train.coverage < 1.5) {
        return Err(format!(
            "training coverage {:.3} below the 0.95 floor",
            report.train.coverage
        ));
    }
    if report.train.wall_s <= 0.0 || report.eval.phases.total_s() <= 0.0 {
        return Err("non-positive wall times".into());
    }

    check_metrics(&report)?;

    let telemetry = std::fs::read_to_string(&report.telemetry_path)
        .map_err(|e| format!("read {}: {e}", report.telemetry_path))?;
    let (mut batches, mut epochs) = (0usize, 0usize);
    for line in telemetry.lines().filter(|l| !l.is_empty()) {
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("bad telemetry line: {e}"))?;
        match v.get_field("record") {
            Some(serde_json::Value::Str(s)) if s == "batch" => {
                serde_json::from_str::<BatchTelemetry>(line)
                    .map_err(|e| format!("bad batch record: {e}"))?;
                batches += 1;
            }
            Some(serde_json::Value::Str(s)) if s == "epoch" => {
                serde_json::from_str::<EpochTelemetry>(line)
                    .map_err(|e| format!("bad epoch record: {e}"))?;
                epochs += 1;
            }
            other => return Err(format!("unknown telemetry discriminator {other:?}")),
        }
    }
    if epochs != report.train.epochs || batches == 0 {
        return Err(format!(
            "telemetry mismatch: {epochs} epoch records (expected {}), {batches} batch records",
            report.train.epochs
        ));
    }
    Ok(format!(
        "{} train ops, coverage {:.1}%, {batches} batch + {epochs} epoch telemetry records, \
         {} metrics histograms",
        report.train.ops.len(),
        100.0 * report.train.coverage,
        report.metrics.histograms.len()
    ))
}

/// Schema + invariant validation of the embedded metrics registry snapshot
/// (typed deserialization already happened; this checks the contents).
fn check_metrics(report: &Report) -> Result<(), String> {
    let m = &report.metrics;
    let queries = report.queries as u64;
    let total = m
        .counter(tmn_eval::QUERIES_TOTAL)
        .ok_or_else(|| format!("metrics: missing {} counter", tmn_eval::QUERIES_TOTAL))?;
    if total < queries {
        return Err(format!("metrics: queries_total {total} below report.queries {queries}"));
    }
    // TMN is pair-dependent: per-query embed + rank histograms, no index.
    for name in [tmn_eval::QUERY_EMBED_NS, tmn_eval::QUERY_RANK_NS] {
        let h = m.histogram(name).ok_or_else(|| format!("metrics: missing {name} histogram"))?;
        if h.count < queries {
            return Err(format!("metrics: {name} count {} below {queries} queries", h.count));
        }
        if !(h.min_ns <= h.p50_ns
            && h.p50_ns <= h.p90_ns
            && h.p90_ns <= h.p95_ns
            && h.p95_ns <= h.p99_ns
            && h.p99_ns <= h.max_ns)
        {
            return Err(format!("metrics: {name} quantiles not monotone"));
        }
        let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
        if bucket_total != h.count {
            return Err(format!(
                "metrics: {name} bucket counts sum to {bucket_total}, expected {}",
                h.count
            ));
        }
        if h.sum_ns < h.max_ns || h.sum_ns > h.count.saturating_mul(h.max_ns) {
            return Err(format!("metrics: {name} sum_ns {} outside [max, count*max]", h.sum_ns));
        }
    }
    let batches = m
        .counter(tmn_core::TRAIN_BATCHES_TOTAL)
        .ok_or_else(|| format!("metrics: missing {} counter", tmn_core::TRAIN_BATCHES_TOTAL))?;
    if batches == 0 {
        return Err("metrics: zero training batches recorded".into());
    }
    let bh = m
        .histogram(tmn_core::TRAIN_BATCH_NS)
        .ok_or_else(|| format!("metrics: missing {} histogram", tmn_core::TRAIN_BATCH_NS))?;
    if bh.count != batches {
        return Err(format!(
            "metrics: {} count {} != {} batch counter {batches}",
            tmn_core::TRAIN_BATCH_NS,
            bh.count,
            tmn_core::TRAIN_BATCHES_TOTAL
        ));
    }
    if m.gauge(tmn_core::TRAIN_BATCH_WALL_MS).is_none() {
        return Err(format!("metrics: missing {} gauge", tmn_core::TRAIN_BATCH_WALL_MS));
    }
    // The Prometheus rendering of the same snapshot must expose the
    // serving histograms (exporter smoke).
    let prom = tmn_obs::export::to_prometheus(m);
    for series in ["tmn_query_embed_ns_bucket{le=\"+Inf\"}", "tmn_queries_total", "tmn_train_batch_ns_count"] {
        if !prom.contains(series) {
            return Err(format!("metrics: prometheus export missing {series}"));
        }
    }
    Ok(())
}
