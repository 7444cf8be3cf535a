//! Perf regression gate over two results JSON files.
//!
//! Flattens the numeric leaves of a base and a head file (e.g. two
//! `results/BENCH_throughput.json` captures from different commits) into
//! dotted paths, classifies each metric's improvement direction from its
//! name, applies a noise threshold (default ±5 %, per-metric overrides),
//! prints a markdown delta table, and exits nonzero when any gated metric
//! regressed beyond its threshold or is missing from the head file (a
//! measurement that disappears must not pass as "no regression").
//! Informational keys may come and go.
//!
//! ```text
//! bench_diff <base.json> <head.json> [--threshold 0.05] [--metric SUBSTR=FRAC]...
//! bench_diff --self-check <file.json> [--threshold 0.05]
//! ```
//!
//! Direction heuristics (on the leaf name):
//! - higher-better: `*per_sec`, `*gflops`, `*speedup`, `*throughput`,
//!   `*qps*`, `hr*`/`recall*`/`r10*`, `coverage`, `*_mb_s` (bandwidth —
//!   matched before the `_s` duration suffix would misread it as a time)
//! - lower-better: `*_ns*` (including percentile leaves like `embed_ns_p99`),
//!   `*_ms`, `*_s`, `*seconds`, `*wall*`, `*latency*`, `*_bytes`/`*bytes`,
//!   `*time*`, `*imbalance*` (max/mean shard occupancy: 1.0 is perfect,
//!   growth is skew)
//! - anything else is informational: reported, never gated (strings such as
//!   `simd_dispatch` never reach classification — only numeric leaves do),
//!   and so is every leaf under a histogram's `buckets[..]` list.
//!
//! `--self-check FILE` is the CI smoke: FILE diffed against itself must
//! pass (exit 0 path), and against a synthetically perturbed copy (every
//! gated metric worsened by 3× its threshold) must fail — proving the gate
//! can actually fire before anyone trusts it.

use serde::Value;
use std::process::ExitCode;

/// Improvement direction of one metric, derived from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherBetter,
    LowerBetter,
    Info,
}

fn classify(path: &str) -> Direction {
    // A histogram snapshot lists only its non-empty buckets, so
    // `buckets[i]` is a different bucket from one run to the next: its
    // bounds are layout, not a measurement, and must neither gate nor
    // count as a gated metric that went missing. The percentiles gate.
    if path.contains(".buckets[") {
        return Direction::Info;
    }
    let leaf = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
    // Exemplar fields ride along with histogram snapshots but carry one
    // arbitrary traced observation plus its trace id — not aggregates, so
    // they must never gate (decided first: `exemplar_ns` would otherwise
    // match the `_ns` latency rule below).
    if leaf.contains("exemplar") || leaf.ends_with("_id") {
        return Direction::Info;
    }
    const HIGHER: &[&str] = &["per_sec", "gflops", "speedup", "throughput", "coverage", "qps"];
    if HIGHER.iter().any(|t| leaf.contains(t))
        || leaf.starts_with("hr")
        || leaf.starts_with("recall")
        || leaf.starts_with("r10")
    {
        return Direction::HigherBetter;
    }
    // Bandwidth leaves (`build_mb_s`, `scan_mb_s`, ...) are higher-better
    // and MUST be decided before the `_s` duration suffix below, which
    // would otherwise gate a throughput gain as a latency regression.
    if leaf.ends_with("_mb_s") {
        return Direction::HigherBetter;
    }
    const LOWER_SUFFIX: &[&str] = &["_ns", "_ms", "_s", "_bytes"];
    // `_ns` appears as a substring too so percentile leaves (`embed_ns_p99`)
    // gate as latencies even though they don't *end* with the unit.
    // `overhead` covers `trace.overhead_pct`: instrumentation cost gates
    // downward like a latency.
    const LOWER_SUBSTR: &[&str] =
        &["seconds", "wall", "latency", "bytes", "time", "_ns", "imbalance", "overhead"];
    if LOWER_SUFFIX.iter().any(|t| leaf.ends_with(t))
        || LOWER_SUBSTR.iter().any(|t| leaf.contains(t))
    {
        return Direction::LowerBetter;
    }
    Direction::Info
}

/// Flatten every numeric leaf of a JSON value into `(dotted.path, f64)`.
fn flatten(value: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Int(i) => out.push((prefix.to_string(), *i as f64)),
        Value::Float(f) => {
            if f.is_finite() {
                out.push((prefix.to_string(), *f));
            }
        }
        Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, &format!("{prefix}[{i}]"), out);
            }
        }
        Value::Map(entries) => {
            for (k, v) in entries {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(v, &path, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Per-metric threshold overrides: first substring match wins.
struct Thresholds {
    default: f64,
    overrides: Vec<(String, f64)>,
}

impl Thresholds {
    fn for_metric(&self, path: &str) -> f64 {
        self.overrides
            .iter()
            .find(|(substr, _)| path.contains(substr.as_str()))
            .map(|&(_, frac)| frac)
            .unwrap_or(self.default)
    }
}

#[derive(Debug, PartialEq)]
struct DiffRow {
    path: String,
    base: f64,
    head: f64,
    /// Relative delta (head-base)/|base|; None when base == 0.
    delta: Option<f64>,
    direction: Direction,
    threshold: f64,
    regressed: bool,
}

/// Diff two flattened metric maps. Only keys present in both are compared;
/// added/removed keys are reported separately by the caller, and a removed
/// gated key fails the diff.
fn diff_metrics(
    base: &[(String, f64)],
    head: &[(String, f64)],
    thresholds: &Thresholds,
) -> Vec<DiffRow> {
    let head_map: std::collections::HashMap<&str, f64> =
        head.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut rows = Vec::new();
    for (path, base_v) in base {
        let Some(&head_v) = head_map.get(path.as_str()) else { continue };
        let direction = classify(path);
        let threshold = thresholds.for_metric(path);
        let delta = (*base_v != 0.0).then(|| (head_v - base_v) / base_v.abs());
        let regressed = match (direction, delta) {
            (Direction::HigherBetter, Some(d)) => d < -threshold,
            (Direction::LowerBetter, Some(d)) => d > threshold,
            _ => false,
        };
        rows.push(DiffRow { path: path.clone(), base: *base_v, head: head_v, delta, direction, threshold, regressed });
    }
    rows
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() >= 1e4 || (v != 0.0 && v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.5}")
    }
}

/// Render the markdown delta table. `verbose` includes unchanged metrics;
/// otherwise only changed or regressed rows appear.
fn markdown_table(rows: &[DiffRow], verbose: bool) -> String {
    let mut out = String::new();
    out.push_str("| metric | base | head | Δ% | gate | status |\n");
    out.push_str("|---|---:|---:|---:|---:|---|\n");
    for r in rows {
        let changed = r.delta.map(|d| d.abs() > 1e-12).unwrap_or(r.base != r.head);
        if !verbose && !changed && !r.regressed {
            continue;
        }
        let delta = match r.delta {
            Some(d) => format!("{:+.2}%", d * 100.0),
            None => "n/a".to_string(),
        };
        let gate = match r.direction {
            Direction::HigherBetter => format!("≥ -{:.0}%", r.threshold * 100.0),
            Direction::LowerBetter => format!("≤ +{:.0}%", r.threshold * 100.0),
            Direction::Info => "info".to_string(),
        };
        let status = if r.regressed { "**REGRESSED**" } else { "ok" };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.path,
            fmt_value(r.base),
            fmt_value(r.head),
            delta,
            gate,
            status
        ));
    }
    out
}

fn load_flat(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    let mut flat = Vec::new();
    flatten(&value, "", &mut flat);
    Ok(flat)
}

/// Worsen every gated metric by `factor × threshold` — the synthetic
/// regression used by `--self-check`.
fn perturb(base: &[(String, f64)], thresholds: &Thresholds, factor: f64) -> Vec<(String, f64)> {
    base.iter()
        .map(|(path, v)| {
            let scale = 1.0 + factor * thresholds.for_metric(path);
            let v = match classify(path) {
                Direction::HigherBetter => v / scale,
                Direction::LowerBetter => v * scale,
                Direction::Info => *v,
            };
            (path.clone(), v)
        })
        .collect()
}

fn run_diff(base: &str, head: &str, thresholds: &Thresholds, verbose: bool) -> Result<bool, String> {
    let base_flat = load_flat(base)?;
    let head_flat = load_flat(head)?;
    let rows = diff_metrics(&base_flat, &head_flat, thresholds);

    let base_keys: std::collections::HashSet<&str> =
        base_flat.iter().map(|(k, _)| k.as_str()).collect();
    let head_keys: std::collections::HashSet<&str> =
        head_flat.iter().map(|(k, _)| k.as_str()).collect();
    let removed: Vec<&&str> = base_keys.difference(&head_keys).collect();
    let added: Vec<&&str> = head_keys.difference(&base_keys).collect();

    println!("## bench_diff: `{base}` → `{head}`\n");
    println!("{}", markdown_table(&rows, verbose));
    let regressions: Vec<&DiffRow> = rows.iter().filter(|r| r.regressed).collect();
    println!(
        "{} metrics compared, {} gated, {} regressed, {} added, {} removed",
        rows.len(),
        rows.iter().filter(|r| r.direction != Direction::Info).count(),
        regressions.len(),
        added.len(),
        removed.len()
    );
    if !removed.is_empty() {
        println!("removed (present only in base): {removed:?}");
    }
    // An unmeasured field is written as `null` (or left out), which
    // `flatten` skips: a gated metric of base that head lacks is a
    // measurement that stopped being taken, not "no regression".
    let missing: Vec<&str> = base_flat
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !head_keys.contains(k) && classify(k) != Direction::Info)
        .collect();
    for path in &missing {
        eprintln!("MISSING: gated metric {path} is not in {head}");
    }
    for r in &regressions {
        eprintln!(
            "REGRESSION: {} {} → {} ({:+.2}% vs ±{:.0}% gate)",
            r.path,
            fmt_value(r.base),
            fmt_value(r.head),
            r.delta.unwrap_or(0.0) * 100.0,
            r.threshold * 100.0
        );
    }
    Ok(regressions.is_empty() && missing.is_empty())
}

/// The CI smoke: the file against itself must pass, and against a
/// perturbed copy (every gated metric worsened 3× its threshold) must fail.
fn self_check(path: &str, thresholds: &Thresholds) -> Result<(), String> {
    let flat = load_flat(path)?;
    let gated = flat.iter().filter(|(k, _)| classify(k) != Direction::Info).count();
    if gated == 0 {
        return Err(format!("{path} has no gated metrics — the gate would be vacuous"));
    }

    let identity = diff_metrics(&flat, &flat, thresholds);
    if let Some(r) = identity.iter().find(|r| r.regressed) {
        return Err(format!("self-comparison flagged {} — identity must never regress", r.path));
    }

    let worsened = perturb(&flat, thresholds, 3.0);
    let perturbed = diff_metrics(&flat, &worsened, thresholds);
    let caught = perturbed.iter().filter(|r| r.regressed).count();
    if caught == 0 {
        return Err(format!(
            "perturbed copy of {path} raised no regression — the gate cannot fire"
        ));
    }
    println!(
        "self-check ok: {path} — identity clean over {} metrics, perturbation caught {caught}/{gated} gated",
        identity.len()
    );
    Ok(())
}

fn usage() -> String {
    "usage: bench_diff <base.json> <head.json> [--threshold FRAC] [--metric SUBSTR=FRAC]... [--all]\n       bench_diff --self-check <file.json> [--threshold FRAC]".to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut thresholds = Thresholds { default: 0.05, overrides: Vec::new() };
    let mut self_check_mode = false;
    let mut verbose = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--self-check" => self_check_mode = true,
            "--all" => verbose = true,
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(frac) if frac > 0.0 => thresholds.default = frac,
                _ => {
                    eprintln!("--threshold needs a positive fraction\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--metric" => {
                let Some((substr, frac)) = it
                    .next()
                    .and_then(|v| v.split_once('='))
                    .and_then(|(s, f)| f.parse::<f64>().ok().map(|f| (s.to_string(), f)))
                else {
                    eprintln!("--metric needs SUBSTR=FRAC\n{}", usage());
                    return ExitCode::from(2);
                };
                thresholds.overrides.push((substr, frac));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }

    if self_check_mode {
        let [file] = files.as_slice() else {
            eprintln!("--self-check takes exactly one file\n{}", usage());
            return ExitCode::from(2);
        };
        return match self_check(file, &thresholds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let [base, head] = files.as_slice() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match run_diff(base, head, &thresholds, verbose) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn default_thresholds() -> Thresholds {
        Thresholds { default: 0.05, overrides: Vec::new() }
    }

    #[test]
    fn classification_heuristics() {
        assert_eq!(classify("training[0].steps_per_sec"), Direction::HigherBetter);
        assert_eq!(classify("kernels[2].blocked_gflops"), Direction::HigherBetter);
        assert_eq!(classify("eval.hr10"), Direction::HigherBetter);
        assert_eq!(classify("train.coverage"), Direction::HigherBetter);
        assert_eq!(classify("infer.infer_qps"), Direction::HigherBetter);
        assert_eq!(classify("infer.nograd_speedup"), Direction::HigherBetter);
        assert_eq!(classify("metrics.histograms[0].p99_ns"), Direction::LowerBetter);
        assert_eq!(classify("infer.embed_ns_p50"), Direction::LowerBetter);
        assert_eq!(classify("infer.embed_ns_p99"), Direction::LowerBetter);
        assert_eq!(classify("infer.index_bytes"), Direction::LowerBetter);
        assert_eq!(classify("train.wall_s"), Direction::LowerBetter);
        assert_eq!(classify("phases.embed_s"), Direction::LowerBetter);
        assert_eq!(classify("gauges[0].train_peak_bytes"), Direction::LowerBetter);
        assert_eq!(classify("host_cores"), Direction::Info);
        assert_eq!(classify("dim"), Direction::Info);
    }

    #[test]
    fn serve_section_classification() {
        // The serving block of BENCH_throughput.json gates in the intended
        // directions: throughputs up, latencies and skew down, shape info.
        assert_eq!(classify("serve.insert_qps"), Direction::HigherBetter);
        assert_eq!(classify("serve.batch_qps"), Direction::HigherBetter);
        assert_eq!(classify("serve.query_p50_ns"), Direction::LowerBetter);
        assert_eq!(classify("serve.query_p99_ns"), Direction::LowerBetter);
        assert_eq!(classify("serve.shard_imbalance"), Direction::LowerBetter);
        assert_eq!(classify("serve.shards"), Direction::Info);
        assert_eq!(classify("serve.corpus"), Direction::Info);
        // Gauges exported through the metrics snapshot classify the same way.
        assert_eq!(classify("metrics.gauges[0].shard_imbalance"), Direction::LowerBetter);
        assert_eq!(classify("metrics.gauges[1].serve_batch_size"), Direction::Info);
    }

    #[test]
    fn stream_section_classification() {
        // The streaming block: append throughput up, append latency down,
        // shape/workload leaves informational. `reindex_ratio` in
        // particular must never gate — it tracks how the workload's
        // embedding drift interacts with `reembed_min_delta`, and either
        // direction can be the healthy one.
        assert_eq!(classify("stream.appends_per_sec"), Direction::HigherBetter);
        assert_eq!(classify("stream.append_ns_p50"), Direction::LowerBetter);
        assert_eq!(classify("stream.append_ns_p99"), Direction::LowerBetter);
        assert_eq!(classify("stream.reindex_ratio"), Direction::Info);
        assert_eq!(classify("stream.streams"), Direction::Info);
        assert_eq!(classify("stream.appends"), Direction::Info);
        // The engine counters exported through the metrics snapshot stay
        // informational too (they scale with the workload, not the code).
        assert_eq!(classify("metrics.counters[0].stream_appends_total"), Direction::Info);
        assert_eq!(classify("metrics.counters[1].stream_reindex_total"), Direction::Info);
        // But the append-latency histogram percentiles gate as latencies.
        assert_eq!(classify("metrics.histograms[0].append_ns_p99"), Direction::LowerBetter);
    }

    #[test]
    fn trace_section_classification() {
        // The tracing block: both qps passes gate upward, the measured
        // overhead gates downward, and the descriptive leaves stay
        // informational.
        assert_eq!(classify("trace.trace_off_qps"), Direction::HigherBetter);
        assert_eq!(classify("trace.trace_on_qps"), Direction::HigherBetter);
        assert_eq!(classify("trace.overhead_pct"), Direction::LowerBetter);
        assert_eq!(classify("trace.traced_queries"), Direction::Info);
        assert_eq!(classify("trace.spans_per_query"), Direction::Info);
        assert_eq!(classify("trace.flight_captured"), Direction::Info);
    }

    #[test]
    fn queue_metrics_classification() {
        // Queue depth is workload shape (how bursty the callers were),
        // never a gate; queue-wait percentiles are real latencies.
        assert_eq!(classify("metrics.gauges[0].serve_queue_depth"), Direction::Info);
        assert_eq!(classify("metrics.histograms[0].serve_queue_wait_ns_p99"), Direction::LowerBetter);
        assert_eq!(classify("metrics.histograms[0].serve_queue_wait_ns_p50"), Direction::LowerBetter);
    }

    #[test]
    fn exemplar_fields_never_gate() {
        // One arbitrary traced observation + its trace id ride along with
        // every histogram snapshot; comparing them across runs would gate
        // pure noise.
        assert_eq!(classify("metrics.histograms[0].exemplar_ns"), Direction::Info);
        assert_eq!(classify("metrics.histograms[0].exemplar_trace_id"), Direction::Info);
    }

    #[test]
    fn histogram_bucket_bounds_never_gate() {
        // Index-keyed buckets of two runs are unrelated buckets.
        assert_eq!(classify("metrics.histograms[1].buckets[42].lo_ns"), Direction::Info);
        assert_eq!(classify("metrics.histograms[1].buckets[42].hi_ns"), Direction::Info);
        assert_eq!(classify("metrics.histograms[1].buckets[42].count"), Direction::Info);
        assert_eq!(classify("metrics.histograms[1].p99_ns"), Direction::LowerBetter);
    }

    #[test]
    fn stream_metrics_gate_in_their_classified_directions() {
        let thresholds = default_thresholds();
        // A 20% append-throughput drop and a 20% p99 growth both fire…
        let base = flat(&[
            ("stream.appends_per_sec", 1000.0),
            ("stream.append_ns_p99", 50_000.0),
            ("stream.reindex_ratio", 0.8),
        ]);
        let head = flat(&[
            ("stream.appends_per_sec", 800.0),
            ("stream.append_ns_p99", 60_000.0),
            ("stream.reindex_ratio", 0.2),
        ]);
        let rows = diff_metrics(&base, &head, &thresholds);
        assert!(rows[0].regressed, "append throughput drop must gate");
        assert!(rows[1].regressed, "append p99 growth must gate");
        // …while even a large reindex-ratio swing never does.
        assert!(!rows[2].regressed, "reindex_ratio is informational");
    }

    #[test]
    fn store_section_classification() {
        // The data-plane block: bandwidth up, sizes/latencies/walls down.
        // `_mb_s` must win over the `_s` duration suffix — a faster build
        // is an improvement, not a latency regression.
        assert_eq!(classify("store.build_mb_s"), Direction::HigherBetter);
        assert_eq!(classify("store.scan_mb_s"), Direction::HigherBetter);
        assert_eq!(classify("store.file_bytes"), Direction::LowerBetter);
        assert_eq!(classify("store.gt_blocked_peak_bytes"), Direction::LowerBetter);
        assert_eq!(classify("store.mmap_open_ns"), Direction::LowerBetter);
        assert_eq!(classify("store.gt_blocked_wall_s"), Direction::LowerBetter);
        assert_eq!(classify("store.eval_qps"), Direction::HigherBetter);
        assert_eq!(classify("store.hr10"), Direction::HigherBetter);
        assert_eq!(classify("store.corpus_n"), Direction::Info);
        assert_eq!(classify("store.tile"), Direction::Info);
    }

    #[test]
    fn bandwidth_regressions_gate_in_the_higher_better_direction() {
        // A drop in MB/s must fire the gate; under the (buggy) `_s` reading
        // a drop would look like an improvement and pass silently.
        let base = flat(&[("store.build_mb_s", 100.0)]);
        let head = flat(&[("store.build_mb_s", 80.0)]);
        let rows = diff_metrics(&base, &head, &default_thresholds());
        assert!(rows.iter().any(|r| r.regressed), "20% bandwidth loss must gate");
        // And a gain must NOT fire.
        let head = flat(&[("store.build_mb_s", 130.0)]);
        let rows = diff_metrics(&base, &head, &default_thresholds());
        assert!(rows.iter().all(|r| !r.regressed), "bandwidth gain fired the gate");
        // Byte-size leaves gate lower-better: growth fires.
        let base = flat(&[("store.file_bytes", 1000.0)]);
        let head = flat(&[("store.file_bytes", 1200.0)]);
        let rows = diff_metrics(&base, &head, &default_thresholds());
        assert!(rows.iter().any(|r| r.regressed), "file growth must gate");
    }

    #[test]
    fn five_percent_regression_fires_and_noise_does_not() {
        let base = flat(&[("rank_latency_ns", 100.0), ("steps_per_sec", 10.0)]);
        // +4% latency, -4% throughput: inside the ±5% gate.
        let noisy = flat(&[("rank_latency_ns", 104.0), ("steps_per_sec", 9.6)]);
        let rows = diff_metrics(&base, &noisy, &default_thresholds());
        assert!(rows.iter().all(|r| !r.regressed), "noise within threshold must pass");

        // +6% latency: beyond the gate.
        let slow = flat(&[("rank_latency_ns", 106.0), ("steps_per_sec", 10.0)]);
        let rows = diff_metrics(&base, &slow, &default_thresholds());
        assert!(rows.iter().any(|r| r.regressed), ">=5% latency regression must fire");

        // -6% throughput: beyond the gate in the other direction.
        let slower = flat(&[("rank_latency_ns", 100.0), ("steps_per_sec", 9.4)]);
        let rows = diff_metrics(&base, &slower, &default_thresholds());
        assert!(rows.iter().any(|r| r.regressed), ">=5% throughput drop must fire");

        // Improvements never fire.
        let faster = flat(&[("rank_latency_ns", 50.0), ("steps_per_sec", 20.0)]);
        let rows = diff_metrics(&base, &faster, &default_thresholds());
        assert!(rows.iter().all(|r| !r.regressed), "improvements must never regress");
    }

    #[test]
    fn per_metric_override_wins_over_default() {
        let thresholds = Thresholds {
            default: 0.05,
            overrides: vec![("rank_latency".to_string(), 0.50)],
        };
        let base = flat(&[("rank_latency_ns", 100.0)]);
        let head = flat(&[("rank_latency_ns", 130.0)]);
        let rows = diff_metrics(&base, &head, &thresholds);
        assert!(!rows[0].regressed, "+30% must pass under a 50% override");
        let head = flat(&[("rank_latency_ns", 160.0)]);
        let rows = diff_metrics(&base, &head, &thresholds);
        assert!(rows[0].regressed, "+60% must fail even under a 50% override");
    }

    #[test]
    fn info_metrics_and_zero_bases_never_gate() {
        let base = flat(&[("host_cores", 1.0), ("train.wall_s", 0.0)]);
        let head = flat(&[("host_cores", 64.0), ("train.wall_s", 5.0)]);
        let rows = diff_metrics(&base, &head, &default_thresholds());
        assert!(rows.iter().all(|r| !r.regressed));
        assert_eq!(rows[1].delta, None, "zero base has no relative delta");
    }

    #[test]
    fn flatten_walks_nested_maps_and_seqs() {
        let json = r#"{"a": {"b_ms": 3}, "rows": [{"x_ns": 1.5}, {"x_ns": 2.5}], "s": "skip", "n": null}"#;
        let value = serde_json::from_str(json).unwrap();
        let mut out = Vec::new();
        flatten(&value, "", &mut out);
        assert_eq!(
            out,
            flat(&[("a.b_ms", 3.0), ("rows[0].x_ns", 1.5), ("rows[1].x_ns", 2.5)])
        );
    }

    #[test]
    fn perturbation_always_caught_by_own_gate() {
        let thresholds = default_thresholds();
        let base = flat(&[
            ("train.wall_s", 2.5),
            ("training[0].steps_per_sec", 12.0),
            ("metrics.histograms[0].p95_ns", 40_000.0),
            ("host_cores", 4.0),
        ]);
        let worsened = perturb(&base, &thresholds, 3.0);
        let rows = diff_metrics(&base, &worsened, &thresholds);
        let gated = rows.iter().filter(|r| r.direction != Direction::Info).count();
        let caught = rows.iter().filter(|r| r.regressed).count();
        assert_eq!(caught, gated, "every gated metric worsened 3x threshold must fire");
        assert!(rows.iter().filter(|r| r.direction == Direction::Info).all(|r| !r.regressed));
    }

    #[test]
    fn a_gated_metric_missing_from_head_fails_the_diff() {
        let dir = std::env::temp_dir().join(format!("bench-diff-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, json: &str| {
            let path = dir.join(name);
            std::fs::write(&path, json).unwrap();
            path.to_string_lossy().into_owned()
        };
        let base = write(
            "base.json",
            r#"{"store": {"peak_bytes": 100, "tile": 256}, "qps": 10}"#,
        );
        let unmeasured = write(
            "unmeasured.json",
            r#"{"store": {"peak_bytes": null}, "qps": 10}"#,
        );
        let no_info = write(
            "no_info.json",
            r#"{"store": {"peak_bytes": 100}, "qps": 10}"#,
        );
        let t = default_thresholds();
        assert_eq!(run_diff(&base, &base, &t, false), Ok(true));
        // An unmeasured field is written as null: a gated metric went missing.
        assert_eq!(run_diff(&base, &unmeasured, &t, false), Ok(false));
        // Informational keys (`tile`) may disappear.
        assert_eq!(run_diff(&base, &no_info, &t, false), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn markdown_table_shape() {
        let base = flat(&[("a_ns", 100.0), ("b_ns", 100.0)]);
        let head = flat(&[("a_ns", 120.0), ("b_ns", 100.0)]);
        let rows = diff_metrics(&base, &head, &default_thresholds());
        let md = markdown_table(&rows, false);
        assert!(md.starts_with("| metric | base | head |"));
        assert!(md.contains("| a_ns | 100 | 120 | +20.00% | ≤ +5% | **REGRESSED** |"));
        assert!(!md.contains("| b_ns |"), "unchanged rows hidden without --all");
        let md_all = markdown_table(&rows, true);
        assert!(md_all.contains("| b_ns |"), "--all shows unchanged rows");
    }
}
