//! `tmnbench`: the repository benchmark. Five workloads of the TMN system:
//! ad-hoc and cached similarity queries, streamed appends, training, and
//! exact ground truth.
//!
//! With `--workload NAME` it runs that workload in this process, prints one
//! `workload metric value unit` line per metric, and ends its standard
//! output with one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones, or per-layer ones with `--trace 1`). Without
//! `--workload` it runs every workload `--runs` times, each run in a fresh
//! child process with seeds `seed, seed+1, ...` and alternating workload
//! order, then prints the median and quartiles of every metric and flags
//! spreads wider than the metric's bound in `BENCHMARK.json`.
//!
//! Run it from the repository root:
//! `cargo run --release --manifest-path tmnbench/Cargo.toml -- --seed 42`

mod affinity;
mod probes;
mod report;
mod workloads;

use report::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::{Opts, WORKLOADS};

const USAGE: &str = "usage: tmnbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--runs N] [--out NAME]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad(&a.seconds.to_string()));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                a.runs = value()
                    .and_then(|v| v.parse::<usize>().map_err(|_| bad(&v)))?
                    .max(1)
            }
            "--out" => {
                let name = value()?;
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c))
                {
                    return Err(bad(&name));
                }
                a.out = Some(name);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tmnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let Some(report) = workloads::run(name, &opts) else {
        eprintln!(
            "tmnbench: unknown workload {name:?}; one of {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{}", report.to_json());
    if report.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's result: its seed, the parsed JSON line, and whether it
/// exited cleanly with correct outputs.
struct ChildRun {
    seed: u64,
    ok: bool,
    result: Value,
}

fn run_child(workload: &str, seed: u64, args: &Args) -> ChildRun {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .output();
    let Ok(output) = output else {
        eprintln!("tmnbench: could not start the {workload} child");
        return ChildRun {
            seed,
            ok: false,
            result: Value::Null,
        };
    };
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = serde_json::from_str::<Value>(last).unwrap_or(Value::Null);
    let correct = matches!(result.get_field("correct"), Some(Value::Bool(true)));
    ChildRun {
        seed,
        ok: output.status.success() && correct,
        result,
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// `(name, value, unit)` of every metric in one child's JSON line.
fn child_metrics(result: &Value) -> Vec<(String, f64, String)> {
    let Some(Value::Map(entries)) = result.get_field("metrics") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|(name, m)| {
            let unit = match m.get_field("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            Some((name.clone(), number(m.get_field("value"))?, unit))
        })
        .collect()
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn read_bounds() -> BTreeMap<String, f64> {
    let mut bounds = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return bounds;
    };
    if let Ok(v) = serde_json::from_str::<Value>(&text) {
        if let Some(Value::Seq(metrics)) = v.get_field("end_to_end") {
            for m in metrics {
                if let (Some(Value::Str(name)), Some(b)) =
                    (m.get_field("name"), number(m.get_field("bound")))
                {
                    bounds.insert(name.clone(), b);
                }
            }
        }
    }
    bounds
}

fn run_all(args: &Args) -> ExitCode {
    let mut runs: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    for r in 0..args.runs {
        let seed = args.seed + r as u64;
        let mut order = WORKLOADS.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            runs.entry(w).or_default().push(run_child(w, seed, args));
        }
    }

    let bounds = read_bounds();
    let mut all_ok = true;
    let mut summary = Vec::new();
    println!(
        "# {} run(s) per workload, seeds {}..{}",
        args.runs,
        args.seed,
        args.seed + args.runs as u64 - 1
    );
    for w in WORKLOADS {
        let child = &runs[w];
        let failed: Vec<u64> = child.iter().filter(|c| !c.ok).map(|c| c.seed).collect();
        if !failed.is_empty() {
            println!("# {w}: runs with seeds {failed:?} failed or gave incorrect outputs");
            all_ok = false;
        }
        let mut per_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
        for c in child {
            for (name, value, unit) in child_metrics(&c.result) {
                match per_metric.iter_mut().find(|(n, _, _)| *n == name) {
                    Some(entry) => entry.2.push(value),
                    None => per_metric.push((name, unit, vec![value])),
                }
            }
        }
        let mut metrics = Vec::new();
        for (name, unit, values) in per_metric {
            let (q1, median, q3) = quartiles(&values);
            let spread = (q3 - q1) / median.abs();
            let bound = bounds.get(&name).copied();
            let flag = match bound {
                Some(b) if spread > b => " SPREAD-OVER-BOUND",
                _ => "",
            };
            let bound_text = bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
            println!(
                "{w} {name} {median:.6} {unit}  q1 {q1:.6} q3 {q3:.6} spread {:.2}% bound {bound_text} n {}{flag}",
                spread * 100.0,
                values.len()
            );
            let mut m = vec![
                ("unit".to_string(), Value::Str(unit)),
                ("median".to_string(), Value::Float(median)),
                ("q1".to_string(), Value::Float(q1)),
                ("q3".to_string(), Value::Float(q3)),
                ("spread".to_string(), Value::Float(spread)),
            ];
            if let Some(b) = bound {
                m.push(("bound".to_string(), Value::Float(b)));
            }
            metrics.push((name, Value::Map(m)));
        }
        let seeds = child.iter().map(|c| Value::Int(c.seed as i128)).collect();
        let results = child.iter().map(|c| c.result.clone()).collect();
        summary.push((
            w.to_string(),
            Value::Map(vec![
                ("seeds".to_string(), Value::Seq(seeds)),
                ("metrics".to_string(), Value::Map(metrics)),
                ("runs".to_string(), Value::Seq(results)),
            ]),
        ));
    }

    if let Some(name) = &args.out {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = Value::Map(vec![
            ("seed".to_string(), Value::Int(args.seed as i128)),
            ("runs".to_string(), Value::Int(args.runs as i128)),
            ("seconds".to_string(), Value::Float(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
            (
                "available_parallelism".to_string(),
                Value::Int(cores as i128),
            ),
            ("workloads".to_string(), Value::Map(summary)),
        ]);
        let path = std::path::Path::new("tmnbench/results").join(format!("{name}.json"));
        let written = std::fs::create_dir_all("tmnbench/results").and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&doc).expect("a Value tree always renders"),
            )
        });
        match written {
            Ok(()) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("tmnbench: cannot write {}: {e}", path.display());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
