//! Sample statistics and the per-run report: the `workload metric value
//! unit` lines, the output checks, and the one-line JSON result.

use serde_json::Value;

/// Latency samples of one kind of operation, in microseconds.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len().max(1) as f64
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}

/// Quartiles by Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match the ones a reviewer
/// computes from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Operations a workload issued to the program and how many returned an
/// error. Errors are counted, never unwrapped.
#[derive(Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    /// Count one operation; `Some` on success.
    pub fn record<T, E: std::fmt::Debug>(&mut self, res: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("# operation failed: {e:?}");
                }
                self.failed += 1;
                None
            }
        }
    }
}

/// One workload run's result.
pub struct Report {
    workload: &'static str,
    correct: bool,
    pub counts: Counts,
    /// The metrics of the JSON result line, in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            correct: true,
            counts: Counts::default(),
            metrics: Vec::new(),
        }
    }

    /// A metric of the JSON result (end-to-end with `--trace 0`, per-layer
    /// with `--trace 1`), also printed as a line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info(name, value, unit);
        if !value.is_finite() {
            self.check(name, false, format!("{value} is not a finite number"));
        }
        self.metrics.push((name, value, unit));
    }

    /// A printed line only: context for a reader, not part of the result.
    pub fn info(&self, name: &str, value: f64, unit: &str) {
        println!("{} {name} {value:.6} {unit}", self.workload);
    }

    /// An output check. A failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        eprintln!(
            "# check {} {name}: {} ({detail})",
            self.workload,
            if ok { "ok" } else { "FAILED" }
        );
        self.correct &= ok;
    }

    pub fn is_correct(&self) -> bool {
        self.correct
    }

    /// The JSON result line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Map(entry))
            })
            .collect();
        let out = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                Value::Int(self.counts.attempted.max(1) as i128),
            ),
            ("failed".to_string(), Value::Int(self.counts.failed as i128)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&out).expect("a Value tree always renders")
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(f64::from(x));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
    }
}
