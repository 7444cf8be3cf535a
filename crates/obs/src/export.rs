//! Exporters for [`crate::metrics`] snapshots: Prometheus text exposition
//! format and a JSON document (the latter is what `results/*.json` embeds).
//!
//! ## Prometheus naming conventions
//!
//! - Every metric is prefixed `tmn_`; characters outside `[a-zA-Z0-9_:]`
//!   are replaced with `_`.
//! - Every series is preceded by `# HELP` and `# TYPE` comment lines, so
//!   the output lints cleanly under `promtool check metrics`. HELP text is
//!   generic (`"<kind> exported by tmn-obs"`) — the registry keys metrics by
//!   bare name, and per-metric prose lives in rustdoc, not the registry.
//! - Counters get a `_total` suffix (appended if the registry name lacks
//!   one), per Prometheus convention.
//! - Histograms keep their unit suffix in the base name (`..._ns`) and
//!   expand to the standard `_bucket{le="..."}` / `_sum` / `_count` series.
//!   Registry buckets are half-open `[lo, hi)` over integer nanoseconds, so
//!   the inclusive Prometheus bound is `le = hi - 1`; a final
//!   `le="+Inf"` bucket always equals `_count`.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Map a registry name to a Prometheus metric name: `tmn_` prefix plus
/// character sanitization.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    if !name.starts_with("tmn_") {
        out.push_str("tmn_");
    }
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn counter_name(name: &str) -> String {
    let base = prometheus_name(name);
    if base.ends_with("_total") {
        base
    } else {
        base + "_total"
    }
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    let base = prometheus_name(&h.name);
    let _ = writeln!(out, "# HELP {base} latency histogram exported by tmn-obs");
    let _ = writeln!(out, "# TYPE {base} histogram");
    let mut cum = 0u64;
    for b in &h.buckets {
        cum += b.count;
        if b.hi_ns == u64::MAX {
            // Overflow bucket: no finite inclusive bound below +Inf.
            continue;
        }
        let _ = writeln!(out, "{base}_bucket{{le=\"{}\"}} {cum}", b.hi_ns - 1);
    }
    let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{base}_sum {}", h.sum_ns);
    let _ = writeln!(out, "{base}_count {}", h.count);
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = counter_name(&c.name);
        let _ = writeln!(out, "# HELP {name} counter exported by tmn-obs");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snap.gauges {
        let name = prometheus_name(&g.name);
        let _ = writeln!(out, "# HELP {name} gauge exported by tmn-obs");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for h in &snap.histograms {
        write_histogram(&mut out, h);
    }
    out
}

/// Render a snapshot as a pretty-printed JSON document.
pub fn to_json(snap: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(snap).expect("metrics snapshot serializes infallibly")
}

/// Parse a JSON document produced by [`to_json`] (or any `metrics` section
/// embedded in a results file).
pub fn from_json(s: &str) -> Result<MetricsSnapshot, String> {
    let value = serde_json::from_str(s).map_err(|e| format!("metrics json parse: {e:?}"))?;
    serde::Deserialize::from_value(&value).map_err(|e| format!("metrics json shape: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        BucketSnapshot, CounterSnapshot, GaugeSnapshot, Histogram, MetricsSnapshot,
    };

    fn sample_snapshot() -> MetricsSnapshot {
        let mut h = Histogram::new();
        for v in [10u64, 20, 300, 5000, 5000, 1 << 45] {
            h.observe(v);
        }
        MetricsSnapshot {
            counters: vec![CounterSnapshot { name: "queries_total".into(), value: 6 }],
            gauges: vec![GaugeSnapshot { name: "train_batch_wall_ms".into(), value: 12.5 }],
            histograms: vec![crate::metrics::HistogramSnapshot::from_histogram("query_rank_ns", &h)],
        }
    }

    #[test]
    fn prometheus_names_are_sanitized_and_suffixed() {
        assert_eq!(prometheus_name("query_rank_ns"), "tmn_query_rank_ns");
        assert_eq!(prometheus_name("eval.search-p99"), "tmn_eval_search_p99");
        assert_eq!(prometheus_name("tmn_already"), "tmn_already");
        assert_eq!(counter_name("queries_total"), "tmn_queries_total");
        assert_eq!(counter_name("queries"), "tmn_queries_total");
    }

    #[test]
    fn prometheus_text_has_type_lines_and_cumulative_buckets() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE tmn_queries_total counter"));
        assert!(text.contains("tmn_queries_total 6"));
        assert!(text.contains("# TYPE tmn_train_batch_wall_ms gauge"));
        assert!(text.contains("tmn_train_batch_wall_ms 12.5"));
        assert!(text.contains("# TYPE tmn_query_rank_ns histogram"));
        assert!(text.contains("tmn_query_rank_ns_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("tmn_query_rank_ns_count 6"));

        // Bucket series must be cumulative and monotone non-decreasing.
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("tmn_query_rank_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
            bucket_lines += 1;
        }
        assert!(bucket_lines >= 4, "expected several finite buckets plus +Inf");
        assert_eq!(last, 6, "+Inf bucket must equal total count");
    }

    #[test]
    fn every_series_has_help_and_type_lines() {
        let text = to_prometheus(&sample_snapshot());
        for name in ["tmn_queries_total", "tmn_train_batch_wall_ms", "tmn_query_rank_ns"] {
            assert!(text.contains(&format!("# HELP {name} ")), "HELP missing for {name}:\n{text}");
            assert!(text.contains(&format!("# TYPE {name} ")), "TYPE missing for {name}:\n{text}");
            // promtool requires HELP/TYPE to precede the samples.
            let help_at = text.find(&format!("# HELP {name} ")).unwrap();
            let type_at = text.find(&format!("# TYPE {name} ")).unwrap();
            let sample_at = text.find(&format!("\n{name}")).unwrap();
            assert!(help_at < type_at && type_at < sample_at, "ordering wrong for {name}");
        }
    }

    #[test]
    fn inclusive_bounds_are_bucket_hi_minus_one() {
        let mut h = Histogram::new();
        h.observe(16); // bucket [16, 17)
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![crate::metrics::HistogramSnapshot::from_histogram("one", &h)],
        };
        let text = to_prometheus(&snap);
        assert!(text.contains("tmn_one_bucket{le=\"16\"} 1"), "got:\n{text}");
    }

    #[test]
    fn json_roundtrip_preserves_snapshot() {
        let snap = sample_snapshot();
        let back = from_json(&to_json(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_wrong_shape() {
        assert!(from_json("{\"counters\": 3}").is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn overflow_bucket_is_folded_into_inf() {
        let snap = sample_snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.buckets.last().map(|b| b.hi_ns), Some(u64::MAX));
        let text = to_prometheus(&snap);
        // No finite le line may mention the overflow bucket's fake bound.
        assert!(!text.contains(&format!("le=\"{}\"", u64::MAX - 1)));
        let _ = BucketSnapshot { lo_ns: 0, hi_ns: 1, count: 0 };
    }
}
