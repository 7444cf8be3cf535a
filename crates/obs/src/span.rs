//! The one timing primitive: an RAII [`Span`] whose close feeds every sink
//! that wants the interval.
//!
//! A span reads the clock once when it opens and once when it closes. The
//! close hands that single `(start, duration)` pair to whichever sinks the
//! call site attached:
//!
//! - **histogram** ([`Span::histogram`]) — one observation into the named
//!   latency histogram, carrying the span's trace id as exemplar, whenever
//!   the metrics registry is enabled;
//! - **profiler** ([`Span::profile`], [`Span::phase`]) — one call, its time
//!   and its FLOP estimate into the `(name, kind)` profiler aggregate, when
//!   the profiler is enabled (op forward/backward scopes and coarse phases);
//! - **trace** (spans opened through [`crate::trace`]) — one completed span
//!   in the request's tree, when the request is traced.
//!
//! So a trace, a histogram and `PROFILE_ops.json` can never disagree about
//! the same stage: they are three views of one measurement.
//! [`Span::finish`] also returns the measured nanoseconds, for callers that
//! keep the number (per-query latencies, telemetry wall times).
//!
//! A span with no live sink (and not asked to be [`timed`](Span::timed))
//! is inert: it reads no clock and records nothing, so an op span costs one
//! relaxed atomic load while the profiler is off.
//! No sink ever reads or writes tensor data, so attaching sinks cannot
//! perturb numerics.

use crate::metrics;
use crate::profiler::{self, ScopeKind};
use crate::trace::{self, Node, TraceCtx};

/// A timed interval; records into its sinks when finished or dropped.
#[must_use = "dropping the span immediately records a ~0ns measurement"]
pub struct Span {
    name: &'static str,
    /// Open time on the trace clock ([`trace::now_ns`]); `None` while no
    /// sink wants the interval.
    start: Option<u64>,
    hist: Option<&'static str>,
    prof: Option<(ScopeKind, u64)>,
    node: Option<Node>,
}

impl Span {
    /// A span that feeds no sink yet: attach sinks with the builder methods.
    pub const fn new(name: &'static str) -> Span {
        Span { name, start: None, hist: None, prof: None, node: None }
    }

    /// A span opening now as trace node `node` (or inert when `None`).
    pub(crate) fn traced(name: &'static str, node: Option<Node>) -> Span {
        let start = node.as_ref().map(|_| trace::now_ns());
        Span { name, start, hist: None, prof: None, node }
    }

    /// A span whose interval began at `start_ns` on the trace clock, measured
    /// elsewhere (queue wait starts at the enqueue stamp).
    pub(crate) fn since(name: &'static str, start_ns: u64, node: Option<Node>) -> Span {
        Span { name, start: Some(start_ns), hist: None, prof: None, node }
    }

    /// A profiler phase: coarse non-op work (batch prep, optimizer step,
    /// eval stages).
    pub fn phase(name: &'static str) -> Span {
        Span::new(name).profile(ScopeKind::Phase, 0)
    }

    /// Feed the profiler aggregate under `(name, kind)` with a FLOP
    /// estimate. A no-op (one relaxed load) while the profiler is off.
    pub fn profile(mut self, kind: ScopeKind, flops: u64) -> Span {
        if profiler::is_enabled() {
            self.prof = Some((kind, flops));
            self.start.get_or_insert_with(trace::now_ns);
        }
        self
    }

    /// Feed the latency histogram `hist`. Also makes the span always timed,
    /// so [`finish`](Span::finish) reports the interval even with metrics
    /// off.
    pub fn histogram(mut self, hist: &'static str) -> Span {
        self.hist = Some(hist);
        self.timed()
    }

    /// Measure the interval even when no sink records it, for callers that
    /// only want [`finish`](Span::finish)'s number.
    pub fn timed(mut self) -> Span {
        self.start.get_or_insert_with(trace::now_ns);
        self
    }

    /// Attach a numeric attribute (batch id, shard index, sizes...) to the
    /// trace span; ignored when the span is not traced.
    pub fn attr(mut self, key: &'static str, value: u64) -> Span {
        if let Some(node) = &mut self.node {
            node.attrs.push((key, value));
        }
        self
    }

    /// Context parented at this span, for handing work to another thread.
    pub fn ctx(&self) -> TraceCtx {
        self.node.as_ref().map_or(TraceCtx::disabled(), Node::ctx)
    }

    /// The trace id (0 when the span is not traced).
    pub fn trace_id(&self) -> u64 {
        self.ctx().trace_id()
    }

    /// When the span opened on the trace clock (`None` while untimed).
    pub fn start_ns(&self) -> Option<u64> {
        self.start
    }

    /// Close now and return the measured nanoseconds (0 when untimed).
    pub fn finish(mut self) -> u64 {
        self.close(None)
    }

    /// Close at `end_ns` on the trace clock instead of reading it.
    pub(crate) fn finish_at(mut self, end_ns: u64) -> u64 {
        self.close(Some(end_ns))
    }

    fn close(&mut self, end_ns: Option<u64>) -> u64 {
        let Some(start) = self.start.take() else { return 0 };
        let dur = end_ns.unwrap_or_else(trace::now_ns).saturating_sub(start);
        if let Some((kind, flops)) = self.prof {
            profiler::record(self.name, kind, dur, flops);
        }
        if let Some(hist) = self.hist {
            metrics::observe_ns_traced(hist, dur, self.trace_id());
        }
        if let Some(node) = self.node.take() {
            node.close(self.name, start, dur);
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use crate::TraceConfig;

    #[test]
    fn sinkless_span_is_untimed_and_records_nothing() {
        let _l = test_lock();
        profiler::set_enabled(false);
        profiler::reset();
        let s = Span::new("test.off").profile(ScopeKind::Forward, 10);
        assert_eq!(s.start_ns(), None, "profiler off: no clock read");
        assert_eq!(s.finish(), 0);
        assert!(profiler::snapshot().iter().all(|r| r.name != "test.off"));
    }

    #[test]
    fn profiled_spans_accumulate_calls_time_flops() {
        let _l = test_lock();
        profiler::reset();
        profiler::set_enabled(true);
        for _ in 0..3 {
            let _s = Span::new("test.op_a").profile(ScopeKind::Forward, 100);
        }
        let _ = Span::new("test.op_a").profile(ScopeKind::Backward, 200).finish();
        let _ = Span::phase("test.phase").finish();
        profiler::set_enabled(false);
        let snap = profiler::snapshot();
        let find = |name: &str, kind: &str| {
            snap.iter().find(|r| r.name == name && r.kind == kind).cloned().unwrap()
        };
        let (fwd, bwd) = (find("test.op_a", "forward"), find("test.op_a", "backward"));
        assert_eq!((fwd.calls, fwd.flops), (3, 300));
        assert_eq!((bwd.calls, bwd.flops), (1, 200));
        assert_eq!(find("test.phase", "phase").calls, 1);
        profiler::reset();
    }

    #[test]
    fn one_interval_feeds_histogram_profiler_and_trace_alike() {
        let _l = test_lock();
        metrics::set_enabled(true);
        profiler::reset();
        profiler::set_enabled(true);
        trace::configure(TraceConfig { slow_threshold_ns: 0, ..Default::default() });
        trace::set_enabled(true);
        let req = trace::request_begin("test.req");
        let id = req.trace_id();
        let ns = {
            let _a = trace::attach(req.ctx());
            trace::span("test.stage")
                .histogram("test.span_hist")
                .profile(ScopeKind::Phase, 0)
                .finish()
        };
        req.finish();
        trace::set_enabled(false);
        profiler::set_enabled(false);
        let hist = metrics::snapshot().histogram("test.span_hist").cloned().unwrap();
        assert_eq!((hist.count, hist.sum_ns), (1, ns), "histogram holds the returned interval");
        assert_eq!(hist.exemplar_trace_id, Some(id), "exemplar names the span's trace");
        let prof = profiler::snapshot().into_iter().find(|r| r.name == "test.stage").unwrap();
        assert_eq!((prof.calls, prof.total_ns), (1, ns), "profiler holds the same interval");
        let t = trace::find(id).unwrap();
        assert_eq!(t.span_named("test.stage").unwrap().dur_ns, ns, "trace holds it too");
        trace::configure(TraceConfig::default());
        profiler::reset();
    }

    #[test]
    fn histogram_span_is_timed_with_metrics_off() {
        let _l = test_lock();
        metrics::set_enabled(false);
        let s = Span::new("test.off_metrics").histogram("test.off_metrics_hist");
        assert!(s.start_ns().is_some());
        let _ = s.finish();
        metrics::set_enabled(true);
        assert!(metrics::snapshot().histogram("test.off_metrics_hist").is_none());
    }
}
