//! Request-scoped span tracing and a flight recorder for the serving path.
//!
//! The [`metrics`](crate::metrics) registry answers *aggregate* questions
//! (how many queries, what p99); this module answers the per-request one —
//! *which stage did this slow request spend its time in?* A request owns a
//! trace; every stage it passes through (queue wait, fused embed, per-shard
//! knn, rerank, merge, stream step) records a span into that trace; a
//! completed request's span tree lands in a fixed-capacity **flight
//! recorder** from which it can be rendered as a text tree, exported as
//! Chrome trace-event JSON (`chrome://tracing` / Perfetto), or dumped as
//! JSON Lines.
//!
//! ## Identity
//!
//! Trace and span ids are process-global monotonic counters — no wall-clock
//! or host identity leaks into a trace, and two traces recorded back to
//! back on the same corpus are bitwise-comparable. Timestamps are
//! nanoseconds since an arbitrary process-local anchor ([`now_ns`]),
//! consistent across threads.
//!
//! ## Data path
//!
//! Active spans live on a **thread-local stack** (that is what makes
//! ambient nesting work: a span's parent is whatever span or request
//! context is on top of the stack when it starts). Completed spans drain
//! into a **global bounded ring buffer** of `span_ring` records,
//! drop-oldest. When a request finishes, its spans are pulled out of the
//! ring and — if the request was slow, or count-sampling selects it —
//! assembled into a [`TraceSnapshot`] and pushed into the flight ring
//! (`flight` entries, drop-oldest). Under normal operation the span ring
//! therefore only holds spans of *in-flight* requests; it overflows (and
//! drops the oldest spans, counted in [`TraceStats::spans_dropped`]) only
//! when concurrent requests carry more spans than its capacity.
//!
//! ## Tail-based capture
//!
//! Every request whose total latency is `>= slow_threshold_ns` keeps its
//! full span tree — a slow-query capture that never misses (subject only to
//! the flight ring's drop-oldest bound). Everything faster is count-sampled:
//! every `sample_every`-th finished request is kept so the recorder always
//! holds a baseline of normal traffic to compare outliers against.
//!
//! ## Cost
//!
//! Tracing is **off by default**. Disabled, every entry point is one
//! relaxed atomic load ([`is_enabled`]); no tracing path ever reads or
//! writes tensor data, so enabling it cannot perturb numerics (locked in by
//! `crates/serve/tests/trace_invariance.rs`). Enabled, a span costs one
//! clock read at open and a mutex push at close — per *stage*, not per
//! op. Spans are [`crate::span::Span`]s: the same close that lands a span
//! in the ring also feeds the stage's histogram, so a trace and a metric
//! always report the same interval.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Turn tracing on or off for the whole process (default: off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing entry points currently record. One relaxed load — the
/// entire cost of instrumentation on the disabled path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-local trace epoch. Consistent
/// across threads; carries no wall-clock identity.
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Small dense id for the calling thread (allocation order, starting at 1).
fn thread_ordinal() -> u64 {
    thread_local! {
        static TID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---- trace context ---------------------------------------------------------

/// Plain-data handle tying work to a trace: the trace id plus the span that
/// should parent whatever is recorded under this context. `Copy`, so it
/// crosses channels and threads freely (that is how the serve engine hands
/// a caller's trace to the engine thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    trace: u64,
    parent: u64,
}

impl TraceCtx {
    /// The inert context: everything recorded under it is a no-op.
    pub const fn disabled() -> TraceCtx {
        TraceCtx { trace: 0, parent: 0 }
    }

    /// Whether this context belongs to a live trace.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.trace != 0
    }

    /// The trace id (0 when inert) — what metric exemplars store.
    #[inline]
    pub fn trace_id(&self) -> u64 {
        self.trace
    }
}

impl Default for TraceCtx {
    fn default() -> TraceCtx {
        TraceCtx::disabled()
    }
}

// ---- thread-local ambient stack --------------------------------------------

thread_local! {
    static STACK: RefCell<Vec<TraceCtx>> = const { RefCell::new(Vec::new()) };
}

/// The ambient context on this thread: the top of the thread-local span
/// stack, or the inert context when nothing is attached.
pub fn current() -> TraceCtx {
    if !is_enabled() {
        return TraceCtx::disabled();
    }
    STACK.with(|s| s.borrow().last().copied().unwrap_or_else(TraceCtx::disabled))
}

/// RAII ambient attachment created by [`attach`]; pops on drop.
#[must_use = "dropping the guard immediately detaches the context"]
pub struct AttachGuard {
    pushed: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if self.pushed {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Make `ctx` the ambient context on this thread until the guard drops —
/// how the engine thread adopts a request's trace while dispatching it.
/// Inert (and free) when tracing is off or `ctx` is inactive.
pub fn attach(ctx: TraceCtx) -> AttachGuard {
    if !is_enabled() || !ctx.is_active() {
        return AttachGuard { pushed: false };
    }
    STACK.with(|s| s.borrow_mut().push(ctx));
    AttachGuard { pushed: true }
}

// ---- spans -----------------------------------------------------------------

/// A completed span as stored in the global ring (names stay `&'static` —
/// no allocation on the record path beyond the attr vec).
#[derive(Debug, Clone)]
struct SpanRecord {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    thread: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// How a traced [`Span`] sits in its request's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    /// RAII child: the ambient parent on its thread while open.
    Stacked,
    /// Child whose interval was measured elsewhere; never ambient.
    Detached,
    /// A request's root; closing it completes the trace.
    Root,
}

/// The trace side of a live [`Span`]: its ids and attributes.
pub(crate) struct Node {
    trace: u64,
    span: u64,
    parent: u64,
    pub(crate) attrs: Vec<(&'static str, u64)>,
    kind: NodeKind,
}

impl Node {
    /// Context parented at this node.
    pub(crate) fn ctx(&self) -> TraceCtx {
        TraceCtx { trace: self.trace, parent: self.span }
    }

    /// The span ring sink: store the completed span, or hand a finished
    /// request to the flight recorder.
    pub(crate) fn close(self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if self.kind == NodeKind::Root {
            return complete_request(self.ctx(), name, start_ns, dur_ns);
        }
        if self.kind == NodeKind::Stacked {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        push_span(SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name,
            start_ns,
            dur_ns,
            thread: thread_ordinal(),
            attrs: self.attrs,
        });
    }
}

/// A new child node under `ctx`, or `None` when tracing is off or `ctx` is
/// inert.
fn child(ctx: TraceCtx, kind: NodeKind) -> Option<Node> {
    (is_enabled() && ctx.is_active()).then(|| Node {
        trace: ctx.trace,
        span: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
        parent: ctx.parent,
        attrs: Vec::new(),
        kind,
    })
}

/// Open a span under the ambient context (see [`attach`]). While open it is
/// the ambient parent on this thread, so spans opened inside it nest under
/// it. Trace-inert when tracing is off or no context is attached; other
/// sinks can still be attached (see [`Span`]).
pub fn span(name: &'static str) -> Span {
    span_under(current(), name)
}

/// Open a span under an explicit parent context.
pub fn span_under(ctx: TraceCtx, name: &'static str) -> Span {
    let node = child(ctx, NodeKind::Stacked);
    if let Some(n) = &node {
        STACK.with(|s| s.borrow_mut().push(n.ctx()));
    }
    Span::traced(name, node)
}

/// A span under `ctx` whose interval began at `start_ns` (trace clock),
/// measured elsewhere — how the engine gives each request a queue-wait span
/// starting at its enqueue stamp. Never ambient.
pub fn span_since(ctx: TraceCtx, name: &'static str, start_ns: u64) -> Span {
    Span::since(name, start_ns, child(ctx, NodeKind::Detached))
}

/// Record a span whose whole interval was measured externally — how every
/// request in an admission batch gets a span covering the one shared
/// `embed_nograd` forward.
pub fn record_span(
    ctx: TraceCtx,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    attrs: &[(&'static str, u64)],
) {
    let span = attrs.iter().fold(span_since(ctx, name, start_ns), |s, &(k, v)| s.attr(k, v));
    span.finish_at(start_ns.saturating_add(dur_ns));
}

// ---- request lifecycle -----------------------------------------------------

/// Start a request trace: the root [`Span`], created caller-side and
/// finished (explicitly or on drop) when the reply arrives. Its
/// [`ctx`](Span::ctx) is what child work records under; closing it records
/// the root and hands the whole trace to the flight recorder. Inert (no ids
/// allocated, near-zero cost) when tracing is disabled.
pub fn request_begin(name: &'static str) -> Span {
    if !is_enabled() {
        return Span::new(name);
    }
    let trace = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    let span = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    lock().started += 1;
    Span::traced(name, Some(Node { trace, span, parent: 0, attrs: Vec::new(), kind: NodeKind::Root }))
}

/// Complete a request trace explicitly: `ctx` must be the root context
/// (trace id + root span id, as returned by the root span's
/// [`ctx`](Span::ctx)). Closing a root span calls this; it is public so
/// tests and replay tooling can drive the flight recorder with synthetic
/// totals.
pub fn complete_request(ctx: TraceCtx, name: &'static str, start_ns: u64, total_ns: u64) {
    if !ctx.is_active() {
        return;
    }
    let thread = thread_ordinal();
    let mut rec = lock();
    rec.finished += 1;
    // Pull this trace's spans out of the ring: completed traces never
    // linger there, so the ring's capacity is spent on in-flight requests.
    let mut spans: Vec<SpanRecord> = Vec::new();
    rec.ring.retain(|s| {
        if s.trace == ctx.trace {
            spans.push(s.clone());
            false
        } else {
            true
        }
    });
    let slow = total_ns >= rec.cfg.slow_threshold_ns;
    let sampled = rec.cfg.sample_every > 0 && rec.finished.is_multiple_of(rec.cfg.sample_every);
    if !(slow || sampled) {
        return;
    }
    if slow {
        rec.kept_slow += 1;
    } else {
        rec.kept_sampled += 1;
    }
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.span.cmp(&b.span)));
    let mut out = Vec::with_capacity(spans.len() + 1);
    out.push(SpanSnapshot {
        span: ctx.parent,
        parent: 0,
        name: name.to_string(),
        start_ns,
        dur_ns: total_ns,
        thread,
        attrs: Vec::new(),
    });
    out.extend(spans.into_iter().map(SpanSnapshot::from_record));
    let snap = TraceSnapshot {
        trace_id: ctx.trace,
        name: name.to_string(),
        start_ns,
        total_ns,
        slow,
        spans: out,
    };
    if rec.flight.len() >= rec.cfg.flight.max(1) {
        rec.flight.pop_front();
    }
    rec.flight.push_back(snap);
}

// ---- flight recorder -------------------------------------------------------

/// Bounds and sampling policy of the recorder.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Capacity of the global completed-span ring (drop-oldest). Size it
    /// well above spans-per-request × concurrent in-flight requests.
    pub span_ring: usize,
    /// Completed request traces the flight recorder retains (drop-oldest).
    pub flight: usize,
    /// Requests at or above this total keep their full span tree
    /// unconditionally (tail-based slow-query capture).
    pub slow_threshold_ns: u64,
    /// Below the threshold, keep every Nth finished request (0 = none).
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            span_ring: 4096,
            flight: 64,
            slow_threshold_ns: 10_000_000, // 10 ms
            sample_every: 64,
        }
    }
}

/// Recorder counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Traces begun ([`request_begin`] with tracing on).
    pub started: u64,
    /// Traces completed.
    pub finished: u64,
    /// Completed traces kept because they crossed `slow_threshold_ns`.
    pub kept_slow: u64,
    /// Completed traces kept by count-sampling.
    pub kept_sampled: u64,
    /// Spans evicted from the ring before their trace completed.
    pub spans_dropped: u64,
    /// Spans currently buffered for in-flight traces.
    pub pending_spans: usize,
    /// Traces currently held by the flight recorder.
    pub flight_len: usize,
}

struct Recorder {
    cfg: TraceConfig,
    ring: VecDeque<SpanRecord>,
    flight: VecDeque<TraceSnapshot>,
    started: u64,
    finished: u64,
    kept_slow: u64,
    kept_sampled: u64,
    spans_dropped: u64,
}

impl Recorder {
    fn new(cfg: TraceConfig) -> Recorder {
        Recorder {
            cfg,
            ring: VecDeque::new(),
            flight: VecDeque::new(),
            started: 0,
            finished: 0,
            kept_slow: 0,
            kept_sampled: 0,
            spans_dropped: 0,
        }
    }
}

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| Mutex::new(Recorder::new(TraceConfig::default())))
}

fn lock() -> std::sync::MutexGuard<'static, Recorder> {
    // A panic while holding the lock only loses trace data; keep going.
    recorder().lock().unwrap_or_else(|e| e.into_inner())
}

fn push_span(rec: SpanRecord) {
    let mut r = lock();
    if r.ring.len() >= r.cfg.span_ring.max(1) {
        r.ring.pop_front();
        r.spans_dropped += 1;
    }
    r.ring.push_back(rec);
}

/// Replace the recorder configuration; existing rings are trimmed
/// (drop-oldest) to the new capacities.
pub fn configure(cfg: TraceConfig) {
    let mut r = lock();
    while r.ring.len() > cfg.span_ring.max(1) {
        r.ring.pop_front();
        r.spans_dropped += 1;
    }
    while r.flight.len() > cfg.flight.max(1) {
        r.flight.pop_front();
    }
    r.cfg = cfg;
}

/// Clear rings and counters (config and the enabled flag are untouched).
pub fn reset() {
    let mut r = lock();
    r.ring.clear();
    r.flight.clear();
    r.started = 0;
    r.finished = 0;
    r.kept_slow = 0;
    r.kept_sampled = 0;
    r.spans_dropped = 0;
}

/// Recorder counters right now.
pub fn stats() -> TraceStats {
    let r = lock();
    TraceStats {
        started: r.started,
        finished: r.finished,
        kept_slow: r.kept_slow,
        kept_sampled: r.kept_sampled,
        spans_dropped: r.spans_dropped,
        pending_spans: r.ring.len(),
        flight_len: r.flight.len(),
    }
}

/// Every trace the flight recorder currently holds, oldest first.
pub fn recent() -> Vec<TraceSnapshot> {
    lock().flight.iter().cloned().collect()
}

/// The most recently recorded trace, if any.
pub fn latest() -> Option<TraceSnapshot> {
    lock().flight.back().cloned()
}

/// Look up a recorded trace by id.
pub fn find(trace_id: u64) -> Option<TraceSnapshot> {
    lock().flight.iter().find(|t| t.trace_id == trace_id).cloned()
}

// ---- snapshots & exporters -------------------------------------------------

/// One span attribute (numeric by design: batch ids, shard indices, sizes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanAttr {
    pub key: String,
    pub value: u64,
}

/// One completed span inside a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Span id (process-global monotonic counter).
    pub span: u64,
    /// Parent span id; 0 marks the trace root.
    pub parent: u64,
    pub name: String,
    /// Nanoseconds since the process trace epoch ([`now_ns`] base).
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Dense ordinal of the recording thread.
    pub thread: u64,
    pub attrs: Vec<SpanAttr>,
}

impl SpanSnapshot {
    fn from_record(r: SpanRecord) -> SpanSnapshot {
        SpanSnapshot {
            span: r.span,
            parent: r.parent,
            name: r.name.to_string(),
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            thread: r.thread,
            attrs: r.attrs.into_iter().map(|(key, value)| SpanAttr { key: key.to_string(), value }).collect(),
        }
    }
}

/// One recorded request trace: the root plus every captured span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSnapshot {
    pub trace_id: u64,
    /// Root span name (`serve.query`, `serve.append`, `eval.search`...).
    pub name: String,
    pub start_ns: u64,
    pub total_ns: u64,
    /// True when kept by the slow-query threshold (false = count-sampled).
    pub slow: bool,
    /// Root first (parent == 0), then captured spans ordered by start time.
    pub spans: Vec<SpanSnapshot>,
}

impl TraceSnapshot {
    /// The root span (parent == 0). Every snapshot has exactly one.
    pub fn root(&self) -> &SpanSnapshot {
        self.spans.iter().find(|s| s.parent == 0).expect("trace snapshot always holds its root")
    }

    /// Direct children of `span`, in recorded (start-time) order.
    pub fn children(&self, span: u64) -> Vec<&SpanSnapshot> {
        self.spans.iter().filter(|s| s.parent == span).collect()
    }

    /// First span with this name, if captured.
    pub fn span_named(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with this name.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanSnapshot> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// A snapshot is well-formed when it has exactly one root and every
    /// other span's parent is present — i.e. the spans assemble into a
    /// single tree even when they were recorded across threads.
    pub fn is_well_formed(&self) -> bool {
        let roots = self.spans.iter().filter(|s| s.parent == 0).count();
        roots == 1
            && self
                .spans
                .iter()
                .filter(|s| s.parent != 0)
                .all(|s| self.spans.iter().any(|p| p.span == s.parent))
    }
}

/// Render a recorded trace as an indented plain-text span tree.
pub fn render_tree(t: &TraceSnapshot) -> String {
    fn fmt_span(out: &mut String, t: &TraceSnapshot, s: &SpanSnapshot, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} {:.1}µs [t{}]",
            s.name,
            s.dur_ns as f64 / 1e3,
            s.thread
        ));
        for a in &s.attrs {
            out.push_str(&format!(" {}={}", a.key, a.value));
        }
        out.push('\n');
        for c in t.children(s.span) {
            fmt_span(out, t, c, depth + 1);
        }
    }
    let mut out = format!(
        "trace {} ({}) total {:.1}µs{}\n",
        t.trace_id,
        t.name,
        t.total_ns as f64 / 1e3,
        if t.slow { " [slow]" } else { "" }
    );
    fmt_span(&mut out, t, t.root(), 1);
    out
}

/// Export recorded traces in the Chrome trace-event JSON format: an object
/// with a `traceEvents` array of complete (`"ph": "X"`) events, timestamps
/// and durations in microseconds — loadable in `chrome://tracing` and
/// Perfetto. Span attributes and the trace/span/parent ids ride in `args`.
pub fn to_chrome_trace(traces: &[TraceSnapshot]) -> String {
    use serde::Value;
    let mut events = Vec::new();
    for t in traces {
        for s in &t.spans {
            let mut args: Vec<(String, Value)> = vec![
                ("trace_id".to_string(), Value::Int(t.trace_id as i128)),
                ("span".to_string(), Value::Int(s.span as i128)),
                ("parent".to_string(), Value::Int(s.parent as i128)),
            ];
            for a in &s.attrs {
                args.push((a.key.clone(), Value::Int(a.value as i128)));
            }
            events.push(Value::Map(vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("cat".to_string(), Value::Str("tmn".to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Value::Float(s.dur_ns as f64 / 1e3)),
                ("pid".to_string(), Value::Int(1)),
                ("tid".to_string(), Value::Int(s.thread as i128)),
                ("args".to_string(), Value::Map(args)),
            ]));
        }
    }
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("value rendering is infallible")
}

/// Dump the flight recorder as JSON Lines: one [`TraceSnapshot`] object per
/// line, oldest first — greppable, tail-able, replayable.
pub fn dump_jsonl() -> String {
    let mut out = String::new();
    for t in recent() {
        out.push_str(&serde_json::to_string(&t).expect("value rendering is infallible"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn capture_all() -> TraceConfig {
        TraceConfig { span_ring: 256, flight: 32, slow_threshold_ns: 0, sample_every: 1 }
    }

    #[test]
    fn disabled_records_nothing_and_allocates_no_ids() {
        let _l = test_lock();
        set_enabled(false);
        configure(capture_all());
        reset();
        let req = request_begin("test.req");
        assert!(!req.ctx().is_active());
        {
            let _a = attach(req.ctx());
            let _s = span("test.child");
            assert_eq!(current().trace_id(), 0);
        }
        req.finish();
        let st = stats();
        assert_eq!((st.started, st.finished, st.flight_len, st.pending_spans), (0, 0, 0, 0));
    }

    #[test]
    fn request_spans_nest_and_are_captured() {
        let _l = test_lock();
        set_enabled(true);
        configure(capture_all());
        reset();
        let req = request_begin("test.req");
        let trace_id = req.trace_id();
        {
            let _a = attach(req.ctx());
            let outer = span("test.outer").attr("k", 7);
            {
                let _inner = span("test.inner");
                assert_eq!(current().trace, trace_id);
            }
            drop(outer);
            record_span(req.ctx(), "test.injected", 5, 10, &[("batch", 3)]);
        }
        req.finish();
        set_enabled(false);
        let t = find(trace_id).expect("trace captured");
        assert!(t.is_well_formed(), "tree must be well-formed: {t:?}");
        assert_eq!(t.name, "test.req");
        let outer = t.span_named("test.outer").unwrap();
        assert_eq!(outer.parent, t.root().span);
        assert_eq!(outer.attrs, vec![SpanAttr { key: "k".into(), value: 7 }]);
        let inner = t.span_named("test.inner").unwrap();
        assert_eq!(inner.parent, outer.span, "inner span must nest under outer");
        let injected = t.span_named("test.injected").unwrap();
        assert_eq!((injected.start_ns, injected.dur_ns), (5, 10));
        assert_eq!(injected.parent, t.root().span);
    }

    #[test]
    fn slow_threshold_separates_kept_from_sampled() {
        let _l = test_lock();
        set_enabled(true);
        configure(TraceConfig {
            span_ring: 64,
            flight: 32,
            slow_threshold_ns: 1_000,
            sample_every: 0,
        });
        reset();
        // Synthetic totals via the explicit completion API.
        for (i, total) in [(1u64, 10u64), (2, 2_000), (3, 999), (4, 1_000)] {
            let req = request_begin("test.synthetic");
            let ctx = req.ctx();
            // Forget the natural finish; complete with a synthetic total.
            std::mem::forget(req);
            complete_request(ctx, "test.synthetic", 0, total);
            let _ = i;
        }
        set_enabled(false);
        let st = stats();
        assert_eq!(st.kept_slow, 2, "totals 2000 and 1000 cross the 1000ns threshold");
        assert_eq!(st.kept_sampled, 0, "sample_every=0 keeps no fast traces");
        assert_eq!(st.flight_len, 2);
        assert!(recent().iter().all(|t| t.slow));
    }

    #[test]
    fn count_sampling_keeps_every_nth() {
        let _l = test_lock();
        set_enabled(true);
        configure(TraceConfig {
            span_ring: 64,
            flight: 32,
            slow_threshold_ns: u64::MAX,
            sample_every: 3,
        });
        reset();
        for _ in 0..9 {
            let req = request_begin("test.fast");
            let ctx = req.ctx();
            std::mem::forget(req);
            complete_request(ctx, "test.fast", 0, 10);
        }
        set_enabled(false);
        let st = stats();
        assert_eq!(st.kept_sampled, 3, "every 3rd of 9 requests");
        assert_eq!(st.kept_slow, 0);
    }

    #[test]
    fn span_ring_drops_oldest_at_capacity() {
        let _l = test_lock();
        set_enabled(true);
        configure(TraceConfig { span_ring: 4, flight: 4, slow_threshold_ns: 0, sample_every: 1 });
        reset();
        let req = request_begin("test.ring");
        let ctx = req.ctx();
        for i in 0..10u64 {
            record_span(ctx, "test.s", i, 1, &[]);
        }
        let st = stats();
        assert_eq!(st.pending_spans, 4, "ring bounded at capacity");
        assert_eq!(st.spans_dropped, 6);
        req.finish();
        set_enabled(false);
        let t = latest().unwrap();
        // Root + the 4 newest spans survive; their starts are 6..=9.
        let starts: Vec<u64> =
            t.spans.iter().filter(|s| s.parent != 0).map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9], "drop-oldest must keep the newest spans in order");
    }

    #[test]
    fn chrome_export_parses_and_carries_fields() {
        let _l = test_lock();
        set_enabled(true);
        configure(capture_all());
        reset();
        let req = request_begin("test.chrome");
        record_span(req.ctx(), "test.stage", 100, 50, &[("shard", 2)]);
        let id = req.trace_id();
        req.finish();
        set_enabled(false);
        let t = find(id).unwrap();
        let json = to_chrome_trace(&[t]);
        let doc: serde::Value = serde_json::from_str(&json).expect("chrome trace must be valid JSON");
        let events = match doc.get_field("traceEvents") {
            Some(serde::Value::Seq(e)) => e,
            other => panic!("traceEvents array missing: {other:?}"),
        };
        assert_eq!(events.len(), 2, "root + one stage");
        for ev in events {
            for field in ["name", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(ev.get_field(field).is_some(), "event lacks {field}: {ev:?}");
            }
            assert_eq!(ev.get_field("ph"), Some(&serde::Value::Str("X".into())));
        }
        // The stage event carries its attr and trace linkage in args.
        let stage = events
            .iter()
            .find(|e| e.get_field("name") == Some(&serde::Value::Str("test.stage".into())))
            .unwrap();
        let args = stage.get_field("args").unwrap();
        assert_eq!(args.get_field("shard"), Some(&serde::Value::Int(2)));
        assert_eq!(args.get_field("trace_id"), Some(&serde::Value::Int(id as i128)));
    }

    #[test]
    fn text_tree_and_jsonl_render() {
        let _l = test_lock();
        set_enabled(true);
        configure(capture_all());
        reset();
        let req = request_begin("test.render");
        {
            let _a = attach(req.ctx());
            let _s = span("test.stage").attr("n", 4);
        }
        let id = req.trace_id();
        req.finish();
        set_enabled(false);
        let t = find(id).unwrap();
        let tree = render_tree(&t);
        assert!(tree.contains("test.render"), "root line missing:\n{tree}");
        assert!(tree.contains("  test.stage") || tree.contains("    test.stage"), "{tree}");
        assert!(tree.contains("n=4"), "attr missing:\n{tree}");
        let jsonl = dump_jsonl();
        let line = jsonl.lines().last().unwrap();
        let back: TraceSnapshot = serde_json::from_str(line).unwrap();
        assert_eq!(back, t, "JSONL line must round-trip the snapshot");
    }

    #[test]
    fn flight_ring_drops_oldest_trace() {
        let _l = test_lock();
        set_enabled(true);
        configure(TraceConfig { span_ring: 64, flight: 2, slow_threshold_ns: 0, sample_every: 1 });
        reset();
        let mut ids = Vec::new();
        for _ in 0..4 {
            let req = request_begin("test.flight");
            ids.push(req.trace_id());
            req.finish();
        }
        set_enabled(false);
        assert_eq!(stats().flight_len, 2);
        assert!(find(ids[0]).is_none() && find(ids[1]).is_none(), "oldest evicted");
        assert!(find(ids[2]).is_some() && find(ids[3]).is_some(), "newest retained");
    }
}
