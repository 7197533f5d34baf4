//! Tracing from the outside: spans around the public calls into each
//! layer, and a forwarding [`Policy`] wrapper that times the `core`
//! layer's entry points.
//!
//! Nothing here reaches inside the simulator. Spans stay in memory and
//! are written out as JSON lines when the benchmark ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cohmeleon_core::modes::ModeSet;
use cohmeleon_core::policy::{Decision, PolicyComplexity};
use cohmeleon_core::reward::InvocationMeasurement;
use cohmeleon_core::snapshot::SystemSnapshot;
use cohmeleon_core::{AccelInstanceId, AccelKindId, Policy};

/// One recorded span: a timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (starts at 1).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Spans of one repetition share this id (0 for a span covering the
    /// whole run).
    pub trace: u64,
    /// Layer-qualified name, e.g. `exp.cell`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Counts recorded at the boundary.
    pub attrs: Vec<(&'static str, u64)>,
}

/// An in-memory span recorder, shared between threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that is still
    /// open.
    pub fn open(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Times `f` as root span `name` of repetition `trace`.
    pub fn span<T>(&self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open();
        let start_ns = self.now();
        let out = f();
        self.record(Span {
            id,
            parent: 0,
            trace,
            name,
            start_ns,
            end_ns: self.now(),
            attrs: Vec::new(),
        });
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut text = String::new();
        for s in &spans {
            let _ = write!(
                text,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            );
            for (key, value) in &s.attrs {
                let _ = write!(text, ",\"{key}\":{value}");
            }
            text.push_str("}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Runs `f`, as a root span `name` of repetition `trace` when a tracer
/// is given.
pub fn spanned<T>(tracer: Option<(&Tracer, u64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some((t, trace)) => t.span(name, trace, f),
        None => f(),
    }
}

/// Call counts and host time of one cell's policy entry points.
#[derive(Debug, Default)]
pub struct PolicyCounters {
    decide_calls: AtomicU64,
    decide_ns: AtomicU64,
    observe_calls: AtomicU64,
    observe_ns: AtomicU64,
    other_calls: AtomicU64,
    other_ns: AtomicU64,
}

/// A plain copy of [`PolicyCounters`], summable across cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTotals {
    /// `Policy::decide` calls.
    pub decide_calls: u64,
    /// Host ns inside `decide`.
    pub decide_ns: u64,
    /// `Policy::observe` calls.
    pub observe_calls: u64,
    /// Host ns inside `observe`.
    pub observe_ns: u64,
    /// `begin_iteration` and `freeze` calls.
    pub other_calls: u64,
    /// Host ns inside `begin_iteration` and `freeze`.
    pub other_ns: u64,
}

impl PolicyTotals {
    /// Host ns inside every timed policy entry point.
    pub fn total_ns(&self) -> u64 {
        self.decide_ns + self.observe_ns + self.other_ns
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &PolicyTotals) {
        self.decide_calls += other.decide_calls;
        self.decide_ns += other.decide_ns;
        self.observe_calls += other.observe_calls;
        self.observe_ns += other.observe_ns;
        self.other_calls += other.other_calls;
        self.other_ns += other.other_ns;
    }
}

impl PolicyCounters {
    /// A snapshot of the counters.
    pub fn totals(&self) -> PolicyTotals {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        PolicyTotals {
            decide_calls: get(&self.decide_calls),
            decide_ns: get(&self.decide_ns),
            observe_calls: get(&self.observe_calls),
            observe_ns: get(&self.observe_ns),
            other_calls: get(&self.other_calls),
            other_ns: get(&self.other_ns),
        }
    }
}

thread_local! {
    /// The counters of the cell running on this thread, set by the
    /// executor task around `SweepGrid::run_cell` so the policy builder
    /// (called inside `run_cell`, on the same thread) can find them.
    static CURRENT: RefCell<Option<Arc<PolicyCounters>>> = const { RefCell::new(None) };
}

/// Runs `f` with `counters` as this thread's current cell counters.
pub fn with_cell_counters<T>(counters: &Arc<PolicyCounters>, f: impl FnOnce() -> T) -> T {
    CURRENT.with(|c| *c.borrow_mut() = Some(counters.clone()));
    let out = f();
    CURRENT.with(|c| *c.borrow_mut() = None);
    out
}

/// A [`Policy`] that forwards every call to `inner` and times `decide`,
/// `observe`, `begin_iteration` and `freeze`. Forwarding keeps every
/// decision, so results stay bit-identical to the bare policy.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    counters: Arc<PolicyCounters>,
}

impl TracedPolicy {
    /// Wraps `inner`, charging the current cell's counters (fresh ones
    /// when called outside a traced cell).
    pub fn wrap(inner: Box<dyn Policy>) -> TracedPolicy {
        let counters = CURRENT.with(|c| c.borrow().clone()).unwrap_or_default();
        TracedPolicy { inner, counters }
    }

    fn timed<T>(calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(
        &mut self,
        snapshot: &SystemSnapshot,
        available: ModeSet,
        accel: AccelInstanceId,
    ) -> Decision {
        let c = &self.counters;
        let inner = &mut self.inner;
        Self::timed(&c.decide_calls, &c.decide_ns, || {
            inner.decide(snapshot, available, accel)
        })
    }

    fn observe(
        &mut self,
        accel: AccelInstanceId,
        decision: &Decision,
        measurement: &InvocationMeasurement,
    ) {
        let c = &self.counters;
        let inner = &mut self.inner;
        Self::timed(&c.observe_calls, &c.observe_ns, || {
            inner.observe(accel, decision, measurement)
        })
    }

    fn begin_iteration(&mut self, iteration: usize) {
        let c = &self.counters;
        let inner = &mut self.inner;
        Self::timed(&c.other_calls, &c.other_ns, || {
            inner.begin_iteration(iteration)
        })
    }

    fn freeze(&mut self) {
        let c = &self.counters;
        let inner = &mut self.inner;
        Self::timed(&c.other_calls, &c.other_ns, || inner.freeze())
    }

    fn complexity(&self) -> PolicyComplexity {
        self.inner.complexity()
    }

    fn bind_topology(&mut self, topology: &[(AccelInstanceId, AccelKindId)]) {
        self.inner.bind_topology(topology)
    }

    fn export_table(&self) -> Option<String> {
        self.inner.export_table()
    }

    fn import_table(&mut self, text: &str) -> Result<(), String> {
        self.inner.import_table(text)
    }
}
