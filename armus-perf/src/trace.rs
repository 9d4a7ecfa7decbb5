//! Spans recorded by the benchmark itself, around its calls into each
//! layer's public functions. Nothing inside the crates is instrumented.
//!
//! Spans stay in memory, each with the id of the span that caused it, and
//! are written out once the run ends. Untraced runs carry no tracer at all,
//! so their only cost is an `Option` test per call site.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The id of "no parent": the root spans of each part point here.
pub const ROOT: u64 = 0;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// Layer boundary name, e.g. `core.verifier.block`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// `end - start` in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes (see [`Tracer::close`]).
    pub fn open(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id from [`Tracer::open`].
    pub fn close(&self, id: u64, parent: u64, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        self.push(Span { id, parent, name, start_ns, end_ns });
    }

    /// Records a closed span with a fresh id, returning the id.
    pub fn record(&self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.open();
        self.push(Span { id, parent, name, start_ns, end_ns });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span recorder panics while holding the lock").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span recorder panics while holding the lock").clone()
    }

    /// Durations (ns) of every span called `name`, sorted.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no span recorder panics while holding the lock");
        let mut out: Vec<f64> =
            spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Writes every span as tab-separated `id parent name start_ns end_ns`
    /// lines, ordered by start time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &spans {
            writeln!(out, "{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span called `name` under `parent` when tracing, or
/// just runs it when not.
pub fn span<T>(
    tracer: Option<&Tracer>,
    parent: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(tr) => {
            let start = tr.now_ns();
            let out = f();
            tr.record(parent, name, start, tr.now_ns());
            out
        }
    }
}

/// Opens a part-level span (a child of `parent`); returns its id and start,
/// or `(ROOT, 0)` when not tracing.
pub fn open(tracer: Option<&Tracer>) -> (u64, u64) {
    match tracer {
        None => (ROOT, 0),
        Some(tr) => (tr.open(), tr.now_ns()),
    }
}

/// Closes a span from [`open`].
pub fn close(tracer: Option<&Tracer>, opened: (u64, u64), parent: u64, name: &'static str) {
    if let Some(tr) = tracer {
        tr.close(opened.0, parent, name, opened.1);
    }
}
