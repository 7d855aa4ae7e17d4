//! The benchmark's own span recorder.
//!
//! A traced run wraps each call into a crate's public API in a span:
//! name, start, end and the span that caused it. Spans are buffered per
//! thread in a [`Local`], moved into the shared [`Tracer`] when the
//! buffer drops, and written out once when the run ends. Nothing here
//! runs in an untraced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Every span recorded in the run, kept in memory.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A per-thread buffer whose root spans hang under `parent` (0 for
    /// none).
    pub fn local(&self, parent: u64) -> Local<'_> {
        Local {
            tracer: self,
            spans: Vec::new(),
            open: Vec::new(),
            root_parent: parent,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }

    /// Write `spans` as one JSON object per line.
    pub fn write(spans: &[Span], path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A thread's span buffer. Dropping it hands the spans to the tracer.
pub struct Local<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
    root_parent: u64,
}

impl Local<'_> {
    fn parent(&self) -> u64 {
        self.open
            .last()
            .map_or(self.root_parent, |&i| self.spans[i].id)
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> u64 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.parent(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        id
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.tracer.ns(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Record a span whose ends were timed elsewhere (a pipelined
    /// request, from send to reply).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent: self.parent(),
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }

    /// Total seconds of this buffer's spans named `name`.
    pub fn secs_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_s: f64,
    pub max_s: f64,
}

/// Aggregate `spans` by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_s += s.secs();
        a.max_s = a.max_s.max(s.secs());
    }
    out
}
