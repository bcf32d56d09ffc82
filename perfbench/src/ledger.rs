//! The traced run's instruments: spans recorded around calls into each
//! layer's public functions, and a heap counter for the meter check.
//!
//! Spans live in memory and are written out when the run ends. A span's
//! self time is its duration minus the time its child spans cover; the
//! ledger reconciles when the layers' self times add up to the root
//! span's wall.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Name of the root span every traced path runs under.
pub const ROOT: &str = "workload";

/// How far the layers' summed self time may drift from the root wall.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    op: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    child_s: f64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An in-memory span recorder. A disabled ledger runs the same calls
/// without recording anything, which gives the untraced reference wall
/// for `trace.overhead`.
pub struct Ledger {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Ledger {
    /// A recording ledger.
    pub fn new() -> Ledger {
        Ledger {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A ledger that records nothing.
    pub fn off() -> Ledger {
        Ledger {
            on: false,
            ..Ledger::new()
        }
    }

    /// Run `f` inside a span of `layer` (operation `op`); spans opened by
    /// `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        op: &str,
        f: impl FnOnce(&mut Ledger) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            layer,
            op: op.to_string(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            child_s: 0.0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        let d = self.spans[idx].secs();
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_s += d;
        }
        out
    }

    /// [`span`](Self::span) for a call that opens no child spans.
    pub fn time<T>(&mut self, layer: &'static str, op: &str, f: impl FnOnce() -> T) -> T {
        self.span(layer, op, |_| f())
    }

    /// Durations of the spans of `layer` whose operation is `op`.
    pub fn durations(&self, layer: &str, op: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of the spans of `layer` with operation `op`.
    pub fn total(&self, layer: &str, op: &str) -> f64 {
        self.durations(layer, op).iter().sum()
    }

    /// Self time per layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0.0) += (s.secs() - s.child_s).max(0.0);
        }
        out
    }

    /// Wall of the root span (0 when absent or disabled).
    pub fn root_wall(&self) -> f64 {
        self.spans
            .iter()
            .find(|s| s.layer == ROOT)
            .map_or(0.0, Span::secs)
    }

    /// Summed self time of every layer under the root over the root's wall.
    pub fn coverage(&self) -> f64 {
        let layers: f64 = self
            .self_times()
            .iter()
            .filter(|(l, _)| **l != ROOT)
            .map(|(_, s)| s)
            .sum();
        layers / self.root_wall().max(f64::MIN_POSITIVE)
    }

    /// Write every span as `layer op start_ns end_ns parent` lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# index layer op start_ns end_ns parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{i} {} {} {} {} {}",
                s.layer,
                s.op,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos(),
                s.parent.map_or("-".to_string(), |p| p.to_string())
            )?;
        }
        f.flush()
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

static HEAP_LIVE: AtomicUsize = AtomicUsize::new(0);
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

/// A global allocator that counts live heap bytes and their peak. Only the
/// traced binary installs it; the counters are statistics and publish no
/// other data, so relaxed ordering suffices.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let now = HEAP_LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// never influence the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP_LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            HEAP_LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Start a heap window: reset the peak to the current live bytes and
/// return them as the window's base.
pub fn heap_window() -> usize {
    let live = HEAP_LIVE.load(Ordering::Relaxed);
    HEAP_PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live heap bytes since the window opened at `base`, above `base`.
pub fn heap_peak_since(base: usize) -> usize {
    HEAP_PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

/// Per-key median over rounds of a traced run.
pub fn median_rounds(rounds: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = rounds.iter().flat_map(|r| r.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = rounds.iter().filter_map(|r| r.get(k).copied()).collect();
            (k.clone(), crate::median(&vals))
        })
        .collect()
}

/// Fail the run unless the ledger reconciles; record coverage and wall.
pub fn reconcile(out: &mut crate::Outcome, ledger: &Ledger) -> BTreeMap<String, f64> {
    let coverage = ledger.coverage();
    out.check(
        "ledger reconciliation",
        if (coverage - 1.0).abs() <= RECONCILE_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "layer self time covers {:.1}% of the traced wall",
                coverage * 100.0
            ))
        },
    );
    let mut m = BTreeMap::new();
    m.insert("ledger.coverage".to_string(), coverage);
    m.insert("ledger.wall_s".to_string(), ledger.root_wall());
    m
}
