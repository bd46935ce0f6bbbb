//! Driver-side spans for the traced run.
//!
//! One span per layer boundary the driver can see: `txn` (root, carries
//! the transaction id) → `gen`, `driver.wait` (paced workloads only),
//! `engine.begin`, `engine.read` / `engine.write` per step,
//! `engine.commit`; GC passes are their own roots.  Spans go into a
//! preallocated per-thread buffer and are aggregated after the workers
//! have joined — nothing is shared or allocated while traffic runs.

use crate::stats::{mean, quantile};
use std::fmt::Write as _;
use std::time::Instant;

/// Span names (the index is the wire form inside the buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Txn,
    Gen,
    Wait,
    Begin,
    Read,
    Write,
    Commit,
    Gc,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Gen => "gen",
            Name::Wait => "driver.wait",
            Name::Begin => "engine.begin",
            Name::Read => "engine.read",
            Name::Write => "engine.write",
            Name::Commit => "engine.commit",
            Name::Gc => "engine.gc",
        }
    }
}

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are ns since the buffer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// The engine transaction id (0 when none applies).
    pub tx: u32,
}

/// A fixed-capacity span buffer owned by one thread.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans that did not fit (the buffer never reallocates mid-run).
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since the buffer's epoch.
    #[inline]
    pub fn clock(&self) -> u64 {
        crate::stats::ns_since(self.epoch)
    }

    /// Opens a span now and returns its index; close it with [`Self::close`].
    #[inline]
    pub fn open(&mut self, name: Name, parent: u32, tx: u32) -> u32 {
        let start_ns = self.clock();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tx,
        })
    }

    /// Closes the span at `idx` now.
    #[inline]
    pub fn close(&mut self, idx: u32) {
        let end_ns = self.clock();
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Labels the span at `idx` with the transaction it turned out to serve.
    #[inline]
    pub fn set_tx(&mut self, idx: u32, tx: u32) {
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.tx = tx;
        }
    }

    /// Forgets every span from `idx` on (a transaction cut off by the end
    /// of the slice leaves no half-open tree behind).
    pub fn truncate(&mut self, idx: u32) {
        self.spans.truncate(idx as usize);
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Times `f` as a child span of `parent` when tracing is on; just calls
/// it otherwise (no clock is read on the untraced path).
#[inline]
pub fn timed<R>(
    buf: &mut Option<&mut SpanBuf>,
    name: Name,
    parent: u32,
    tx: u32,
    f: impl FnOnce() -> R,
) -> R {
    match buf {
        Some(buf) => {
            let idx = buf.open(name, parent, tx);
            let out = f();
            buf.close(idx);
            out
        }
        None => f(),
    }
}

/// What the traced transactions of a workload add up to.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Transactions decomposed (committed at the first attempt, inside
    /// the p45–p55 band of root durations — "the median transaction").
    pub band_txns: usize,
    /// p50 of root durations over all first-attempt transactions.
    pub root_p50_ns: f64,
    pub gen_ns: f64,
    pub wait_ns: f64,
    pub begin_ns: f64,
    /// Mean per `read` call, and calls per transaction.
    pub read_ns: f64,
    pub reads_per_txn: f64,
    pub write_ns: f64,
    pub writes_per_txn: f64,
    pub commit_ns: f64,
    /// p99 of `engine.commit` over every committed transaction.
    pub commit_p99_ns: f64,
    /// Root self time over the band: the part no child span covers.
    pub residual_ns: f64,
}

impl Breakdown {
    /// Σ child spans + root self time, per transaction of the band.
    pub fn accounted_ns(&self) -> f64 {
        self.gen_ns
            + self.wait_ns
            + self.begin_ns
            + self.reads_per_txn * self.read_ns
            + self.writes_per_txn * self.write_ns
            + self.commit_ns
            + self.residual_ns
    }

    /// Time inside engine calls, per transaction of the band.
    pub fn engine_ns(&self) -> f64 {
        self.begin_ns
            + self.reads_per_txn * self.read_ns
            + self.writes_per_txn * self.write_ns
            + self.commit_ns
    }
}

/// Per-transaction view used by the aggregation: a root and its children.
struct Tree {
    root: Span,
    children: Vec<Span>,
}

fn trees(buf: &SpanBuf) -> Vec<Tree> {
    let mut out: Vec<Tree> = Vec::new();
    // Children follow their root in the buffer, so one pass suffices.
    let mut current: Option<(u32, Tree)> = None;
    for (idx, span) in buf.spans().iter().enumerate() {
        if span.name == Name::Txn {
            if let Some((_, tree)) = current.take() {
                out.push(tree);
            }
            current = Some((
                idx as u32,
                Tree {
                    root: *span,
                    children: Vec::with_capacity(8),
                },
            ));
        } else if let Some((root_idx, tree)) = &mut current {
            if span.parent == *root_idx {
                tree.children.push(*span);
            }
        }
    }
    if let Some((_, tree)) = current {
        out.push(tree);
    }
    out
}

fn dur(span: &Span) -> f64 {
    (span.end_ns - span.start_ns) as f64
}

/// Aggregates the worker buffers of a workload's traced slices.
pub fn breakdown(bufs: &[SpanBuf]) -> Breakdown {
    let all: Vec<Tree> = bufs.iter().flat_map(trees).collect();
    let mut commits: Vec<u64> = all
        .iter()
        .flat_map(|t| &t.children)
        .filter(|s| s.name == Name::Commit)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    // A retried transaction has several begins under one root; the
    // decomposition keeps the plain trees.
    let first_try: Vec<&Tree> = all
        .iter()
        .filter(|t| t.children.iter().filter(|s| s.name == Name::Begin).count() == 1)
        .collect();
    if first_try.is_empty() || commits.is_empty() {
        return Breakdown::default();
    }
    commits.sort_unstable();
    let mut roots: Vec<u64> = first_try
        .iter()
        .map(|t| t.root.end_ns - t.root.start_ns)
        .collect();
    roots.sort_unstable();
    let (lo, hi) = (quantile(&roots, 0.45), quantile(&roots, 0.55));
    let band: Vec<&&Tree> = first_try
        .iter()
        .filter(|t| (lo..=hi).contains(&(t.root.end_ns - t.root.start_ns)))
        .collect();
    let n = band.len() as f64;
    let total = |name: Name| -> (f64, f64) {
        let mut sum = 0.0;
        let mut count = 0.0;
        for tree in &band {
            for span in tree.children.iter().filter(|s| s.name == name) {
                sum += dur(span);
                count += 1.0;
            }
        }
        (sum, count)
    };
    let per_txn = |name: Name| total(name).0 / n;
    let per_call = |name: Name| {
        let (sum, count) = total(name);
        if count == 0.0 {
            (0.0, 0.0)
        } else {
            (sum / count, count / n)
        }
    };
    let (read_ns, reads_per_txn) = per_call(Name::Read);
    let (write_ns, writes_per_txn) = per_call(Name::Write);
    let root_band_ns = mean(&band.iter().map(|t| dur(&t.root)).collect::<Vec<_>>());
    let covered: f64 = band
        .iter()
        .map(|t| t.children.iter().map(dur).sum::<f64>())
        .sum::<f64>()
        / n;
    Breakdown {
        band_txns: band.len(),
        root_p50_ns: quantile(&roots, 0.5) as f64,
        gen_ns: per_txn(Name::Gen),
        wait_ns: per_txn(Name::Wait),
        begin_ns: per_txn(Name::Begin),
        read_ns,
        reads_per_txn,
        write_ns,
        writes_per_txn,
        commit_ns: per_txn(Name::Commit),
        commit_p99_ns: quantile(&commits, 0.99) as f64,
        residual_ns: root_band_ns - covered,
    }
}

/// Renders a 1-in-`every` sample of transactions (every span of a sampled
/// transaction, plus every GC pass) as JSON lines.
pub fn sample_jsonl(bufs: &[SpanBuf], every: u32) -> String {
    let mut out = String::new();
    for (thread, buf) in bufs.iter().enumerate() {
        for (idx, span) in buf.spans().iter().enumerate() {
            let root_tx = match span.parent {
                ROOT => span.tx,
                parent => buf.spans()[parent as usize].tx,
            };
            if span.name != Name::Gc && root_tx % every != 0 {
                continue;
            }
            let parent = match span.parent {
                ROOT => "null".to_string(),
                parent => parent.to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tx\":{}}}",
                span.name.as_str(),
                span.start_ns,
                span.end_ns,
                span.tx
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::now;

    /// A hand-built buffer: `txns` identical trees with known durations.
    fn synthetic(txns: u32) -> SpanBuf {
        let mut buf = SpanBuf::new(now(), 1024);
        let mut t = 0u64;
        for tx in 1..=txns {
            let root = buf.spans.len() as u32;
            let child = |buf: &mut SpanBuf, name, start: u64, len: u64| {
                buf.spans.push(Span {
                    name,
                    start_ns: t + start,
                    end_ns: t + start + len,
                    parent: root,
                    tx,
                });
            };
            buf.spans.push(Span {
                name: Name::Txn,
                start_ns: t,
                end_ns: t + 1000,
                parent: ROOT,
                tx,
            });
            child(&mut buf, Name::Gen, 0, 100);
            child(&mut buf, Name::Begin, 110, 50);
            child(&mut buf, Name::Read, 170, 200);
            child(&mut buf, Name::Read, 380, 100);
            child(&mut buf, Name::Write, 490, 150);
            child(&mut buf, Name::Commit, 650, 300);
            t += 2000;
        }
        buf
    }

    #[test]
    fn spans_and_residual_add_up_to_the_root() {
        let b = breakdown(&[synthetic(40)]);
        assert_eq!(b.band_txns, 40);
        assert_eq!(b.root_p50_ns, 1000.0);
        assert_eq!(b.read_ns, 150.0);
        assert_eq!(b.reads_per_txn, 2.0);
        assert_eq!(b.writes_per_txn, 1.0);
        assert_eq!(b.commit_p99_ns, 300.0);
        assert_eq!(b.residual_ns, 100.0);
        assert_eq!(b.accounted_ns(), 1000.0);
        assert_eq!(b.engine_ns(), 800.0);
    }

    #[test]
    fn sample_keeps_whole_transactions() {
        let text = sample_jsonl(&[synthetic(128)], 64);
        // Transactions 64 and 128, seven spans each.
        assert_eq!(text.lines().count(), 14);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"name\":\"engine.commit\""));
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut buf = SpanBuf::new(now(), 2);
        let a = buf.open(Name::Txn, ROOT, 1);
        buf.close(a);
        let b = buf.open(Name::Gen, a, 1);
        buf.close(b);
        assert_eq!(buf.open(Name::Begin, a, 1), ROOT);
        assert_eq!((buf.spans().len(), buf.dropped), (2, 1));
    }
}
