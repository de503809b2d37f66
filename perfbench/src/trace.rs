//! In-memory span recording around calls into the library's public API.
//!
//! Spans are timed from outside: the benchmark wraps a public call, never
//! instruments inside it. Each span holds its name, start and end (µs since
//! the tracer was created), the span it nests under and the op it belongs
//! to. Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `pss.solve`.
    pub name: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch.
    pub end_us: f64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The workload op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Thread-safe span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            on: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: code written against a tracer runs
    /// untraced, so traced minus untraced time is the tracing overhead.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_us = self.now_us();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_us,
            end_us: f64::NAN,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if !self.on {
            return;
        }
        let t = self.now_us();
        self.lock()[id].end_us = t;
    }

    /// Runs `f` inside a span and returns its value.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval as a span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_us: at(start),
            end_us: at(end),
            parent,
            op,
        });
        spans.len() - 1
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Span count.
    pub count: usize,
    /// Summed wall time (ms).
    pub total_ms: f64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_us - s.start_us - covered) / 1e3
        })
        .collect()
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.ms();
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"id":{i},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"op":{}}}"#,
            s.name, s.start_us, s.end_us, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |name, a, b, parent| Span {
            name,
            start_us: a,
            end_us: b,
            parent,
            op: 0,
        };
        let spans = vec![
            mk("op", 0.0, 10_000.0, None),
            mk("a", 1_000.0, 4_000.0, Some(0)),
            mk("b", 3_000.0, 5_000.0, Some(0)),
            mk("c", 6_000.0, 7_000.0, Some(0)),
        ];
        let off = Tracer::off();
        assert_eq!(off.span("x", None, 0, || 7), 7);
        assert!(off.spans().is_empty());
        let s = self_times(&spans);
        // Children cover [1, 5] and [6, 7] ms of the 10 ms op.
        assert!((s[0] - 5.0).abs() < 1e-12, "{}", s[0]);
        let t = totals(&spans);
        assert_eq!(t["a"].count, 1);
        assert!((t["b"].total_ms - 2.0).abs() < 1e-12);
    }
}
