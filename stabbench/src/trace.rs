//! In-memory span recorder for the traced run.
//!
//! A span is one call from benchmark code into a layer's public
//! function: its name, start, end, the span that was open when it began
//! (its parent), and the `(origin, seq)` of the message it worked on
//! (`(u16::MAX, 0)` when the call is not about one message). Spans stay
//! in memory until the run ends, then [`Tracer::write`] saves them.
//! A span's self time is its duration minus the time of its direct
//! children.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// Spans of one name written out by [`Tracer::write`]; all of them
/// count in [`Tracer::aggregate`].
pub const WRITTEN_PER_NAME: usize = 100_000;

/// Message id of a span that is not about a single message.
pub const NO_MSG: (u16, u64) = (u16::MAX, 0);

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    origin: u16,
    seq: u64,
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
#[derive(Debug)]
pub struct Open(u32);

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Number of calls.
    pub calls: u64,
    /// Total self time in milliseconds.
    pub self_ms: f64,
    /// Median call duration (children included) in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile call duration in nanoseconds.
    pub p99_ns: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recorder timing against `epoch`, so spans recorded on
    /// several threads can be merged onto one timeline.
    pub fn with_epoch(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Append `other`'s spans (recorded against the same epoch).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Spans named `name` that lasted at least `ns` nanoseconds.
    pub fn count_at_least(&self, name: &str, ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns - s.start_ns >= ns)
            .count() as u64
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for message `msg`, as a child of the
    /// innermost span still open.
    pub fn begin(&mut self, name: &'static str, msg: (u16, u64)) -> Open {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            origin: msg.0,
            seq: msg.1,
        });
        self.open.push(idx);
        // Stamp last, so the bookkeeping above is outside the span.
        let t = self.now();
        self.spans[idx as usize].start_ns = t;
        Open(idx)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        let t = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize].end_ns = t;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, msg: (u16, u64), f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, msg);
        let r = f();
        self.end(s);
        r
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sum of the durations of spans named in `names`, in ns: the busy
    /// time of the layers those calls enter (the names must not nest).
    pub fn busy_ns(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Calls, self time and duration percentiles per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, CallStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            durations.entry(s.name).or_default().push(d as f64);
            *self_ns.entry(s.name).or_default() += d.saturating_sub(child_ns[i]);
        }
        durations
            .into_iter()
            .map(|(name, d)| {
                let sum = stats::summarize(d);
                let stats = CallStats {
                    calls: sum.n as u64,
                    self_ms: self_ns[name] as f64 / 1e6,
                    p50_ns: sum.p50,
                    p99_ns: sum.p99,
                };
                (name, stats)
            })
            .collect()
    }

    /// Write the spans as CSV rows under the header
    /// `name,origin,seq,start_ns,end_ns,parent`, at most
    /// [`WRITTEN_PER_NAME`] per name (the first ones recorded), so a file
    /// stays tens of megabytes. `parent` is the row index (from 0) of the
    /// parent span; `origin` and `parent` are -1 when absent or when the
    /// parent row was not written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,origin,seq,start_ns,end_ns,parent")?;
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        let mut row = vec![-1i64; self.spans.len()];
        let mut rows = 0i64;
        for (i, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_default();
            if *n >= WRITTEN_PER_NAME {
                continue;
            }
            *n += 1;
            row[i] = rows;
            rows += 1;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                row[s.parent as usize]
            };
            let origin = if s.origin == u16::MAX {
                -1
            } else {
                s.origin as i64
            };
            writeln!(
                w,
                "{},{origin},{},{},{},{parent}",
                s.name, s.seq, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
