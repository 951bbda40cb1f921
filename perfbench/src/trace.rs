//! In-memory spans recorded around the benchmark's own calls into each
//! layer: name, start, end, parent and request id, one buffer per thread.
//! Buffers are written out as JSON lines when the run ends, and reduced
//! to per-name self times (a span's duration minus its children's).

use crate::stats::quote;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// A thread's spans. With `on == false` every call is a no-op, so the
/// untraced paths run the same code without recording.
pub struct SpanBuf {
    thread: u32,
    epoch: Instant,
    on: bool,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl SpanBuf {
    pub fn new(thread: u32, epoch: Instant, on: bool) -> Self {
        Self {
            thread,
            epoch,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Per-name self-time summary, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_ns: f64,
}

impl SelfTime {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// Self times by span name across every buffer.
pub fn self_times(bufs: &[&SpanBuf]) -> BTreeMap<&'static str, SelfTime> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for buf in bufs {
        let mut child_ns = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in buf.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*kids);
            samples.entry(s.name).or_default().push(own as f64);
        }
    }
    samples
        .into_iter()
        .map(|(name, v)| {
            let st = SelfTime {
                count: v.len(),
                total_ns: v.iter().sum(),
            };
            (name, st)
        })
        .collect()
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &Path, bufs: &[&SpanBuf]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for buf in bufs {
        for (id, s) in buf.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": {}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                buf.thread,
                quote(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
