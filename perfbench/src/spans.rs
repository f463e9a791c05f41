//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span has a name, start and end (ns since the recorder was
//! built), the span that caused it, and the frame it belongs to. Spans go
//! into a buffer allocated up front; once it is full further spans are
//! counted as dropped rather than grown into. The buffer is written out
//! as TSV when the benchmark ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`NONE`] when recording is off or the
/// buffer is full.
pub type SpanId = u32;

/// "No span": the parent of a root span, or a span that was not kept.
pub const NONE: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    frame: u64,
}

pub struct Spans {
    /// Whether spans are recorded; the traced run toggles this per window.
    pub on: bool,
    /// Parent given to spans opened or recorded from now on.
    pub scope: SpanId,
    origin: Instant,
    buf: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// A recorder holding at most `capacity` spans, initially off.
    pub fn new(capacity: usize) -> Self {
        Spans {
            on: false,
            scope: NONE,
            origin: Instant::now(),
            buf: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Opens a span starting now under the current scope. Close it with
    /// [`Spans::close`].
    pub fn open(&mut self, name: &'static str, frame: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.buf.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.scope,
            frame,
        });
        (self.buf.len() - 1) as SpanId
    }

    /// Ends span `id` now (no-op for [`NONE`]).
    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.buf[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a span from two stamps the caller already took.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, frame: u64) {
        if !self.on {
            return;
        }
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.buf.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.scope,
            frame,
        });
    }

    /// Count and mean duration (µs) of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> (usize, f64) {
        let (mut n, mut total) = (0usize, 0u64);
        for s in self.buf.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end_ns - s.start_ns;
        }
        (
            n,
            if n == 0 {
                0.0
            } else {
                total as f64 / n as f64 / 1e3
            },
        )
    }

    /// Spans kept and spans dropped because the buffer was full.
    pub fn counts(&self) -> (usize, u64) {
        (self.buf.len(), self.dropped)
    }

    /// Writes every kept span as one TSV row.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tframe")?;
        for (i, s) in self.buf.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.frame
            )?;
        }
        out.flush()
    }
}
