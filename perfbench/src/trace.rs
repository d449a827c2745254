//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (nanoseconds since the recorder
//! was made), and the span that caused it. Spans stay in memory while
//! the workload runs and are written out as JSON lines when it ends.
//! Nothing here reaches inside the program: every span wraps a call to
//! a public function.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Spans::close`]. Returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Add a span measured elsewhere (for example by a client thread),
    /// as offsets from this recorder's origin. Returns its id.
    pub fn push_measured(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time_their_closures() {
        let mut spans = Spans::new();
        let outer = spans.open("outer", None);
        let x = spans.record("inner", Some(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        spans.close(outer);
        assert_eq!(x, 7);
        let ms = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-6;
        let (outer, inner) = (&spans.spans[0], &spans.spans[1]);
        assert_eq!((outer.name, inner.name), ("outer", "inner"));
        assert!(ms(inner) >= 2.0 && ms(outer) >= ms(inner));
        assert_eq!(inner.parent, Some(0));
    }
}
