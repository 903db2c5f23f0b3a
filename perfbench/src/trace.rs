//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer; nothing inside the program is instrumented.  Every
//! `World::step` call is kept as a compact `(start, duration)` pair
//! under the simulated-second slice that contains it.  Everything stays
//! in memory until [`Tracer::write`] runs at the end.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One named interval, with the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran (a layer boundary such as `setup` or `probe.store`).
    pub name: String,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One timed `World::step` call.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// The slice span the step ran under.
    pub parent: SpanId,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
}

/// Records spans and steps in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    steps: Vec<Step>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records one step that started at `start_ns` and ran `dur_ns`.
    pub fn step(&mut self, parent: SpanId, start_ns: u64, dur_ns: u64) {
        self.steps.push(Step {
            parent,
            start_ns,
            dur_ns: dur_ns.min(u32::MAX as u64) as u32,
        });
    }

    /// Every span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every recorded step, in the order run.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// A span's self time: its duration minus what its child spans and
    /// steps cover (children run sequentially, so their durations add).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum::<u64>()
            + self
                .steps
                .iter()
                .filter(|s| s.parent == id)
                .map(|s| s.dur_ns as u64)
                .sum::<u64>();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Writes the spans as JSON lines to `<stem>.spans.jsonl` and the
    /// steps as little-endian `(parent u32, start_ns u64, dur_ns u32)`
    /// records to `<stem>.steps.bin`, both under `dir`.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(id)
            );
        }
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), text)?;
        let mut bin = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.steps.bin")),
        )?);
        for s in &self.steps {
            bin.write_all(&(s.parent as u32).to_le_bytes())?;
            bin.write_all(&s.start_ns.to_le_bytes())?;
            bin.write_all(&s.dur_ns.to_le_bytes())?;
        }
        bin.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_steps() {
        let mut t = Tracer::new();
        t.spans.push(Span {
            name: "run".into(),
            parent: None,
            start_ns: 0,
            end_ns: 1_000,
        });
        t.spans.push(Span {
            name: "slice".into(),
            parent: Some(0),
            start_ns: 100,
            end_ns: 600,
        });
        t.step(1, 100, 200);
        t.step(1, 300, 250);
        assert_eq!(t.self_time_ns(0), 500);
        assert_eq!(t.self_time_ns(1), 50);
    }
}
