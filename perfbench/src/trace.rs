//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions, never inside the program. Each span keeps its name,
//! start, end and parent; self time is the span minus the time its child
//! spans cover. Spans live in memory and are written out with the result.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall seconds of the last span named `name` (0 if none was recorded).
    pub fn wall_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::wall_s)
    }

    /// Span wall minus the walls of its direct children.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::wall_s)
            .sum();
        self.spans[id].wall_s() - children
    }
}
