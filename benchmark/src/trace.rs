//! In-memory span recorder. Spans are recorded from the harness's own code,
//! around each call into a product layer, and written out when the run ends;
//! a layer's self time is its span minus the part its child spans cover.
//! With tracing off every call is a no-op, so the end-to-end run pays
//! nothing for the instrumentation.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are seconds since the tracer was created.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Spans of one workload op (or one probe repetition) share this id.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new op: spans begun from now on carry the next id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close span `id`. Spans opened inside it and never closed (an early
    /// error return) are abandoned at zero length.
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        self.spans[i].end = self.t0.elapsed().as_secs_f64();
        while self.open.pop().is_some_and(|top| top != i) {}
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span called `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end - s.start - c).max(0.0))
            .collect()
    }

    /// Write every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"op\":{}}}{}",
                s.name,
                s.start,
                s.end,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tr.end(outer);
        let outer_self = tr.self_times("outer")[0];
        let inner_self = tr.self_times("inner")[0];
        assert!(inner_self >= 0.020);
        assert!(
            outer_self < inner_self,
            "outer self time must not count its child"
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.time("x", || ());
        assert!(tr.self_times("x").is_empty());
    }
}
