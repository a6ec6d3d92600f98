//! In-memory spans for the traced run.
//!
//! Each span records a name, start, end and parent on one monotonic clock.
//! Spans are kept in memory and written out once the run ends. A span's
//! self time is its duration minus the time its child spans cover; children
//! never overlap each other, so summing self times over every span gives back
//! exactly the root span's duration — the wall time of the traced run.
//!
//! A disabled tracer records nothing: the untraced run goes through the same
//! code with every call reduced to a flag check.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
}

/// Records nested wall-clock spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: f64::NAN,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span measured on this tracer's clock by someone
    /// else, clamped into its (closed) parent so clock offsets below a
    /// microsecond cannot make a child outlast its parent.
    pub fn record(&mut self, name: &'static str, start_us: f64, end_us: f64, parent: SpanId) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent];
        let start_us = start_us.clamp(p.start_us, p.end_us);
        let end_us = end_us.clamp(start_us, p.end_us);
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: Some(parent),
        });
    }

    /// Duration of a closed span, in µs.
    pub fn duration_us(&self, id: SpanId) -> f64 {
        self.spans.get(id).map_or(0.0, |s| s.end_us - s.start_us)
    }

    /// Self time (µs) summed per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0.0) += s.end_us - s.start_us - c;
        }
        out
    }

    /// Writes every span as JSON: `header` fields first, then a `spans`
    /// array of `{name, start_us, end_us, parent}` objects.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{")?;
        for (key, value) in header {
            write!(out, "\"{key}\": {value}, ")?;
        }
        writeln!(out, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_us, s.end_us
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut tr = Tracer::new(true);
        let root = tr.open("root", None);
        let a = tr.time("a", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(a, 7);
        let b = tr.open("b", Some(root));
        tr.time("c", b, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        tr.close(b);
        tr.close(root);
        let wall = tr.duration_us(root);
        let total: f64 = tr.self_times().values().sum();
        assert!((total - wall).abs() < 1e-6 * wall, "{total} vs {wall}");
        assert!(tr.self_times()["a"] >= 2000.0);
    }

    #[test]
    fn recorded_spans_are_clamped_into_their_parent() {
        let mut tr = Tracer::new(true);
        let root = tr.open("root", None);
        tr.close(root);
        let wall = tr.duration_us(root);
        tr.record("late", -5.0, 1e12, root);
        let times = tr.self_times();
        assert!((times["late"] - wall).abs() < 1e-9);
        assert!(times["root"].abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.open("root", None);
        assert_eq!(tr.time("a", root, || 3), 3);
        tr.record("b", 0.0, 1.0, root);
        tr.close(root);
        assert!(tr.self_times().is_empty());
    }
}
