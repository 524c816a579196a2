//! Spans recorded around each call into a layer, kept in memory and
//! written out when the run ends.
//!
//! The spans sit in the benchmark's own code, at the boundary of each
//! call into a crate: they say how long a layer's call took, not where the
//! time went inside it. A span's self time is its duration minus the part
//! its child spans cover; spans nest strictly (one thread), so that is the
//! duration minus the children's durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (a crate of the repository, or
    /// `perfbench` for the benchmark's own bookkeeping).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. While disabled, `enter`/`exit` record nothing and
/// read no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder, recording or not.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off (between spans only).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span in `layer`.
    pub fn enter(&mut self, layer: &'static str, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the span `enter` opened.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(layer, name);
        let r = f();
        self.exit(open);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
        }
        out
    }

    /// Write the spans as JSON lines after a `header` line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"parent":{parent},"layer":"{}","name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.layer,
                archgraphd::json::escape(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("graph", "gen", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("perfbench", "pass", || ());
        let outer = t.enter("perfbench", "pass");
        t.span("listrank", "call", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, Some(1));
        let self_s = t.self_seconds();
        let outer_total = (s[1].end_ns - s[1].start_ns) as f64 * 1e-9;
        let child = (s[2].end_ns - s[2].start_ns) as f64 * 1e-9;
        assert!(child >= 0.002);
        assert!((self_s["listrank"] - child).abs() < 1e-12);
        let first = (s[0].end_ns - s[0].start_ns) as f64 * 1e-9;
        assert!((self_s["perfbench"] - (outer_total - child + first)).abs() < 1e-9);
    }
}
