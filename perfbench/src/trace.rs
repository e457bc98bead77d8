//! Benchmark-side spans: each harness call into a layer's public
//! function is recorded with its name, start, end, parent span and job
//! id. Spans stay in memory and are written out as JSON lines at exit.
//!
//! A disabled tracer runs the same code path and records nothing, so
//! the traced/untraced difference is the recording cost alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: Option<u64>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.begin(name, job);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncated inside an open span");
        self.spans.truncate(len);
    }

    /// Median duration (microseconds) of the spans called `name`.
    pub fn p50_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        crate::common::median(&d)
    }

    /// Self time per layer (span duration minus the time its children
    /// cover), summed over every span, in nanoseconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn export(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin("pass.x", None);
        t.span("service.submit", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let by_layer = t.self_time_by_layer();
        let total = t.spans()[0].dur_ns();
        assert_eq!(by_layer["pass"] + by_layer["service"], total);
        assert!(by_layer["service"] >= 2_000_000);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("service.submit", None, || ());
        assert!(t.spans().is_empty());
    }
}
