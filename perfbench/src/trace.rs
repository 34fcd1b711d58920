//! In-memory spans recorded by the traced run around every call the
//! benchmark makes into a layer, and the per-layer self times derived
//! from them. Spans are written out as one JSON file when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// One id per fit or per request; children share their root's id.
    pub id: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record a span timed on another clock (nanoseconds from its own
    /// origin, e.g. a load-generator phase start).
    pub fn record_ns(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, id, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children (overlapping children are merged,
    /// children are clipped to the parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.id,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let t = Trace {
            t0: Instant::now(),
            spans: vec![
                span("fit", None, 0, 100),
                span("mine", Some(0), 10, 30),
                span("sweep", Some(0), 25, 60), // overlaps mine by 5
                span("save", Some(0), 90, 120), // clipped to the parent
                span("inner", Some(2), 30, 40),
            ],
        };
        assert_eq!(t.self_ns(), vec![100 - (50 + 10), 20, 25, 30, 10]);
        assert_eq!(t.durations("sweep"), vec![35e-9]);
    }
}
