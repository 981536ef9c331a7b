//! Spans recorded by the benchmark around its calls into each crate.
//! They are kept in memory and written out as JSON lines at the end of
//! a traced run. With tracing off, [`Spans::open`] and [`Spans::close`]
//! do nothing.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

/// The root span's id; top-level spans name it as their parent.
pub const ROOT: SpanId = 0;

struct Span {
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Opens the root span `run` when `on`.
    pub fn new(on: bool) -> Spans {
        let mut s = Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        };
        if on {
            s.spans.push(Span {
                parent: None,
                name: "run",
                start_ns: 0,
                end_ns: 0,
            });
        }
        s
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            parent: Some(parent),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose ends were measured elsewhere.
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                parent: Some(parent),
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Sum of the durations of the spans named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Closes the root span and returns the smallest share of time that
    /// child spans cover: of the root span, and of all the spans named
    /// in `covered` taken together (1 with tracing off).
    pub fn finish(&mut self, covered: &[&str]) -> f64 {
        if !self.on {
            return 1.0;
        }
        self.spans[ROOT].end_ns = self.ns(Instant::now());
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        // (covered, total) per name; the root is checked on its own.
        let mut shares = vec![(0u64, 0u64); covered.len() + 1];
        for (id, s) in self.spans.iter().enumerate() {
            let slot = match covered.iter().position(|&c| c == s.name) {
                _ if id == ROOT => covered.len(),
                Some(i) => i,
                None => continue,
            };
            let kids = &mut children[id];
            kids.sort_unstable();
            let (mut union, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            shares[slot].0 += union;
            shares[slot].1 += s.end_ns - s.start_ns;
        }
        shares
            .iter()
            .filter(|&&(_, total)| total > 0)
            .map(|&(union, total)| union as f64 / total as f64)
            .fold(1.0, f64::min)
    }

    /// The spans as JSON lines: `id`, `parent`, `name`, `start_ns`, `end_ns`.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
