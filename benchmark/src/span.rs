//! Harness-side spans: the benchmark wraps every call into a layer of
//! the program in a span recorded here, outside the program. Spans live
//! in a `Vec` and are written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` indexes the tracer's span list;
/// spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times closures and, when enabled, records them as nested spans. A
/// disabled tracer still times (the end-to-end run needs stage
/// durations) but allocates nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name`; returns its value and its
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let value = f(self);
            return (value, start.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let value = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Share of the time inside spans called `root` that their direct
/// children account for.
pub fn attributed_share(spans: &[Span], root: &str) -> f64 {
    let mut total = 0u64;
    let mut covered = 0u64;
    for s in spans {
        if s.name == root {
            total += s.duration_ns();
        } else if s.parent.is_some_and(|p| spans[p].name == root) {
            covered += s.duration_ns();
        }
    }
    if total == 0 {
        return 0.0;
    }
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 25),
            span("b", Some(0), 40, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 10, 55]);
        assert!((attributed_share(&spans, "op") - 0.85).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_tags_the_operation() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let ((), outer) = tr.time("op", |tr| {
            tr.time("stage", |_| std::hint::black_box(1 + 1));
        });
        assert!(outer >= 0.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op), ("op", None, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("stage", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.time("op", |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
