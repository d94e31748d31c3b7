//! The outside-in trace: spans recorded by the benchmark around its own
//! calls into the program's public API, kept in memory and written as
//! JSONL when the run ends. Nothing inside the program is instrumented.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use mgopt_optimizer::{Evaluation, Genome, Problem};

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One timed interval. Zero-length spans mark a point in time (a frame
/// arriving from the daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span was taken at, e.g. `engine.fleet`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The study this span belongs to (`None` for replay calls).
    pub study: Option<u64>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Units of work done inside the span (rows, bytes), 0 when unused.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// An instant as nanoseconds since the origin.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span starting now; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, study: Option<u64>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            parent,
            study,
            start_ns,
            end_ns: start_ns,
            work: 0,
        })
    }

    /// End an open span now, crediting it `work` units.
    pub fn close(&self, id: SpanId, work: u64) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id].end_ns = end_ns;
        spans[id].work = work;
    }

    /// Record a finished span.
    pub fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"study\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.study),
                s.start_ns,
                s.end_ns,
                s.work
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by at least one child interval
/// (children are clipped to the parent; overlaps count once).
pub fn coverage_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let iv: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    span.dur_ns() - coverage_ns(span.start_ns, span.end_ns, &iv)
}

/// Forwarding [`Problem`] wrapper: times every cohort evaluation as an
/// `engine.fleet` span (work = rows) under one study's root span and
/// forwards every other trait method unchanged, so the search it wraps
/// makes exactly the calls it would make unwrapped.
pub struct TracedProblem<'a, P: Problem> {
    /// The wrapped problem.
    pub inner: &'a P,
    /// Where spans go.
    pub recorder: &'a Recorder,
    /// The study's id.
    pub study: u64,
    /// The study's root span.
    pub parent: SpanId,
}

impl<P: Problem> Problem for TracedProblem<'_, P> {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    fn n_objectives(&self) -> usize {
        self.inner.n_objectives()
    }

    fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
        self.inner.evaluate(genome)
    }

    fn evaluate_batch(&self, genomes: &[Genome]) -> Vec<Vec<f64>> {
        self.inner.evaluate_batch(genomes)
    }

    fn n_constraints(&self) -> usize {
        self.inner.n_constraints()
    }

    fn evaluate_constrained(&self, genome: &[u16]) -> Evaluation {
        self.inner.evaluate_constrained(genome)
    }

    fn evaluate_batch_constrained(&self, genomes: &[Genome]) -> Vec<Evaluation> {
        let id = self
            .recorder
            .open("engine.fleet", Some(self.study), Some(self.parent));
        let out = self.inner.evaluate_batch_constrained(genomes);
        self.recorder.close(id, genomes.len() as u64);
        out
    }

    fn space_size(&self) -> usize {
        self.inner.space_size()
    }

    fn genome_at(&self, i: usize) -> Genome {
        self.inner.genome_at(i)
    }

    fn index_of(&self, genome: &[u16]) -> usize {
        self.inner.index_of(genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent: None,
            study: None,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(&span(10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let (a, b) = (span(20, 30), span(35, 45));
        assert_eq!(self_time_ns(&span(10, 50), &[&a, &b]), 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        let (a, b) = (span(20, 40), span(30, 45));
        assert_eq!(self_time_ns(&span(10, 50), &[&a, &b]), 15);
    }

    #[test]
    fn nested_children_count_once() {
        let outer = span(15, 45);
        let inner = span(20, 30);
        assert_eq!(self_time_ns(&span(10, 50), &[&outer, &inner]), 10);
        assert_eq!(self_time_ns(&outer, &[&inner]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let (early, late) = (span(0, 20), span(40, 90));
        assert_eq!(self_time_ns(&span(10, 50), &[&early, &late]), 20);
        let outside = span(60, 70);
        assert_eq!(self_time_ns(&span(10, 50), &[&outside]), 40);
    }

    #[test]
    fn point_children_cover_nothing() {
        let p = span(30, 30);
        assert_eq!(self_time_ns(&span(10, 50), &[&p]), 40);
    }

    #[test]
    fn wrapper_forwards_and_records_one_span_per_cohort() {
        use mgopt_optimizer::FnProblem;
        let inner = FnProblem::new(vec![3, 4], 2, |g: &[u16]| vec![g[0] as f64, g[1] as f64]);
        let rec = Recorder::new();
        let root = rec.open("study", Some(7), None);
        let traced = TracedProblem {
            inner: &inner,
            recorder: &rec,
            study: 7,
            parent: root,
        };
        let cohort = vec![vec![0u16, 1], vec![2, 3]];
        assert_eq!(
            traced.evaluate_batch_constrained(&cohort),
            inner.evaluate_batch_constrained(&cohort)
        );
        assert_eq!(traced.space_size(), 12);
        assert_eq!(traced.genome_at(5), inner.genome_at(5));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "engine.fleet");
        assert_eq!(
            (spans[1].parent, spans[1].study, spans[1].work),
            (Some(root), Some(7), 2)
        );
    }
}
