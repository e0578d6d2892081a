//! In-memory spans recorded around the public layer calls the benchmark
//! makes. Nothing inside the program is instrumented: a span starts just
//! before the benchmark calls into a layer and ends when the call
//! returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The request (program submission or job) the span belongs to.
    pub req: u64,
    /// The thread the call ran on: 0 for the benchmark's own thread,
    /// `k` for the `k`-th worker of a fanned-out stage.
    pub lane: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals over all spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total: u64,
    /// Sum of self times, nanoseconds: the part of each span during
    /// which none of its children ran. Children on parallel threads can
    /// overlap; their overlap counts once.
    pub self_time: u64,
}

/// Records spans in memory; [`Tracer::write`] writes them out.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, req);
        let r = f();
        self.exit(id);
        r
    }

    /// Records a call that ran on worker thread `lane` from `start` to
    /// `end`, as a child of span `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent: Some(parent),
            req,
            lane,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total duration and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        self.totals_where(|_| true)
    }

    /// [`Tracer::totals`] over the spans whose parent is named `parent`.
    pub fn totals_under(&self, parent: &str) -> BTreeMap<&'static str, LayerTotal> {
        self.totals_where(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
    }

    fn totals_where(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, LayerTotal> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, mut kids) in self.spans.iter().zip(children) {
            if keep(s) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total += s.dur();
                t.self_time += s.dur().saturating_sub(covered(&mut kids, s));
            }
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent req lane name start_ns end_ns` (`-` for no parent).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\treq\tlane\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.lane, s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// How much of `span` the intervals in `kids` cover, overlaps counted
/// once. Sorts `kids`.
fn covered(kids: &mut [(u64, u64)], span: &Span) -> u64 {
    kids.sort_unstable();
    let (mut total, mut reach) = (0, span.start);
    for &(start, end) in kids.iter() {
        let (start, end) = (start.max(reach), end.min(span.end));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.enter("root", 7);
        t.leaf("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let totals = t.totals();
        let (root, child) = (totals["root"], totals["child"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(root.self_time + child.total, root.total);
        assert_eq!(t.totals_under("root")["child"].count, 1);
        assert!(t.totals_under("child").is_empty());
        assert!(child.total >= 2_000_000);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::default();
        let root = t.enter("root", 1);
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = Instant::now();
        t.exit(root);
        t.record("worker", 1, root, 1, t0, t1);
        t.record("worker", 1, root, 2, t0, t1);
        let totals = t.totals();
        let (root, worker) = (totals["root"], totals["worker"]);
        assert_eq!(root.self_time + worker.total / 2, root.total);
        assert_eq!(t.spans()[2].lane, 2);
    }
}
