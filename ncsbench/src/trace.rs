//! In-memory spans recorded around the benchmark's calls into NCS.
//!
//! Each benchmark thread owns a [`Tracer`]; a disabled tracer reads no
//! clock and records nothing, so the untraced phases pay one branch per
//! call. Spans carry the op id of the message, round trip, window or
//! collective they belong to, which links a sender's spans to the peer
//! thread's spans for the same op.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub thread: u32,
    pub id: u32,
    /// Id of the enclosing span on the same thread.
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (a no-op when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Spans one thread may record in one traced phase; a loop that drives
/// ops ends its traced phase early once its tracer is full, which bounds
/// the run's memory.
const PHASE_BUDGET: usize = 50_000;

/// One thread's span recorder.
pub struct Tracer {
    on: bool,
    thread: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    limit: usize,
}

impl Tracer {
    /// A recorder for benchmark thread `thread`; all threads of a run share
    /// `origin`, so their timestamps compare.
    pub fn new(thread: u32, origin: Instant) -> Self {
        Tracer {
            on: false,
            thread,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            limit: 0,
        }
    }

    /// Turns recording on (with a fresh budget) or off.
    pub fn set_on(&mut self, on: bool) {
        if on && !self.on {
            self.limit = self.spans.len() + PHASE_BUDGET;
        }
        self.on = on;
    }

    /// Whether this traced phase used up its span budget.
    pub fn full(&self) -> bool {
        self.on && self.spans.len() >= self.limit
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens span `name` for `op`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            thread: self.thread,
            id,
            parent: self.stack.last().copied(),
            op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Sets the op id of `open` once it is known (a receive learns its op
    /// from the message it returns).
    pub fn set_op(&mut self, open: Open, op: u64) {
        if let Some(id) = open.0 {
            self.spans[id as usize].op = op;
        }
    }

    /// Drops `open`, the innermost and most recent span (a receive that
    /// timed out with nothing to attribute).
    pub fn cancel(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.stack.pop();
            self.spans.truncate(id as usize);
        }
    }

    /// Runs `f` inside span `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let r = f();
        self.end(open);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: count, total self time and every span's duration.
#[derive(Debug, Default, Clone)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
    pub durations_us: Vec<f64>,
}

/// Self time per span name: each span's duration minus the part of it
/// that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.thread, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&(s.thread, s.id))
            .map_or(0, |kids| union_ns(kids));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += s.dur_ns().saturating_sub(covered);
        e.durations_us.push(s.dur_ns() as f64 / 1e3);
    }
    out
}

/// Length of the union of the intervals (sorted in place).
fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One-way latencies (µs): for each op, from the end of a `send`/`isend`
/// span on one thread to the end of the `recv_view` span of the same op
/// on another thread — both on the run's one clock.
pub fn one_way_us(spans: &[Span]) -> Vec<f64> {
    let mut sends: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| matches!(s.name, "send" | "isend")) {
        sends.entry(s.op).or_default().push((s.thread, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == "recv_view")
        .filter_map(|r| {
            let sent = sends.get(&r.op)?.iter().find(|(t, _)| *t != r.thread)?.1;
            Some(r.end_ns.saturating_sub(sent) as f64 / 1e3)
        })
        .collect()
}

/// Writes the spans as tab-separated lines, one per span.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tid\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.thread, s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: u32, id: u32, parent: Option<u32>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            thread,
            id,
            parent,
            op: 1,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span(0, 0, None, "op", 0, 100),
            span(0, 1, Some(0), "send", 10, 30),
            span(0, 2, Some(0), "recv_view", 25, 60),
            span(1, 0, None, "recv_view", 15, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 50);
        assert_eq!(t["send"].self_ns, 20);
        assert_eq!(t["recv_view"].count, 2);
        assert_eq!(t["recv_view"].self_ns, 40);
    }

    #[test]
    fn one_way_pairs_across_threads() {
        let spans = vec![
            span(0, 0, None, "send", 0, 10),
            span(1, 0, None, "recv_view", 5, 25),
            span(0, 1, None, "recv_view", 30, 40),
        ];
        assert_eq!(one_way_us(&spans), vec![0.015]);
    }
}
