//! Benchmark-side spans: one span around each call the benchmark makes
//! into a workspace crate, kept in memory and written out as JSONL when
//! the run ends.
//!
//! Recording is off unless [`set_enabled`] turned it on (the `--trace 1` run), in
//! which case [`span`] is a clock read on entry and a locked push on exit.
//! With recording off, [`span`] returns an inert guard and reads no clock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u64,
    /// Layer-qualified name, e.g. `is.valley_search`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static REC: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn rec() -> &'static Recorder {
    REC.get_or_init(|| Recorder {
        origin: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    rec();
    ON.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's origin.
pub fn now_ns() -> u64 {
    rec().origin.elapsed().as_nanos() as u64
}

/// Guard of an open span; the span is recorded when the guard drops.
pub struct Guard {
    live: Option<(u64, u64, &'static str, u64)>,
}

impl Guard {
    /// Id of this span (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.live.map_or(0, |(id, ..)| id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.live.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        push(SpanRec {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }
}

fn push(span: SpanRec) {
    rec()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
}

/// Open a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    span_under(name, parent)
}

/// Open a span under an explicit parent (for work handed to another
/// thread: pass the parent guard's [`Guard::id`]).
pub fn span_under(name: &'static str, parent: u64) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = rec().next.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        live: Some((id, parent, name, now_ns())),
    }
}

/// Record an already-timed root span (for work run with recording off,
/// so that its interval still counts as covered).
pub fn record_root(name: &'static str, start_ns: u64, end_ns: u64) {
    push(SpanRec {
        id: rec().next.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        name,
        start_ns,
        end_ns,
    });
}

/// Run `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *rec().spans.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Share of `[lo, hi]` covered by root spans.
pub fn root_coverage(spans: &[SpanRec], lo: u64, hi: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_len(&mut roots, lo, hi) as f64 / (hi - lo).max(1) as f64
}

/// Durations (seconds) of every span named `name`.
pub fn durations_s(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// Write spans as JSONL, one object per span with its self time.
pub fn write_jsonl(spans: &[SpanRec], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.dur_ns(),
            selfs.get(&s.id).copied().unwrap_or(0)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // Children overlap each other and one runs past the parent's end:
        // only the covered part of the parent's own interval is removed.
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 30),
            rec(3, 1, 20, 50),
            rec(4, 1, 90, 120),
            rec(5, 2, 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (40 + 10));
        assert_eq!(selfs[&2], 20 - 2);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 2);
        // A grandchild never counts against its grandparent twice.
        let total: u64 = spans
            .iter()
            .filter(|s| s.id != 4)
            .map(|s| selfs[&s.id])
            .sum();
        assert_eq!(total, 50 + 18 + 30 + 2);
    }

    #[test]
    fn self_time_without_children_is_duration() {
        let spans = vec![rec(7, 0, 5, 25)];
        assert_eq!(self_times(&spans)[&7], 20);
    }

    #[test]
    fn root_coverage_counts_the_union_of_roots() {
        let spans = vec![rec(1, 0, 0, 40), rec(2, 0, 30, 60), rec(3, 1, 70, 90)];
        assert!((root_coverage(&spans, 0, 100) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        set_enabled(true);
        let outer = span("outer");
        let outer_id = outer.id();
        {
            let inner = span("inner");
            assert_ne!(inner.id(), 0);
        }
        drop(outer);
        let spans = take();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer_id);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
