//! In-memory spans recorded by the benchmark around its own calls into each
//! layer (`parallel`, `task`, `taskwait`, `submit`, a service job body).
//!
//! A span has a name, start, end, parent, and the id of the unit of work
//! it belongs to. The parent is the innermost span open on the same OS
//! thread; code that starts running on another thread on behalf of a span
//! (a region body on a team member) claims it as parent with
//! [`Tracer::adopt`]. Every waiting construct in the runtimes under test
//! runs nested work on the waiter's own stack, so the per-thread stack of
//! open spans stays properly nested.
//!
//! With tracing off, [`Tracer::span`] costs one relaxed load.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero id.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Unit of work (program unit or service job) the span belongs to.
    pub unit: u64,
    /// Layer boundary, e.g. `team.fork_join`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn push_open(id: u64) -> u64 {
    OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    })
}

fn pop_open(id: u64) {
    OPEN.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|&x| x == id) {
            s.remove(pos);
        }
    });
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    closed: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            closed: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Switch recording on or off. Only flipped between units of work, so
    /// a span never straddles the switch.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `t` in nanoseconds since the tracer was created.
    #[must_use]
    fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span that closes when the guard drops. Inert when off.
    #[must_use]
    pub fn span(&self, name: &'static str, unit: u64) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard { tracer: self, open: None };
        }
        let id = self.fresh_id();
        let parent = push_open(id);
        let open = Span { id, parent, unit, name, start_ns: self.now_ns(), end_ns: 0 };
        SpanGuard { tracer: self, open: Some(open) }
    }

    /// Make span `parent` the enclosing span on this thread until the guard
    /// drops. Id 0 (an inert span) adopts nothing.
    #[must_use]
    pub fn adopt(&self, parent: u64) -> Adopted {
        if parent != 0 {
            push_open(parent);
        }
        Adopted(parent)
    }

    /// Record a root span from timestamps taken elsewhere; returns it.
    pub fn record(&self, name: &'static str, unit: u64, start: Instant, end: Instant) -> Span {
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        let span = Span { id: self.fresh_id(), parent: 0, unit, name, start_ns, end_ns };
        self.closed.lock().expect("tracer lock poisoned by a panicking span").push(span);
        span
    }

    /// Take every span closed so far.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.closed.lock().expect("tracer lock poisoned by a panicking span"))
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
}

impl SpanGuard<'_> {
    /// The span's id, or 0 when tracing is off.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |s| s.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = self.tracer.now_ns();
            pop_open(span.id);
            if let Ok(mut closed) = self.tracer.closed.lock() {
                closed.push(span);
            }
        }
    }
}

/// Undoes one [`Tracer::adopt`] on drop.
pub struct Adopted(u64);

impl Drop for Adopted {
    fn drop(&mut self) {
        if self.0 != 0 {
            pop_open(self.0);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap one another when they ran
/// on different threads, so coverage is the union of their intervals).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get_mut(&s.id).map_or(0, |iv| union_within(iv, s));
            (s.name, dur.saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `span`'s interval.
fn union_within(intervals: &mut [(u64, u64)], span: &Span) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(span.end_ns));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Per-name count and summed self time.
#[derive(Default, Debug)]
pub struct SelfTimeTotals(BTreeMap<&'static str, (u64, u64)>);

impl SelfTimeTotals {
    /// Fold in the self times of one batch of spans.
    pub fn add(&mut self, spans: &[Span]) {
        for (name, ns) in self_times(spans) {
            let e = self.0.entry(name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
    }

    /// Mean self time of spans called `name`, in nanoseconds (0 if none).
    #[must_use]
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(n, ns)| if n == 0 { 0.0 } else { ns as f64 / n as f64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, unit: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_coverage() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children (run on different threads) and one
            // that sticks out past the parent's end.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 130),
            // A grandchild does not count against the root.
            span(5, 2, 12, 20),
        ];
        let st: Vec<u64> = self_times(&spans).into_iter().map(|(_, ns)| ns).collect();
        // Root: 100 − (10..50 ∪ 90..100 = 50) = 50.
        assert_eq!(st[0], 50);
        // Child 2: 30 − 8 (grandchild) = 22; childless spans keep their length.
        assert_eq!(st[1], 22);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 40);
        assert_eq!(st[4], 8);
    }

    #[test]
    fn guards_nest_and_adopt_across_threads() {
        let tr = Tracer::default();
        tr.set_on(true);
        let outer = tr.span("outer", 7);
        let outer_id = outer.id();
        {
            let _inner = tr.span("inner", 7);
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _a = tr.adopt(outer_id);
                let _remote = tr.span("remote", 7);
            });
        });
        drop(outer);
        let spans = tr.drain();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).copied().expect("span");
        assert_eq!(by_name("outer").parent, 0);
        assert_eq!(by_name("inner").parent, outer_id);
        assert_eq!(by_name("remote").parent, outer_id);
        assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        tr.set_on(false);
        assert_eq!(tr.span("off", 7).id(), 0);
        assert!(tr.drain().is_empty());
    }

    #[test]
    fn totals_report_mean_self_time() {
        let mut t = SelfTimeTotals::default();
        t.add(&[span(1, 0, 0, 100), span(2, 1, 0, 60)]);
        assert_eq!(t.mean_ns("s"), 50.0, "(40 + 60) / 2");
        assert_eq!(t.mean_ns("absent"), 0.0);
    }
}
