//! Work units: user-level threads (ULTs) and tasklets.
//!
//! The GLT programming model (paper Fig. 1) distinguishes:
//! * `GLT_ult` — a user-level thread: owns a logical stack, may block
//!   (cooperatively, by *helping* in this implementation) and therefore may
//!   observe scheduling (yield, join).
//! * `GLT_tasklet` — a lighter unit without a stack: runs to completion,
//!   can neither yield nor migrate once started. Natively supported by the
//!   Argobots-like backend; emulated over ULTs elsewhere, exactly as the
//!   paper describes for Qthreads/MassiveThreads (§III-B).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_queue::SegQueue;
use parking_lot::Mutex;

use crate::counters::Counters;

/// The closure a work unit executes.
pub type WorkFn = Box<dyn FnOnce() + Send + 'static>;

/// Kind of work unit (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// User-level thread: may yield/help while blocked.
    Ult,
    /// Stackless run-to-completion unit.
    Tasklet,
}

/// Rank value meaning "not started / not executed by any worker yet".
pub const NO_RANK: usize = usize::MAX;

/// Scheduling class of a unit: how help-waiting may treat it.
///
/// `Task` units run to completion without team barriers (OpenMP forbids
/// barriers inside explicit tasks), so they are always safe to execute
/// nested inside a blocked wait. `Region` units (OpenMP team members) may
/// contain multiple barriers; executing one nested above another member's
/// wait frame can deadlock on its host's stack, so waits on backends with
/// work stealing skip them and leave them for a worker's top-level loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// Help-safe: run-to-completion, no team barriers inside.
    Task,
    /// A parallel-region member; may block on team barriers.
    Region,
    /// A long-lived runtime-internal unit (e.g. a parked hot-team member
    /// loop). Only a worker's outermost loop may execute one: a service
    /// unit occupies its host until explicitly retired, so running it
    /// nested inside a join/help frame would wedge that frame forever.
    Service,
}

const ST_PENDING: u8 = 0;
const ST_RUNNING: u8 = 1;
const ST_DONE: u8 = 2;

/// Global unit-id source (shared by fresh allocation and slab reset so ids
/// stay unique across recycling).
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

/// Shared state of one work unit.
///
/// Created by the runtime on `ult_create`/`tasklet_create`; a clone of the
/// `Arc` lives in the scheduler queue (as a [`Unit`]) and another in the
/// user's [`UltHandle`].
pub struct UnitState {
    /// Globally unique id (diagnostics).
    pub id: u64,
    kind: UnitKind,
    class: UnitClass,
    /// Caller-supplied tag; GLTO stores the owning team's generation so
    /// waits can tell "a member of a team I forked deeper" from "a member
    /// of my own or an outer team" (see `UnitClass`). 0 = untagged.
    tag: u64,
    work: Mutex<Option<WorkFn>>,
    status: AtomicU8,
    /// Worker rank that created the unit (for migration statistics).
    created_by: usize,
    /// Worker rank that executed the unit ([`NO_RANK`] until started).
    executed_by: AtomicUsize,
    /// Rank of a joiner that may park on its wait slot until this unit
    /// completes ([`NO_RANK`] = none); the runtime wakes it after the run.
    joiner: AtomicUsize,
    /// Set once the scheduler has moved this pending unit into a pool it
    /// was not originally pushed to (stolen, rejected by a helper's
    /// region filter, and forwarded). A migrated unit showing up in some
    /// worker's own pool is *not* evidence that worker forked it there —
    /// GLTO's sole-runner nesting allowance must ignore such units.
    migrated: AtomicBool,
    /// Panic payload captured from the work closure, surfaced at join.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Bumped on every slab recycle of this frame. A handle snapshots the
    /// generation at creation; since a live handle's `Arc` reference makes
    /// `Arc::get_mut` (and therefore [`UnitState::reset`]) fail, a mismatch
    /// is provably unreachable through a live handle — it exists as a
    /// belt-and-braces guard on the recycling protocol.
    generation: u64,
    /// Set when the frame has been pushed to a slab free list; cleared on
    /// reset. Guards against double-recycling one completed frame.
    recycled: AtomicBool,
}

impl std::fmt::Debug for UnitState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitState")
            .field("kind", &self.kind)
            .field("status", &self.status.load(Ordering::Relaxed))
            .field("created_by", &self.created_by)
            .field("executed_by", &self.executed_by.load(Ordering::Relaxed))
            .finish()
    }
}

impl UnitState {
    /// Create a new pending unit.
    #[must_use]
    pub fn new(kind: UnitKind, created_by: usize, work: WorkFn) -> Arc<Self> {
        Self::new_with_class(kind, UnitClass::Task, 0, created_by, work)
    }

    /// Create a new pending unit with an explicit scheduling class and tag.
    #[must_use]
    pub fn new_with_class(
        kind: UnitKind,
        class: UnitClass,
        tag: u64,
        created_by: usize,
        work: WorkFn,
    ) -> Arc<Self> {
        Arc::new(UnitState {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed) as u64,
            kind,
            class,
            tag,
            work: Mutex::new(Some(work)),
            status: AtomicU8::new(ST_PENDING),
            created_by,
            executed_by: AtomicUsize::new(NO_RANK),
            joiner: AtomicUsize::new(NO_RANK),
            migrated: AtomicBool::new(false),
            panic: Mutex::new(None),
            generation: 0,
            recycled: AtomicBool::new(false),
        })
    }

    /// Re-initialize a completed frame in place for a new unit. Callable
    /// only with exclusive access (`Arc::get_mut` succeeded: the slab free
    /// list holds the sole reference), which is what makes the plain-field
    /// writes race-free.
    fn reset(
        &mut self,
        kind: UnitKind,
        class: UnitClass,
        tag: u64,
        created_by: usize,
        work: WorkFn,
    ) {
        self.id = NEXT_ID.fetch_add(1, Ordering::Relaxed) as u64;
        self.kind = kind;
        self.class = class;
        self.tag = tag;
        *self.work.get_mut() = Some(work);
        *self.status.get_mut() = ST_PENDING;
        self.created_by = created_by;
        *self.executed_by.get_mut() = NO_RANK;
        *self.joiner.get_mut() = NO_RANK;
        *self.migrated.get_mut() = false;
        *self.panic.get_mut() = None;
        self.generation += 1;
        *self.recycled.get_mut() = false;
    }

    /// Kind of this unit.
    #[must_use]
    pub fn kind(&self) -> UnitKind {
        self.kind
    }

    /// Scheduling class of this unit.
    #[must_use]
    pub fn class(&self) -> UnitClass {
        self.class
    }

    /// Caller-supplied tag (GLTO: the owning team's generation).
    #[must_use]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Rank of the worker that created this unit.
    #[must_use]
    pub fn created_by(&self) -> usize {
        self.created_by
    }

    /// Rank of the worker that executed this unit, or [`NO_RANK`].
    #[must_use]
    pub fn executed_by(&self) -> usize {
        self.executed_by.load(Ordering::Acquire)
    }

    /// Publish `rank` as the (single) joiner to wake on completion. The
    /// caller orders this before its done-check with a `SeqCst` fence.
    #[inline]
    pub fn set_joiner(&self, rank: usize) {
        self.joiner.store(rank, Ordering::Relaxed);
    }

    /// The published joiner, if any (read after a `SeqCst` fence).
    #[inline]
    #[must_use]
    pub fn joiner(&self) -> Option<usize> {
        Some(self.joiner.load(Ordering::Relaxed)).filter(|&r| r != NO_RANK)
    }

    /// Whether the pending unit has ever been forwarded into a pool it was
    /// not originally pushed to (see the `migrated` field).
    #[must_use]
    pub fn migrated(&self) -> bool {
        self.migrated.load(Ordering::Acquire)
    }

    /// Record that the scheduler is about to forward this pending unit into
    /// a pool it was not originally pushed to.
    pub fn mark_migrated(&self) {
        self.migrated.store(true, Ordering::Release);
    }

    /// Whether the unit has finished executing.
    ///
    /// `Acquire` so a joiner that observes `true` also observes all writes
    /// the work closure made (the matching `Release` is in [`Unit::run`]).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.status.load(Ordering::Acquire) == ST_DONE
    }

    /// Take the panic payload, if the closure panicked.
    #[must_use]
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().take()
    }

    /// Slab-recycle generation of this frame (0 = never recycled).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

// ------------------------------------------------------------- unit slab

/// Probes per [`UnitSlab::acquire`]: how many free-list entries are
/// inspected for exclusivity before giving up and allocating fresh.
const SLAB_PROBES: usize = 4;
/// Free-list cap: completed frames beyond this are dropped instead of
/// cached, bounding the slab's steady-state footprint.
const SLAB_CAP: usize = 1024;

/// Lock-free recycler for [`UnitState`] frames — the unit-layer analog of
/// the `omp::taskcore` task slab. On the steady-state fork path every
/// spawned ULT/tasklet reuses a completed frame instead of allocating
/// (`unit_slab_reused` vs `unit_slab_fresh` in [`Counters`]).
///
/// A frame is recyclable only once it is done *and* the free list holds the
/// sole `Arc` reference — `acquire` checks the latter with `Arc::get_mut`,
/// so a frame pinned by a still-live user handle is rotated back instead of
/// reset out from under the handle.
#[derive(Default)]
pub struct UnitSlab {
    free: SegQueue<Arc<UnitState>>,
}

impl std::fmt::Debug for UnitSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitSlab").field("free", &self.free.len()).finish()
    }
}

impl UnitSlab {
    /// Empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames currently cached (diagnostics).
    #[must_use]
    pub fn cached(&self) -> usize {
        self.free.len()
    }

    /// Get a pending unit frame: recycled from the free list when an
    /// unpinned frame is found within [`SLAB_PROBES`] pops, freshly
    /// allocated otherwise. Bumps `unit_slab_reused`/`unit_slab_fresh`.
    #[must_use]
    pub fn acquire(
        &self,
        counters: &Counters,
        kind: UnitKind,
        class: UnitClass,
        tag: u64,
        created_by: usize,
        work: WorkFn,
    ) -> Arc<UnitState> {
        let mut work = Some(work);
        for _ in 0..SLAB_PROBES {
            let Some(mut cand) = self.free.pop() else { break };
            match Arc::get_mut(&mut cand) {
                Some(frame) => {
                    frame.reset(kind, class, tag, created_by, work.take().expect("work used once"));
                    Counters::bump(&counters.unit_slab_reused, 1);
                    return cand;
                }
                // A user handle still pins this frame; rotate it to the
                // tail — it becomes reusable once the handle drops.
                None => self.free.push(cand),
            }
        }
        Counters::bump(&counters.unit_slab_fresh, 1);
        UnitState::new_with_class(
            kind,
            class,
            tag,
            created_by,
            work.take().expect("work used once"),
        )
    }

    /// Offer a completed frame back to the free list. No-ops on frames that
    /// are not done yet, were already recycled, or when the list is full.
    pub fn recycle(&self, state: &Arc<UnitState>) {
        if !state.is_done() || state.recycled.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.free.len() >= SLAB_CAP {
            return; // frame frees normally when the last handle drops
        }
        self.free.push(Arc::clone(state));
    }
}

/// A schedulable work unit (what sits in backend queues).
#[derive(Clone, Debug)]
pub struct Unit(pub Arc<UnitState>);

impl Unit {
    /// Execute the unit on the calling worker.
    ///
    /// Exactly-once: the closure is `take`n under the state lock, so even if
    /// a unit were double-enqueued the body runs once and the second run is
    /// a no-op. Panics from the closure are captured and re-thrown at
    /// [`UltHandle::join_result`].
    pub fn run(&self, my_rank: usize) {
        let work = self.0.work.lock().take();
        let Some(work) = work else { return };
        self.0.status.store(ST_RUNNING, Ordering::Relaxed);
        self.0.executed_by.store(my_rank, Ordering::Relaxed);
        let result = panic::catch_unwind(AssertUnwindSafe(work));
        if let Err(payload) = result {
            *self.0.panic.lock() = Some(payload);
        }
        // Release: joiners observing DONE must see the closure's writes.
        self.0.status.store(ST_DONE, Ordering::Release);
    }
}

/// User-facing handle to a created ULT/tasklet. Join through the runtime
/// (`GltRuntime::join`), which supplies the backend's help policy.
///
/// The handle is generation-tagged: it remembers the slab generation of its
/// frame at creation, so even if the recycling protocol were violated and
/// the frame reset under a live handle, the handle would report the stale
/// unit as done instead of observing the successor unit's state.
#[derive(Clone, Debug)]
pub struct UltHandle {
    state: Arc<UnitState>,
    generation: u64,
}

impl UltHandle {
    pub(crate) fn new(state: Arc<UnitState>) -> Self {
        let generation = state.generation();
        UltHandle { state, generation }
    }

    /// Whether the frame has been recycled past this handle's unit. While
    /// the handle's `Arc` is live this cannot happen (see [`UnitSlab`]);
    /// the check guards the protocol, not an expected state.
    #[inline]
    fn stale(&self) -> bool {
        self.generation != self.state.generation()
    }

    /// Whether the unit completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.stale() || self.state.is_done()
    }

    /// Kind of the unit behind this handle.
    #[must_use]
    pub fn kind(&self) -> UnitKind {
        self.state.kind()
    }

    /// Rank that created the unit.
    #[must_use]
    pub fn created_by(&self) -> usize {
        self.state.created_by()
    }

    /// Rank that executed the unit ([`NO_RANK`] if not yet started).
    #[must_use]
    pub fn executed_by(&self) -> usize {
        self.state.executed_by()
    }

    /// Access the underlying state (used by runtimes).
    #[must_use]
    pub fn state(&self) -> &Arc<UnitState> {
        &self.state
    }

    /// After the unit is done, re-throw a captured panic on the joiner.
    /// Runtimes call this at the end of `join`.
    pub fn propagate_panic(&self) {
        debug_assert!(self.is_done());
        if self.stale() {
            return; // successor unit's panic (if any) is not ours
        }
        if let Some(p) = self.state.take_panic() {
            panic::resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn run_executes_once_and_records_rank() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = hits.clone();
        let st = UnitState::new(
            UnitKind::Ult,
            0,
            Box::new(move || {
                h2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let u = Unit(st.clone());
        assert!(!st.is_done());
        u.run(3);
        u.run(4); // second run is a no-op
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(st.is_done());
        assert_eq!(st.executed_by(), 3);
        assert_eq!(st.created_by(), 0);
    }

    #[test]
    fn panic_is_captured_not_propagated_by_run() {
        let st = UnitState::new(UnitKind::Tasklet, 1, Box::new(|| panic!("boom")));
        let u = Unit(st.clone());
        u.run(0); // must not unwind into us
        assert!(st.is_done());
        let h = UltHandle::new(st);
        let p = h.state().take_panic();
        assert!(p.is_some());
    }

    #[test]
    fn propagate_panic_rethrows() {
        let st = UnitState::new(UnitKind::Ult, 0, Box::new(|| panic!("later")));
        Unit(st.clone()).run(0);
        let h = UltHandle::new(st);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| h.propagate_panic()));
        assert!(caught.is_err());
        // Payload is consumed: a second propagate is a no-op.
        h.propagate_panic();
    }

    #[test]
    fn done_flag_publishes_closure_writes() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let st = UnitState::new(
            UnitKind::Ult,
            0,
            Box::new(move || {
                f2.store(true, Ordering::Relaxed);
            }),
        );
        Unit(st.clone()).run(0);
        if st.is_done() {
            assert!(flag.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn handle_reports_kind() {
        let st = UnitState::new(UnitKind::Tasklet, 0, Box::new(|| {}));
        let h = UltHandle::new(st);
        assert_eq!(h.kind(), UnitKind::Tasklet);
        assert_eq!(h.executed_by(), NO_RANK);
    }

    #[test]
    fn slab_recycles_unpinned_done_frames() {
        let slab = UnitSlab::new();
        let c = Counters::new();
        let a = slab.acquire(&c, UnitKind::Ult, UnitClass::Task, 0, 0, Box::new(|| {}));
        assert_eq!(c.snapshot().unit_slab_fresh, 1);
        let first_id = a.id;
        Unit(a.clone()).run(0);
        slab.recycle(&a);
        assert_eq!(slab.cached(), 1);
        drop(a); // release the handle's pin so the frame is exclusively held
        let b = slab.acquire(&c, UnitKind::Tasklet, UnitClass::Region, 7, 2, Box::new(|| {}));
        let s = c.snapshot();
        assert_eq!((s.unit_slab_fresh, s.unit_slab_reused), (1, 1));
        assert_ne!(b.id, first_id, "reset assigns a fresh id");
        assert_eq!(b.generation(), 1);
        assert_eq!(b.kind(), UnitKind::Tasklet);
        assert_eq!(b.class(), UnitClass::Region);
        assert_eq!(b.tag(), 7);
        assert_eq!(b.created_by(), 2);
        assert!(!b.is_done());
        assert!(!b.migrated());
        assert_eq!(b.executed_by(), NO_RANK);
    }

    #[test]
    fn slab_skips_pinned_frames_and_rotates_them_back() {
        let slab = UnitSlab::new();
        let c = Counters::new();
        let a = slab.acquire(&c, UnitKind::Ult, UnitClass::Task, 0, 0, Box::new(|| {}));
        Unit(a.clone()).run(0);
        slab.recycle(&a);
        // `a` is still alive: the frame is pinned, acquire must not reset it.
        let b = slab.acquire(&c, UnitKind::Ult, UnitClass::Task, 0, 0, Box::new(|| {}));
        assert_eq!(c.snapshot().unit_slab_fresh, 2);
        assert_eq!(a.generation(), 0, "pinned frame untouched");
        assert_eq!(slab.cached(), 1, "pinned frame rotated back, not lost");
        drop(b);
    }

    #[test]
    fn slab_refuses_pending_and_double_recycle() {
        let slab = UnitSlab::new();
        let c = Counters::new();
        let a = slab.acquire(&c, UnitKind::Ult, UnitClass::Task, 0, 0, Box::new(|| {}));
        slab.recycle(&a); // not done: refused
        assert_eq!(slab.cached(), 0);
        Unit(a.clone()).run(0);
        slab.recycle(&a);
        slab.recycle(&a); // double recycle: refused
        assert_eq!(slab.cached(), 1);
    }

    #[test]
    fn stale_handle_reports_done_and_keeps_panics_separate() {
        let slab = UnitSlab::new();
        let c = Counters::new();
        let st = slab.acquire(&c, UnitKind::Ult, UnitClass::Task, 0, 0, Box::new(|| {}));
        let h = UltHandle::new(st.clone());
        Unit(st.clone()).run(0);
        slab.recycle(&st);
        drop(st);
        drop(h);
        // Recycle into a unit that panics; a stale handle made before the
        // reset must neither see it as pending nor steal its panic.
        let st2 = slab.acquire(&c, UnitKind::Ult, UnitClass::Task, 0, 0, Box::new(|| {}));
        let mut h2 = UltHandle::new(st2.clone());
        h2.generation = h2.generation.wrapping_sub(1); // simulate staleness
        assert!(h2.is_done(), "stale handle's unit is by definition over");
        h2.propagate_panic(); // must be a no-op, not a debug_assert trip
        drop(st2);
    }
}
