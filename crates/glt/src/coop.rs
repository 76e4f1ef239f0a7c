//! Scheduler-aware blocking: the hook every blocking wait in the OpenMP
//! layers uses to yield to *its own* backend's scheduler.
//!
//! Every thread a GLT runtime registers (rank 0 and workers alike) carries
//! the runtime's [`SyncWaiter`] in its [`crate::ctx`] frame, so `omp`
//! locks, criticals, `ordered` tickets, and barrier loops can yield to the
//! worker's scheduler when a probe fails instead of burning the worker an
//! entire OS timeslice while the holder waits to run — the classic
//! spin-lock pathology of LWT environments. Under the deterministic stepper
//! (`glt-det`) the yield hands the run token to another controlled thread,
//! which is what keeps an OS-blocking wait from deadlocking the token:
//! [`schedule_controlled`] tells a waiter it must probe-and-yield rather
//! than block in the kernel. Threads with no runtime (external submitters,
//! pthread-style pool members) fall back to plain OS yields.

use crate::counters::Counters;

/// A scheduler yield point for blocking synchronization, installed for
/// every thread a GLT runtime registers (rank 0 and workers alike).
pub trait SyncWaiter: Send + Sync {
    /// Give the worker's scheduler a turn. For ULT backends this is an
    /// OS-level `yield` scoped to the worker (units run to completion, so
    /// there is nothing to switch to mid-unit); for the deterministic
    /// stepper it hands the run token to another controlled thread. Must
    /// not execute queued work units (lock acquisition is not a task
    /// scheduling point).
    fn yield_to_scheduler(&self);

    /// The runtime's counter block, so lock slow paths can record
    /// `lock_spins`/`lock_yields`/`lock_handoffs` without a dependency
    /// from `omp` onto any concrete runtime type.
    fn counters(&self) -> &Counters;

    /// `true` when the calling thread's schedule is token-controlled
    /// (`glt-det`): blocking or unbounded raw spinning would deadlock, so
    /// even the pure-spin lock kind must route through
    /// [`SyncWaiter::yield_to_scheduler`].
    fn schedule_controlled(&self) -> bool {
        false
    }
}

/// The id of the calling thread's innermost registered runtime, if any
/// (see [`crate::ctx`]): every thread a GLT runtime registers carries the
/// same id, so state keyed by it is shared exactly across one runtime
/// instance and never across coexisting instances.
#[must_use]
pub fn current_runtime_id() -> Option<u64> {
    crate::ctx::current_id()
}

/// Yield to the calling thread's scheduler: the innermost runtime's
/// backend-specific yield, else a plain OS `yield_now` (external threads
/// and pthread-style runtimes).
pub fn yield_to_scheduler() {
    match crate::ctx::waiter() {
        Some(w) => w.yield_to_scheduler(),
        None => std::thread::yield_now(),
    }
}

/// `true` when the calling thread is under a token-controlled schedule
/// (see [`SyncWaiter::schedule_controlled`]). Unregistered threads are
/// never controlled.
#[must_use]
pub fn schedule_controlled() -> bool {
    crate::ctx::with_waiter(|w| w.schedule_controlled()).unwrap_or(false)
}

/// Run `f` against the calling thread's runtime counters, if it is
/// registered with one (external threads have no counter block to charge).
pub fn with_sync_counters(f: impl FnOnce(&Counters)) {
    crate::ctx::with_waiter(|w| f(w.counters()));
}

// ---------------------------------------------------------------- SpinWait

/// Stateful spin-then-yield helper: the one blocking-wait discipline every
/// idle loop in the stack shares (barrier arrival, region join, lock slow
/// paths). Probes are the caller's; between failed probes the waiter
/// spins `budget` times with `spin_loop` hints, then yields to its
/// scheduler via [`yield_to_scheduler`], and — only for threads with *no*
/// installed waiter, under a passive wait policy — escalates to a short
/// sleep so an external thread stops burning its core entirely.
#[derive(Debug)]
pub struct SpinWait {
    budget: u32,
    spins: u32,
    yields: u32,
    passive: bool,
    /// Captured once at construction: token-controlled threads skip the
    /// spin phase entirely (a burned probe can never be overlapped with
    /// the holder — only one controlled thread runs at a time).
    controlled: bool,
}

impl SpinWait {
    /// Yields between escalation sleeps on the passive no-waiter path.
    const YIELDS_PER_SLEEP: u32 = 32;

    /// A waiter with `budget` spin-hint probes before the first yield.
    /// `passive` enables the sleep escalation for waiter-less threads
    /// (map it from `WaitPolicy::Passive`).
    #[must_use]
    pub fn new(budget: u32, passive: bool) -> Self {
        SpinWait { budget, spins: 0, yields: 0, passive, controlled: schedule_controlled() }
    }

    /// Back off once after a failed probe: spin while the budget lasts,
    /// then yield to the scheduler (with periodic sleeps when passive and
    /// uncontrolled). Returns `true` if this step yielded (vs spun).
    pub fn wait(&mut self) -> bool {
        if self.spins < self.budget && !self.controlled {
            self.spins += 1;
            std::hint::spin_loop();
            return false;
        }
        self.yields += 1;
        if self.passive
            && self.yields.is_multiple_of(Self::YIELDS_PER_SLEEP)
            && crate::ctx::current_id().is_none()
        {
            std::thread::sleep(std::time::Duration::from_micros(20));
        } else {
            yield_to_scheduler();
        }
        true
    }

    /// Restart the spin budget (after a successful probe, when the caller
    /// loops on a new condition).
    pub fn reset(&mut self) {
        self.spins = 0;
        self.yields = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx;
    use crate::fault::Faults;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct TestWaiter {
        yields: AtomicU64,
        counters: Counters,
        controlled: bool,
    }
    impl TestWaiter {
        fn new(controlled: bool) -> Arc<Self> {
            Arc::new(TestWaiter {
                yields: AtomicU64::new(0),
                counters: Counters::new(),
                controlled,
            })
        }
    }
    impl SyncWaiter for TestWaiter {
        fn yield_to_scheduler(&self) {
            self.yields.fetch_add(1, Ordering::Relaxed);
        }
        fn counters(&self) -> &Counters {
            &self.counters
        }
        fn schedule_controlled(&self) -> bool {
            self.controlled
        }
    }

    fn enter(id: u64, w: &Arc<TestWaiter>) {
        ctx::enter(id, 0, Arc::clone(w) as Arc<dyn SyncWaiter>, Arc::new(Faults::default()));
    }

    #[test]
    fn waiter_stack_innermost_wins() {
        assert!(!schedule_controlled());
        assert_eq!(current_runtime_id(), None);
        yield_to_scheduler(); // no waiter: plain OS yield, must not panic

        let a = TestWaiter::new(false);
        enter(1, &a);
        let b = TestWaiter::new(true);
        enter(2, &b);

        assert!(schedule_controlled(), "innermost waiter is controlled");
        assert_eq!(current_runtime_id(), Some(2));
        yield_to_scheduler();
        assert_eq!(b.yields.load(Ordering::Relaxed), 1);
        assert_eq!(a.yields.load(Ordering::Relaxed), 0);

        with_sync_counters(|c| Counters::bump(&c.lock_spins, 5));
        assert_eq!(b.counters.snapshot().lock_spins, 5);
        assert_eq!(a.counters.snapshot().lock_spins, 0);

        ctx::leave(2);
        assert!(!schedule_controlled());
        assert_eq!(current_runtime_id(), Some(1));
        yield_to_scheduler();
        assert_eq!(a.yields.load(Ordering::Relaxed), 1);
        ctx::leave(1);
        assert_eq!(current_runtime_id(), None);
    }

    #[test]
    fn spin_wait_spins_budget_then_yields() {
        let w = TestWaiter::new(false);
        enter(3, &w);
        let mut sw = SpinWait::new(4, false);
        for _ in 0..4 {
            assert!(!sw.wait(), "within budget: spin, not yield");
        }
        assert!(sw.wait(), "budget exhausted: yield");
        assert_eq!(w.yields.load(Ordering::Relaxed), 1);
        sw.reset();
        assert!(!sw.wait(), "reset restores the spin budget");
        ctx::leave(3);
    }

    #[test]
    fn spin_wait_skips_spinning_when_controlled() {
        let w = TestWaiter::new(true);
        enter(4, &w);
        let mut sw = SpinWait::new(1000, false);
        assert!(sw.wait(), "controlled threads must not burn the token on spins");
        assert_eq!(w.yields.load(Ordering::Relaxed), 1);
        ctx::leave(4);
    }
}
