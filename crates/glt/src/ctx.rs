//! The per-thread runtime context: one frame per (OS thread, GLT runtime).
//!
//! A GLT runtime pushes a frame on every thread it registers — rank 0 when
//! it starts, each worker at loop entry — and removes it when the runtime
//! drops (or the worker exits). The frame is all the layers above need to
//! know about "the runtime this thread works for":
//!
//! * the thread's **rank** in that runtime;
//! * the runtime's **sync waiter** — the backend's yield-to-scheduler hook
//!   and counter block that `omp` locks and barriers reach through
//!   [`crate::coop`];
//! * the **GLTO team-lineage stack** of team frames live on this thread;
//! * the **nest-lock owner token** ([`nest_token`]);
//! * the runtime's armed **faults** ([`crate::fault`]).
//!
//! Frames stack because one OS thread can serve several coexisting
//! runtimes (the service substrate, adaptive's composed engines, a runtime
//! started inside a unit). Queries that name a runtime (its rank, the team
//! stack) find its frame by id; ambient queries (waiter, runtime id, nest
//! token, faults) use the innermost frame. Removal is by id, not LIFO:
//! runtimes need not drop in reverse start order.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::coop::SyncWaiter;
use crate::fault::Faults;

/// One runtime's registration on one thread.
struct Frame {
    id: u64,
    rank: usize,
    waiter: Arc<dyn SyncWaiter>,
    faults: Arc<Faults>,
    /// Lineages (ancestor-tag chains, own tag last) of the GLTO teams whose
    /// member bodies are live on this thread, innermost last.
    teams: Vec<Arc<Vec<u64>>>,
}

/// The calling thread's frames, innermost last.
struct WorkerCtx {
    frames: RefCell<Vec<Frame>>,
    /// Nest-lock token for work done outside every runtime (0 = not yet
    /// minted).
    fallback_token: Cell<u64>,
}

thread_local! {
    static CTX: WorkerCtx =
        const { WorkerCtx { frames: RefCell::new(Vec::new()), fallback_token: Cell::new(0) } };
}

/// Register the calling thread as `rank` of runtime `id`, innermost.
/// Replaces an existing frame for `id` (its team stack is dropped).
pub fn enter(id: u64, rank: usize, waiter: Arc<dyn SyncWaiter>, faults: Arc<Faults>) {
    CTX.with(|c| {
        let mut v = c.frames.borrow_mut();
        v.retain(|f| f.id != id);
        v.push(Frame { id, rank, waiter, faults, teams: Vec::new() });
    });
}

/// Remove the calling thread's frame for runtime `id`, wherever it sits in
/// the stack (no-op if absent).
pub fn leave(id: u64) {
    CTX.with(|c| c.frames.borrow_mut().retain(|f| f.id != id));
}

/// The calling thread's rank in runtime `id`, if registered with it.
#[must_use]
pub(crate) fn rank(id: u64) -> Option<usize> {
    CTX.with(|c| c.frames.borrow().iter().rev().find(|f| f.id == id).map(|f| f.rank))
}

/// Id of the calling thread's innermost runtime.
#[must_use]
pub(crate) fn current_id() -> Option<u64> {
    CTX.with(|c| c.frames.borrow().last().map(|f| f.id))
}

/// Run `f` on the innermost runtime's sync waiter, borrowed in place.
/// `f` must not register or remove frames.
pub(crate) fn with_waiter<R>(f: impl FnOnce(&dyn SyncWaiter) -> R) -> Option<R> {
    CTX.with(|c| c.frames.borrow().last().map(|fr| f(&*fr.waiter)))
}

/// The innermost runtime's sync waiter, cloned (for calls that may block).
pub(crate) fn waiter() -> Option<Arc<dyn SyncWaiter>> {
    CTX.with(|c| c.frames.borrow().last().map(|f| Arc::clone(&f.waiter)))
}

/// Run `f` on the innermost runtime's fault set (the fault points of
/// [`crate::fault`]; public so tests can check which set a thread sees).
pub fn with_faults<R>(f: impl FnOnce(&Faults) -> R) -> Option<R> {
    CTX.with(|c| c.frames.borrow().last().map(|fr| f(&fr.faults)))
}

/// Push a GLTO team lineage onto runtime `id`'s team stack. Returns
/// `false` (and records nothing) when the thread is not registered with
/// `id`: such a thread never helps that runtime's scheduler, so nothing
/// would ever consult the entry.
pub fn push_team(id: u64, lineage: Arc<Vec<u64>>) -> bool {
    CTX.with(|c| match c.frames.borrow_mut().iter_mut().rev().find(|f| f.id == id) {
        Some(f) => {
            f.teams.push(lineage);
            true
        }
        None => false,
    })
}

/// Pop the innermost lineage of runtime `id`'s team stack.
pub fn pop_team(id: u64) {
    CTX.with(|c| {
        if let Some(f) = c.frames.borrow_mut().iter_mut().rev().find(|f| f.id == id) {
            f.teams.pop();
        }
    });
}

/// Run `f` on runtime `id`'s team stack on this thread (empty if the
/// thread is not registered with `id`). `f` must not push or pop teams.
pub fn with_teams<R>(id: u64, f: impl FnOnce(&[Arc<Vec<u64>>]) -> R) -> R {
    CTX.with(|c| {
        let frames = c.frames.borrow();
        f(frames.iter().rev().find(|fr| fr.id == id).map_or(&[], |fr| &fr.teams))
    })
}

/// Nonzero nest-lock owner token for the calling thread, scoped to its
/// innermost runtime: `(runtime id, rank)` names exactly one thread of one
/// runtime, so tokens are unique without any allocator or table. Threads
/// registered with no runtime (pthread pool members, external submitters)
/// get one fallback token each, tagged by the top bit so it can never equal
/// a runtime-scoped one.
#[must_use]
pub fn nest_token() -> u64 {
    /// Rank bits of a runtime-scoped token; the runtime id sits above.
    const RANK_BITS: u32 = 20;
    static NEXT_FALLBACK: AtomicU64 = AtomicU64::new(1);
    CTX.with(|c| {
        if let Some(f) = c.frames.borrow().last() {
            return (f.id << RANK_BITS) | (f.rank as u64 + 1);
        }
        if c.fallback_token.get() == 0 {
            c.fallback_token.set((1 << 63) | NEXT_FALLBACK.fetch_add(1, Ordering::Relaxed));
        }
        c.fallback_token.get()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    struct Nop(Counters);
    impl SyncWaiter for Nop {
        fn yield_to_scheduler(&self) {}
        fn counters(&self) -> &Counters {
            &self.0
        }
    }

    fn enter_at(id: u64, rank: usize) -> Arc<Faults> {
        let faults = Arc::new(Faults::default());
        enter(id, rank, Arc::new(Nop(Counters::new())), Arc::clone(&faults));
        faults
    }

    #[test]
    fn lookups_by_id_and_innermost() {
        assert_eq!(current_id(), None);
        enter_at(7001, 0);
        enter_at(7002, 3);
        assert_eq!(rank(7001), Some(0));
        assert_eq!(rank(7002), Some(3));
        assert_eq!(rank(7003), None);
        assert_eq!(current_id(), Some(7002));
        // Out-of-order removal keeps the other frame whole.
        leave(7001);
        assert_eq!(rank(7002), Some(3));
        assert_eq!(current_id(), Some(7002));
        leave(7002);
        assert_eq!(current_id(), None);
    }

    #[test]
    fn team_stacks_are_per_frame() {
        assert!(!push_team(7101, Arc::new(vec![1])), "no frame, nothing recorded");
        enter_at(7101, 0);
        enter_at(7102, 0);
        assert!(push_team(7101, Arc::new(vec![1, 2])));
        assert_eq!(with_teams(7101, <[_]>::len), 1);
        assert_eq!(with_teams(7102, <[_]>::len), 0);
        pop_team(7101);
        assert_eq!(with_teams(7101, <[_]>::len), 0);
        leave(7102);
        leave(7101);
    }

    #[test]
    fn nest_tokens_are_scoped_stable_and_nonzero() {
        let fallback = nest_token();
        assert_ne!(fallback, 0);
        enter_at(7201, 2);
        let under_a = nest_token();
        enter_at(7202, 2);
        let under_b = nest_token();
        leave(7202);
        assert_eq!(nest_token(), under_a, "per-runtime token is stable");
        leave(7201);
        assert_eq!(nest_token(), fallback, "fallback token is stable");
        assert!(under_a != 0 && under_a != fallback && under_a != under_b);
    }

    #[test]
    fn faults_follow_the_innermost_frame() {
        let a = enter_at(7301, 0);
        let _b = enter_at(7302, 0);
        a.arm(crate::fault::Fault::TenantBleed);
        assert_eq!(with_faults(|f| f.is_armed(crate::fault::Fault::TenantBleed)), Some(false));
        leave(7302);
        assert_eq!(with_faults(|f| f.is_armed(crate::fault::Fault::TenantBleed)), Some(true));
        leave(7301);
        assert!(with_faults(|_| ()).is_none());
    }
}
