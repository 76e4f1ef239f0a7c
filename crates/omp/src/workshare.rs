//! Per-team work-sharing state: loop dispatch slots, `single` winners,
//! `copyprivate` broadcast, and `ordered` tickets.
//!
//! Every thread of a team executes the same sequence of work-sharing
//! constructs, so a per-thread construct counter (kept in the `ParCtx`)
//! identifies each construct instance; this table maps that sequence
//! number to the shared dispatch state, the same way real runtimes use
//! dispatch buffers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::schedule::guided_grab;

/// Dynamic/guided loop dispatch state shared by a team.
#[derive(Debug)]
pub struct LoopState {
    next: AtomicU64,
    total: u64,
    chunk: u64,
    guided: bool,
    nthreads: usize,
    /// `ordered` ticketing: iteration index allowed to enter next.
    ordered_next: Mutex<u64>,
    ordered_cv: Condvar,
}

impl LoopState {
    /// New dispatch slot over `total` iterations.
    #[must_use]
    pub fn new(total: u64, chunk: u64, guided: bool, nthreads: usize) -> Self {
        LoopState {
            next: AtomicU64::new(0),
            total,
            chunk: chunk.max(1),
            guided,
            nthreads: nthreads.max(1),
            ordered_next: Mutex::new(0),
            ordered_cv: Condvar::new(),
        }
    }

    /// Grab the next chunk `[lo, hi)`; `None` when the loop is exhausted.
    pub fn next_chunk(&self) -> Option<(u64, u64)> {
        if self.guided {
            loop {
                let cur = self.next.load(Ordering::Relaxed);
                if cur >= self.total {
                    return None;
                }
                let grab = guided_grab(self.total - cur, self.nthreads, self.chunk);
                match self.next.compare_exchange_weak(
                    cur,
                    cur + grab,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some((cur, cur + grab)),
                    Err(_) => continue,
                }
            }
        } else {
            let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if lo >= self.total {
                return None;
            }
            Some((lo, (lo + self.chunk).min(self.total)))
        }
    }

    /// `#pragma omp ordered`: block until iteration `iter` is the next in
    /// sequence, run `f`, then release `iter + 1`.
    ///
    /// Callers must execute `ordered_step` exactly once per iteration of an
    /// `ordered` loop (as OpenMP requires).
    pub fn ordered_step<R>(&self, iter: u64, f: impl FnOnce() -> R) -> R {
        // Schedule-controlled threads (deterministic stepper backend) must
        // not block in the kernel waiting for their ticket: the member
        // owning the predecessor iteration may be suspended at a scheduling
        // decision and only runs if this thread yields its turn. They probe
        // with scheduler yields; everyone else waits on the condvar.
        let mut g = self.ordered_next.lock();
        if glt::coop::schedule_controlled() {
            while *g != iter {
                drop(g);
                glt::coop::yield_to_scheduler();
                g = self.ordered_next.lock();
            }
        } else {
            while *g != iter {
                self.ordered_cv.wait(&mut g);
            }
        }
        let out = f();
        *g = iter + 1;
        self.ordered_cv.notify_all();
        out
    }
}

/// A `single` construct instance: first arriver wins; an optional
/// `copyprivate` payload is broadcast to the rest of the team.
#[derive(Debug, Default)]
pub struct SingleState {
    arrivals: AtomicUsize,
    payload: Mutex<Option<Arc<dyn std::any::Any + Send + Sync>>>,
}

impl SingleState {
    /// Returns `true` exactly once per construct instance (the winner).
    pub fn arrive(&self) -> bool {
        self.arrivals.fetch_add(1, Ordering::AcqRel) == 0
    }

    /// Winner stores the `copyprivate` value.
    pub fn publish(&self, v: Arc<dyn std::any::Any + Send + Sync>) {
        *self.payload.lock() = Some(v);
    }

    /// Non-winners read the broadcast value (after the `single` barrier).
    #[must_use]
    pub fn read(&self) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        self.payload.lock().clone()
    }
}

/// Per-team table of work-sharing construct state, keyed by construct
/// sequence number.
#[derive(Debug, Default)]
pub struct WorkshareTable {
    loops: Mutex<HashMap<u64, Arc<LoopState>>>,
    singles: Mutex<HashMap<u64, Arc<SingleState>>>,
    reduces: Mutex<HashMap<u64, Arc<ReduceState>>>,
}

impl WorkshareTable {
    /// Fresh table (one per team).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the dispatch slot for loop-construct `seq`.
    /// The first thread to arrive initializes it with `init`; later threads
    /// get the same slot regardless of their `init` (all threads compute
    /// identical parameters for the same construct).
    pub fn loop_slot(&self, seq: u64, init: impl FnOnce() -> LoopState) -> Arc<LoopState> {
        let mut m = self.loops.lock();
        Arc::clone(m.entry(seq).or_insert_with(|| Arc::new(init())))
    }

    /// Get or create the `single` slot for construct `seq`.
    pub fn single_slot(&self, seq: u64) -> Arc<SingleState> {
        let mut m = self.singles.lock();
        Arc::clone(m.entry(seq).or_default())
    }

    /// Get or create the reduction slot for construct `seq`.
    pub fn reduce_slot(&self, seq: u64) -> Arc<ReduceState> {
        let mut m = self.reduces.lock();
        Arc::clone(m.entry(seq).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_chunks_cover_exactly() {
        let ls = LoopState::new(103, 10, false, 4);
        let mut seen = [false; 103];
        while let Some((lo, hi)) = ls.next_chunk() {
            for i in lo..hi {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn dynamic_concurrent_no_overlap() {
        let ls = Arc::new(LoopState::new(10_000, 7, false, 8));
        let hits = Arc::new((0..10_000).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let mut th = Vec::new();
        for _ in 0..8 {
            let ls = ls.clone();
            let hits = hits.clone();
            th.push(std::thread::spawn(move || {
                while let Some((lo, hi)) = ls.next_chunk() {
                    for i in lo..hi {
                        hits[i as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for t in th {
            t.join().unwrap();
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn guided_chunks_decay() {
        let ls = LoopState::new(1024, 1, true, 4);
        let mut sizes = Vec::new();
        while let Some((lo, hi)) = ls.next_chunk() {
            sizes.push(hi - lo);
        }
        assert_eq!(sizes.iter().sum::<u64>(), 1024);
        assert!(sizes.first().unwrap() > sizes.last().unwrap());
        // Monotone non-increasing in the single-threaded grab order.
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn single_one_winner() {
        let s = SingleState::default();
        let wins = (0..8).filter(|_| s.arrive()).count();
        assert_eq!(wins, 1);
    }

    #[test]
    fn single_concurrent_one_winner() {
        let s = Arc::new(SingleState::default());
        let winners = Arc::new(AtomicUsize::new(0));
        let mut th = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            let w = winners.clone();
            th.push(std::thread::spawn(move || {
                if s.arrive() {
                    w.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for t in th {
            t.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn copyprivate_broadcast() {
        let s = SingleState::default();
        assert!(s.arrive());
        s.publish(Arc::new(123i64));
        let v = s.read().unwrap();
        assert_eq!(*v.downcast::<i64>().unwrap(), 123);
    }

    #[test]
    fn workshare_table_same_slot_for_same_seq() {
        let t = WorkshareTable::new();
        let a = t.loop_slot(5, || LoopState::new(10, 1, false, 2));
        let b = t.loop_slot(5, || LoopState::new(999, 9, true, 7));
        assert!(Arc::ptr_eq(&a, &b), "second arriver must get the first slot");
        let s1 = t.single_slot(0);
        let s2 = t.single_slot(0);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert!(!Arc::ptr_eq(&t.single_slot(1), &s1));
    }

    #[test]
    fn reduce_state_merges_and_reads() {
        let r = ReduceState::default();
        r.merge(5u64, |a, b| a + b);
        r.merge(7u64, |a, b| a + b);
        r.merge(1u64, |a, b| a + b);
        assert_eq!(r.read::<u64>(), 13);
    }

    #[test]
    fn reduce_state_concurrent_merges() {
        let r = Arc::new(ReduceState::default());
        let mut th = Vec::new();
        for t in 0..4u64 {
            let r = r.clone();
            th.push(std::thread::spawn(move || {
                r.merge(t + 1, |a, b| a + b);
            }));
        }
        for t in th {
            t.join().unwrap();
        }
        assert_eq!(r.read::<u64>(), 10);
    }

    #[test]
    #[should_panic(expected = "reduction read before any merge")]
    fn reduce_state_read_before_merge_panics() {
        let _ = ReduceState::default().read::<u64>();
    }

    #[test]
    fn ordered_steps_serialize_in_iteration_order() {
        let ls = Arc::new(LoopState::new(4, 1, false, 2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut th = Vec::new();
        // Two threads execute iterations {1,3} and {0,2}; ordered section
        // must still observe 0,1,2,3.
        for (_tid, iters) in [(0usize, vec![1u64, 3]), (1, vec![0, 2])] {
            let ls = ls.clone();
            let log = log.clone();
            th.push(std::thread::spawn(move || {
                for i in iters {
                    ls.ordered_step(i, || log.lock().push(i));
                }
            }));
        }
        for t in th {
            t.join().unwrap();
        }
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }
}

/// Accumulator slot for `reduction(...)` clauses: threads merge their
/// local partials under a lock; the combined value is read after the
/// team barrier.
#[derive(Debug, Default)]
pub struct ReduceState {
    acc: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ReduceState {
    /// Merge a thread's local partial into the accumulator.
    pub fn merge<T: Send + 'static>(&self, local: T, combine: impl FnOnce(T, T) -> T) {
        let mut g = self.acc.lock();
        let next: Box<dyn std::any::Any + Send> = match g.take() {
            None => Box::new(local),
            Some(prev) => {
                let prev = *prev.downcast::<T>().expect("reduction type mismatch");
                Box::new(combine(prev, local))
            }
        };
        *g = Some(next);
    }

    /// Read the combined value (call only after the merging barrier).
    #[must_use]
    pub fn read<T: Clone + 'static>(&self) -> T {
        self.acc
            .lock()
            .as_ref()
            .expect("reduction read before any merge")
            .downcast_ref::<T>()
            .expect("reduction type mismatch")
            .clone()
    }
}
