//! Named fault points for test-only defect injection.
//!
//! Every planted defect the conformance suite uses to prove its detectors
//! have teeth is one [`Fault`] entry here. Each GLT runtime owns one
//! [`Faults`] set — a per-fault armed bit and fired counter — so arming a
//! fault on one runtime instance can never fire inside a coexisting one
//! (the multi-tenant service substrate runs many). A fault point asks
//! [`armed`]/[`take`] about the calling thread's innermost runtime through
//! its [`crate::ctx`] frame, and reports a manifestation with [`fire`].
//!
//! Fault points are compiled in only under the `fault-injection` cargo
//! feature: without it [`armed`] and [`take`] are constant `false`, so every
//! sabotaged branch is dead code in production builds. Arming still
//! records the bit (tests can inspect it) but nothing reads it.
//!
//! Adding a planted defect is one [`Fault`] entry (listed in
//! [`Fault::ALL`]), one `fault::armed(Fault::X)` check at the fault point,
//! and one row in the conformance fault table.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A named fault point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// `omp` MCS lock: the next contended release pops its waiter without
    /// granting it (one-shot). The victim's backstop repairs the orphaned
    /// node after ~64 fruitless yields and fires.
    LockLostWakeup,
    /// `glt-det` steal: victim tiers outside the thief's own domain are
    /// dropped; a backstop performs the suppressed steal after a few
    /// fruitless attempts and fires.
    DetCrossStarvation,
    /// `omp-adaptive` commit: every memo-table commit pins the losing
    /// mechanism (det mode: ignore the seeded draw; timed mode: invert the
    /// cost comparison). Fires when the pick differs from the honest one.
    AdaptiveBadCommit,
    /// `omp-service` ledger: a charge routes the tenant id through a shared
    /// scratch cell across a scheduling point. Fires on a misdirected
    /// charge.
    TenantBleed,
}

impl Fault {
    /// Every fault point, in declaration order.
    pub const ALL: [Fault; 4] = [
        Fault::LockLostWakeup,
        Fault::DetCrossStarvation,
        Fault::AdaptiveBadCommit,
        Fault::TenantBleed,
    ];
}

const N: usize = Fault::ALL.len();

/// Whether fault points are compiled in (the `fault-injection` feature).
/// Backstops that repair an injected fault after it was consumed gate on
/// this, so production builds skip them entirely.
pub const ENABLED: bool = cfg!(feature = "fault-injection");

/// One runtime instance's fault state: an armed bit and a fired counter per
/// [`Fault`].
#[derive(Debug, Default)]
pub struct Faults {
    armed: [AtomicBool; N],
    fired: [AtomicU64; N],
}

impl Faults {
    /// Arm `f` on this runtime (see the module docs for the feature gate).
    pub fn arm(&self, f: Fault) {
        self.armed[f as usize].store(true, Ordering::SeqCst);
    }

    /// Whether `f` is currently armed.
    #[must_use]
    pub fn is_armed(&self, f: Fault) -> bool {
        self.armed[f as usize].load(Ordering::SeqCst)
    }

    /// Times `f` manifested on this runtime.
    #[must_use]
    pub fn fired(&self, f: Fault) -> u64 {
        self.fired[f as usize].load(Ordering::SeqCst)
    }
}

/// Whether `f` is armed on the calling thread's innermost runtime. Constant
/// `false` without the `fault-injection` feature, and on threads no GLT
/// runtime registered.
#[inline]
#[must_use]
pub fn armed(f: Fault) -> bool {
    ENABLED && crate::ctx::with_faults(|s| s.is_armed(f)).unwrap_or(false)
}

/// Consume a one-shot arming of `f` on the calling thread's innermost
/// runtime: `true` at most once per [`Faults::arm`]. Constant `false`
/// without the `fault-injection` feature.
#[inline]
#[must_use]
pub fn take(f: Fault) -> bool {
    ENABLED
        && crate::ctx::with_faults(|s| s.armed[f as usize].swap(false, Ordering::SeqCst))
            .unwrap_or(false)
}

/// Record that `f` manifested, on the calling thread's innermost runtime.
pub fn fire(f: Fault) {
    crate::ctx::with_faults(|s| s.fired[f as usize].fetch_add(1, Ordering::SeqCst));
}

/// Times `f` manifested on the calling thread's innermost runtime (0 on
/// unregistered threads).
#[must_use]
pub fn fired(f: Fault) -> u64 {
    crate::ctx::with_faults(|s| s.fired(f)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_fault_at_its_index() {
        for (i, f) in Fault::ALL.iter().enumerate() {
            assert_eq!(*f as usize, i);
        }
    }

    #[test]
    fn arming_is_per_set() {
        let (a, b) = (Faults::default(), Faults::default());
        a.arm(Fault::TenantBleed);
        assert!(a.is_armed(Fault::TenantBleed));
        assert!(!b.is_armed(Fault::TenantBleed));
        assert!(!a.is_armed(Fault::LockLostWakeup));
        assert_eq!(a.fired(Fault::TenantBleed), 0);
    }

    #[test]
    fn unregistered_threads_see_nothing_armed() {
        assert!(!armed(Fault::LockLostWakeup));
        assert!(!take(Fault::LockLostWakeup));
        fire(Fault::LockLostWakeup); // no frame: a no-op, must not panic
        assert_eq!(fired(Fault::LockLostWakeup), 0);
    }
}
