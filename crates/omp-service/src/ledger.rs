//! Per-tenant accounting: job verdicts and accumulated counter deltas.

use std::sync::atomic::{AtomicU64, Ordering};

use glt::fault::{self, Fault};
use glt::CounterSnapshot;
use omp::{OmpRuntime, OmpRuntimeExt};
use parking_lot::Mutex;

/// A tenant's totals, as read back from the ledger.
#[derive(Clone, Debug)]
pub struct TenantTotals {
    /// Jobs whose digest matched the reference.
    pub jobs_ok: u64,
    /// Jobs whose digest did not.
    pub jobs_bad: u64,
    /// Sum of this tenant's per-job counter deltas.
    pub counters: CounterSnapshot,
}

struct Slot {
    jobs_ok: AtomicU64,
    jobs_bad: AtomicU64,
    counters: Mutex<CounterSnapshot>,
}

/// Per-tenant ledger. One slot per tenant; every completed job is charged
/// to exactly one slot — the conservation the isolation tests pin down
/// (`sum(slot jobs) == jobs admitted`, per-slot counts exact).
///
/// With [`Fault::TenantBleed`] armed on the charging thread's runtime,
/// [`TenantLedger::charge`] routes the tenant id through a shared scratch
/// cell with a scheduling point in the window: two tenants charging
/// concurrently on one runtime can misdirect a charge (a read-yield-write
/// lost update on the *identity*, the cross-tenant analog of the planted
/// lost update). The deterministic seed sweep over
/// [`colocated_accounting_probe`] must catch it.
pub struct TenantLedger {
    slots: Vec<Slot>,
    /// The shared cell the injected bleed parks tenant ids in.
    scratch: AtomicU64,
}

impl TenantLedger {
    /// A ledger with `tenants` empty slots.
    #[must_use]
    pub fn new(tenants: usize) -> TenantLedger {
        TenantLedger {
            slots: (0..tenants)
                .map(|_| Slot {
                    jobs_ok: AtomicU64::new(0),
                    jobs_bad: AtomicU64::new(0),
                    counters: Mutex::new(CounterSnapshot::default()),
                })
                .collect(),
            scratch: AtomicU64::new(0),
        }
    }

    /// Number of tenant slots.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.slots.len()
    }

    /// Charge one completed job to `tenant`.
    ///
    /// # Panics
    /// If `tenant` is out of range.
    pub fn charge(&self, tenant: usize, ok: bool, delta: &CounterSnapshot) {
        let tenant = if fault::armed(Fault::TenantBleed) { self.bleed(tenant) } else { tenant };
        let slot = &self.slots[tenant];
        if ok {
            slot.jobs_ok.fetch_add(1, Ordering::SeqCst);
        } else {
            slot.jobs_bad.fetch_add(1, Ordering::SeqCst);
        }
        let mut c = slot.counters.lock();
        *c = c.accumulate(delta);
    }

    /// [`Fault::TenantBleed`]: park the id in a cell every charger shares,
    /// hit a scheduling point, then trust the cell. Another tenant's charge
    /// landing in the window redirects this one (and fires).
    fn bleed(&self, tenant: usize) -> usize {
        self.scratch.store(tenant as u64, Ordering::SeqCst);
        glt::coop::yield_to_scheduler();
        let read = self.scratch.load(Ordering::SeqCst) as usize;
        if read != tenant {
            fault::fire(Fault::TenantBleed);
        }
        read
    }

    /// Read back every tenant's totals.
    #[must_use]
    pub fn totals(&self) -> Vec<TenantTotals> {
        self.slots
            .iter()
            .map(|s| TenantTotals {
                jobs_ok: s.jobs_ok.load(Ordering::SeqCst),
                jobs_bad: s.jobs_bad.load(Ordering::SeqCst),
                counters: *s.counters.lock(),
            })
            .collect()
    }

    /// Total jobs charged across all tenants.
    #[must_use]
    pub fn jobs_charged(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.jobs_ok.load(Ordering::SeqCst) + s.jobs_bad.load(Ordering::SeqCst))
            .sum()
    }
}

/// The det-sweepable shape of the cross-tenant accounting hazard: `tenants`
/// tenants complete `jobs_per_tenant` jobs each *as concurrent tasks on one
/// runtime*, every completion charging its own slot. Returns `true` iff the
/// ledger ends exact — every slot holds exactly its own jobs. With
/// [`Fault::TenantBleed`] armed on `rt`, seeded schedules that interleave
/// two charges inside the scratch window misdirect one, and the probe
/// returns `false`; unarmed runtimes must pass on every seed.
#[must_use]
pub fn colocated_accounting_probe(
    rt: &dyn OmpRuntime,
    tenants: usize,
    jobs_per_tenant: usize,
) -> bool {
    let ledger = TenantLedger::new(tenants);
    let zero = CounterSnapshot::default();
    rt.parallel(|ctx| {
        ctx.single(|| {
            for t in 0..tenants {
                for _ in 0..jobs_per_tenant {
                    let ledger = &ledger;
                    let zero = &zero;
                    ctx.task(move |tc| {
                        tc.taskyield();
                        ledger.charge(t, true, zero);
                    });
                }
            }
        });
    });
    ledger.totals().iter().all(|s| s.jobs_ok == jobs_per_tenant as u64 && s.jobs_bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_charges_land_on_the_named_slot() {
        let l = TenantLedger::new(3);
        let d = CounterSnapshot { forks: 2, ..Default::default() };
        l.charge(1, true, &d);
        l.charge(1, false, &d);
        l.charge(2, true, &d);
        let t = l.totals();
        assert_eq!((t[0].jobs_ok, t[0].jobs_bad), (0, 0));
        assert_eq!((t[1].jobs_ok, t[1].jobs_bad), (1, 1));
        assert_eq!((t[2].jobs_ok, t[2].jobs_bad), (1, 0));
        assert_eq!(t[1].counters.forks, 4);
        assert_eq!(t[2].counters.forks, 2);
        assert_eq!(l.jobs_charged(), 3);
    }

    #[test]
    fn clean_probe_is_exact_on_a_real_runtime() {
        let rt = workloads::RuntimeKind::GltoAbt.build(omp::OmpConfig::with_threads(2));
        assert!(colocated_accounting_probe(rt.as_ref(), 3, 4));
    }
}
