//! OpenMP-as-a-service: a multi-tenant job server on one shared substrate.
//!
//! The paper's comparison stops at one application per process. This crate
//! measures the production axis it never did: N independent OpenMP tenants
//! coexisting in one process, where the LWT backends' cheap oversubscription
//! should shine. The pieces:
//!
//! * [`Substrate`] — owns the execution resources once and lends topology
//!   *domains* (the PR 8 steal domains) to tenants. An admission controller
//!   takes jobs off a FIFO submission queue, enforces a queue cap (reject)
//!   and a max-concurrent-tenants limit (queue), leases a domain per
//!   running job, and dispatches onto per-dispatcher cached runtime
//!   *lanes* so the steady state re-creates no runtime.
//! * [`JobSpec`] / [`Workload`] — a tenant's unit of admission: a workload
//!   from `crates/workloads` (UTS / CG / Clover / a task burst), a thread
//!   budget, and a [`workloads::RuntimeKind`] choice.
//! * [`TenantLedger`] — per-tenant accounting (job verdicts + accumulated
//!   counter deltas), the state the injected cross-tenant bleed
//!   (`glt::Fault::TenantBleed`, armed per runtime) corrupts and the
//!   deterministic seed sweep must catch.
//! * Service counters on the substrate's own [`glt::Counters`] block —
//!   `jobs_admitted` / `jobs_queued` / `jobs_rejected` /
//!   `tenant_steals_leaked` — with conservation laws checked by
//!   [`glt::CounterSnapshot::invariant_violations`].
//!
//! Determinism: [`ServiceConfig::det_seed`] maps every GLTO lane onto the
//! seeded `glt-det` backend, so a cross-tenant interference bug found in a
//! soak replays — and shrinks — from its seed like any conformance case.

mod job;
mod ledger;
mod stats;
mod substrate;

pub use job::{JobOutcome, JobSpec, Workload};
pub use ledger::{colocated_accounting_probe, TenantLedger, TenantTotals};
pub use stats::{latency_stats, LatencyStats};
pub use substrate::{JobTicket, LeaseMode, Rejected, ServiceConfig, ServiceReport, Substrate};
