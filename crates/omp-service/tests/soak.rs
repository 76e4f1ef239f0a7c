//! Multi-tenant soaks: many tenants, mixed workloads, every LWT backend.
//!
//! These are the acceptance runs for the service layer: a 1000-tenant
//! mixed-workload soak per GLTO backend (and the adaptive runtime) in
//! which every digest must verify, the admission conservation laws must
//! hold once drained, and the exclusive-lease steal tripwire must stay at
//! zero — plus a det-seeded soak proving the whole service replays under
//! the deterministic backend.

use omp_service::{latency_stats, JobSpec, ServiceConfig, Substrate, Workload};
use workloads::RuntimeKind;

fn soak(kind: RuntimeKind, tenants: usize, det_seed: Option<u64>) {
    let mut cfg = ServiceConfig::new(tenants);
    cfg.topology = glt::Topology::new(4, 2, 1);
    cfg.max_concurrent = 4;
    cfg.queue_cap = tenants + 1;
    cfg.det_seed = det_seed;
    let s = Substrate::start(cfg);
    let mix = Workload::mix();
    let tickets: Vec<_> = (0..tenants)
        .map(|t| {
            s.submit(JobSpec {
                tenant: t,
                workload: mix[t % mix.len()].clone(),
                threads: 1 + t % 2,
                runtime: kind,
            })
            .expect("soak queue sized for every tenant")
        })
        .collect();
    let mut lat: Vec<u64> = tickets
        .into_iter()
        .map(|t| {
            let out = t.wait();
            assert!(out.ok, "tenant {} got a wrong digest on {}", out.tenant, kind.label());
            u64::try_from(out.latency.as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    let stats = latency_stats(&mut lat);
    assert_eq!(stats.count, tenants);
    assert!(stats.p50_ns <= stats.p95_ns && stats.p95_ns <= stats.p99_ns);

    let report = s.shutdown();
    assert!(report.is_clean(), "{}: {:?}", kind.label(), report.violations);
    assert!(
        report.per_tenant_violations().is_empty(),
        "{}: {:?}",
        kind.label(),
        report.per_tenant_violations()
    );
    assert_eq!(report.service.jobs_queued, tenants as u64);
    assert_eq!(report.service.jobs_admitted, tenants as u64);
    assert_eq!(report.service.jobs_rejected, 0);
    assert_eq!(report.aggregate.tenant_steals_leaked, 0, "exclusive lease leaked steals");
    // Every tenant submitted exactly one job; every slot must hold it.
    for (t, totals) in report.per_tenant.iter().enumerate() {
        assert_eq!((totals.jobs_ok, totals.jobs_bad), (1, 0), "tenant {t} miscounted");
    }
}

#[test]
fn soak_1000_tenants_abt() {
    soak(RuntimeKind::GltoAbt, 1000, None);
}

#[test]
fn soak_1000_tenants_qth() {
    soak(RuntimeKind::GltoQth, 1000, None);
}

#[test]
fn soak_1000_tenants_mth() {
    soak(RuntimeKind::GltoMth, 1000, None);
}

#[test]
fn soak_1000_tenants_adaptive() {
    soak(RuntimeKind::Adaptive, 1000, None);
}

/// 100-tenant smoke at CI size (also the `service` CI job's release run).
#[test]
fn soak_100_tenants_smoke() {
    soak(RuntimeKind::GltoMth, 100, None);
}

/// Det-seeded soak: every GLTO lane runs on the seeded deterministic
/// backend, so this entire service run replays from seed 11.
#[test]
fn soak_det_seeded_replays() {
    soak(RuntimeKind::GltoMth, 64, Some(11));
}

/// Mixed-runtime soak: tenants pick different OpenMP implementations and
/// still coexist on one substrate with exact per-tenant accounting.
#[test]
fn soak_mixed_runtimes_coexist() {
    let kinds =
        [RuntimeKind::Gnu, RuntimeKind::GltoAbt, RuntimeKind::GltoQth, RuntimeKind::GltoMth];
    let tenants = 64;
    let s = Substrate::start(ServiceConfig::new(tenants));
    let mix = Workload::mix();
    let tickets: Vec<_> = (0..tenants)
        .map(|t| {
            s.submit(JobSpec {
                tenant: t,
                workload: mix[t % mix.len()].clone(),
                threads: 2,
                runtime: kinds[t % kinds.len()],
            })
            .expect("unbounded queue")
        })
        .collect();
    for t in tickets {
        assert!(t.wait().ok);
    }
    let report = s.shutdown();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.service.jobs_admitted, tenants as u64);
    for totals in &report.per_tenant {
        assert_eq!((totals.jobs_ok, totals.jobs_bad), (1, 0));
    }
}
