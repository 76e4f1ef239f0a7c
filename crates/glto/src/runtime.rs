//! `GltoRuntime`: the OpenMP runtime over GLT (the paper's contribution).

use std::sync::{Arc, OnceLock};

use glt::{Counters, GltConfig, GltRuntime, WaitPolicy};
use omp::{CriticalRegistry, Icvs, NestedHandoff, OmpConfig, OmpRuntime, RegionFn};

use crate::backend::{AnyGlt, Backend};
use crate::hot::HotPool;
use crate::team::GltoTeam;

/// The GLTO OpenMP runtime: complies with the `omp` front-end (the paper's
/// OpenMP 4.0 surface) while executing everything as GLT work units over
/// the selected LWT backend.
pub struct GltoRuntime {
    cfg: OmpConfig,
    icvs: Arc<Icvs>,
    criticals: Arc<CriticalRegistry>,
    backend: Backend,
    glt: AnyGlt,
    /// Parked hot-ULT team (`GLTO_HOT_ULTS`, see [`crate::hot`]).
    hot: HotPool,
    /// Cross-mechanism nested-region handoff (see [`NestedHandoff`]).
    nested_handoff: OnceLock<NestedHandoff>,
}

impl GltoRuntime {
    /// Start GLTO over `backend`. The `GLT_thread`s (one of which is the
    /// calling thread) are created here, up front — "GLT_threads are bound
    /// to CPU cores and are created when the library is loaded" (§IV-B).
    #[must_use]
    pub fn new(backend: Backend, cfg: OmpConfig) -> Arc<Self> {
        Self::with_counters(backend, cfg, None)
    }

    /// As [`GltoRuntime::new`], optionally charging into a shared counter
    /// block (the `omp-adaptive` composition passes the block it also hands
    /// its pomp engine, so one statistics stream covers both mechanisms).
    #[must_use]
    pub fn with_counters(
        backend: Backend,
        cfg: OmpConfig,
        counters: Option<Arc<Counters>>,
    ) -> Arc<Self> {
        let icvs = Arc::new(Icvs::new(&cfg));
        let criticals = Arc::new(CriticalRegistry::from_config(&cfg));
        Self::build(backend, cfg, counters, icvs, criticals)
    }

    /// Build the ULT engine of an `omp-adaptive` composition: counter
    /// block, mutable ICVs, and named-critical registry are shared with the
    /// composing runtime (and its OS-thread engine), so `omp_set_*` calls
    /// and named criticals behave identically whichever mechanism a region
    /// runs on.
    #[must_use]
    pub fn adaptive_engine(
        backend: Backend,
        cfg: OmpConfig,
        counters: Arc<Counters>,
        icvs: Arc<Icvs>,
        criticals: Arc<CriticalRegistry>,
    ) -> Arc<Self> {
        Self::build(backend, cfg, Some(counters), icvs, criticals)
    }

    fn build(
        backend: Backend,
        cfg: OmpConfig,
        counters: Option<Arc<Counters>>,
        icvs: Arc<Icvs>,
        criticals: Arc<CriticalRegistry>,
    ) -> Arc<Self> {
        let glt_cfg = GltConfig {
            num_threads: cfg.num_threads,
            shared_queues: cfg.shared_queues,
            wait_policy: cfg.wait_policy,
            // The OpenMP layer owns placement policy: the machine topology
            // flows down (explicit config first, then `GLT_TOPOLOGY`), and
            // the named proc_bind policies forbid the GLT backends from
            // migrating a bound team's work across a socket boundary.
            topology: cfg.topology.or_else(glt::Topology::from_env),
            cross_domain_steal: cfg.proc_bind.allows_cross_domain(),
            counters,
            ..GltConfig::default()
        };
        let glt = AnyGlt::start(backend, glt_cfg);
        Arc::new(GltoRuntime {
            cfg,
            icvs,
            criticals,
            backend,
            glt,
            hot: HotPool::new(),
            nested_handoff: OnceLock::new(),
        })
    }

    /// Install the cross-mechanism nested handoff (at most once, before
    /// first use). Consulted by [`crate::team::GltoTeam`] after the
    /// serial-fallback checks: a hook that returns `true` has run the
    /// nested region on the other mechanism.
    pub fn install_nested_handoff(&self, hook: NestedHandoff) {
        assert!(self.nested_handoff.set(hook).is_ok(), "nested handoff already installed");
    }

    /// The installed cross-mechanism nested handoff, if any.
    pub(crate) fn nested_handoff(&self) -> Option<&NestedHandoff> {
        self.nested_handoff.get()
    }

    /// Run a nested region at `level + 1` as a fresh ULT team — the entry
    /// point the OS-thread engine's handoff uses for the "ULT region nested
    /// under an OS-thread region" direction. The encountering thread (a
    /// pomp pool member, foreign to GLT) runs the master share inline;
    /// member ULTs run on the GLT workers. The team starts a fresh lineage:
    /// no GLT frame of an ancestor team lives on the calling OS thread.
    pub fn run_nested_region(
        &self,
        level: usize,
        nthreads: Option<usize>,
        body: &RegionFn<'static>,
    ) {
        let n = nthreads.unwrap_or_else(|| self.icvs.num_threads()).max(1);
        let team = GltoTeam::with_parent(self, level + 1, n, &[]);
        team.run_region(body);
    }

    /// The underlying GLT runtime.
    #[must_use]
    pub fn glt(&self) -> &AnyGlt {
        &self.glt
    }

    /// Which LWT backend this runtime uses.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Critical-section registry (shared by all this runtime's teams).
    #[must_use]
    pub fn criticals(&self) -> &CriticalRegistry {
        &self.criticals
    }

    /// Wait policy for idle loops.
    #[must_use]
    pub fn wait_policy(&self) -> WaitPolicy {
        self.cfg.wait_policy
    }

    /// `OMP_SPIN_BUDGET`: probes an idle waiter spins before yielding to
    /// its scheduler (locks, barriers, region joins).
    #[must_use]
    pub fn spin_budget(&self) -> u32 {
        self.cfg.spin_budget
    }

    /// The deterministic scheduler when running on [`Backend::Det`]
    /// (seed/event-log/stall accessors for test harnesses), else `None`.
    #[must_use]
    pub fn det_scheduler(&self) -> Option<&glt_det::DetScheduler> {
        self.glt.det_scheduler()
    }

    /// §IV-G: under the MassiveThreads-like backend the primary GLT_thread
    /// (the OpenMP master) must not yield/help — MassiveThreads would let
    /// its work be stolen, displacing the master from GLT_thread 0. GLTO
    /// forbids the yield instead, which is exactly the modification the
    /// paper describes (and the reason GLTO(MTH) suffers in Figs. 8–9).
    /// With a single GLT_thread there is nobody to steal anything, so the
    /// restriction would deadlock every wait; it only applies when other
    /// workers exist.
    #[must_use]
    pub fn master_yield_forbidden(&self) -> bool {
        self.backend == Backend::Mth && self.glt.num_threads() > 1
    }

    /// Whether hot ULT teams are active (`GLTO_HOT_ULTS`, and not
    /// shared-queue mode — a parked loop in the shared queue would be
    /// stolen into the wrong worker).
    #[must_use]
    pub fn hot_enabled(&self) -> bool {
        self.cfg.hot_ults && !self.cfg.shared_queues
    }

    /// The parked hot-team cache (hot-path orchestration in [`crate::hot`]).
    pub(crate) fn hot_pool(&self) -> &HotPool {
        &self.hot
    }

    /// Retire the parked hot team, if any: member service ULTs run to
    /// completion and their frames return to the unit slab. Also invoked
    /// via [`OmpRuntime::retire_cached`] and on drop.
    pub fn retire_hot(&self) {
        self.hot.retire(&self.glt);
    }
}

impl Drop for GltoRuntime {
    fn drop(&mut self) {
        // Parked member loops hold a raw pointer to this runtime; retire
        // and join them before any field (the GLT runtime in particular)
        // is torn down.
        self.retire_hot();
    }
}

impl OmpRuntime for GltoRuntime {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn label(&self) -> &'static str {
        self.backend.label()
    }

    fn icvs(&self) -> &Icvs {
        &self.icvs
    }

    fn omp_config(&self) -> &OmpConfig {
        &self.cfg
    }

    fn counters(&self) -> &Counters {
        // One shared block: ULT creations are counted by the GLT layer,
        // task/fork statistics by the GLTO layer.
        self.glt.counters()
    }

    fn parallel_erased(&self, nthreads: Option<usize>, body: &RegionFn<'static>) {
        let n = nthreads.unwrap_or_else(|| self.icvs.num_threads()).max(1);
        let team = GltoTeam::new(self, 1, n);
        team.run_region(body);
    }

    fn honors_final(&self) -> bool {
        true // GLTO executes `final` tasks directly (passes the suite)
    }

    fn retire_cached(&self) {
        self.retire_hot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::ActiveTeamGuard;
    use glt::{ctx, Fault};
    use omp::OmpRuntimeExt;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One OS thread is rank 0 of two runtimes: each runtime's rank, team
    /// stack, nest-lock token and armed faults live in its own ctx frame,
    /// and dropping the outer runtime first leaves the inner frame whole.
    #[test]
    fn two_runtimes_on_one_thread_keep_disjoint_frames() {
        let a = GltoRuntime::new(Backend::Abt, OmpConfig::with_threads(2));
        let token_a = ctx::nest_token();
        let b = GltoRuntime::new(Backend::Abt, OmpConfig::with_threads(3));
        let (ka, kb) = (a.glt().id(), b.glt().id());
        assert_ne!(ka, kb);
        assert_eq!((a.glt().self_rank(), b.glt().self_rank()), (Some(0), Some(0)));

        // Ranks: A's worker is nobody in B.
        let b_rank_on_a_worker = AtomicUsize::new(0);
        a.parallel(|c| {
            if c.thread_num() == 1 {
                let r = b.glt().self_rank().unwrap_or(usize::MAX);
                b_rank_on_a_worker.store(r, Ordering::SeqCst);
            }
        });
        assert_eq!(b_rank_on_a_worker.load(Ordering::SeqCst), usize::MAX);

        // Team stacks, nest tokens, faults: B (innermost) never sees A's.
        let guard = ActiveTeamGuard::enter(ka, Arc::new(vec![7]));
        assert_eq!(ctx::with_teams(ka, <[_]>::len), 1);
        assert_eq!(ctx::with_teams(kb, <[_]>::len), 0);
        let token_b = ctx::nest_token();
        assert_ne!(token_a, token_b);
        a.glt().faults().arm(Fault::LockLostWakeup);
        assert_eq!(ctx::with_faults(|f| f.is_armed(Fault::LockLostWakeup)), Some(false));

        // Drop A first: removal is by id, so B's frame stays intact.
        drop(guard);
        drop(a);
        assert_eq!(glt::coop::current_runtime_id(), Some(kb));
        assert_eq!(b.glt().self_rank(), Some(0));
        assert_eq!(ctx::nest_token(), token_b);
        let hits = AtomicUsize::new(0);
        b.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        drop(b);
        assert_eq!(glt::coop::current_runtime_id(), None);
    }
}
