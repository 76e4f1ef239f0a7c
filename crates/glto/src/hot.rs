//! Hot ULT teams: `GLTO_HOT_ULTS=1` keeps the member ULTs of top-level
//! parallel regions parked between forks.
//!
//! The paper's fork model (§IV-C) creates one `GLT_ult` per non-master
//! member on *every* `#pragma omp parallel` and lets it die at the join —
//! that per-fork create/enqueue/wake is most of the Fig. 7 gap against the
//! pthread runtimes, whose teams persist. This opt-in mode closes the gap
//! the same way: the first eligible fork creates one long-lived *service*
//! ULT per member (`UnitClass::Service`, pinned to its home `GLT_thread`),
//! and every later fork of the same width merely **arms** each parked
//! member through a per-slot word — no allocation, no queue traffic, no
//! wake-up.
//!
//! Eligibility is deliberately narrow — anything else falls back to the
//! cold (batched) path in `team.rs`:
//!
//! * top-level regions only (`level <= 1`): nested teams are transient;
//! * `!shared_queues`: a parked loop in the shared queue would be stolen
//!   into the wrong worker;
//! * team width `n <=` GLT_thread count `w`: at `n > w` some worker would
//!   have to host **two** parked service loops, and a help-first worker
//!   cannot — the outer loop never returns, so the inner one never runs,
//!   and the fork deadlocks;
//! * the pool holds one parked team; a width change retires and rebuilds
//!   it, and concurrent top-level forks (the pool lock is contended) go
//!   cold.
//!
//! Lifecycle: `GltoRuntime::drop` (and the [`omp::OmpRuntime::retire_cached`]
//! hook, used by counter-invariant harnesses) retires the parked team —
//! members observe `RETIRE`, their service units complete, and their frames
//! return to the unit slab.

use std::any::Any;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use glt::{Counters, GltRuntime, UltHandle, WaitPolicy};
use omp::{run_region_member, OmpRuntime, RegionFn, TeamOps};
use parking_lot::Mutex;

use crate::backend::AnyGlt;
use crate::runtime::GltoRuntime;
use crate::team::{ActiveTeamGuard, GltoTeam};

/// Slot states (one word per parked member — the whole arm protocol).
const IDLE: u32 = 0;
const ARMED: u32 = 1;
const RETIRE: u32 = 2;

/// One fork's worth of work for one parked member: raw-pointer capsule
/// into the master's stack frame, valid until the master has seen this
/// member's `done_epoch` (the hot analog of the cold path's `ForkCmd`).
struct HotCmd {
    team: *const GltoTeam<'static>,
    body: *const RegionFn<'static>,
    lineage: Arc<Vec<u64>>,
    tid: usize,
    epoch: u64,
}
// SAFETY: fork/join protocol — `try_run_hot` keeps the pointed-to frames
// alive until every armed member has published `done_epoch >= epoch`.
unsafe impl Send for HotCmd {}

/// A parked member's mailbox.
struct HotSlot {
    state: AtomicU32,
    cmd: Mutex<Option<HotCmd>>,
    done_epoch: AtomicU64,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl HotSlot {
    fn new() -> Self {
        HotSlot {
            state: AtomicU32::new(IDLE),
            cmd: Mutex::new(None),
            done_epoch: AtomicU64::new(0),
            panic: Mutex::new(None),
        }
    }
}

/// Capsule handed to a member's service ULT at creation time.
struct ServiceCmd {
    rt: *const GltoRuntime,
    slot: Arc<HotSlot>,
}
// SAFETY: the runtime outlives its parked loops — `GltoRuntime::drop`
// retires and joins every hot member before the GLT runtime (and the
// `GltoRuntime` allocation itself) goes away.
unsafe impl Send for ServiceCmd {}

/// The parked team: one slot + service handle per member tid `1..width`.
struct HotTeam {
    width: usize,
    /// Home GLT_thread of each member tid `1..width` (index `tid - 1`).
    /// A mapping change (places / proc_bind took effect) retires the team
    /// just like a width change would.
    ranks: Vec<usize>,
    epoch: u64,
    /// Whether this team has served at least one fork (the first fork
    /// pays creation and is *not* a reuse).
    armed_once: bool,
    slots: Vec<Arc<HotSlot>>,
    handles: Vec<UltHandle>,
}

/// Runtime-held cache of at most one parked team.
pub(crate) struct HotPool {
    team: Mutex<Option<HotTeam>>,
}

impl HotPool {
    pub(crate) fn new() -> Self {
        HotPool { team: Mutex::new(None) }
    }

    /// Retire the parked team (if any): members observe `RETIRE`, their
    /// service units run to completion, their frames return to the slab.
    pub(crate) fn retire(&self, glt: &AnyGlt) {
        if let Some(team) = self.team.lock().take() {
            retire_team(glt, &team);
        }
    }
}

fn retire_team(glt: &AnyGlt, team: &HotTeam) {
    for slot in &team.slots {
        slot.state.store(RETIRE, Ordering::Release);
    }
    for h in &team.handles {
        // `join` also recycles the service frame into the unit slab.
        glt.join(h);
    }
}

/// The parked member body: wait for a command, run one region share,
/// publish completion; repeat until retired. Runs as a `Service` unit at
/// its home worker's outermost loop, so while idle it helps that worker
/// exactly as the worker's own loop would.
fn member_loop(rt: &GltoRuntime, slot: &HotSlot) {
    let glt = rt.glt();
    let passive = rt.wait_policy() == WaitPolicy::Passive;
    let mut idle_rounds = 0u32;
    loop {
        match slot.state.load(Ordering::Acquire) {
            RETIRE => return,
            ARMED => {
                let cmd = slot.cmd.lock().take().expect("armed slot must hold a command");
                // The master never re-arms before seeing `done_epoch`, so
                // this relaxed store cannot race a concurrent `ARMED`.
                slot.state.store(IDLE, Ordering::Relaxed);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: fork/join protocol (see `HotCmd`).
                    let team: &GltoTeam<'_> = unsafe { &*cmd.team };
                    let body: &RegionFn<'static> = unsafe { &*cmd.body };
                    let _active =
                        ActiveTeamGuard::enter(team.rt().glt().id(), Arc::clone(&cmd.lineage));
                    run_region_member(team, cmd.tid, body);
                }));
                if let Err(p) = result {
                    *slot.panic.lock() = Some(p);
                }
                slot.done_epoch.store(cmd.epoch, Ordering::Release);
                idle_rounds = 0;
            }
            _ => {
                // Idle between forks: keep the home worker productive.
                if glt.help_once() {
                    idle_rounds = 0;
                } else {
                    idle_rounds = idle_rounds.saturating_add(1);
                    if idle_rounds < 64 {
                        std::hint::spin_loop();
                    } else if passive && idle_rounds > 256 {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
}

/// Run `body` as a hot fork if this region is eligible and the parked team
/// is available. Returns `false` (caller takes the cold path) otherwise.
pub(crate) fn try_run_hot(team: &GltoTeam<'_>, body: &RegionFn<'static>) -> bool {
    let rt = team.rt();
    let n = team.num_threads();
    let glt = rt.glt();
    let w = glt.num_threads();
    // Eligibility; see the module docs for why each arm exists. The n > w
    // case would park two service loops on one worker — deadlock under
    // help-first scheduling — so it must go cold. The w <= 1 arm is the
    // sole-worker guard: with only the master's GLT_thread there is no
    // rank to park a service loop on, and an armed member could only run
    // by displacing the master — the single-core MTH regression documented
    // in EXPERIMENTS.md. It is implied by `1 < n <= w` today but stated
    // explicitly so no future widening of the width rule re-opens it.
    if team.level() > 1 || !rt.hot_enabled() || w <= 1 || n <= 1 || n > w {
        return false;
    }
    // Placement-aware home ranks for members tid `1..n`. A service loop
    // parked on rank 0 would never run (the master never drains services
    // at top level), and two loops on one worker deadlock under help-first
    // scheduling — any mapping violating either goes cold.
    let ranks: Vec<usize> = match crate::team::place_members(rt, n) {
        Some(map) => {
            let members = &map[1..];
            let distinct: std::collections::HashSet<usize> = members.iter().copied().collect();
            if members.contains(&0) || distinct.len() != members.len() {
                return false;
            }
            members.to_vec()
        }
        None => (1..n).collect(),
    };
    // Concurrent top-level forks (another registering thread) go cold
    // rather than queueing behind the parked team.
    let Some(mut pool) = rt.hot_pool().team.try_lock() else {
        return false;
    };
    let counters = rt.counters();
    let t0 = Instant::now();
    // Width or mapping change: retire the old parked team before building
    // anew. Old slots are gone from the pool before any new slot exists,
    // so a stale loop can never be armed by this or any later fork.
    if pool.as_ref().is_some_and(|t| t.width != n || t.ranks != ranks) {
        let old = pool.take().expect("checked is_some");
        retire_team(glt, &old);
    }
    if pool.is_none() {
        // First fork at this shape: park one service loop per member,
        // pinned to its home GLT_thread (default mapping: tid 1..n-1 ->
        // rank tid; rank 0 is the master and never hosts a service loop).
        let slots: Vec<Arc<HotSlot>> = (1..n).map(|_| Arc::new(HotSlot::new())).collect();
        let handles: Vec<UltHandle> = slots
            .iter()
            .zip(&ranks)
            .map(|(slot, &rank)| {
                let sc = ServiceCmd { rt: std::ptr::from_ref(rt), slot: Arc::clone(slot) };
                glt.service_ult_create_to(
                    rank,
                    Box::new(move || {
                        let sc = sc;
                        // SAFETY: runtime outlives parked loops (see
                        // `ServiceCmd`).
                        let rt = unsafe { &*sc.rt };
                        member_loop(rt, &sc.slot);
                    }),
                )
            })
            .collect();
        *pool = Some(HotTeam {
            width: n,
            ranks: ranks.clone(),
            epoch: 0,
            armed_once: false,
            slots,
            handles,
        });
    }
    let hot = pool.as_mut().expect("built above");
    hot.epoch += 1;
    let epoch = hot.epoch;
    let reused = hot.armed_once;
    hot.armed_once = true;
    for (i, slot) in hot.slots.iter().enumerate() {
        *slot.cmd.lock() = Some(HotCmd {
            team: std::ptr::from_ref(team).cast::<GltoTeam<'static>>(),
            body: std::ptr::from_ref(body),
            lineage: Arc::clone(team.lineage()),
            tid: i + 1,
            epoch,
        });
        slot.state.store(ARMED, Ordering::Release);
    }
    Counters::bump(&counters.assign_ns, t0.elapsed().as_nanos() as u64);
    Counters::bump(&counters.forks, 1);
    if reused {
        Counters::bump(&counters.ults_reused, (n - 1) as u64);
    }
    // Master's share, then wait for every member's epoch. The master's own
    // panic is deferred past the wait so the frames in `HotCmd` stay valid
    // for still-running members.
    let master = {
        let _active = ActiveTeamGuard::enter(team.rt().glt().id(), Arc::clone(team.lineage()));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_region_member(team, 0, body)))
    };
    let mut sw = team.spin_wait();
    for slot in &hot.slots {
        while slot.done_epoch.load(Ordering::Acquire) < epoch {
            if team.help_at_quiescence() {
                sw.reset();
            } else {
                sw.wait();
            }
        }
    }
    if let Err(p) = master {
        std::panic::resume_unwind(p);
    }
    // Drain every member's panic slot before rethrowing: leaving a later
    // member's payload in place would make the *next* (clean) region on
    // this hot team rethrow it. First payload wins, the rest are dropped.
    let mut first_panic = None;
    for slot in &hot.slots {
        if let Some(p) = slot.panic.lock().take() {
            first_panic.get_or_insert(p);
        }
    }
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::{Backend, GltoRuntime};
    use omp::{OmpConfig, OmpRuntime, OmpRuntimeExt};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn hot_rt(b: Backend, n: usize) -> std::sync::Arc<GltoRuntime> {
        GltoRuntime::new(b, OmpConfig::with_threads(n).hot_ults(true))
    }

    #[test]
    fn hot_forks_reuse_parked_members() {
        for b in Backend::all() {
            let r = hot_rt(b, 4);
            r.counters().reset();
            for _ in 0..5 {
                let tids = parking_lot::Mutex::new(HashSet::new());
                r.parallel(|ctx| {
                    assert_eq!(ctx.num_threads(), 4);
                    tids.lock().insert(ctx.thread_num());
                });
                assert_eq!(tids.lock().len(), 4, "backend {b:?}");
            }
            let s = r.counters().snapshot();
            assert_eq!(s.forks, 5, "backend {b:?}");
            assert_eq!(s.ults_created, 3, "one service ULT per member, created once ({b:?})");
            assert_eq!(s.ults_reused, 12, "4 re-arm forks x 3 members ({b:?})");
        }
    }

    #[test]
    fn hot_width_change_36_8_36_has_no_stale_wakes() {
        let r = hot_rt(Backend::Abt, 36);
        r.counters().reset();
        for (i, width) in [36usize, 8, 36, 36].iter().enumerate() {
            let hits = AtomicUsize::new(0);
            r.parallel_n(Some(*width), |ctx| {
                assert_eq!(ctx.num_threads(), *width);
                hits.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
            });
            // Exactly one execution per member: a stale slot from the
            // retired width would overshoot.
            assert_eq!(hits.load(Ordering::SeqCst), *width, "fork {i} width {width}");
        }
        let s = r.counters().snapshot();
        // 35 + 7 + 35 services built across the two rebuilds; only the
        // final same-width fork reuses.
        assert_eq!(s.ults_created, 77);
        assert_eq!(s.ults_reused, 35);
        r.retire_hot();
        let s = r.counters().snapshot();
        assert_eq!(
            s.units_executed, s.ults_created,
            "every service ULT ran to completion after retire"
        );
    }

    #[test]
    fn oversized_teams_fall_back_cold() {
        // n > w would park two service loops on one worker (deadlock), so
        // the fork must go cold — and still produce a full team.
        let r = hot_rt(Backend::Abt, 2);
        let tids = parking_lot::Mutex::new(HashSet::new());
        r.parallel_n(Some(4), |ctx| {
            tids.lock().insert(ctx.thread_num());
        });
        assert_eq!(tids.lock().len(), 4);
        assert_eq!(r.counters().snapshot().ults_reused, 0, "cold path must not count reuse");
    }

    #[test]
    fn single_worker_runtimes_fall_back_cold() {
        // GLTO_HOT_ULTS=1 on one worker regressed MTH wall time (a parked
        // member can only run by displacing the master; EXPERIMENTS.md,
        // PR 6): hot eligibility requires workers > 1, and a sole-worker
        // runtime must serve every fork cold yet correct.
        for b in Backend::all() {
            let r = hot_rt(b, 1);
            r.counters().reset();
            for _ in 0..3 {
                let hits = AtomicUsize::new(0);
                r.parallel(|ctx| {
                    assert_eq!(ctx.num_threads(), 1);
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(hits.load(Ordering::SeqCst), 1, "backend {b:?}");
            }
            let s = r.counters().snapshot();
            assert_eq!(s.forks, 3, "backend {b:?}");
            assert_eq!(s.ults_created, 0, "no service loop may park on the sole worker ({b:?})");
            assert_eq!(s.ults_reused, 0, "hot path must never engage with one worker ({b:?})");
        }
    }

    #[test]
    fn nested_regions_under_hot_outer_complete() {
        let r = hot_rt(Backend::Abt, 3);
        let hits = AtomicUsize::new(0);
        for _ in 0..2 {
            r.parallel(|ctx| {
                ctx.parallel(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 18);
    }

    #[test]
    fn tasks_inside_hot_regions_complete() {
        for b in Backend::all() {
            let r = hot_rt(b, 4);
            let done = AtomicUsize::new(0);
            r.parallel(|ctx| {
                ctx.single(|| {
                    for _ in 0..40 {
                        let done = &done;
                        ctx.task(move |_| {
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
            assert_eq!(done.load(Ordering::SeqCst), 40, "backend {b:?}");
        }
    }

    #[test]
    fn shared_queues_disable_hot() {
        let r = GltoRuntime::new(
            Backend::Abt,
            OmpConfig::with_threads(3).hot_ults(true).shared_queues(true),
        );
        assert!(!r.hot_enabled());
        let hits = AtomicUsize::new(0);
        r.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(r.counters().snapshot().ults_reused, 0);
    }

    #[test]
    fn hot_teams_rearm_within_their_bound_placement() {
        // proc_bind(close) on a synthetic two-socket box produces an
        // injective member->rank map that excludes rank 0, so the hot path
        // stays eligible: the parked members re-arm on their bound ranks
        // and no steal ever crosses the socket boundary.
        let cfg = omp::OmpConfig::with_threads(8)
            .hot_ults(true)
            .topology(glt::Topology::new(2, 4, 2))
            .proc_bind(omp::ProcBind::Close);
        let r = GltoRuntime::new(Backend::Abt, cfg);
        r.counters().reset();
        for _ in 0..5 {
            let tids = parking_lot::Mutex::new(HashSet::new());
            r.parallel(|ctx| {
                tids.lock().insert(ctx.thread_num());
            });
            assert_eq!(tids.lock().len(), 8);
        }
        let s = r.counters().snapshot();
        assert_eq!(s.ults_created, 7, "one service ULT per bound member, created once");
        assert_eq!(s.ults_reused, 28, "4 re-arm forks x 7 members");
        assert_eq!(s.steals_cross_domain, 0, "bound hot team crossed a socket");
    }

    #[test]
    fn det_backend_runs_hot_regions() {
        let r = hot_rt(Backend::det(11), 3);
        for _ in 0..3 {
            let hits = AtomicUsize::new(0);
            r.parallel(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 3);
        }
        assert!(!r.det_scheduler().expect("det").stalled());
    }
}

#[cfg(test)]
mod review_tests {
    use crate::{Backend, GltoRuntime};
    use omp::{OmpConfig, OmpRuntimeExt};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn stale_member_panic_does_not_leak_into_next_region() {
        let r = GltoRuntime::new(Backend::Abt, OmpConfig::with_threads(4).hot_ults(true));
        // Warm the hot team with one clean fork.
        r.parallel(|_| {});
        // Fork where TWO members panic: only the first payload is rethrown.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.parallel(|ctx| {
                if ctx.thread_num() == 1 || ctx.thread_num() == 2 {
                    panic!("member {} failed", ctx.thread_num());
                }
            });
        }));
        assert!(res.is_err());
        // A later, fully successful region must NOT panic.
        let hits = AtomicUsize::new(0);
        let res2 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.parallel(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(res2.is_ok(), "stale panic from previous region leaked: {res2:?}");
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }
}
