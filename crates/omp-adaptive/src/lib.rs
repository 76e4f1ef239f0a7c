//! `omp-adaptive`: the eighth OpenMP runtime — it owns **no** execution
//! machinery of its own. It composes the two specialists this repository
//! already measures head-to-head:
//!
//! * the **OS-thread engine**: pomp's Intel-like runtime with hot teams
//!   (wins the paper's Fig. 6/7 flat-fork column at scale on real cores);
//! * the **ULT engine**: GLTO with hot ULT teams (PR 6; wins nested
//!   regions, Figs. 8–9, and fine-grained tasking, Figs. 10–13).
//!
//! and picks between them *per parallel region, per callsite*, at runtime.
//! The paper's central finding is that neither mechanism dominates — the
//! winner flips with region shape (flat vs. nested vs. task-heavy). The
//! adaptive runtime turns that table into a dispatch rule:
//!
//! 1. **Callsite identity** ([`omp::callsite_id`]) keys a fixed-size
//!    lock-free memoization table — the analog of keying on the outlined
//!    function's address in a compiler-emitted ABI.
//! 2. An **online cost model** samples both mechanisms for the first
//!    `OMP_ADAPTIVE_PROBE_K` forks per mechanism per callsite (wall time
//!    per probe, plus structure detection from the shared counter block:
//!    extra forks ⇒ nested; task creations ⇒ task-heavy), then **commits**
//!    to the cheaper one. Regions with *nested* evidence get a ULT bias:
//!    the OS engine must win by 2× to overcome the paper's strongest
//!    finding (probes sample shallow nesting, but OS-thread teams collapse
//!    super-linearly as nesting deepens — Figs. 8–9). Task-heavy regions
//!    get the honest timing comparison: task cost differences show up in
//!    the probe wall time directly. After `OMP_ADAPTIVE_REPROBE` committed
//!    forks the entry re-opens, so phase changes re-trigger exploration.
//! 3. **Nesting handoff** both ways ([`omp::NestedHandoff`]): a region
//!    nested under an OS-thread region always moves to ULTs (nested teams
//!    are exactly where oversubscribed OS pools collapse), and a wide
//!    region nested under a single-worker ULT region moves to OS threads
//!    (one GLT worker can only serialize member ULTs; the OS pool provides
//!    real concurrency).
//!
//! On the deterministic backend ([`glto::Backend::Det`]) every probe pick
//! and every commit is drawn through the seeded stepper
//! ([`glt_det::Stepper::external_decision`]), so sweeps replay and *shrink*
//! a mis-decision exactly like a mis-schedule.
//!
//! Decisions are observable three ways: the `adaptive_*` counters in the
//! shared [`Counters`] block, the [`AdaptiveRuntime::decisions`] snapshot
//! (dumped to stderr on drop under `OMP_ADAPTIVE_TRACE=1`), and the det
//! backend's `External` event log.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use glt::fault::{self, Fault};
use glt::{Counters, GltRuntime};
use glto::{Backend, GltoRuntime};
use omp::{CriticalRegistry, Icvs, OmpConfig, OmpRuntime, RegionFn};
use pomp::IntelRuntime;

/// Callsite key used by [`OmpRuntime::parallel_erased`] calls that carry no
/// identity (direct erased-body entry, not via `parallel_n`). All such
/// regions share one memo slot.
const UNKEYED_CALLSITE: u64 = 0x5bd1_e995_9e37_79b9;

/// Memo-table geometry: power-of-two slot count, bounded linear probing.
/// 512 callsites is far beyond any workload here (the bench suite has
/// dozens); overflow falls back to unmemoized ULT dispatch.
const TABLE_SLOTS: usize = 512;
const PROBE_LIMIT: usize = 16;

/// Slot states. `EXPLORING` is also the empty-slot state: a freshly
/// claimed key starts exploring.
const STATE_EXPLORING: u8 = 0;
const STATE_OS: u8 = 1;
const STATE_ULT: u8 = 2;

/// [`Fault::AdaptiveBadCommit`]: commit the losing mechanism instead of
/// `honest`. Det mode ignores the seeded draw and pins the OS engine (the
/// losing mechanism for every workload of the conformance suite); timed
/// mode inverts the cost comparison, committing the mechanism the model
/// itself measured as slower. Fires when the commit changes.
fn bad_commit(honest: u8, det: bool) -> u8 {
    let bad = if det || honest == STATE_ULT { STATE_OS } else { STATE_ULT };
    if bad != honest {
        fault::fire(Fault::AdaptiveBadCommit);
    }
    bad
}

/// The execution mechanism a callsite committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// pomp OS-thread hot teams.
    Os,
    /// GLTO hot ULT teams.
    Ult,
}

/// Public snapshot of one memo-table entry (see
/// [`AdaptiveRuntime::decisions`]).
#[derive(Debug, Clone, Copy)]
pub struct CallsiteDecision {
    /// Callsite key ([`omp::callsite_id`] of the construct's source
    /// location).
    pub callsite: u64,
    /// Committed mechanism, or `None` while still exploring.
    pub committed: Option<Mechanism>,
    /// Probe forks taken on the OS engine.
    pub probes_os: u32,
    /// Probe forks taken on the ULT engine.
    pub probes_ult: u32,
    /// Mean probe wall time on the OS engine (ns; 0 if never probed).
    pub mean_ns_os: u64,
    /// Mean probe wall time on the ULT engine (ns; 0 if never probed).
    pub mean_ns_ult: u64,
    /// Forks dispatched on the committed mechanism since the commit.
    pub committed_forks: u64,
    /// Whether any probe observed nested forks or task creation.
    pub structured: bool,
}

/// One open-addressed memo-table slot. `key == 0` means empty; keys are
/// never 0 (0 remaps to 1 on insert).
struct Slot {
    key: AtomicU64,
    state: AtomicU8,
    probes_os: AtomicU32,
    probes_ult: AtomicU32,
    ns_os: AtomicU64,
    ns_ult: AtomicU64,
    /// Forks dispatched since the commit (reprobe clock).
    committed_forks: AtomicU64,
    structured: AtomicBool,
    /// Nested-fork evidence specifically (subset of `structured`): the
    /// only evidence class that biases the commit comparison.
    nested: AtomicBool,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            key: AtomicU64::new(0),
            state: AtomicU8::new(STATE_EXPLORING),
            probes_os: AtomicU32::new(0),
            probes_ult: AtomicU32::new(0),
            ns_os: AtomicU64::new(0),
            ns_ult: AtomicU64::new(0),
            committed_forks: AtomicU64::new(0),
            structured: AtomicBool::new(false),
            nested: AtomicBool::new(false),
        }
    }

    /// Re-open a committed slot for exploration (reprobe): probe samples
    /// and structure knowledge are discarded — a phase change may have
    /// flattened (or nested) the region since the last look.
    fn reopen(&self) {
        self.probes_os.store(0, Ordering::Relaxed);
        self.probes_ult.store(0, Ordering::Relaxed);
        self.ns_os.store(0, Ordering::Relaxed);
        self.ns_ult.store(0, Ordering::Relaxed);
        self.committed_forks.store(0, Ordering::Relaxed);
        self.structured.store(false, Ordering::Relaxed);
        self.nested.store(false, Ordering::Relaxed);
        self.state.store(STATE_EXPLORING, Ordering::Release);
    }
}

/// Fixed-size lock-free callsite memoization table.
struct MemoTable {
    slots: Box<[Slot]>,
}

impl MemoTable {
    fn new() -> Self {
        MemoTable { slots: (0..TABLE_SLOTS).map(|_| Slot::new()).collect() }
    }

    /// Find or claim the slot for `key`. `None` when the neighborhood is
    /// full (caller falls back to unmemoized dispatch).
    fn slot_for(&self, key: u64) -> Option<&Slot> {
        let key = if key == 0 { 1 } else { key };
        let start = key as usize & (TABLE_SLOTS - 1);
        for i in 0..PROBE_LIMIT {
            let slot = &self.slots[(start + i) & (TABLE_SLOTS - 1)];
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                return Some(slot);
            }
            if k == 0 {
                match slot.key.compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Some(slot),
                    Err(existing) if existing == key => return Some(slot),
                    Err(_) => {} // lost the claim race to another key; keep probing
                }
            }
        }
        None
    }
}

/// The adaptive OpenMP runtime (see the crate docs). Construct with
/// [`AdaptiveRuntime::new`] (Argobots-like ULT backend) or
/// [`AdaptiveRuntime::with_backend`] (any backend, including
/// [`Backend::det`] for seeded, replayable decisions).
pub struct AdaptiveRuntime {
    cfg: OmpConfig,
    icvs: Arc<Icvs>,
    counters: Arc<Counters>,
    criticals: Arc<CriticalRegistry>,
    /// OS-thread engine (pomp hot teams; honors `final` as an engine).
    os: Arc<IntelRuntime>,
    /// ULT engine (GLTO with hot ULT teams).
    ult: Arc<GltoRuntime>,
    table: MemoTable,
    probe_k: u32,
    reprobe: u64,
    trace: bool,
}

impl AdaptiveRuntime {
    /// Build over the Argobots-like ULT backend (the paper's strongest).
    #[must_use]
    pub fn new(cfg: OmpConfig) -> Arc<Self> {
        Self::with_backend(Backend::Abt, cfg)
    }

    /// Build over an explicit ULT backend. With [`Backend::Det`] every
    /// probe pick and commit is a seeded stepper decision — fully
    /// replayable and shrinkable by the det sweep harness.
    #[must_use]
    pub fn with_backend(backend: Backend, cfg: OmpConfig) -> Arc<Self> {
        let counters = Arc::new(Counters::new());
        let icvs = Arc::new(Icvs::new(&cfg));
        let criticals = Arc::new(CriticalRegistry::from_config(&cfg));
        let os = IntelRuntime::adaptive_engine(
            cfg.clone(),
            Arc::clone(&counters),
            Arc::clone(&icvs),
            Arc::clone(&criticals),
        );
        // The ULT engine always runs hot teams: the composition exists to
        // pair pomp's hot OS teams with PR 6's hot ULT teams.
        let ult = GltoRuntime::adaptive_engine(
            backend,
            cfg.clone().hot_ults(true),
            Arc::clone(&counters),
            Arc::clone(&icvs),
            Arc::clone(&criticals),
        );

        // Nesting handoffs hold Weak engine references: a strong cycle
        // (os → ult → os) would leak both engines — and their worker
        // threads — on every runtime drop.
        {
            let ult_weak: Weak<GltoRuntime> = Arc::downgrade(&ult);
            let ult_workers = ult.glt().num_threads();
            os.install_nested_handoff(Box::new(move |level, nthreads, body| {
                // OS → ULT: a nested region under an OS-thread region is
                // exactly where ULTs win (Figs. 8–9) — hand off whenever
                // spawned GLT workers exist to run the member ULTs. (Rank
                // 0 is the OpenMP master thread itself; with no other
                // workers a region forked from a foreign pomp thread would
                // strand its members in pool 0 while the master is busy in
                // the OS engine.)
                if ult_workers <= 1 {
                    return false;
                }
                let Some(ult) = ult_weak.upgrade() else { return false };
                ult.run_nested_region(level, nthreads, body);
                true
            }));
        }
        {
            let os_weak: Weak<IntelRuntime> = Arc::downgrade(&os);
            let icvs_for_hook = Arc::clone(&icvs);
            let ult_workers = ult.glt().num_threads();
            ult.install_nested_handoff(Box::new(move |level, nthreads, body| {
                // ULT → OS: on a single GLT worker a nested ULT team can
                // only serialize its members; a wide nested region gets
                // real concurrency from the OS pool instead.
                let width = nthreads.unwrap_or_else(|| icvs_for_hook.num_threads());
                if ult_workers > 1 || width <= 1 {
                    return false;
                }
                let Some(os) = os_weak.upgrade() else { return false };
                os.run_nested_region(level, nthreads, body);
                true
            }));
        }

        // Pre-warm both engines with one throwaway region each: the first
        // region an engine ever runs pays its pool/team spin-up, and a
        // cold-start sample would poison every early probe comparison
        // (the cost model would blame the *mechanism* for a one-time
        // construction cost). Direct engine calls — no probe, no draw, no
        // memo entry.
        let warm: &RegionFn<'static> = &|_| {};
        os.parallel_erased(None, warm);
        ult.parallel_erased(None, warm);

        let probe_k = cfg.adaptive_probe_k.max(1);
        let reprobe = u64::from(cfg.adaptive_reprobe);
        let trace = cfg.adaptive_trace;
        Arc::new(AdaptiveRuntime {
            cfg,
            icvs,
            counters,
            criticals,
            os,
            ult,
            table: MemoTable::new(),
            probe_k,
            reprobe,
            trace,
        })
    }

    /// The deterministic scheduler when the ULT engine runs on
    /// [`Backend::Det`] (decision replay/shrink harnesses), else `None`.
    #[must_use]
    pub fn det_scheduler(&self) -> Option<&glt_det::DetScheduler> {
        self.ult.det_scheduler()
    }

    /// The fault set faults are armed on: the ULT engine's GLT runtime,
    /// whose ctx frame the master thread (where commits happen) carries.
    #[must_use]
    pub fn faults(&self) -> &glt::Faults {
        self.ult.glt().faults()
    }

    /// Named-critical registry shared by both engines.
    #[must_use]
    pub fn criticals(&self) -> &CriticalRegistry {
        &self.criticals
    }

    /// Snapshot of every occupied memo-table entry (decision dump; also
    /// what `OMP_ADAPTIVE_TRACE=1` prints on drop).
    #[must_use]
    pub fn decisions(&self) -> Vec<CallsiteDecision> {
        self.table
            .slots
            .iter()
            .filter(|s| s.key.load(Ordering::Acquire) != 0)
            .map(|s| {
                let po = s.probes_os.load(Ordering::Relaxed);
                let pu = s.probes_ult.load(Ordering::Relaxed);
                CallsiteDecision {
                    callsite: s.key.load(Ordering::Relaxed),
                    committed: match s.state.load(Ordering::Acquire) {
                        STATE_OS => Some(Mechanism::Os),
                        STATE_ULT => Some(Mechanism::Ult),
                        _ => None,
                    },
                    probes_os: po,
                    probes_ult: pu,
                    mean_ns_os: s.ns_os.load(Ordering::Relaxed) / u64::from(po.max(1)),
                    mean_ns_ult: s.ns_ult.load(Ordering::Relaxed) / u64::from(pu.max(1)),
                    committed_forks: s.committed_forks.load(Ordering::Relaxed),
                    structured: s.structured.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Committed-path dispatch: one state load, one fork-count bump, one
    /// reprobe comparison, then straight into the engine (the ≤ 100 ns
    /// steady-state budget; see `dispatch_bookkeeping_overhead` test).
    fn dispatch(&self, slot: &Slot, callsite: u64, n: usize, body: &RegionFn<'static>) {
        match slot.state.load(Ordering::Acquire) {
            state @ (STATE_OS | STATE_ULT) => {
                let forks = slot.committed_forks.fetch_add(1, Ordering::Relaxed) + 1;
                if self.reprobe != 0 && forks >= self.reprobe {
                    Counters::bump(&self.counters.adaptive_reprobes, 1);
                    slot.reopen();
                    self.probe(slot, callsite, n, body);
                } else if state == STATE_OS {
                    self.os.parallel_erased(Some(n), body);
                } else {
                    self.ult.parallel_erased(Some(n), body);
                }
            }
            _ => self.probe(slot, callsite, n, body),
        }
    }

    /// Explore-phase fork: pick a mechanism (alternating, or a seeded
    /// stepper draw on the det backend), time the region, record structure
    /// evidence, and commit once both mechanisms have `probe_k` samples.
    fn probe(&self, slot: &Slot, callsite: u64, n: usize, body: &RegionFn<'static>) {
        Counters::bump(&self.counters.adaptive_probes, 1);
        let det = self.ult.det_scheduler();
        let use_ult = match det {
            // Det backend: the pick is a recorded, seeded, shrinkable
            // scheduler decision (External event), not a timing artifact.
            Some(d) => d.stepper().external_decision(callsite, 2) == 1,
            // Timed mode: alternate OS-first so K probes land on each.
            None => {
                let total = slot.probes_os.load(Ordering::Relaxed)
                    + slot.probes_ult.load(Ordering::Relaxed);
                total % 2 == 1
            }
        };
        // Structure evidence: the region itself bumps `forks` once; any
        // surplus means nested regions ran inside it. Task creations mark
        // it task-heavy. (The counter block is shared runtime-wide, so
        // concurrent regions at other callsites can inflate the deltas —
        // an acceptable false-structured bias toward ULTs.)
        let forks0 = self.counters.forks.load(Ordering::Relaxed);
        let tasks0 = self.counters.tasks_created.load(Ordering::Relaxed);
        let t0 = Instant::now();
        if use_ult {
            self.ult.parallel_erased(Some(n), body);
        } else {
            self.os.parallel_erased(Some(n), body);
        }
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let nested = self.counters.forks.load(Ordering::Relaxed).wrapping_sub(forks0) > 1;
        let tasky = self.counters.tasks_created.load(Ordering::Relaxed) != tasks0;
        if nested {
            slot.nested.store(true, Ordering::Relaxed);
        }
        if nested || tasky {
            slot.structured.store(true, Ordering::Relaxed);
        }
        if use_ult {
            slot.ns_ult.fetch_add(ns, Ordering::Relaxed);
            slot.probes_ult.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.ns_os.fetch_add(ns, Ordering::Relaxed);
            slot.probes_os.fetch_add(1, Ordering::Relaxed);
        }
        self.maybe_commit(slot, callsite, det.is_some());
    }

    /// Commit the slot once the explore budget is spent. Raced probes may
    /// both reach this; the state CAS makes exactly one of them the commit
    /// (and the counter bump follows the CAS winner only).
    fn maybe_commit(&self, slot: &Slot, callsite: u64, det: bool) {
        let po = slot.probes_os.load(Ordering::Relaxed);
        let pu = slot.probes_ult.load(Ordering::Relaxed);
        let k = self.probe_k;
        let done = if det {
            // Seeded picks don't alternate; budget is total draws.
            po + pu >= 2 * k
        } else {
            po >= k && pu >= k
        };
        if !done {
            return;
        }
        let pick = if det {
            // The commit itself is a seeded decision, so a decision sweep
            // exercises — and a failing seed replays/shrinks — both
            // outcomes at every callsite.
            let d = self.ult.det_scheduler().expect("det commit without det backend");
            if d.stepper().external_decision(callsite, 2) == 1 {
                STATE_ULT
            } else {
                STATE_OS
            }
        } else {
            let mean_os = slot.ns_os.load(Ordering::Relaxed) / u64::from(po.max(1));
            let mean_ult = slot.ns_ult.load(Ordering::Relaxed) / u64::from(pu.max(1));
            // Nested evidence carries the paper's strongest ULT finding —
            // probes only sample shallow nesting, but OS-thread teams
            // collapse super-linearly as nesting deepens (Figs. 8–9) — so
            // OS must win 2× to overcome it. Task-heavy regions get the
            // honest comparison: task cost is already in the wall time.
            let os_wins = if slot.nested.load(Ordering::Relaxed) {
                mean_os.saturating_mul(2) < mean_ult
            } else {
                mean_os < mean_ult
            };
            if os_wins {
                STATE_OS
            } else {
                STATE_ULT
            }
        };
        let pick =
            if fault::armed(Fault::AdaptiveBadCommit) { bad_commit(pick, det) } else { pick };
        if slot
            .state
            .compare_exchange(STATE_EXPLORING, pick, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            slot.committed_forks.store(0, Ordering::Relaxed);
            if pick == STATE_OS {
                Counters::bump(&self.counters.adaptive_commits_os, 1);
            } else {
                Counters::bump(&self.counters.adaptive_commits_ult, 1);
            }
        }
    }
}

impl OmpRuntime for AdaptiveRuntime {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn label(&self) -> &'static str {
        "ADAPT"
    }

    fn icvs(&self) -> &Icvs {
        &self.icvs
    }

    fn omp_config(&self) -> &OmpConfig {
        &self.cfg
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn parallel_erased(&self, nthreads: Option<usize>, body: &RegionFn<'static>) {
        self.parallel_erased_at(nthreads, body, UNKEYED_CALLSITE);
    }

    fn parallel_erased_at(&self, nthreads: Option<usize>, body: &RegionFn<'static>, callsite: u64) {
        let n = nthreads.unwrap_or_else(|| self.icvs.num_threads()).max(1);
        match self.table.slot_for(callsite) {
            Some(slot) => self.dispatch(slot, callsite, n, body),
            // Table neighborhood full: run unmemoized on the safe-default
            // engine (ULTs never oversubscribe, whatever the region shape).
            None => self.ult.parallel_erased(Some(n), body),
        }
    }

    fn honors_final(&self) -> bool {
        // Both engines honor `final` in adaptive composition (the front
        // end implements it mechanism-independently), so the composed
        // runtime matches GLTO's validation behavior on either routing.
        true
    }

    fn retire_cached(&self) {
        self.os.retire_cached();
        self.ult.retire_cached();
    }
}

impl Drop for AdaptiveRuntime {
    fn drop(&mut self) {
        if !self.trace {
            return;
        }
        for d in self.decisions() {
            eprintln!(
                "[omp-adaptive] callsite={:#018x} committed={} probes_os={} probes_ult={} \
                 mean_ns_os={} mean_ns_ult={} committed_forks={} structured={}",
                d.callsite,
                match d.committed {
                    Some(Mechanism::Os) => "os",
                    Some(Mechanism::Ult) => "ult",
                    None => "exploring",
                },
                d.probes_os,
                d.probes_ult,
                d.mean_ns_os,
                d.mean_ns_ult,
                d.committed_forks,
                d.structured,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp::OmpRuntimeExt;
    use std::sync::atomic::AtomicUsize;

    fn rt(n: usize) -> Arc<AdaptiveRuntime> {
        AdaptiveRuntime::new(OmpConfig::with_threads(n))
    }

    #[test]
    fn flat_region_explores_then_commits_once() {
        let r = AdaptiveRuntime::new(OmpConfig::with_threads(2).adaptive_reprobe(0));
        let count = AtomicUsize::new(0);
        for _ in 0..16 {
            r.parallel(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 16 * 2, "every fork runs the full team");
        let s = r.counters().snapshot();
        // probe_k defaults to 2: 2 OS + 2 ULT probes, then one commit.
        assert_eq!(s.adaptive_probes, 4);
        assert_eq!(s.adaptive_commits_os + s.adaptive_commits_ult, 1);
        assert_eq!(s.adaptive_reprobes, 0);
        let d = r.decisions();
        assert_eq!(d.len(), 1, "one callsite, one memo entry");
        assert!(d[0].committed.is_some());
        assert_eq!(d[0].probes_os, 2);
        assert_eq!(d[0].probes_ult, 2);
        assert_eq!(d[0].committed_forks, 16 - 4);
        assert!(!d[0].structured, "flat region must not read as structured");
    }

    #[test]
    fn distinct_callsites_get_distinct_decisions() {
        let r = rt(2);
        let count = AtomicUsize::new(0);
        for _ in 0..4 {
            r.parallel(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            r.parallel(|ctx| {
                // Structured callsite: spawns tasks.
                let count = &count;
                ctx.task(move |_| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
                ctx.taskwait();
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 4 * 2 + 4 * 2);
        let d = r.decisions();
        assert_eq!(d.len(), 2, "two source constructs, two memo entries");
        assert!(d.iter().any(|e| e.structured), "tasking callsite must read as structured");
        assert!(d.iter().any(|e| !e.structured), "flat callsite must not");
    }

    #[test]
    fn reprobe_reopens_committed_decisions() {
        let r = AdaptiveRuntime::new(
            OmpConfig::with_threads(2).adaptive_probe_k(1).adaptive_reprobe(4),
        );
        let count = AtomicUsize::new(0);
        for _ in 0..32 {
            r.parallel(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 64);
        let s = r.counters().snapshot();
        assert!(s.adaptive_reprobes >= 2, "32 forks at period 4 must reprobe: {s:?}");
        assert!(
            s.adaptive_commits_os + s.adaptive_commits_ult >= 2,
            "each reprobe re-commits: {s:?}"
        );
        // Conservation law: every commit and every reprobe is preceded by
        // probing.
        assert!(s.adaptive_probes >= s.adaptive_commits_os + s.adaptive_commits_ult);
    }

    #[test]
    fn unkeyed_and_overflow_paths_still_run_regions() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let r = rt(2);
        let body: &RegionFn<'static> = &|_ctx| {
            HITS.fetch_add(1, Ordering::SeqCst);
        };
        // Unkeyed entry (no callsite identity).
        r.parallel_erased(Some(2), body);
        // More distinct keys than the table holds: overflow falls back to
        // unmemoized ULT dispatch and must still run every region.
        for key in 0..(TABLE_SLOTS as u64 * 2) {
            r.parallel_erased_at(Some(1), body, key);
        }
        assert_eq!(HITS.load(Ordering::SeqCst), 2 + TABLE_SLOTS * 2);
        assert!(r.decisions().len() <= TABLE_SLOTS);
    }

    #[test]
    fn shared_icvs_steer_both_engines() {
        let r = rt(4);
        r.set_num_threads(3);
        // Across explore (both engines) and committed forks, team width
        // must follow the shared ICV whatever mechanism runs the region.
        for _ in 0..6 {
            let width = AtomicUsize::new(0);
            r.parallel(|_| {
                width.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(width.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn nested_region_under_os_engine_hands_off_to_ults() {
        static INNER: AtomicUsize = AtomicUsize::new(0);
        let r = rt(2);
        let ults0 = r.counters().snapshot().ults_created;
        // Drive the OS engine directly: its nested path must route through
        // the handoff hook onto the ULT engine.
        r.os.parallel_erased(Some(2), &|ctx| {
            ctx.parallel(|_inner_ctx| {});
            INNER.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(INNER.load(Ordering::SeqCst), 2);
        let ults1 = r.counters().snapshot().ults_created;
        assert!(
            ults1 > ults0,
            "nested regions under OS threads must create ULT team members ({ults0} → {ults1})"
        );
    }

    #[test]
    fn wide_nested_region_under_single_ult_worker_hands_off_to_os() {
        static INNER: AtomicUsize = AtomicUsize::new(0);
        let r = rt(1);
        let os0 = r.counters().snapshot().os_threads_created;
        // Drive the ULT engine directly: one GLT worker, nested width 4.
        r.ult.parallel_erased(Some(1), &|ctx| {
            ctx.parallel_n(Some(4), |_inner_ctx| {
                INNER.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(INNER.load(Ordering::SeqCst), 4, "nested region must get its full width");
        let os1 = r.counters().snapshot().os_threads_created;
        assert!(
            os1 >= os0 + 3,
            "single-worker ULT engine must borrow OS threads for a wide nested region \
             ({os0} → {os1})"
        );
    }

    #[test]
    fn det_backend_decisions_replay_by_seed() {
        fn run(seed: u64) -> (Vec<usize>, u64, u64) {
            let r = AdaptiveRuntime::with_backend(
                Backend::det(seed),
                OmpConfig::with_threads(2).adaptive_reprobe(0),
            );
            let count = AtomicUsize::new(0);
            for _ in 0..8 {
                r.parallel(|_| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert_eq!(count.load(Ordering::SeqCst), 16);
            let picks: Vec<usize> = r
                .det_scheduler()
                .expect("det backend")
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    glt_det::EventKind::External { pick, .. } => Some(pick),
                    _ => None,
                })
                .collect();
            let s = r.counters().snapshot();
            (picks, s.adaptive_commits_os, s.adaptive_commits_ult)
        }
        let (a, aos, ault) = run(1234);
        let (b, bos, bult) = run(1234);
        assert_eq!(a, b, "same seed must replay the same decision stream");
        assert_eq!((aos, ault), (bos, bult), "same seed, same commit");
        assert_eq!(aos + ault, 1, "one callsite commits once");
        // probe_k=2 ⇒ 4 probe draws + 1 commit draw, all logged.
        assert_eq!(a.len(), 5, "every adaptive decision is a logged External event");
    }

    #[test]
    fn dispatch_bookkeeping_overhead_is_bounded() {
        // The committed fast path before entering an engine: slot lookup,
        // state load, fork-count bump, reprobe comparison. The ISSUE's
        // steady-state budget is ≤ 100 ns per fork (enforced in release;
        // debug builds only sanity-check it runs).
        let table = MemoTable::new();
        let key = 0xdead_beef_u64;
        let slot = table.slot_for(key).unwrap();
        slot.state.store(STATE_ULT, Ordering::Release);
        let reprobe = 0u64;
        let iters = 1_000_000u64;
        let t0 = Instant::now();
        let mut committed = 0u64;
        for _ in 0..iters {
            let s = table.slot_for(key).unwrap();
            let state = s.state.load(Ordering::Acquire);
            if state == STATE_OS || state == STATE_ULT {
                let forks = s.committed_forks.fetch_add(1, Ordering::Relaxed) + 1;
                if reprobe != 0 && forks >= reprobe {
                    unreachable!();
                }
                committed += 1;
            }
        }
        let per_fork = t0.elapsed().as_nanos() as u64 / iters;
        assert_eq!(committed, iters);
        if !cfg!(debug_assertions) {
            assert!(per_fork <= 100, "steady-state dispatch bookkeeping {per_fork} ns > 100 ns");
        }
    }

    #[test]
    fn counter_laws_hold_after_mixed_load() {
        let r = AdaptiveRuntime::new(
            OmpConfig::with_threads(2).adaptive_probe_k(1).adaptive_reprobe(8),
        );
        let count = AtomicUsize::new(0);
        for _ in 0..40 {
            r.parallel(|ctx| {
                let count = &count;
                ctx.task(move |_| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
                ctx.taskwait();
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 80);
        r.retire_cached();
        let s = r.counters().snapshot();
        assert!(s.adaptive_probes >= s.adaptive_commits_os + s.adaptive_commits_ult);
        assert!(s.adaptive_reprobes <= s.adaptive_probes);
        assert!(s.adaptive_probes > 0);
    }
}
