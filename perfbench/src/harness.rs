//! What every workload runner shares: the failure tally, the law
//! violations, the tracer, the watchdog, and the OS-thread check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use omp::OmpRuntime;

use crate::trace::Tracer;
use crate::watchdog::{Expiry, Probe, Watchdog};

/// Units attempted and failed over the whole run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one unit; it fails unless `ok`. Returns `ok`.
    pub fn count(&self, ok: bool) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Count one unit whose `digest` must equal `expected`.
    pub fn check(&self, digest: u64, expected: u64) -> bool {
        self.count(digest == expected)
    }

    /// `(attempted, failed)`.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        (self.attempted.load(Ordering::Relaxed), self.failed.load(Ordering::Relaxed))
    }

    /// Share of attempted units that produced a verified result.
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        let (a, f) = self.totals();
        if a == 0 {
            0.0
        } else {
            1.0 - f as f64 / a as f64
        }
    }
}

/// Longest a single unit (or service job, from its due time) may take.
pub const UNIT_LIMIT: Duration = Duration::from_secs(20);

/// Run-wide state handed to the workload runners.
pub struct Harness {
    /// Workload name, for labels.
    pub workload: &'static str,
    /// Unit failures.
    pub tally: Arc<Tally>,
    /// Broken laws (counter invariants, leaked threads, service report).
    violations: Mutex<Vec<String>>,
    /// Span recorder (on only for traced units).
    pub tracer: Tracer,
    /// Per-unit watchdog.
    pub watchdog: Watchdog,
    /// OS threads of the process with no runtime alive.
    thread_baseline: usize,
}

impl Harness {
    /// Start the watchdog; its expiry handler reports the overrun and ends
    /// the process with a failed result.
    #[must_use]
    pub fn start(workload: &'static str) -> Harness {
        let tally = Arc::new(Tally::default());
        let on_expire = {
            let tally = Arc::clone(&tally);
            move |e: &Expiry| {
                eprintln!(
                    "perfbench: watchdog: {} unit {} still running after {:.1} s; counters: {:?}",
                    e.label,
                    e.unit,
                    e.running_for.as_secs_f64(),
                    e.snapshot
                );
                tally.count(false);
                let (attempted, failed) = tally.totals();
                println!(
                    "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
                );
                std::process::exit(3);
            }
        };
        let watchdog = Watchdog::start(on_expire);
        Harness {
            workload,
            tally,
            violations: Mutex::new(Vec::new()),
            tracer: Tracer::default(),
            watchdog,
            thread_baseline: os_threads(),
        }
    }

    /// Record a broken law.
    pub fn violation(&self, what: String) {
        eprintln!("perfbench: violation: {what}");
        self.violations.lock().expect("violation list poisoned").push(what);
    }

    /// Whether any law broke.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.lock().expect("violation list poisoned").is_empty()
    }

    /// Arm the watchdog for one unit running on `rt`.
    pub fn arm(&self, runtime: &str, unit: u64, rt: Weak<dyn OmpRuntime>) {
        let probe: Probe = Box::new(move || rt.upgrade().map(|r| r.counters().snapshot()));
        self.watchdog.arm(&format!("{}/{runtime}", self.workload), unit, UNIT_LIMIT, probe);
    }

    /// Require the process to be back to its baseline thread count: the
    /// previous runtime joined every worker it started.
    pub fn expect_threads_released(&self, after: &str) {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut now = os_threads();
        while now != self.thread_baseline && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            now = os_threads();
        }
        if now != self.thread_baseline {
            self.violation(format!(
                "{after}: {now} OS threads alive, baseline {}: a worker leaked",
                self.thread_baseline
            ));
        }
    }

    /// Retire cached workers of `rt`, wait for its counters to quiesce, and
    /// require the drained conservation laws to hold on its lifetime block.
    pub fn expect_drained_laws(&self, label: &str, rt: &dyn OmpRuntime) -> glt::CounterSnapshot {
        rt.retire_cached();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let snap = rt.counters().snapshot();
            let v = snap.invariant_violations(true);
            if v.is_empty() {
                return snap;
            }
            if Instant::now() >= deadline {
                for m in v {
                    self.violation(format!("{label}: {m}"));
                }
                return snap;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// The `Threads:` count of `/proc/self/status` (0 where unavailable).
#[must_use]
pub fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:").and_then(|n| n.trim().parse().ok()))
        })
        .unwrap_or(0)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, to report how
/// much CPU time the host took from this machine during a run.
#[must_use]
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `items` in an order drawn from `seed` (Fisher–Yates).
#[must_use]
pub fn shuffled<T: Copy>(items: &[T], rng: &mut workloads::util::SplitMix64) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_a_wrong_digest_as_failed() {
        let t = Tally::default();
        assert!(t.check(7, 7));
        assert!(!t.check(7, 8));
        assert_eq!(t.totals(), (2, 1));
        assert_eq!(t.ok_ratio(), 0.5);
    }

    #[test]
    fn thread_count_sees_a_live_thread() {
        let base = os_threads();
        assert!(base >= 1);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || rx.recv());
        assert!(os_threads() >= 2, "the spawned thread is counted");
        tx.send(()).expect("wake");
        let _ = h.join();
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a = workloads::util::SplitMix64::new(3);
        let mut b = workloads::util::SplitMix64::new(3);
        let x = shuffled(&[1, 2, 3, 4, 5, 6], &mut a);
        assert_eq!(x, shuffled(&[1, 2, 3, 4, 5, 6], &mut b));
        let mut sorted = x.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6]);
    }
}
