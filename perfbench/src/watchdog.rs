//! Per-unit watchdog: a unit of work that overruns its deadline is reported
//! (workload, runtime, unit index, a live counter snapshot) instead of
//! hanging the run.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use glt::CounterSnapshot;

/// Reads the counters of whatever the armed unit runs on.
pub type Probe = Box<dyn Fn() -> Option<CounterSnapshot> + Send>;

/// What the watchdog knows about an overrunning unit.
pub struct Expiry {
    /// `workload/runtime` of the unit.
    pub label: String,
    /// Index of the unit within its block.
    pub unit: u64,
    /// How long the unit had been running when the watchdog fired.
    pub running_for: Duration,
    /// Counters at expiry, if the probe could still reach them.
    pub snapshot: Option<CounterSnapshot>,
}

struct Armed {
    label: String,
    unit: u64,
    started: Instant,
    deadline: Instant,
    probe: Probe,
}

#[derive(Default)]
struct Slot {
    armed: Option<Armed>,
    /// When the watching thread next wakes by itself; `None` while it
    /// waits without a timeout.
    wakes_at: Option<Instant>,
    stop: bool,
}

type Shared = Arc<(Mutex<Slot>, Condvar)>;

/// One armed deadline at a time, watched by a dedicated thread.
pub struct Watchdog {
    shared: Shared,
    thread: Option<JoinHandle<()>>,
}

fn lock(shared: &Shared) -> MutexGuard<'_, Slot> {
    shared.0.lock().expect("watchdog lock poisoned by a panicking holder")
}

impl Watchdog {
    /// Start the watchdog thread. `on_expire` runs on that thread once per
    /// overrun; the production handler reports and ends the process.
    #[must_use]
    pub fn start(on_expire: impl Fn(&Expiry) + Send + 'static) -> Watchdog {
        let shared: Shared = Arc::default();
        let watched = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || watch(&watched, &on_expire))
            .expect("spawn watchdog thread");
        Watchdog { shared, thread: Some(thread) }
    }

    /// Watch one unit: fire unless [`Watchdog::disarm`] comes within `limit`.
    pub fn arm(&self, label: &str, unit: u64, limit: Duration, probe: Probe) {
        let started = Instant::now();
        let deadline = started + limit;
        let mut slot = lock(&self.shared);
        // Units arm back to back. Waking the watching thread for each one
        // would take a core from the runtime under test, so wake it only
        // when it would otherwise sleep past the new deadline.
        let wake = slot.wakes_at.is_none_or(|w| deadline < w);
        slot.armed = Some(Armed { label: label.to_owned(), unit, started, deadline, probe });
        drop(slot);
        if wake {
            self.shared.1.notify_all();
        }
    }

    /// The unit finished in time.
    pub fn disarm(&self) {
        lock(&self.shared).armed = None;
    }
}

fn watch(shared: &Shared, on_expire: &dyn Fn(&Expiry)) {
    let mut slot = lock(shared);
    loop {
        if slot.stop {
            return;
        }
        let now = Instant::now();
        match slot.armed.as_ref().map(|a| a.deadline) {
            None => {
                slot.wakes_at = None;
                slot = shared.1.wait(slot).expect("watchdog lock poisoned");
            }
            Some(deadline) if now < deadline => {
                slot.wakes_at = Some(deadline);
                slot =
                    shared.1.wait_timeout(slot, deadline - now).expect("watchdog lock poisoned").0;
            }
            Some(_) => {
                let a = slot.armed.take().expect("checked armed");
                drop(slot);
                let expiry = Expiry {
                    label: a.label,
                    unit: a.unit,
                    running_for: a.started.elapsed(),
                    snapshot: (a.probe)(),
                };
                on_expire(&expiry);
                slot = lock(shared);
            }
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.shared.0.lock() {
            slot.stop = true;
        }
        self.shared.1.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn fires_on_a_body_that_overruns_a_tiny_deadline() {
        let (tx, rx) = channel();
        let tx = Mutex::new(tx);
        let dog = Watchdog::start(move |e| {
            let forks = e.snapshot.map(|s| s.forks);
            tx.lock().expect("test channel").send((e.label.clone(), e.unit, forks)).expect("send");
        });
        let snap = CounterSnapshot { forks: 3, ..CounterSnapshot::default() };
        dog.arm("nested/gnu", 41, Duration::from_millis(5), Box::new(move || Some(snap)));
        // The "body" overruns: the report arrives while it is still running.
        let got = rx.recv_timeout(Duration::from_secs(10)).expect("watchdog fired");
        assert_eq!(got, ("nested/gnu".to_owned(), 41, Some(3)));
        dog.disarm();
    }

    #[test]
    fn stays_quiet_when_disarmed_in_time() {
        let (tx, rx) = channel::<u64>();
        let tx = Mutex::new(tx);
        let dog = Watchdog::start(move |e| {
            let _ = tx.lock().expect("test channel").send(e.unit);
        });
        dog.arm("tasks/intel", 1, Duration::from_secs(5), Box::new(|| None));
        dog.disarm();
        dog.arm("tasks/intel", 2, Duration::from_millis(1), Box::new(|| None));
        let fired = rx.recv_timeout(Duration::from_secs(10)).expect("second arm fires");
        assert_eq!(fired, 2, "the disarmed first unit never fires");
        drop(dog);
    }
}
