//! The `service` workload: an open loop of jobs into one
//! `omp_service::Substrate` at a fixed arrival rate, then a closed loop
//! with two outstanding jobs that measures per-runtime latency and
//! saturation throughput.

use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use glt::{CounterSnapshot, Topology};
use omp::{OmpConfig, OmpRuntime, SerialRuntime};
use omp_service::{JobSpec, JobTicket, LeaseMode, Rejected, ServiceConfig, Substrate, Workload};
use workloads::util::SplitMix64;
use workloads::RuntimeKind;

use crate::harness::{shuffled, Harness, UNIT_LIMIT};
use crate::program::{fnv, WIDTH};
use crate::report::{LayerInput, Metrics, RUNTIMES};
use crate::runner::{geomean, rt_index};
use crate::stats::{median, p50_p95};
use crate::trace::{SelfTimeTotals, Span, Tracer};

/// Open-loop arrival rate, jobs per second. Fixed in absolute terms so a
/// faster dispatcher sees the same offered load; set well below the
/// saturation rate measured on the parent commit (see README.md).
pub const RATE_PER_S: f64 = 120.0;
/// Workload bodies per job: one of each `Workload::mix()` kind, in an
/// order rotated by the job index. Every job then has the same expected
/// size, so `p50` and `p95` fall inside one distribution instead of at the
/// boundary between the clusters of differently sized job kinds.
pub const BATCH: usize = 4;
/// Share of a traced run spent in the open loop; the rest is the closed
/// loop. Every job that is due while the host pauses this VM waits out the
/// pause in an open loop, so open-loop tails follow host steal; the
/// end-to-end latencies come from the closed loop, where a pause delays
/// only the jobs in flight (see README.md). The open loop feeds only
/// per-layer metrics, so an untraced run spends all its time in the closed
/// loop.
const OPEN_SHARE: f64 = 0.3;
/// Outstanding jobs in the closed loop.
const OUTSTANDING: usize = 2;
/// Substrates per run, one after another, each with its own lanes and its
/// own slice of the closed loop. The service percentiles are medians over
/// slices of per-slice percentiles, so neither a burst of host steal nor
/// the mode one lane instance happens to settle in moves them; each slice
/// still holds a few hundred jobs per runtime, more than the 200 a `p95`
/// needs. `setup_s` is the median of the slices' set-ups.
const SLICES: usize = 16;
/// Ledger slots; job `i` belongs to tenant `i % TENANTS`.
const TENANTS: usize = 8;
/// Warm-up jobs per runtime: builds every lane, and forks every callsite
/// of every body often enough for ADAPT to commit (4 probe forks each).
const WARM_JOBS: u64 = 6;
/// Serial jobs for `kernel.serial_ms` in a traced run.
const SERIAL_RUNS: usize = 10;
/// Job kinds, in `Workload::mix` order.
const KINDS: usize = 4;

/// The substrate shaped to the machine: one domain of `WIDTH` cores, one
/// dispatcher.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        topology: Topology::new(1, WIDTH, 1),
        max_concurrent: 1,
        queue_cap: 4096,
        lease: LeaseMode::Exclusive,
        det_seed: None,
        tenants: TENANTS,
    }
}

/// When a traced job's body started and ended.
type BodyStamp = Arc<OnceLock<(Instant, Instant)>>;

/// One planned job.
#[derive(Clone, Copy)]
struct Job {
    idx: u64,
    runtime: RuntimeKind,
    traced: bool,
}

/// Mix kinds of job `idx`'s bodies, in order.
fn kinds_of(idx: u64) -> impl Iterator<Item = usize> {
    (0..BATCH).map(move |i| (idx as usize + i) % KINDS)
}

/// Run job `idx`'s bodies on `rt`; the digest covers every body's digest.
fn run_job(idx: u64, rt: &dyn OmpRuntime) -> u64 {
    let mix = Workload::mix();
    fnv(kinds_of(idx).map(|k| mix[k].run(rt)))
}

/// The seeded runtime rotation: whole cycles, each a shuffled pass over
/// the six runtimes, so every runtime gets the same number of jobs.
struct Rotation {
    rng: SplitMix64,
    pending: VecDeque<RuntimeKind>,
    next_idx: u64,
}

impl Rotation {
    fn next(&mut self, traced: bool) -> Job {
        if self.pending.is_empty() {
            self.pending.extend(shuffled(&RUNTIMES, &mut self.rng));
        }
        let runtime = self.pending.pop_front().expect("refilled above");
        let idx = self.next_idx;
        self.next_idx += 1;
        Job { idx, runtime, traced }
    }
}

/// The job as submitted: its bodies inside a benchmark-owned wrapper that
/// stamps the start and end of the batch when the job is traced.
fn spec(job: Job, stamp: Option<BodyStamp>) -> JobSpec {
    let body = move |rt: &dyn OmpRuntime| {
        let Some(stamp) = &stamp else { return run_job(job.idx, rt) };
        let start = Instant::now();
        let digest = run_job(job.idx, rt);
        let _ = stamp.set((start, Instant::now()));
        digest
    };
    JobSpec {
        tenant: job.idx as usize % TENANTS,
        workload: Workload::Custom(Arc::new(body)),
        threads: WIDTH,
        runtime: job.runtime,
    }
}

/// One runtime's share of the jobs.
struct RtStats {
    /// Untraced closed-loop latencies, ms, per time slice of the loop.
    untraced_ms: Vec<Vec<f64>>,
    /// Traced closed-loop latencies (trace runs only), ms.
    traced_ms: Vec<f64>,
    /// Verified jobs of both loops, and their summed counter deltas.
    jobs: u64,
    delta: CounterSnapshot,
    /// Body spans of traced jobs.
    spans: SelfTimeTotals,
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    /// Untraced latencies, all runtimes, ms.
    latency_ms: Vec<f64>,
    /// How late the generator submitted each job, ms.
    gen_late_ms: Vec<f64>,
    /// Admission phases of traced jobs.
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    complete_ms: Vec<f64>,
}

/// Everything a service run measured.
pub struct ServiceRun {
    setup_s: f64,
    per_rt: Vec<RtStats>,
    sat_jobs_per_s: f64,
    open: OpenLoop,
    adaptive: CounterSnapshot,
    rejected: u64,
    serial_ms: f64,
    /// Every recorded span, for the trace file.
    pub spans: Vec<Span>,
}

/// A submitted open-loop job on its way to the collector.
struct Submitted {
    job: Job,
    due: Instant,
    submit: (Instant, Instant),
    stamp: Option<BodyStamp>,
    ticket: Result<JobTicket, Rejected>,
}

struct Collector<'h> {
    h: &'h Harness,
    /// `Workload::expected()` of each mix kind.
    expected: [u64; KINDS],
    adaptive: CounterSnapshot,
    last: CounterSnapshot,
}

impl Collector<'_> {
    /// Wait for one job under the watchdog and verify its digest. Returns
    /// the job's counter delta, or `None` if it was rejected or failed.
    fn finish(&mut self, job: Job, ticket: Result<JobTicket, Rejected>) -> Option<CounterSnapshot> {
        let Ok(ticket) = ticket else {
            self.h.tally.count(false);
            eprintln!("perfbench: service job {} rejected", job.idx);
            return None;
        };
        let last = self.last;
        self.h.watchdog.arm(
            &format!("service/{}", job.runtime.name()),
            job.idx,
            UNIT_LIMIT,
            Box::new(move || Some(last)),
        );
        let out = ticket.wait();
        self.h.watchdog.disarm();
        self.last = out.delta;
        if job.runtime == RuntimeKind::Adaptive {
            self.adaptive = self.adaptive.accumulate(&out.delta);
        }
        let expected = fnv(kinds_of(job.idx).map(|k| self.expected[k]));
        let ok = self.h.tally.count(out.ok && out.digest == expected);
        if !ok {
            eprintln!("perfbench: service job {} on {}: wrong digest", job.idx, job.runtime.name());
        }
        ok.then_some(out.delta)
    }
}

/// Charge a verified job to its runtime; returns the body interval of a
/// traced job.
fn charge(
    per_rt: &mut [RtStats],
    tracer: &Tracer,
    job: Job,
    delta: CounterSnapshot,
    stamp: &Option<BodyStamp>,
) -> Option<(Instant, Instant)> {
    let st = &mut per_rt[rt_index(job.runtime)];
    st.jobs += 1;
    st.delta = st.delta.accumulate(&delta);
    let &(b0, b1) = stamp.as_ref()?.get().expect("traced body stamped");
    st.spans.add(&[tracer.record("service.body", job.idx, b0, b1)]);
    Some((b0, b1))
}

/// Shut the substrate down and require a clean report and released threads.
fn shut_down(h: &Harness, sub: Substrate) -> u64 {
    let report = sub.shutdown();
    for v in report.violations.iter().chain(&report.per_tenant_violations()) {
        h.violation(format!("service: {v}"));
    }
    h.expect_threads_released("service substrate");
    report.service.jobs_rejected
}

/// Check the serial reference digests, start a substrate and warm every
/// lane; returns it with the seconds this took.
fn set_up(h: &Harness, c: &mut Collector<'_>) -> (Substrate, f64) {
    h.watchdog.arm("service/set-up", 0, UNIT_LIMIT, Box::new(|| None));
    let t0 = Instant::now();
    let serial = SerialRuntime::new(OmpConfig::with_threads(1));
    for (w, e) in Workload::mix().iter().zip(&c.expected) {
        if w.run(&serial) != *e {
            h.violation(format!(
                "service: serial {} digest differs from Workload::expected",
                w.name()
            ));
        }
    }
    let sub = Substrate::start(service_config());
    for idx in 0..WARM_JOBS {
        for runtime in RUNTIMES {
            let job = Job { idx, runtime, traced: false };
            c.finish(job, sub.submit(spec(job, None)));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    h.watchdog.disarm();
    (sub, secs)
}

/// Run `jobs` at their due offsets from a generator thread and collect
/// them in order on this one.
fn open_loop(
    h: &Harness,
    sub: &Substrate,
    c: &mut Collector<'_>,
    per_rt: &mut [RtStats],
    jobs: Vec<(Job, Duration)>,
) -> OpenLoop {
    let mut o = OpenLoop::default();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (tx, rx) = channel::<Submitted>();
        scope.spawn(move || {
            for (job, off) in jobs {
                let due = start + off;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let stamp = job.traced.then(BodyStamp::default);
                let t0 = Instant::now();
                let ticket = sub.submit(spec(job, stamp.clone()));
                let submit = (t0, Instant::now());
                if tx.send(Submitted { job, due, submit, stamp, ticket }).is_err() {
                    return;
                }
            }
        });
        for m in rx {
            o.gen_late_ms.push(m.submit.0.saturating_duration_since(m.due).as_secs_f64() * 1e3);
            let Some(delta) = c.finish(m.job, m.ticket) else { continue };
            let done = Instant::now();
            let Some((b0, b1)) = charge(per_rt, &h.tracer, m.job, delta, &m.stamp) else {
                o.latency_ms.push(done.saturating_duration_since(m.due).as_secs_f64() * 1e3);
                continue;
            };
            h.tracer.record("service.submit", m.job.idx, m.submit.0, m.submit.1);
            o.submit_us.push((m.submit.1 - m.submit.0).as_secs_f64() * 1e6);
            o.queue_wait_ms.push(b0.saturating_duration_since(m.submit.1).as_secs_f64() * 1e3);
            o.complete_ms.push(done.saturating_duration_since(b1).as_secs_f64() * 1e3);
        }
    });
    o
}

/// Keep `OUTSTANDING` jobs in flight for `budget`, recording latencies
/// into time slice `slice`; a job is due when it is submitted. Returns the
/// jobs completed and the seconds taken.
fn closed_loop(
    h: &Harness,
    sub: &Substrate,
    c: &mut Collector<'_>,
    per_rt: &mut [RtStats],
    mut next_job: impl FnMut() -> Job,
    slice: usize,
    budget: Duration,
) -> (u64, f64) {
    let t0 = Instant::now();
    let mut submit_next = || {
        let job = next_job();
        let stamp = job.traced.then(BodyStamp::default);
        (job, Instant::now(), sub.submit(spec(job, stamp.clone())), stamp)
    };
    let mut inflight: VecDeque<_> = (0..OUTSTANDING).map(|_| submit_next()).collect();
    let mut completed = 0u64;
    while let Some((job, due, ticket, stamp)) = inflight.pop_front() {
        if let Some(delta) = c.finish(job, ticket) {
            let ms = due.elapsed().as_secs_f64() * 1e3;
            completed += 1;
            let traced = charge(per_rt, &h.tracer, job, delta, &stamp).is_some();
            let st = &mut per_rt[rt_index(job.runtime)];
            if traced { &mut st.traced_ms } else { &mut st.untraced_ms[slice] }.push(ms);
        }
        if t0.elapsed() < budget {
            inflight.push_back(submit_next());
        }
    }
    (completed, t0.elapsed().as_secs_f64())
}

/// Run the service workload: `SLICES` substrates in turn, each set up,
/// warmed and driven by a closed loop, the first also by the open loop.
pub fn run(h: &Harness, seed: u64, seconds: f64, trace: bool) -> ServiceRun {
    let rng = SplitMix64::new(seed);
    let mut rotation = Rotation { rng: rng.split(1), pending: VecDeque::new(), next_idx: 0 };
    let mut gaps = rng.split(2);
    let expected = Workload::mix().map(|w| w.expected().expect("mix jobs are verifiable"));
    let mut c = Collector {
        h,
        expected,
        adaptive: CounterSnapshot::default(),
        last: CounterSnapshot::default(),
    };
    let mut per_rt: Vec<RtStats> = RUNTIMES
        .iter()
        .map(|_| RtStats {
            untraced_ms: vec![Vec::new(); SLICES],
            traced_ms: Vec::new(),
            jobs: 0,
            delta: CounterSnapshot::default(),
            spans: SelfTimeTotals::default(),
        })
        .collect();

    // Open loop at RATE_PER_S (traced runs only): seeded gaps drawn
    // uniformly from half to one and a half mean gaps, in whole rotation
    // cycles.
    let open_share = if trace { OPEN_SHARE } else { 0.0 };
    let mut plan: Option<Vec<(Job, Duration)>> = trace.then(|| {
        let cycle = RUNTIMES.len();
        let n_open = ((RATE_PER_S * seconds * OPEN_SHARE) as usize / cycle).max(1) * cycle;
        let mut offset = Duration::from_millis(10);
        (0..n_open)
            .map(|i| {
                let job = rotation.next(i % 2 == 1);
                offset += Duration::from_secs_f64((0.5 + gaps.next_f64()) / RATE_PER_S);
                (job, offset)
            })
            .collect()
    });

    let budget = Duration::from_secs_f64(seconds * (1.0 - open_share) / SLICES as f64);
    let (mut setup, mut open) = (Vec::with_capacity(SLICES), OpenLoop::default());
    let (mut completed, mut closed_s, mut rejected) = (0u64, 0.0, 0u64);
    let mut submitted = 0u64;
    for slice in 0..SLICES {
        let (sub, secs) = set_up(h, &mut c);
        setup.push(secs);
        if let Some(jobs) = plan.take() {
            open = open_loop(h, &sub, &mut c, &mut per_rt, jobs);
        }
        let next_job = || {
            let traced = trace && submitted % 2 == 1;
            submitted += 1;
            rotation.next(traced)
        };
        let (n, secs) = closed_loop(h, &sub, &mut c, &mut per_rt, next_job, slice, budget);
        completed += n;
        closed_s += secs;
        rejected += shut_down(h, sub);
    }

    let serial_ms = if trace { serial_job_ms() } else { 0.0 };
    ServiceRun {
        setup_s: median(&mut setup),
        per_rt,
        sat_jobs_per_s: completed as f64 / closed_s,
        open,
        adaptive: c.adaptive,
        rejected,
        serial_ms,
        spans: h.tracer.drain(),
    }
}

/// Median time of one job on `SerialRuntime`.
fn serial_job_ms() -> f64 {
    let serial = SerialRuntime::new(OmpConfig::with_threads(1));
    let mut t: Vec<f64> = (0..SERIAL_RUNS as u64)
        .map(|idx| {
            let t0 = Instant::now();
            std::hint::black_box(run_job(idx, &serial));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut t)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// End-to-end metrics of a service run (untraced jobs only): each
/// percentile is the median over the closed loop's time slices of that
/// percentile within the slice.
pub fn end_to_end(run: &ServiceRun, m: &mut Metrics) {
    m.set("setup_s", run.setup_s);
    for (k, st) in RUNTIMES.iter().zip(&run.per_rt) {
        let (mut p50s, mut p95s): (Vec<f64>, Vec<f64>) = st
            .untraced_ms
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| p50_p95(&mut s.clone()))
            .unzip();
        m.set(format!("p50_ms.{}", k.name()), median(&mut p50s));
        m.set(format!("p95_ms.{}", k.name()), median(&mut p95s));
    }
    m.set("sat_jobs_per_s", run.sat_jobs_per_s);
}

/// Per-layer metrics of a traced service run.
pub fn per_layer(run: &ServiceRun, m: &mut Metrics) {
    let mut overhead = Vec::new();
    for (&k, st) in RUNTIMES.iter().zip(&run.per_rt) {
        m.set_layers(k, &LayerInput { units: st.jobs, delta: st.delta, spans: &st.spans });
        let untraced = median(&mut st.untraced_ms.concat());
        if untraced > 0.0 {
            overhead.push(median(&mut st.traced_ms.clone()) / untraced);
        }
    }
    m.set("service.submit_us", mean(&run.open.submit_us));
    m.set("service.queue_wait_ms", mean(&run.open.queue_wait_ms));
    m.set("service.complete_ms", mean(&run.open.complete_ms));
    m.set("service.jobs_rejected", run.rejected as f64);
    let (open_p50, open_p95) = p50_p95(&mut run.open.latency_ms.clone());
    m.set("service.open_p50_ms", open_p50);
    m.set("service.open_p95_ms", open_p95);
    m.set_adaptive(&run.adaptive);
    m.set("kernel.serial_ms", run.serial_ms);
    m.set("bench.gen_late_ms", mean(&run.open.gen_late_ms));
    m.set("bench.trace_overhead_ratio", geomean(&overhead));
}

/// Each runtime's smallest per-slice sample count, for the stderr summary.
pub fn sample_counts(run: &ServiceRun) -> Vec<(RuntimeKind, usize)> {
    let smallest = |st: &RtStats| st.untraced_ms.iter().map(Vec::len).min().unwrap_or(0);
    RUNTIMES.iter().zip(&run.per_rt).map(|(&k, st)| (k, smallest(st))).collect()
}
