//! Program workloads (`nested`, `tasks`): one runtime alive per
//! timed block, built, warmed, timed and dropped before the next starts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use glt::CounterSnapshot;
use omp::{OmpRuntime, SerialRuntime};
use workloads::util::SplitMix64;
use workloads::RuntimeKind;

use crate::harness::{shuffled, Harness, UNIT_LIMIT};
use crate::program::{self, Program};
use crate::report::{LayerInput, Metrics, RUNTIMES};
use crate::stats::{median, p50_p95};
use crate::trace::{SelfTimeTotals, Span};

/// Rounds per run. Each round prepares the inputs and reference digest,
/// then builds, warms, times and drops every runtime in a seeded order, so
/// each runtime's samples pool several instances spread over the run.
pub const ROUNDS: usize = 20;
/// Untimed units after each build (warms pools, hot teams, and ADAPT's
/// per-callsite commits, which need 4 probe forks per callsite).
pub const WARM_UNITS: u64 = 5;
/// Serial units timed for `kernel.*` in a traced run.
const SERIAL_UNITS: u64 = 20;
/// Traced units per block whose raw spans are written out.
const KEPT_UNITS: usize = 3;

/// One runtime's timed units, pooled over the rounds.
pub struct Block {
    /// Runtime under test.
    pub kind: RuntimeKind,
    /// Untraced unit times, due to verified result, in ms.
    pub untraced_ms: Vec<f64>,
    /// Traced unit times (trace runs only), in ms.
    pub traced_ms: Vec<f64>,
    /// Counter delta over the timed units.
    pub delta: CounterSnapshot,
    /// Self times of the traced units' spans.
    pub spans: SelfTimeTotals,
    /// Raw spans of the first traced units, for the trace file.
    pub kept: Vec<Span>,
    /// Seconds spent in timed units.
    pub timed_s: f64,
}

impl Block {
    fn new(kind: RuntimeKind) -> Block {
        Block {
            kind,
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
            delta: CounterSnapshot::default(),
            spans: SelfTimeTotals::default(),
            kept: Vec::new(),
            timed_s: 0.0,
        }
    }

    fn units(&self) -> u64 {
        (self.untraced_ms.len() + self.traced_ms.len()) as u64
    }
}

/// The unit being timed: a workload, its expected digest, and the runtime.
pub struct Timed<'a> {
    /// Runtime under test.
    pub rt: &'a Arc<dyn OmpRuntime>,
    /// Workload.
    pub prog: &'a Program,
    /// Digest every unit must return.
    pub expected: u64,
}

/// Run timed units for `budget` into `b`, checking each digest. Odd units
/// are traced when `trace` is set; `next_unit` hands out span unit ids.
pub fn timed_block(
    h: &Harness,
    t: &Timed<'_>,
    budget: Duration,
    trace: bool,
    b: &mut Block,
    next_unit: &mut u64,
) {
    let before = t.rt.counters().snapshot();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget {
        let traced = trace && i % 2 == 1;
        let unit = *next_unit;
        *next_unit += 1;
        h.arm(b.kind.name(), i, Arc::downgrade(t.rt));
        h.tracer.set_on(traced);
        let due = Instant::now();
        let ok = h.tally.check(t.prog.unit(t.rt.as_ref(), &h.tracer, unit), t.expected);
        let ms = due.elapsed().as_secs_f64() * 1e3;
        h.tracer.set_on(false);
        h.watchdog.disarm();
        if !ok {
            eprintln!("perfbench: {}/{} unit {i}: wrong digest", h.workload, b.kind.name());
        }
        if traced {
            let spans = h.tracer.drain();
            b.spans.add(&spans);
            if b.traced_ms.len() < KEPT_UNITS {
                b.kept.extend(spans);
            }
            b.traced_ms.push(ms);
        } else {
            b.untraced_ms.push(ms);
        }
        i += 1;
    }
    b.timed_s += start.elapsed().as_secs_f64();
    b.delta = b.delta.accumulate(&t.rt.counters().snapshot().delta_since(&before));
}

/// Everything a program run measured.
pub struct ProgramRun {
    /// Median set-up time over the rounds, seconds.
    pub setup_s: f64,
    /// Timed units per runtime, in `RUNTIMES` order.
    pub blocks: Vec<Block>,
    /// Lifetime counters of the ADAPT instances, summed.
    pub adaptive: CounterSnapshot,
    /// Serial unit times (trace runs only), ms.
    pub serial_ms: Vec<f64>,
}

/// Run workload `name` over the six runtimes, `ROUNDS` times.
pub fn run(h: &Harness, name: &str, seed: u64, seconds: f64, trace: bool) -> ProgramRun {
    let mut rng = SplitMix64::new(seed);
    let mut blocks: Vec<Block> = RUNTIMES.iter().map(|&k| Block::new(k)).collect();
    let mut setup = Vec::with_capacity(ROUNDS);
    let mut reference_digest = None;
    let mut adaptive = CounterSnapshot::default();
    let mut serial_ms = Vec::new();
    let budget = Duration::from_secs_f64(seconds / (ROUNDS * RUNTIMES.len()) as f64);
    let mut next_unit = 1u64;
    for round in 0..ROUNDS {
        h.watchdog.arm(&format!("{name}/serial-reference"), 0, UNIT_LIMIT, Box::new(|| None));
        let t0 = Instant::now();
        let prog = Program::prepare(name).expect("workload name checked by the caller");
        let expected = program::reference(&prog);
        let mut round_setup = t0.elapsed().as_secs_f64();
        h.watchdog.disarm();
        if *reference_digest.get_or_insert(expected) != expected {
            h.violation(format!("{name}: serial reference digest changed between rounds"));
        }
        if trace && round == 0 {
            serial_ms = serial_units(h, &prog, expected);
        }
        for kind in shuffled(&RUNTIMES, &mut rng) {
            let label = format!("{name}/{}", kind.name());
            let t0 = Instant::now();
            let rt = kind.build(prog.config());
            for w in 0..WARM_UNITS {
                h.arm(kind.name(), w, Arc::downgrade(&rt));
                let ok = h.tally.check(prog.unit(rt.as_ref(), &h.tracer, 0), expected);
                h.watchdog.disarm();
                if !ok {
                    eprintln!("perfbench: {label} warm-up unit {w}: wrong digest");
                }
            }
            round_setup += t0.elapsed().as_secs_f64();
            let b = &mut blocks[rt_index(kind)];
            timed_block(
                h,
                &Timed { rt: &rt, prog: &prog, expected },
                budget,
                trace,
                b,
                &mut next_unit,
            );
            let lifetime = h.expect_drained_laws(&label, rt.as_ref());
            if kind == RuntimeKind::Adaptive {
                adaptive = adaptive.accumulate(&lifetime);
            }
            drop(rt);
            h.expect_threads_released(&label);
        }
        setup.push(round_setup);
    }
    ProgramRun { setup_s: median(&mut setup), blocks, adaptive, serial_ms }
}

/// Position of `kind` in [`RUNTIMES`].
#[must_use]
pub fn rt_index(kind: RuntimeKind) -> usize {
    RUNTIMES.iter().position(|&r| r == kind).expect("runtimes come from RUNTIMES")
}

/// Time `prog` on `SerialRuntime`, untraced.
fn serial_units(h: &Harness, prog: &Program, expected: u64) -> Vec<f64> {
    let serial = SerialRuntime::new(prog.config());
    (0..SERIAL_UNITS)
        .map(|_| {
            let t0 = Instant::now();
            h.tally.check(prog.unit(&serial, &h.tracer, 0), expected);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// End-to-end metrics of a program run (untraced units only).
pub fn end_to_end(run: &ProgramRun, m: &mut Metrics) {
    m.set("setup_s", run.setup_s);
    let mut units = 0u64;
    let mut secs = 0.0;
    for b in &run.blocks {
        let (p50, p95) = p50_p95(&mut b.untraced_ms.clone());
        m.set(format!("p50_ms.{}", b.kind.name()), p50);
        m.set(format!("p95_ms.{}", b.kind.name()), p95);
        units += b.units();
        secs += b.timed_s;
    }
    m.set("sat_jobs_per_s", units as f64 / secs);
}

/// Per-layer metrics of a traced program run.
pub fn per_layer(run: &ProgramRun, m: &mut Metrics) {
    let mut overhead = Vec::new();
    for b in &run.blocks {
        m.set_layers(b.kind, &LayerInput { units: b.units(), delta: b.delta, spans: &b.spans });
        let untraced = median(&mut b.untraced_ms.clone());
        let traced = median(&mut b.traced_ms.clone());
        if untraced > 0.0 {
            overhead.push(traced / untraced);
        }
    }
    m.set_adaptive(&run.adaptive);
    m.set("kernel.serial_ms", median(&mut run.serial_ms.clone()));
    m.set("bench.trace_overhead_ratio", geomean(&overhead));
}

/// Geometric mean (0 for an empty set).
#[must_use]
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NESTED_N;

    fn nested_on_gnu(h: &Harness, planted: u64, trace: bool) -> Block {
        let prog = Program::Nested;
        let rt = RuntimeKind::Gnu.build(prog.config());
        let expected = program::reference(&prog) + planted;
        let mut b = Block::new(RuntimeKind::Gnu);
        let t = Timed { rt: &rt, prog: &prog, expected };
        timed_block(h, &t, Duration::from_millis(300), trace, &mut b, &mut 1);
        b
    }

    #[test]
    fn a_planted_wrong_digest_counts_against_ok_ratio() {
        let h = Harness::start("nested");
        let b = nested_on_gnu(&h, 1, false);
        let (attempted, failed) = h.tally.totals();
        assert_eq!(attempted, b.units());
        assert!(attempted >= 1);
        assert_eq!(failed, attempted, "every unit returned 10,000, not the planted 10,001");
        assert_eq!(h.tally.ok_ratio(), 0.0);
        nested_on_gnu(&h, 0, false);
        assert_eq!(h.tally.totals().1, failed, "the true digest passes");
    }

    #[test]
    fn traced_units_span_every_parallel_of_listing_1() {
        let h = Harness::start("nested");
        let b = nested_on_gnu(&h, 0, true);
        assert!(!b.traced_ms.is_empty() && !b.untraced_ms.is_empty(), "units alternate");
        let first_unit = b.kept[0].unit;
        let spans: Vec<&Span> = b.kept.iter().filter(|s| s.unit == first_unit).collect();
        assert_eq!(spans.len(), 1 + NESTED_N as usize, "one outer and one inner region per i");
        let outer = spans.iter().find(|s| s.parent == 0).expect("outer region is the root");
        assert!(spans.iter().filter(|s| s.id != outer.id).all(|s| s.parent == outer.id));
        assert!(b.spans.mean_ns("team.fork_join") > 0.0);
        assert!(h.tracer.drain().is_empty(), "untraced units record nothing");
    }
}
