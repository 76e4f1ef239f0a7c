//! The two program workloads. One unit is one verified result; each unit
//! returns a digest that must equal the digest of the same unit on
//! `SerialRuntime` (or the sequential reference).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use glt::WaitPolicy;
use omp::{OmpConfig, OmpRuntime, OmpRuntimeExt, ParCtx, Schedule};
use workloads::cg::{self, Csr};
use workloads::taskbench::fib_seq;

use crate::trace::Tracer;

/// Team width: the number of cores of the machine the benchmark is sized
/// for.
pub const WIDTH: usize = 2;
/// Listing 1 loop bounds (outer = inner).
pub const NESTED_N: u64 = 100;
/// CG task granularity in rows: 1,488 tasks per iteration at full scale.
pub const CG_GRAIN: usize = 10;
/// CG iterations per unit (fixed: the tolerance is zero).
pub const CG_ITERS: usize = 2;
/// Recursive Fibonacci argument and its sequential cut-off.
pub const FIB_N: u64 = 20;
/// Below this argument a fib task computes sequentially.
pub const FIB_CUTOFF: u64 = 8;

const STATIC: Schedule = Schedule::Static { chunk: None };

/// A program workload with its inputs.
pub enum Program {
    /// Listing 1 of the paper: nested `parallel for`, null body.
    Nested,
    /// Task-parallel CG solve plus a recursive task tree.
    Tasks {
        /// `bmwcra_1`-shaped SPD matrix.
        a: Csr,
        /// Right-hand side `A · 1`.
        b: Vec<f64>,
    },
}

impl Program {
    /// Build the workload's inputs (part of set-up).
    #[must_use]
    pub fn prepare(name: &str) -> Option<Program> {
        match name {
            "nested" => Some(Program::Nested),
            "tasks" => {
                let a = Csr::bmwcra_shaped(1.0);
                let b = cg::rhs_ones(&a);
                Some(Program::Tasks { a, b })
            }
            _ => None,
        }
    }

    /// Runtime configuration: width 2; active wait for the fork-bound
    /// workload, passive for the task code (§VI-A).
    #[must_use]
    pub fn config(&self) -> OmpConfig {
        let wait = match self {
            Program::Nested => WaitPolicy::Active,
            Program::Tasks { .. } => WaitPolicy::Passive,
        };
        OmpConfig::with_threads(WIDTH).nested(true).wait_policy(wait)
    }

    /// Run one unit on `rt`, returning its digest. Spans go to `tr` under
    /// `unit` when tracing is on.
    #[must_use]
    pub fn unit(&self, rt: &dyn OmpRuntime, tr: &Tracer, unit: u64) -> u64 {
        match self {
            Program::Nested => nested_unit(rt, tr, unit),
            Program::Tasks { a, b } => tasks_unit(rt, a, b, tr, unit),
        }
    }
}

/// Listing 1 written against the public `omp` API so the benchmark can
/// span each `parallel`. The digest is the exact count of body executions.
fn nested_unit(rt: &dyn OmpRuntime, tr: &Tracer, unit: u64) -> u64 {
    let bodies = AtomicU64::new(0);
    let outer = tr.span("team.fork_join", unit);
    let outer_id = outer.id();
    rt.parallel(|ctx| {
        let _in = tr.adopt(outer_id);
        ctx.for_each(0..NESTED_N, STATIC, |i| {
            let inner = tr.span("team.fork_join", unit);
            let inner_id = inner.id();
            ctx.parallel(|ictx| {
                let _in = tr.adopt(inner_id);
                let mut ran = 0;
                ictx.for_each(0..NESTED_N, STATIC, |j| {
                    black_box((i, j));
                    ran += 1;
                });
                bodies.fetch_add(ran, Ordering::Relaxed);
            });
        });
    });
    drop(outer);
    bodies.into_inner()
}

/// FNV-1a over 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// One CG solve at granularity [`CG_GRAIN`] then one recursive fib; the
/// digest covers the residual and every `x` bit, and the fib value.
fn tasks_unit(rt: &dyn OmpRuntime, a: &Csr, b: &[f64], tr: &Tracer, unit: u64) -> u64 {
    let r = cg::cg_tasks(rt, a, b, CG_ITERS, 0.0, CG_GRAIN);
    let fib = fib_region(rt, tr, unit);
    fnv([r.iterations as u64, r.residual.to_bits(), fib]
        .into_iter()
        .chain(r.x.iter().map(|x| x.to_bits())))
}

/// Digest a correct tasks unit has: `cg_tasks` on `SerialRuntime` and the
/// sequential Fibonacci value stand in for the parallel results.
#[must_use]
fn tasks_reference(a: &Csr, b: &[f64]) -> u64 {
    let serial = omp::SerialRuntime::new(OmpConfig::with_threads(1));
    let r = cg::cg_tasks(&serial, a, b, CG_ITERS, 0.0, CG_GRAIN);
    fnv([r.iterations as u64, r.residual.to_bits(), fib_seq(FIB_N)]
        .into_iter()
        .chain(r.x.iter().map(|x| x.to_bits())))
}

fn fib_region(rt: &dyn OmpRuntime, tr: &Tracer, unit: u64) -> u64 {
    let out = AtomicU64::new(0);
    let region = tr.span("team.fork_join", unit);
    let region_id = region.id();
    rt.parallel(|ctx| {
        let _in = tr.adopt(region_id);
        ctx.single(|| fib_task(ctx, FIB_N, &out, tr, unit));
    });
    drop(region);
    out.into_inner()
}

fn fib_task<'env>(
    ctx: &ParCtx<'_, 'env>,
    n: u64,
    out: &'env AtomicU64,
    tr: &'env Tracer,
    unit: u64,
) {
    if n <= FIB_CUTOFF {
        out.fetch_add(fib_seq(n), Ordering::Relaxed);
        return;
    }
    {
        let _s = tr.span("omp.task_spawn", unit);
        ctx.task(move |c| fib_task(c, n - 1, out, tr, unit));
    }
    {
        let _s = tr.span("omp.task_spawn", unit);
        ctx.task(move |c| fib_task(c, n - 2, out, tr, unit));
    }
    let _s = tr.span("omp.taskwait", unit);
    ctx.taskwait();
}

/// The digest a correct unit of `p` returns: the exact body count for
/// `nested`, the serial and sequential results for `tasks`.
#[must_use]
pub fn reference(p: &Program) -> u64 {
    match p {
        Program::Nested => NESTED_N * NESTED_N,
        Program::Tasks { a, b } => tasks_reference(a, b),
    }
}
