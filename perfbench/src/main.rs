//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <nested|tasks|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload over the six runtimes (`gnu`, `intel`, `glto-abt`,
//! `glto-qth`, `glto-mth`, `adaptive`), checks every unit's output and the
//! counter laws, and prints one JSON result line last on stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero on any failed check. See README.md.

mod harness;
mod program;
mod report;
mod runner;
mod service;
mod stats;
mod trace;
mod watchdog;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use harness::Harness;
use report::{end_to_end_names, per_layer_names, Metrics};
use stats::{samples_beyond, MIN_BEYOND};
use trace::Span;

const WORKLOADS: [&str; 3] = ["nested", "tasks", "service"];
/// Where a traced run writes its kept spans, relative to the working
/// directory.
const TRACE_DIR: &str = "perfbench/traces";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let w = get("--workload")?;
    let workload =
        WORKLOADS.into_iter().find(|&n| n == w).ok_or(format!("unknown workload {w:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Write kept spans as tab-separated lines: runtime, unit, id, parent,
/// name, start ns, end ns.
fn write_trace(path: &Path, rows: &[(&str, Span)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "runtime\tunit\tid\tparent\tname\tstart_ns\tend_ns")?;
    for (rt, s) in rows {
        writeln!(
            f,
            "{rt}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.unit, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

fn warn_thin(label: &str, n: usize) {
    let beyond = samples_beyond(n, 95.0);
    eprintln!("perfbench: {label}: {n} samples, {beyond} beyond p95");
    if beyond < MIN_BEYOND {
        eprintln!("perfbench: {label}: fewer than {MIN_BEYOND} samples beyond p95");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <nested|tasks|service> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let h = Harness::start(args.workload);
    let steal_before = harness::cpu_steal_ticks();
    let mut m = Metrics::default();
    let mut kept: Vec<(&str, Span)> = Vec::new();
    if args.workload == "service" {
        let run = service::run(&h, args.seed, args.seconds, args.trace);
        for (k, n) in service::sample_counts(&run) {
            warn_thin(&format!("service/{} (smallest slice)", k.name()), n);
        }
        service::end_to_end(&run, &mut m);
        if args.trace {
            service::per_layer(&run, &mut m);
            kept.extend(run.spans.iter().map(|&s| ("service", s)));
        }
    } else {
        let run = runner::run(&h, args.workload, args.seed, args.seconds, args.trace);
        for b in &run.blocks {
            warn_thin(&format!("{}/{}", args.workload, b.kind.name()), b.untraced_ms.len());
            kept.extend(b.kept.iter().map(|&s| (b.kind.name(), s)));
        }
        runner::end_to_end(&run, &mut m);
        if args.trace {
            runner::per_layer(&run, &mut m);
        }
    }
    m.set("ok_ratio", h.tally.ok_ratio());
    if args.trace {
        let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match write_trace(&path, &kept) {
            Ok(()) => eprintln!("perfbench: wrote {} spans to {}", kept.len(), path.display()),
            Err(e) => h.violation(format!("writing {}: {e}", path.display())),
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, harness::cpu_steal_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!("perfbench: host steal {:.1}% of CPU time during the run", share * 100.0);
    }
    let (attempted, failed) = h.tally.totals();
    let correct = failed == 0 && h.clean();
    let names = if args.trace { per_layer_names() } else { end_to_end_names() };
    println!("{}", m.result_line(&names, correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
