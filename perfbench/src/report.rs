//! Metric names, per-layer arithmetic, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use glt::CounterSnapshot;
use workloads::RuntimeKind;

use crate::trace::SelfTimeTotals;

/// The runtimes every workload runs: the paper's five plus ADAPT.
pub const RUNTIMES: [RuntimeKind; 6] = [
    RuntimeKind::Gnu,
    RuntimeKind::Intel,
    RuntimeKind::GltoAbt,
    RuntimeKind::GltoQth,
    RuntimeKind::GltoMth,
    RuntimeKind::Adaptive,
];

/// `(name, unit)` of every end-to-end metric.
#[must_use]
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    let mut v = vec![("setup_s".to_owned(), "s")];
    for k in RUNTIMES {
        v.push((format!("p50_ms.{}", k.name()), "ms"));
    }
    v.push(("ok_ratio".to_owned(), "ratio"));
    v.push(("sat_jobs_per_s".to_owned(), "1/s"));
    v
}

/// Per-runtime layer metrics: `(name, unit)`, suffixed `.<runtime>`. The
/// first is the tail of the end-to-end latency, reported from the untraced
/// units of a traced run.
const PER_RUNTIME: [(&str, &str); 18] = [
    ("p95_ms", "ms"),
    ("team.forks_per_unit", "count"),
    ("team.assign_ns_per_fork", "ns"),
    ("team.fork_join_us", "us"),
    ("team.os_threads_created_per_unit", "count"),
    ("glt.ults_created_per_unit", "count"),
    ("glt.ult_reuse_ratio", "ratio"),
    ("glt.unit_slab_reuse_ratio", "ratio"),
    ("glt.steals_per_unit", "count"),
    ("glt.steal_hit_ratio", "ratio"),
    ("glt.parks_per_unit", "count"),
    ("glt.feb_ops_per_unit", "count"),
    ("omp.tasks_per_unit", "count"),
    ("omp.task_queued_ratio", "ratio"),
    ("omp.task_slab_reuse_ratio", "ratio"),
    ("omp.task_spawn_ns", "ns"),
    ("omp.taskwait_us", "us"),
    ("service.body_ms", "ms"),
];

/// Layer metrics reported once per run.
const SINGLE: [(&str, &str); 13] = [
    ("service.open_p50_ms", "ms"),
    ("service.open_p95_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.complete_ms", "ms"),
    ("service.jobs_rejected", "count"),
    ("adaptive.probes", "count"),
    ("adaptive.commits_os", "count"),
    ("adaptive.commits_ult", "count"),
    ("adaptive.reprobes", "count"),
    ("kernel.serial_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// `(name, unit)` of every per-layer metric.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for (m, unit) in PER_RUNTIME {
        for k in RUNTIMES {
            v.push((format!("{m}.{}", k.name()), unit));
        }
    }
    v.extend(SINGLE.iter().map(|&(m, u)| (m.to_owned(), u)));
    v
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one runtime's timed block (or its share of service jobs) yields for
/// the per-layer metrics.
pub struct LayerInput<'a> {
    /// Verified units (jobs) in the block.
    pub units: u64,
    /// Counter delta over those units.
    pub delta: CounterSnapshot,
    /// Self times of the block's traced spans.
    pub spans: &'a SelfTimeTotals,
}

/// Metric values keyed by name; the unit comes from the name tables.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), if value.is_finite() { value } else { 0.0 });
    }

    /// Read one metric (0 if unset).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Fill the per-runtime layer metrics of `kind` other than `p95_ms`.
    pub fn set_layers(&mut self, kind: RuntimeKind, l: &LayerInput<'_>) {
        let d = &l.delta;
        let per_unit = |n: u64| ratio(n, l.units);
        let rows = [
            ("team.forks_per_unit", per_unit(d.forks)),
            ("team.assign_ns_per_fork", ratio(d.assign_ns, d.forks)),
            ("team.fork_join_us", l.spans.mean_ns("team.fork_join") / 1e3),
            ("team.os_threads_created_per_unit", per_unit(d.os_threads_created)),
            ("glt.ults_created_per_unit", per_unit(d.ults_created)),
            ("glt.ult_reuse_ratio", ratio(d.ults_reused, d.ults_created + d.ults_reused)),
            (
                "glt.unit_slab_reuse_ratio",
                ratio(d.unit_slab_reused, d.unit_slab_fresh + d.unit_slab_reused),
            ),
            ("glt.steals_per_unit", per_unit(d.steals)),
            ("glt.steal_hit_ratio", ratio(d.steals, d.steals + d.steal_fails)),
            ("glt.parks_per_unit", per_unit(d.parks)),
            ("glt.feb_ops_per_unit", per_unit(d.feb_ops)),
            ("omp.tasks_per_unit", per_unit(d.tasks_created)),
            ("omp.task_queued_ratio", ratio(d.tasks_queued, d.tasks_created)),
            (
                "omp.task_slab_reuse_ratio",
                ratio(d.task_slab_reused, d.task_slab_fresh + d.task_slab_reused),
            ),
            ("omp.task_spawn_ns", l.spans.mean_ns("omp.task_spawn")),
            ("omp.taskwait_us", l.spans.mean_ns("omp.taskwait") / 1e3),
            ("service.body_ms", l.spans.mean_ns("service.body") / 1e6),
        ];
        for (m, v) in rows {
            self.set(format!("{m}.{}", kind.name()), v);
        }
    }

    /// Fill the four `adaptive.*` counters from the ADAPT runtime's counters.
    pub fn set_adaptive(&mut self, c: &CounterSnapshot) {
        self.set("adaptive.probes", c.adaptive_probes as f64);
        self.set("adaptive.commits_os", c.adaptive_commits_os as f64);
        self.set("adaptive.commits_ult", c.adaptive_commits_ult as f64);
        self.set("adaptive.reprobes", c.adaptive_reprobes as f64);
    }

    /// The result line: exactly the metrics of `names`, each with its unit.
    #[must_use]
    pub fn result_line(
        &self,
        names: &[(String, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.get(name)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_have_the_declared_sizes() {
        assert_eq!(end_to_end_names().len(), 9);
        assert_eq!(per_layer_names().len(), 121);
    }

    /// `BENCHMARK.json` must name exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_lists_every_metric_once() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in end_to_end_names().into_iter().chain(per_layer_names()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        let total = json.matches("\"unit\":").count();
        assert_eq!(total, 9 + 121, "BENCHMARK.json lists metrics the benchmark does not print");
    }

    #[test]
    fn layer_ratios_guard_zero_denominators() {
        let mut m = Metrics::default();
        let spans = SelfTimeTotals::default();
        let delta = CounterSnapshot {
            forks: 4,
            assign_ns: 400,
            steals: 1,
            steal_fails: 3,
            ..CounterSnapshot::default()
        };
        m.set_layers(RuntimeKind::Gnu, &LayerInput { units: 2, delta, spans: &spans });
        assert_eq!(m.get("team.forks_per_unit.gnu"), 2.0);
        assert_eq!(m.get("team.assign_ns_per_fork.gnu"), 100.0);
        assert_eq!(m.get("glt.steal_hit_ratio.gnu"), 0.25);
        assert_eq!(m.get("omp.task_queued_ratio.gnu"), 0.0, "no tasks: 0, not NaN");
        let line = m.result_line(&[("team.forks_per_unit.gnu".into(), "count")], true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"team.forks_per_unit.gnu\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
