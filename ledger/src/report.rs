//! One run's result: the failure count, the metrics, the human-readable
//! lines, and the one-line JSON object the run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload reports all of them; what the operation is depends on the
/// workload (see `ledger/README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_iqm_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer a
/// workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("dash-sim.refs", "count"),
    ("dash-sim.l1_hits", "count"),
    ("dash-sim.l2_hits", "count"),
    ("dash-sim.local_misses", "count"),
    ("dash-sim.remote_misses", "count"),
    ("dash-sim.invalidations", "count"),
    ("dash-sim.hit_ratio", "ratio"),
    ("dash-sim.sim_cycles", "cycles"),
    ("dash-sim.engine.txns", "count"),
    ("dash-sim.engine.txns_per_ref", "ratio"),
    ("dash-sim.engine.wait_cycles", "cycles"),
    ("dash-sim.engine.busy_cycles", "cycles"),
    ("dash-sim.engine.peak_occupancy", "count"),
    ("dash-sim.engine.host_s", "s"),
    ("dash-sim.engine.host_share", "ratio"),
    ("cool-sim.tasks_executed", "count"),
    ("cool-sim.tasks_stolen", "count"),
    ("cool-sim.sets_stolen", "count"),
    ("cool-sim.failed_steals", "count"),
    ("cool-sim.steal_success_ratio", "ratio"),
    ("cool-sim.remote_steals", "count"),
    ("cool-sim.desperate_steals", "count"),
    ("cool-sim.steals_by_level.0", "count"),
    ("cool-sim.steals_by_level.1", "count"),
    ("cool-sim.steals_by_level.2", "count"),
    ("cool-sim.steals_by_level.3", "count"),
    ("cool-sim.mutex_blocks", "count"),
    ("cool-sim.mutex_retries", "count"),
    ("cool-sim.adherence", "ratio"),
    ("cool-sim.busy_cycles", "cycles"),
    ("cool-sim.idle_cycles", "cycles"),
    ("cool-sim.overhead_cycles", "cycles"),
    ("cool-core.feedback.widenings", "count"),
    ("cool-core.feedback.throttled_migrations", "count"),
    ("cool-core.feedback.rebalanced_pages", "count"),
    ("cool-obs.events", "count"),
    ("cool-obs.record_host_s", "s"),
    ("workloads.gen_s", "s"),
    ("sparse.symbolic_s", "s"),
    ("sparse.kernel_s", "s"),
    ("apps.verify_s", "s"),
    ("cool-rt.tasks_executed", "count"),
    ("cool-rt.tasks_stolen", "count"),
    ("cool-rt.failed_steals", "count"),
    ("cool-rt.mutex_blocks", "count"),
    ("cool-rt.mutex_retries", "count"),
    ("cool-rt.mutex_parks", "count"),
    ("cool-rt.overhead_ns_per_task", "ns"),
    ("cool-rt.serve.admitted", "count"),
    ("cool-rt.serve.shed", "count"),
    ("cool-rt.serve.retries", "count"),
    ("cool-rt.serve.attempts", "count"),
    ("cool-rt.serve.submit_us_p50", "us"),
    ("cool-rt.serve.submit_us_p99", "us"),
    ("cool-rt.serve.queue_us_p50", "us"),
    ("cool-rt.serve.queue_us_p99", "us"),
    ("apps.route_body_us_p50", "us"),
    ("apps.route_body_us_p99", "us"),
    ("bench.gen_late_us_p99", "us"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// How many failure descriptions a report keeps verbatim.
const KEEP_PROBLEMS: usize = 8;

/// The result of one run.
pub struct Report {
    /// Operations attempted (sim points, factorizations, requests).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Count one attempted operation, failed when `problem` is `Some`.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Count one failure without a new attempt (a check over operations
    /// already counted).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < KEEP_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Set a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|&(n, _)| n == name),
            "{name} is not a declared metric"
        );
        assert!(value.is_finite(), "{name} = {value} is not a number");
        self.values.insert(name, value);
    }

    /// A metric set earlier (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Add a human-readable line: a named quantity with its unit.
    pub fn line(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name} = {value:.6} {unit}"));
    }

    /// Add a free-form human-readable note.
    pub fn note(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines, including the failures kept.
    pub fn text(&self, workload: &str) -> String {
        let mut s = String::new();
        for l in &self.lines {
            let _ = writeln!(s, "{workload}: {l}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "{workload}: FAILED {p}");
        }
        s
    }

    /// The result object: the end-to-end metrics untraced, the per-layer
    /// metrics traced. Panics if an end-to-end metric was never measured.
    pub fn json(&self, traced: bool) -> String {
        let mut metrics = String::new();
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (i, &(name, unit)) in list.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(doc: &str, list: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{list}\"")).expect("list present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closed")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field present");
                    let rest = &entry[at + key.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value quoted") + 1..];
                    rest[..rest.find('"').expect("value closed")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn json_has_exactly_the_declared_metrics() {
        let mut r = Report::new();
        for &(name, _) in &END_TO_END {
            r.set(name, 1.5);
        }
        r.attempt(None);
        let j = r.json(false);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert_eq!(j.matches("\"value\"").count(), END_TO_END.len());
        let t = r.json(true);
        assert_eq!(t.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.attempt(None);
        r.attempt(Some("forged".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.json(true).starts_with("{\"correct\": false"));
        assert!(r.text("w").contains("FAILED forged"));
        assert!((r.fail_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_metrics_are_refused() {
        Report::new().set("nope", 1.0);
    }
}
