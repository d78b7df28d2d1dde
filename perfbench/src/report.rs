//! Metric names, units, and the result line.
//!
//! The lists here are the benchmark's contract: an untraced run prints
//! every end-to-end metric, a traced run every per-layer metric, and
//! `BENCHMARK.json` at the repository root names the same metrics (a
//! test keeps the two in step).

use std::collections::BTreeMap;

/// End-to-end metrics and their units, as a user of the system sees
/// them. Every workload reports all of them; README.md defines each one
/// per workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sweep_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// User-facing read metrics that are reported with the per-layer ones:
/// on a shared virtual machine the host's stalls move them by more than
/// any bound an end-to-end metric may have (README.md, "Steadiness").
pub const READS: [(&str, &str); 3] = [
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. A
/// layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for id in ddoscovery::all_ids() {
        add(format!("experiments.{id}_s"), "s");
    }
    for kind in PROJECTIONS {
        add(format!("project.{kind}_s"), "s");
    }
    add("netmodel.plan_s".into(), "s");
    add("attackgen.generate_s".into(), "s");
    add("attackgen.attacks_per_s".into(), "1/s");
    for name in crate::layers::OBSERVERS {
        add(format!("{name}_s"), "s");
        add(format!("{name}.kept_ratio"), "ratio");
    }
    add("honeypot.carpet_merge_s".into(), "s");
    add("flowmon.netscout_split_s".into(), "s");
    for stage in STAGES {
        add(format!("stagecache.hit_ratio.{stage}"), "ratio");
    }
    add("diskstore.load_s".into(), "s");
    add("diskstore.load_bytes".into(), "bytes");
    add("diskstore.rejects".into(), "count");
    add("service.handle_us.memo_hit".into(), "us");
    add("service.handle_ms.render".into(), "ms");
    add("service.memo_hit_ratio".into(), "ratio");
    add("serve.overhead_ms".into(), "ms");
    add("serve.shed".into(), "count");
    add("serve.timeouts".into(), "count");
    add("pool.busy_ratio".into(), "ratio");
    add("failed_ratio".into(), "ratio");
    add("generator.max_lateness_ms".into(), "ms");
    for (name, unit) in READS {
        add(name.into(), unit);
    }
    add("split.analyze_share".into(), "ratio");
    add("split.pipeline_ops_after_setup".into(), "count");
    add("split.sweep_observe_merge_share".into(), "ratio");
    add("trace.root_self_s".into(), "s");
    add("trace.root_self_share".into(), "ratio");
    for (name, unit) in overhead_metrics() {
        add(format!("trace_overhead.{name}"), unit);
    }
    out
}

/// Metrics whose traced-minus-untraced difference the traced run
/// reports: every timing of [`END_TO_END`] and [`READS`] (peak RSS is a
/// high-water mark of the whole process, so it has no difference).
pub fn overhead_metrics() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END
        .into_iter()
        .chain(READS)
        .filter(|(n, _)| *n != "peak_rss_mb")
}

/// The `StudyRun` projection kinds, as the program's `project.*`
/// counters name them.
pub const PROJECTIONS: [&str; 5] = ["weekly", "normalized", "tuples", "baseline", "akamai"];

/// Stage-cache stages, as the program's `stage.*` counters name them.
pub const STAGES: [&str; 3] = ["plan", "attacks", "observations"];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect, if it is.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn error(&mut self, why: String) {
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

/// Render the printed metrics: the human-readable lines (name, value,
/// unit) followed by the one-line JSON result. `names` selects the
/// metrics; a missing end-to-end metric is an error, a missing
/// per-layer metric reads 0 (the layer did no work).
pub fn render(
    outcome: &Outcome,
    names: &[(String, &str)],
    required: bool,
) -> Result<String, String> {
    let mut lines = String::new();
    let mut json = Vec::new();
    for (name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        lines.push_str(&format!("{name:<40} {value:>16.6} {unit}\n"));
        json.push(format!(
            "{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}"
        ));
    }
    let correct = outcome.errors.is_empty();
    lines.push_str(&format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    ));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(pairs: &[(&str, f64)]) -> Outcome {
        let mut o = Outcome::default();
        for (k, v) in pairs {
            o.metrics.set(k, *v);
        }
        o.attempted = 10;
        o
    }

    #[test]
    fn the_last_line_is_the_result_object() {
        let names = vec![("run_s".to_string(), "s"), ("max_rps".to_string(), "1/s")];
        let text = render(
            &outcome(&[("run_s", 1.25), ("max_rps", 800.0)]),
            &names,
            true,
        )
        .unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"max_rps\": {\"value\": 800.0, \"unit\": \"1/s\"}}}"
        );
        assert!(render(&outcome(&[("run_s", 1.0)]), &names, true).is_err());
        assert!(render(
            &outcome(&[("run_s", f64::NAN), ("max_rps", 1.0)]),
            &names,
            true
        )
        .is_err());
        let layer = render(&outcome(&[]), &names, false).unwrap();
        assert!(layer.contains("\"run_s\": {\"value\": 0.0"));
        let mut bad = outcome(&[("run_s", 1.0), ("max_rps", 1.0)]);
        bad.error("digest mismatch".into());
        assert!(render(&bad, &names, true)
            .unwrap()
            .contains("\"correct\": false"));
    }

    /// `BENCHMARK.json` names exactly the metrics this file prints.
    #[test]
    fn benchmark_json_lists_every_metric_once() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\""))
            .collect();
        for n in &names {
            assert_eq!(text.matches(n.as_str()).count(), 1, "{n}");
        }
        assert_eq!(
            text.matches("{\"name\": ").count(),
            names.len() + 3,
            "three workloads"
        );
        assert!(per_layer().len() <= 128);
    }
}
