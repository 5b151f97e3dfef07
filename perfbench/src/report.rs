//! The metric registry and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("complete_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload from the traced run.
/// Layers a workload does not reach read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.s", "s"),
    ("frontend.loc", "count"),
    ("symexec.explore_s", "s"),
    ("symexec.steps", "count"),
    ("symexec.ns_per_step", "ns/step"),
    ("symexec.forks", "count"),
    ("symexec.paths", "count"),
    ("symexec.dropped_paths", "count"),
    ("symexec.probes", "count"),
    ("symexec.probe_hit_ratio", "ratio"),
    ("symexec.infeasible", "count"),
    ("symexec.tier1_refuted", "count"),
    ("symexec.tier2_refuted", "count"),
    ("symexec.tier2_unknown", "count"),
    ("symexec.events", "count"),
    ("symexec.parallel_speedup", "ratio"),
    ("symexec.workers", "count"),
    ("analyzer.policy_s", "s"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_max", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_tail", "ms"),
    ("service.suspensions", "count"),
    ("service.busy_s", "s"),
    ("service.reexec_ratio", "ratio"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.analyze_s", "s"),
    ("trace.overhead", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts checked.
    pub attempted: usize,
    /// Verdicts that errored, panicked, were rejected or differed from
    /// ground truth.
    pub failed: usize,
    /// Every failure and count drift, for the operator.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked verdict.
    pub fn verdict(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.failed += 1;
            self.errors.push(error);
        }
    }

    /// Records a check that is not a verdict (count drift).
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(error) = result {
            self.errors.push(error);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metrics in registry order. A correct run measures exactly the
    /// registry's metrics; a failed one may have stopped early, and its
    /// missing metrics read 0.
    fn ordered(&self, registry: &[(&'static str, &'static str)]) -> Vec<(Metric, &'static str)> {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
        if self.correct() {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            let mut expected = declared.clone();
            expected.sort_unstable();
            assert_eq!(
                sorted, expected,
                "a run reports exactly the registry's metrics"
            );
        }
        registry
            .iter()
            .map(|(name, unit)| {
                let metric = self.metrics.iter().find(|m| m.name == *name).cloned();
                let metric = metric.unwrap_or(Metric {
                    name,
                    value: 0.0,
                    samples: 0,
                });
                (metric, *unit)
            })
            .collect()
    }

    /// A human-readable table: name, value, unit and sample count.
    pub fn table(&self, registry: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (metric, unit) in self.ordered(registry) {
            let _ = writeln!(
                out,
                "{:<28} {:>16.6} {:<8} n={}",
                metric.name, metric.value, unit, metric.samples
            );
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self, registry: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = self
            .ordered(registry)
            .into_iter()
            .map(|(m, unit)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    m.name,
                    number(m.value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = spec.split_whitespace().collect();
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = compact
                .find(&format!("\"{section}\":["))
                .unwrap_or_else(|| panic!("section {section}"));
            let body = &compact[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\":\"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').expect("name closes")].to_string();
                    let unit = entry
                        .split("\"unit\":\"")
                        .nth(1)
                        .map(|u| u[..u.find('"').expect("unit closes")].to_string())
                        .unwrap_or_default();
                    (name, unit)
                })
                .collect()
        };
        let as_owned = |registry: &[(&str, &str)]| -> Vec<(String, String)> {
            registry
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
        assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.verdict(Ok(()));
        for (name, _) in END_TO_END {
            outcome.metric(name, 1.25, 1);
        }
        let line = outcome.json(END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        outcome.verdict(Err("mismatch".into()));
        assert!(!outcome.correct());
    }
}
