//! `BENCHMARK.json`, parsed. Workload names, run length, and every metric's
//! name, unit, direction and bound are written there once; nothing in this
//! package repeats them.

use crate::json::{self, Value};
use crate::Metrics;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer ones, which have none).
    pub bound: f64,
}

pub struct Contract {
    /// Length of the measured phase. Fixed: `--seconds` must repeat it.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Contract {
    pub fn load() -> Result<Self, String> {
        let doc = json::parse(BENCHMARK_JSON)?;
        let list = |section: &str| {
            json::get(&doc, section)
                .and_then(Value::as_seq)
                .ok_or(format!("BENCHMARK.json has no `{section}` list"))
        };
        let text = |entry: &Value, key: &str| {
            json::get(entry, key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |section: &str| -> Result<Vec<Metric>, String> {
            list(section)?
                .iter()
                .map(|entry| {
                    Ok(Metric {
                        name: text(entry, "name")?,
                        unit: text(entry, "unit")?,
                        higher_is_better: text(entry, "better")? == "higher",
                        bound: json::num(entry, "bound"),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: json::num(&doc, "run_seconds"),
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Report zero, by name, for the layers a workload does not exercise.
    pub fn zero_fill(&self, m: &mut Metrics, prefixes: &[&str]) {
        for metric in &self.per_layer {
            if prefixes.iter().any(|p| metric.name.starts_with(p)) {
                m.entry(metric.name.clone()).or_insert(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_equal_benchmark_json() {
        let contract = Contract::load().unwrap();
        let own: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(contract.workloads, own);
    }

    #[test]
    fn every_metric_is_declared_once_with_a_bound_only_end_to_end() {
        let contract = Contract::load().unwrap();
        let mut seen = std::collections::HashSet::new();
        for metric in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(seen.insert(&metric.name), "{} listed twice", metric.name);
        }
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(contract.per_layer.iter().all(|m| m.bound == 0.0));
        assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn zero_fill_names_only_declared_metrics_and_keeps_measured_values() {
        let contract = Contract::load().unwrap();
        let mut m = Metrics::from([("core.merge_s".to_string(), 2.0)]);
        contract.zero_fill(&mut m, &["core."]);
        assert_eq!(m["core.merge_s"], 2.0);
        assert_eq!(m["core.select_s"], 0.0);
        assert!(m.keys().all(|k| k.starts_with("core.")));
    }
}
