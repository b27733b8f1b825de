//! Metric registry with Prometheus text-exposition rendering.
//!
//! A [`Registry`] owns named metric *families* — counters, gauges and
//! [`Histogram`]s — each optionally carrying a fixed label set (label
//! cardinality is decided at registration time, so the hot path never
//! allocates or hashes label strings). Handles are `Arc`s of plain atomics:
//! incrementing a [`Counter`] is one relaxed `fetch_add`, and scraping
//! takes only the registry's own registration mutex — never a shard or WAL
//! lock — so `GET /metrics` follows the same lock-free discipline as
//! `/stats`.
//!
//! [`Registry::render`] emits the [Prometheus text exposition
//! format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! `# HELP` / `# TYPE` once per family, one sample line per child, and for
//! histograms cumulative `_bucket{le="..."}` lines over the non-empty
//! log-linear buckets plus `+Inf`, `_sum` and `_count`. Nanosecond
//! histograms render in seconds, per Prometheus convention.

use super::histogram::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (one relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone metric cell; scrape skew is fine
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed); // relaxed-ok: standalone metric cell; scrape skew is fine
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) // relaxed-ok: standalone metric cell; scrape skew is fine
    }
}

/// A gauge: a value that can go up and down (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed); // relaxed-ok: standalone metric cell; scrape skew is fine
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed)) // relaxed-ok: standalone metric cell; scrape skew is fine
    }
}

/// One registered child: a label string (maybe empty) plus the metric.
#[derive(Debug)]
enum Child {
    Counter(String, Arc<Counter>),
    Gauge(String, Arc<Gauge>),
    Histogram(String, Arc<Histogram>),
}

/// A named family: HELP/TYPE header plus its children, render-ordered.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: &'static str,
    children: Vec<Child>,
}

/// The metric registry. Registration happens at startup (under a mutex);
/// recording happens on shared atomic handles; rendering walks the families
/// in registration order. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, kind: &'static str, child: Child) {
        let mut families = crate::sync::lock_unpoisoned(&self.families);
        match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                debug_assert_eq!(family.kind, kind, "metric {name} re-registered as {kind}");
                family.children.push(child);
            }
            None => families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                children: vec![child],
            }),
        }
    }

    /// Register (or extend) a counter family. `labels` is a literal
    /// Prometheus label body like `endpoint="match",status="2xx"` (empty for
    /// an unlabelled metric).
    pub fn counter(&self, name: &str, help: &str, labels: &str) -> Arc<Counter> {
        let counter = Arc::new(Counter::default());
        self.register(
            name,
            help,
            "counter",
            Child::Counter(labels.to_string(), Arc::clone(&counter)),
        );
        counter
    }

    /// Register (or extend) a gauge family.
    pub fn gauge(&self, name: &str, help: &str, labels: &str) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::default());
        self.register(
            name,
            help,
            "gauge",
            Child::Gauge(labels.to_string(), Arc::clone(&gauge)),
        );
        gauge
    }

    /// Register (or extend) a histogram family. Samples are recorded in
    /// nanoseconds and rendered in seconds.
    pub fn histogram(&self, name: &str, help: &str, labels: &str) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.register(
            name,
            help,
            "histogram",
            Child::Histogram(labels.to_string(), Arc::clone(&histogram)),
        );
        histogram
    }

    /// Render the whole registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let families = crate::sync::lock_unpoisoned(&self.families);
        let mut out = String::with_capacity(4096);
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
            for child in &family.children {
                match child {
                    Child::Counter(labels, counter) => {
                        let _ =
                            writeln!(out, "{}{} {}", family.name, braced(labels), counter.get());
                    }
                    Child::Gauge(labels, gauge) => {
                        let _ = writeln!(out, "{}{} {}", family.name, braced(labels), gauge.get());
                    }
                    Child::Histogram(labels, histogram) => {
                        render_histogram(&mut out, &family.name, labels, histogram);
                    }
                }
            }
        }
        out
    }
}

/// `labels` wrapped in braces, or nothing when empty.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// `labels` extended with one more `name="value"` pair (for `le`).
fn with_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{labels},{extra}}}")
    }
}

/// Nanoseconds as a Prometheus seconds value (plain decimal, no exponent).
fn seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1.0e9)
}

fn render_histogram(out: &mut String, name: &str, labels: &str, histogram: &Histogram) {
    use std::fmt::Write;
    let snapshot = histogram.snapshot();
    let mut cumulative = 0u64;
    for (bound, count) in snapshot.buckets() {
        cumulative += count;
        let le = with_label(labels, &format!("le=\"{}\"", seconds(bound)));
        let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
    }
    let inf = with_label(labels, "le=\"+Inf\"");
    let _ = writeln!(out, "{name}_bucket{inf} {}", snapshot.count());
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        braced(labels),
        seconds(snapshot.sum())
    );
    let _ = writeln!(out, "{name}_count{} {}", braced(labels), snapshot.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_accumulate() {
        let registry = Registry::new();
        let hits = registry.counter("hits_total", "Hits.", "");
        let labelled = registry.counter("hits_total", "Hits.", "kind=\"write\"");
        let depth = registry.gauge("queue_depth", "Queue depth.", "");
        hits.inc();
        hits.add(2);
        labelled.inc();
        depth.set(7.5);
        assert_eq!(hits.get(), 3);
        assert_eq!(labelled.get(), 1);
        assert_eq!(depth.get(), 7.5);
    }

    /// Golden test: the exposition output is byte-exact — HELP/TYPE once per
    /// family, label bodies preserved, histogram buckets cumulative with
    /// seconds-valued `le` bounds, `+Inf`/`_sum`/`_count` always present.
    #[test]
    fn exposition_format_is_golden() {
        let registry = Registry::new();
        let requests = registry.counter(
            "multiem_requests_total",
            "Requests routed.",
            "endpoint=\"match\",status=\"2xx\"",
        );
        let rejected = registry.counter(
            "multiem_requests_total",
            "Requests routed.",
            "endpoint=\"ingest\",status=\"429\"",
        );
        let uptime = registry.gauge("multiem_uptime_seconds", "Seconds since start.", "");
        let latency = registry.histogram(
            "multiem_request_duration_seconds",
            "End-to-end latency.",
            "endpoint=\"match\"",
        );
        requests.add(5);
        rejected.inc();
        uptime.set(42.0);
        // 10 ns lands in the one-per-value linear range (le = 1e-8 s);
        // 100_000 ns lands in the bucket [98304, 102400) → le 0.000102399 s.
        latency.record(10);
        latency.record(10);
        latency.record(100_000);

        let expected = "\
# HELP multiem_requests_total Requests routed.
# TYPE multiem_requests_total counter
multiem_requests_total{endpoint=\"match\",status=\"2xx\"} 5
multiem_requests_total{endpoint=\"ingest\",status=\"429\"} 1
# HELP multiem_uptime_seconds Seconds since start.
# TYPE multiem_uptime_seconds gauge
multiem_uptime_seconds 42
# HELP multiem_request_duration_seconds End-to-end latency.
# TYPE multiem_request_duration_seconds histogram
multiem_request_duration_seconds_bucket{endpoint=\"match\",le=\"0.00000001\"} 2
multiem_request_duration_seconds_bucket{endpoint=\"match\",le=\"0.000102399\"} 3
multiem_request_duration_seconds_bucket{endpoint=\"match\",le=\"+Inf\"} 3
multiem_request_duration_seconds_sum{endpoint=\"match\"} 0.00010002
multiem_request_duration_seconds_count{endpoint=\"match\"} 3
";
        assert_eq!(registry.render(), expected);
    }

    #[test]
    fn empty_histograms_still_render_complete_families() {
        let registry = Registry::new();
        registry.histogram("latency_seconds", "Latency.", "");
        let rendered = registry.render();
        assert!(rendered.contains("latency_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(rendered.contains("latency_seconds_sum 0\n"));
        assert!(rendered.contains("latency_seconds_count 0\n"));
    }
}
