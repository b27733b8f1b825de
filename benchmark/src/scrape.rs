//! Server-side numbers: `/stats` JSON and the Prometheus text of `/metrics`.

use crate::json::{self, Value};
use crate::Metrics;
use std::collections::BTreeMap;

/// The nine request stages the server traces, in pipeline order.
pub const STAGES: [&str; 9] = [
    "parse",
    "queue_wait",
    "fan_out",
    "ann_search",
    "rank_merge",
    "wal_append",
    "fsync",
    "apply",
    "respond",
];

/// One sample line of the text exposition.
struct Sample<'a> {
    name: &'a str,
    labels: Vec<(&'a str, &'a str)>,
    value: f64,
}

impl Sample<'_> {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

fn samples(text: &str) -> impl Iterator<Item = Sample<'_>> {
    text.lines().filter_map(|line| {
        if line.starts_with('#') {
            return None;
        }
        let (series, value) = line.rsplit_once(' ')?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            v => v.parse().ok()?,
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .trim_end_matches('}')
                    .split(',')
                    .filter_map(|pair| {
                        let (k, v) = pair.split_once('=')?;
                        Some((k, v.trim_matches('"')))
                    })
                    .collect();
                (name, labels)
            }
            None => (series, Vec::new()),
        };
        Some(Sample {
            name,
            labels,
            value,
        })
    })
}

/// Value of an unlabelled series (`0.0` when absent).
pub fn plain(text: &str, name: &str) -> f64 {
    samples(text)
        .find(|s| s.name == name && s.labels.is_empty())
        .map_or(0.0, |s| s.value)
}

/// `multiem_requests_total{endpoint, status="2xx"}`.
pub fn requests_2xx(text: &str, endpoint: &str) -> u64 {
    samples(text)
        .find(|s| {
            s.name == "multiem_requests_total"
                && s.label("endpoint") == Some(endpoint)
                && s.label("status") == Some("2xx")
        })
        .map_or(0, |s| s.value as u64)
}

/// One histogram series with per-bucket (not cumulative) counts, keyed by
/// the bits of the bucket's upper bound (positive floats order by bits).
#[derive(Default)]
struct Histogram {
    sum: f64,
    count: f64,
    buckets: BTreeMap<u64, f64>,
}

impl Histogram {
    fn read(text: &str, family: &str, label: (&str, &str)) -> Self {
        let mut hist = Self::default();
        let mut cumulative: Vec<(f64, f64)> = Vec::new();
        for s in samples(text).filter(|s| s.label(label.0) == Some(label.1)) {
            match s.name.strip_prefix(family) {
                Some("_sum") => hist.sum = s.value,
                Some("_count") => hist.count = s.value,
                Some("_bucket") => {
                    let le = match s.label("le") {
                        Some("+Inf") => f64::INFINITY,
                        Some(le) => le.parse().unwrap_or(f64::INFINITY),
                        None => continue,
                    };
                    cumulative.push((le, s.value));
                }
                _ => {}
            }
        }
        cumulative.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut below = 0.0;
        for (le, cum) in cumulative {
            hist.buckets.insert(le.to_bits(), cum - below);
            below = cum;
        }
        hist
    }

    /// What was recorded between two scrapes.
    fn since(mut self, before: &Self) -> Self {
        self.sum -= before.sum;
        self.count -= before.count;
        for (le, n) in &before.buckets {
            *self.buckets.entry(*le).or_default() -= n;
        }
        self
    }

    /// Upper bound of the bucket holding the median (the server's buckets
    /// are ≤ ~6% wide); `0.0` for an empty histogram.
    fn p50(&self) -> f64 {
        let mut seen = 0.0;
        for (le, n) in &self.buckets {
            seen += n;
            if self.count > 0.0 && seen * 2.0 >= self.count {
                let le = f64::from_bits(*le);
                return if le.is_finite() { le } else { 0.0 };
            }
        }
        0.0
    }
}

/// Per-stage medians and shares and server-side request medians of the
/// measured phase: the difference between a `/metrics` scrape taken after
/// preload and one taken at the end.
pub fn stage_metrics(before: &str, after: &str, m: &mut Metrics) {
    let delta = |family: &str, label: (&str, &str)| {
        Histogram::read(after, family, label).since(&Histogram::read(before, family, label))
    };
    let request_sum = |text: &str| -> f64 {
        samples(text)
            .filter(|s| s.name == "multiem_request_duration_seconds_sum")
            .map(|s| s.value)
            .sum()
    };
    let request_sum = request_sum(after) - request_sum(before);
    let mut share_sum = 0.0;
    for stage in STAGES {
        let hist = delta("multiem_stage_duration_seconds", ("stage", stage));
        let share = if request_sum > 0.0 {
            hist.sum / request_sum
        } else {
            0.0
        };
        share_sum += share;
        m.insert(format!("serve.stage.{stage}_us"), hist.p50() * 1e6);
        m.insert(format!("serve.stage.{stage}_share"), share);
    }
    m.insert("serve.stage.share_sum".into(), share_sum);
    for (metric, endpoint) in [("match", "match"), ("ingest", "records")] {
        let hist = delta("multiem_request_duration_seconds", ("endpoint", endpoint));
        m.insert(format!("serve.server.{metric}_p50_ms"), hist.p50() * 1e3);
    }
}

/// Store and storage counters from `GET /stats`.
pub fn store_metrics(stats: &Value, m: &mut Metrics) {
    let shards = json::get(stats, "shards")
        .and_then(Value::as_seq)
        .unwrap_or(&[]);
    let total = |name: &str| shards.iter().map(|s| json::num(s, name)).sum::<f64>();
    let nodes = total("index_nodes");
    m.insert("online.store.index_nodes".into(), nodes);
    m.insert(
        "online.store.stale_ratio".into(),
        if nodes > 0.0 {
            total("stale_nodes") / nodes
        } else {
            0.0
        },
    );
    m.insert("online.store.rebuilds".into(), total("rebuilds"));
    m.insert("online.store.clusters".into(), json::num(stats, "clusters"));
    m.insert(
        "online.store.pruned_outliers".into(),
        json::num(stats, "pruned_outliers"),
    );
    m.insert("serve.queue.rejected".into(), json::num(stats, "rejected"));

    let null = Value::Null;
    let storage = json::get(stats, "storage").unwrap_or(&null);
    let (hits, misses) = (
        json::num(storage, "cache_hits"),
        json::num(storage, "cache_misses"),
    );
    m.insert(
        "online.storage.cache_hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.insert(
        "online.storage.segments".into(),
        json::num(storage, "segments"),
    );
    m.insert(
        "online.storage.compactions".into(),
        json::num(storage, "compactions"),
    );
    m.insert(
        "online.storage.reclaimed_mb".into(),
        json::num(storage, "reclaimed_bytes") / 1e6,
    );
    m.insert(
        "online.storage.resident_mb".into(),
        json::num(storage, "resident_bytes") / 1e6,
    );
    m.insert(
        "online.storage.spilled_mb".into(),
        json::num(storage, "spilled_bytes") / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP multiem_requests_total Requests by endpoint and status class.
multiem_requests_total{endpoint=\"match\",status=\"2xx\"} 12
multiem_requests_total{endpoint=\"match\",status=\"4xx\"} 1
multiem_request_duration_seconds_sum{endpoint=\"match\"} 0.5
multiem_request_duration_seconds_sum{endpoint=\"records\"} 0.5
multiem_stage_duration_seconds_bucket{stage=\"fsync\",le=\"0.001\"} 1
multiem_stage_duration_seconds_bucket{stage=\"fsync\",le=\"0.002\"} 3
multiem_stage_duration_seconds_bucket{stage=\"fsync\",le=\"+Inf\"} 4
multiem_stage_duration_seconds_sum{stage=\"fsync\"} 0.25
multiem_stage_duration_seconds_count{stage=\"fsync\"} 4
multiem_wal_fsyncs_total 4
";

    #[test]
    fn reads_counters_and_histograms() {
        assert_eq!(requests_2xx(TEXT, "match"), 12);
        assert_eq!(requests_2xx(TEXT, "records"), 0);
        assert_eq!(plain(TEXT, "multiem_wal_fsyncs_total"), 4.0);
        let mut m = Metrics::new();
        stage_metrics("", TEXT, &mut m);
        assert_eq!(m["serve.stage.fsync_us"], 2000.0);
        assert_eq!(m["serve.stage.fsync_share"], 0.25);
        assert_eq!(m["serve.stage.parse_us"], 0.0);
        assert_eq!(m["serve.stage.share_sum"], 0.25);
        // Against an earlier scrape only the difference counts: one fast
        // fsync before, so the three since then have their median at 2 ms
        // and a quarter less time.
        let before = "\
multiem_request_duration_seconds_sum{endpoint=\"records\"} 0.5
multiem_stage_duration_seconds_bucket{stage=\"fsync\",le=\"0.001\"} 1
multiem_stage_duration_seconds_bucket{stage=\"fsync\",le=\"+Inf\"} 1
multiem_stage_duration_seconds_sum{stage=\"fsync\"} 0.0625
multiem_stage_duration_seconds_count{stage=\"fsync\"} 1
";
        stage_metrics(before, TEXT, &mut m);
        assert_eq!(m["serve.stage.fsync_us"], 2000.0);
        assert_eq!(m["serve.stage.fsync_share"], 0.375);
    }
}
