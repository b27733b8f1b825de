//! Per-request tracing: a span stack over the serving pipeline's stages.
//!
//! Every request gets a [`Trace`] — a monotonically assigned id plus one
//! duration slot per pipeline [`Stage`] — filled in as the request moves
//! parse → queue-wait → shard fan-out → ANN search → rank-merge → WAL
//! append → fsync. At completion [`Trace::finish`] assigns whatever wall
//! time the marked stages don't account for to [`Stage::Respond`], so the
//! spans of an emitted trace **always sum exactly to the request's
//! end-to-end latency** (the same number the access log reports).
//!
//! The [`Tracer`] decides which traces leave the process: an every-Nth
//! deterministic sampler driven by `--trace-sample-rate` (the request-id
//! counter — no RNG on the hot path) plus a `--slow-request-ms` threshold that
//! force-emits outliers regardless of sampling. Emitted traces are JSON
//! lines on the structured logger (`"event":"trace"`), one object per
//! request, spans keyed by stage name in nanoseconds.

use super::log::Logger;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Nanoseconds since `started`, saturated into a `u64` (what a span holds).
pub fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Pipeline stages a request can spend time in, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// HTTP head/body parsing in the I/O loop plus JSON body decoding.
    Parse,
    /// Dispatch onto the worker pool until a worker picks the request up.
    QueueWait,
    /// Fan-out coordination around the parallel shard section (scatter +
    /// gather overhead beyond the slowest shard's own search time).
    FanOut,
    /// ANN search inside the shards (critical path: the slowest shard).
    AnnSearch,
    /// Merging per-shard ranked candidates into the final top-k.
    RankMerge,
    /// Appending frames to the write-ahead log (buffered write + flush).
    WalAppend,
    /// Waiting on `fdatasync` for durability (policy-dependent).
    Fsync,
    /// Applying writes/deletes to the in-memory shards.
    Apply,
    /// Residual: response rendering, routing and anything unmarked —
    /// computed by [`Trace::finish`] so spans sum to the total.
    Respond,
}

impl Stage {
    /// Number of stages (size of a trace's span array).
    pub const COUNT: usize = 9;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::FanOut,
        Stage::AnnSearch,
        Stage::RankMerge,
        Stage::WalAppend,
        Stage::Fsync,
        Stage::Apply,
        Stage::Respond,
    ];

    /// The stage's snake_case name (trace JSON key, `stage` metric label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::FanOut => "fan_out",
            Stage::AnnSearch => "ann_search",
            Stage::RankMerge => "rank_merge",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Apply => "apply",
            Stage::Respond => "respond",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One request's span stack: an id plus a duration per [`Stage`].
#[derive(Debug, Clone)]
pub struct Trace {
    /// Monotonically assigned request id (also the access-log `request_id`).
    pub id: u64,
    /// Whether the sampler picked this request at admission.
    pub sampled: bool,
    spans: [u64; Stage::COUNT],
    fan_out_width: u64,
}

impl Trace {
    /// An empty trace (normally obtained from [`Tracer::start`]).
    pub fn new(id: u64, sampled: bool) -> Self {
        Self {
            id,
            sampled,
            spans: [0; Stage::COUNT],
            fan_out_width: 0,
        }
    }

    /// Add `ns` to `stage` (accumulates across calls — e.g. two WAL batches
    /// in one request fold into one `wal_append` span).
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.spans[stage.index()] = self.spans[stage.index()].saturating_add(ns);
    }

    /// Duration recorded for `stage` so far.
    pub fn get(&self, stage: Stage) -> u64 {
        self.spans[stage.index()]
    }

    /// Record how many shards the request fanned out to.
    pub fn set_fan_out_width(&mut self, shards: u64) {
        self.fan_out_width = shards;
    }

    /// Shards this request fanned out to (0 for non-search requests).
    pub fn fan_out_width(&self) -> u64 {
        self.fan_out_width
    }

    /// Close the trace against the request's end-to-end duration:
    /// [`Stage::Respond`] becomes `total_ns` minus everything marked, so the
    /// span sum equals `total_ns` exactly (clamped — if markers overlap and
    /// overshoot, the residual is 0 and the sum can only undershoot by that
    /// measurement overlap, never drift unbounded).
    pub fn finish(&mut self, total_ns: u64) {
        let marked: u64 = Stage::ALL
            .iter()
            .filter(|s| !matches!(s, Stage::Respond))
            .map(|s| self.spans[s.index()])
            .sum();
        self.spans[Stage::Respond.index()] = total_ns.saturating_sub(marked);
    }

    /// `(stage, ns)` pairs for every stage with a nonzero duration, in
    /// pipeline order.
    pub fn spans(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL
            .into_iter()
            .filter(|s| self.spans[s.index()] > 0)
            .map(|s| (s, self.spans[s.index()]))
    }

    /// Sum of all recorded spans (equals the `total_ns` given to
    /// [`Trace::finish`] once finished).
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().sum()
    }
}

/// Hands out request ids and decides which traces get emitted.
#[derive(Debug)]
pub struct Tracer {
    /// Emit every Nth request (0 = sampling off).
    sample_every: u64,
    /// Force-emit any request at least this slow (0 = threshold off).
    slow_ns: u64,
    /// Requests admitted so far: the last id handed out, and the sampler's
    /// tick.
    seq: AtomicU64,
}

impl Tracer {
    /// A tracer sampling at `sample_rate` (0.0..=1.0, mapped to a
    /// deterministic every-Nth stride) and force-emitting requests slower
    /// than `slow_request_ms` (0 disables the threshold).
    pub fn new(sample_rate: f64, slow_request_ms: u64) -> Self {
        let sample_every = if sample_rate <= 0.0 {
            0
        } else if sample_rate >= 1.0 {
            1
        } else {
            (1.0 / sample_rate).round().max(1.0) as u64
        };
        Self {
            sample_every,
            slow_ns: slow_request_ms.saturating_mul(1_000_000),
            seq: AtomicU64::new(0),
        }
    }

    /// Admit one request: assign the next id and roll the sampler (ids
    /// `1, 1 + N, 1 + 2N, ...` are sampled).
    pub fn start(&self) -> Trace {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed); // relaxed-ok: id dispenser; only RMW uniqueness matters
        let sampled = self.sample_every != 0 && seq.is_multiple_of(self.sample_every);
        Trace::new(seq + 1, sampled)
    }

    /// Whether a finished trace should be written out: sampled at admission,
    /// or slower than the `--slow-request-ms` threshold.
    pub fn should_emit(&self, trace: &Trace, total_ns: u64) -> bool {
        trace.sampled || (self.slow_ns > 0 && total_ns >= self.slow_ns)
    }

    /// The configured slow threshold in nanoseconds (0 = off).
    pub fn slow_ns(&self) -> u64 {
        self.slow_ns
    }
}

/// Write a finished trace as one JSON line (`"event":"trace"`) on `logger`.
/// Schema: `request_id`, `method`, `path`, `status`, `total_ns`, `slow`,
/// `fan_out` (when search fanned out), then one `<stage>_ns` field per
/// nonzero stage in pipeline order.
pub fn emit(
    logger: &Logger,
    trace: &Trace,
    method: &str,
    path: &str,
    status: u16,
    total_ns: u64,
    slow: bool,
) {
    let mut fields: Vec<(&str, Value)> = vec![
        ("request_id", Value::UInt(trace.id)),
        ("method", Value::Str(method.to_string())),
        ("path", Value::Str(path.to_string())),
        ("status", Value::UInt(u64::from(status))),
        ("total_ns", Value::UInt(total_ns)),
        ("slow", Value::Bool(slow)),
    ];
    if trace.fan_out_width() > 0 {
        fields.push(("fan_out", Value::UInt(trace.fan_out_width())));
    }
    let mut spans: Vec<(String, Value)> = Vec::new();
    for (stage, ns) in trace.spans() {
        spans.push((format!("{}_ns", stage.name()), Value::UInt(ns)));
    }
    fields.push(("spans", Value::Map(spans)));
    logger.info("trace", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respond_is_the_residual_and_spans_sum_to_total() {
        let mut trace = Trace::new(1, true);
        trace.add(Stage::Parse, 1_000);
        trace.add(Stage::QueueWait, 2_000);
        trace.add(Stage::AnnSearch, 40_000);
        trace.add(Stage::RankMerge, 3_000);
        trace.add(Stage::FanOut, 4_000);
        trace.finish(60_000);
        assert_eq!(trace.get(Stage::Respond), 10_000);
        assert_eq!(trace.total_ns(), 60_000);
        let names: Vec<&str> = trace.spans().map(|(s, _)| s.name()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "queue_wait",
                "fan_out",
                "ann_search",
                "rank_merge",
                "respond"
            ]
        );

        // Overshoot (overlapping markers) clamps the residual to zero rather
        // than wrapping.
        let mut trace = Trace::new(2, false);
        trace.add(Stage::WalAppend, 90_000);
        trace.finish(50_000);
        assert_eq!(trace.get(Stage::Respond), 0);
    }

    #[test]
    fn sampler_is_deterministic_every_nth() {
        let tracer = Tracer::new(0.25, 0);
        let sampled: Vec<bool> = (0..8).map(|_| tracer.start().sampled).collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false]
        );
        // Ids are unique and monotone regardless of sampling.
        let next = tracer.start();
        assert_eq!(next.id, 9);

        let off = Tracer::new(0.0, 0);
        assert!((0..100).all(|_| !off.start().sampled));
        let all = Tracer::new(1.0, 0);
        assert!((0..100).all(|_| all.start().sampled));
    }

    #[test]
    fn slow_requests_are_emitted_even_when_unsampled() {
        let tracer = Tracer::new(0.0, 5); // 5 ms threshold, sampling off
        let trace = tracer.start();
        assert!(!trace.sampled);
        assert!(!tracer.should_emit(&trace, 4_999_999));
        assert!(tracer.should_emit(&trace, 5_000_000));
        let no_threshold = Tracer::new(0.0, 0);
        assert!(!no_threshold.should_emit(&trace, u64::MAX));
    }
}
