//! Rolling time-window telemetry: "p99 over the last N seconds".
//!
//! Cumulative histograms answer lifetime questions; operators watching live
//! traffic need *recent* ones. A [`WindowedHistogram`] is a small ring of
//! the existing lock-free log-linear [`Histogram`]s, one per **sub-window**
//! of the rolling window ([`WINDOW_SLOTS`] sub-windows of
//! `window_secs / WINDOW_SLOTS` seconds each). Recording stays the same two
//! relaxed atomic adds plus one epoch load; rotation is lazy — the first
//! sample landing in a sub-window whose ring slot still holds an expired
//! epoch recycles the slot (the one caller that moves its stamp forward
//! clears the histogram). No timer thread, no rotation lock.
//!
//! Queries merge every slot still inside the window — the current, partial
//! sub-window included — so a windowed quantile covers the last
//! `window_secs`-ish seconds of traffic and carries the same
//! one-bucket-width accuracy guarantee as the cumulative histograms.
//! The boundaries are telemetry-grade, not exact: a sample racing a slot
//! recycle can land in either generation, and a slot expires in
//! sub-window granularity.
//!
//! [`WorkloadWindows`] bundles the rings the server actually keeps — one
//! per [`Endpoint`] for end-to-end latency, plus one for WAL fsync latency
//! (the `/readyz` degradation signal) — behind a shared [`WindowClock`].

use super::histogram::{Histogram, HistogramSnapshot};
use super::Endpoint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-windows per rolling window: enough that an expiring sub-window only
/// drops ~1/4 of the window at once, few enough that a query merges a
/// handful of snapshots.
pub const WINDOW_SLOTS: usize = 4;

/// Length of the server's rolling analytics window in seconds.
pub const WINDOW_SECS: u64 = 60;

/// Keys each of the server's heavy-hitter sketches tracks per window:
/// comfortably above the handful of genuinely hot sources, shards or
/// entities, so the top entries are exact.
pub const TOPK_CAPACITY: usize = 16;

/// Slowest-request exemplars the server retains per window.
pub const EXEMPLAR_CAPACITY: usize = 8;

/// Translates wall time into sub-window epochs (shared by every ring so
/// "the current window" means the same thing everywhere).
#[derive(Debug)]
pub struct WindowClock {
    started: Instant,
    slot_secs: u64,
}

impl WindowClock {
    /// A clock carving `window_secs` into [`WINDOW_SLOTS`] sub-windows (at
    /// least one second each).
    pub fn new(window_secs: u64) -> Self {
        Self {
            started: Instant::now(),
            slot_secs: (window_secs / WINDOW_SLOTS as u64).max(1),
        }
    }

    /// The effective rolling-window length in seconds (the configured value
    /// rounded to whole sub-windows).
    pub fn window_secs(&self) -> u64 {
        self.slot_secs * WINDOW_SLOTS as u64
    }

    /// Current sub-window ordinal since startup.
    pub fn epoch(&self) -> u64 {
        self.started.elapsed().as_secs() / self.slot_secs
    }

    /// Seconds of traffic the rolling window covers right now: full
    /// sub-windows plus the elapsed part of the current one, clamped to the
    /// uptime (a freshly started server has not seen a whole window yet).
    pub fn covered_secs(&self) -> f64 {
        let uptime = self.started.elapsed().as_secs_f64();
        let in_slot = (uptime - (self.epoch() * self.slot_secs) as f64).max(0.0);
        (((WINDOW_SLOTS as u64 - 1) * self.slot_secs) as f64 + in_slot).min(uptime)
    }
}

/// One ring slot: the sub-window epoch it holds (+1, so `0` means "never
/// written") and that sub-window's histogram.
#[derive(Debug)]
struct WindowSlot {
    stamp: AtomicU64,
    hist: Histogram,
}

/// A ring of [`WINDOW_SLOTS`] histograms over consecutive sub-windows. See
/// the [module docs](self).
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: Vec<WindowSlot>,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// An empty ring.
    pub fn new() -> Self {
        Self {
            slots: (0..WINDOW_SLOTS)
                .map(|_| WindowSlot {
                    stamp: AtomicU64::new(0),
                    hist: Histogram::new(),
                })
                .collect(),
        }
    }

    /// Record one sample into the sub-window of `epoch`, lazily recycling
    /// the ring slot if it holds an expired sub-window (whoever moves its
    /// stamp forward clears it). A slot never moves backwards: a sample
    /// stamped older than the slot — a worker that read the clock just
    /// before a boundary — counts toward the live sub-window.
    pub fn record_at(&self, epoch: u64, value: u64) {
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let stamp = epoch + 1;
        // relaxed-ok: lazy slot recycling; racers land in either generation (see doc)
        let seen = slot.stamp.load(Ordering::Relaxed);
        // relaxed-ok: lazy slot recycling; racers land in either generation (see doc)
        if seen < stamp && slot.stamp.fetch_max(stamp, Ordering::Relaxed) < stamp {
            slot.hist.clear();
        }
        slot.hist.record(value);
    }

    /// Merged snapshot of every sub-window still inside the rolling window
    /// at `epoch` — the current, partial sub-window included, so a windowed
    /// p99 reflects traffic up to "now", not up to the last rotation.
    /// Empty (quantiles answer `None`) when the window saw no samples.
    pub fn merged_at(&self, epoch: u64) -> HistogramSnapshot {
        let window = self.slots.len() as u64;
        let mut merged = HistogramSnapshot::default();
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Relaxed); // relaxed-ok: monitoring read; a racing rotation skews one snapshot
            if stamp == 0 {
                continue;
            }
            let slot_epoch = stamp - 1;
            if slot_epoch > epoch || epoch - slot_epoch >= window {
                continue; // future (racing writer) or expired sub-window
            }
            merged.merge(&slot.hist.snapshot());
        }
        merged
    }
}

/// A value per analytics window, the live one and the one before it — the
/// one rotation the heavy-hitter sketches ([`super::WindowedTopK`]) and the
/// exemplar ring ([`super::ExemplarRing`]) share. Rotation is lazy: the
/// first hit or query stamped with a later window moves `current` to
/// `previous` (or empties both after an idle gap). Like
/// [`WindowedHistogram::record_at`] it never moves backwards: a caller
/// stamped with an older window lands in the live one.
#[derive(Debug)]
pub struct Rotation<T> {
    /// Window epoch of `current`, +1 (`0` = nothing recorded yet).
    stamp: u64,
    /// What a window starts as.
    empty: T,
    /// The live window.
    pub current: T,
    /// The window before it (empty after an idle gap).
    pub previous: T,
}

impl<T: Clone> Rotation<T> {
    /// Both windows `empty`.
    pub fn new(empty: T) -> Self {
        Self {
            stamp: 0,
            current: empty.clone(),
            previous: empty.clone(),
            empty,
        }
    }

    /// The window epoch `current` belongs to, +1 (`0` before any).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Rotate so `current` belongs to `window_epoch`, unless it already
    /// belongs to that window or a later one. Whether it rotated.
    pub fn advance(&mut self, window_epoch: u64) -> bool {
        let stamp = window_epoch + 1;
        if stamp <= self.stamp {
            return false;
        }
        self.previous = std::mem::replace(&mut self.current, self.empty.clone());
        if self.stamp + 1 != stamp {
            self.previous.clone_from(&self.empty); // an idle gap
        }
        self.stamp = stamp;
        true
    }
}

/// The server's rolling windows: one latency ring per [`Endpoint`] plus one
/// for WAL fsync latency, on a shared clock.
#[derive(Debug)]
pub struct WorkloadWindows {
    clock: WindowClock,
    endpoints: Vec<WindowedHistogram>,
    fsync: WindowedHistogram,
}

impl WorkloadWindows {
    /// Windows of `window_secs` (rounded to whole sub-windows, minimum
    /// [`WINDOW_SLOTS`] seconds).
    pub fn new(window_secs: u64) -> Self {
        Self {
            clock: WindowClock::new(window_secs),
            endpoints: Endpoint::ALL
                .iter()
                .map(|_| WindowedHistogram::new())
                .collect(),
            fsync: WindowedHistogram::new(),
        }
    }

    /// The effective rolling-window length in seconds.
    pub fn window_secs(&self) -> u64 {
        self.clock.window_secs()
    }

    /// The current *full-window* ordinal (sub-window epoch divided by the
    /// ring size) — the rotation clock the top-K sketches and exemplar
    /// rings share, so "this window" means the same period everywhere.
    pub fn window_epoch(&self) -> u64 {
        self.clock.epoch() / WINDOW_SLOTS as u64
    }

    /// Seconds of traffic the window covers right now (denominator of the
    /// `*_rate` series).
    pub fn covered_secs(&self) -> f64 {
        self.clock.covered_secs()
    }

    /// Record one finished request's end-to-end latency.
    pub fn record_request(&self, endpoint: Endpoint, total_ns: u64) {
        self.endpoints[endpoint.index()].record_at(self.clock.epoch(), total_ns);
    }

    /// Record one WAL fsync's latency.
    pub fn record_fsync(&self, ns: u64) {
        self.fsync.record_at(self.clock.epoch(), ns);
    }

    /// Merged latency snapshot of `endpoint` over the rolling window.
    pub fn endpoint_window(&self, endpoint: Endpoint) -> HistogramSnapshot {
        self.endpoints[endpoint.index()].merged_at(self.clock.epoch())
    }

    /// Merged fsync-latency snapshot over the rolling window.
    pub fn fsync_window(&self) -> HistogramSnapshot {
        self.fsync.merged_at(self.clock.epoch())
    }

    /// Requests/second `count` samples amount to over the covered window.
    pub fn rate(&self, count: u64) -> f64 {
        count as f64 / self.covered_secs().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_windows_answer_empty() {
        let ring = WindowedHistogram::new();
        for epoch in [0, 1, 17, u64::MAX / 2] {
            let merged = ring.merged_at(epoch);
            assert_eq!(merged.count(), 0);
            assert_eq!(merged.quantile(0.99), None);
            assert_eq!(merged.quantile_ms(0.5), 0.0);
        }
        let windows = WorkloadWindows::new(60);
        assert_eq!(windows.endpoint_window(Endpoint::Match).count(), 0);
        assert_eq!(windows.fsync_window().count(), 0);
        assert_eq!(windows.rate(0), 0.0);
    }

    #[test]
    fn quantiles_span_a_rotation_boundary() {
        // Samples recorded just before and just after a sub-window boundary
        // are both inside the rolling window: the merged quantile sees them
        // all, exactly as if no rotation had happened.
        let ring = WindowedHistogram::new();
        let reference = Histogram::new();
        for i in 0..100u64 {
            let value = (i + 1) * 1_000;
            // Half the samples land in epoch 6, half in epoch 7.
            ring.record_at(6 + i % 2, value);
            reference.record(value);
        }
        let merged = ring.merged_at(7);
        assert_eq!(merged.count(), 100);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), reference.snapshot().quantile(q));
        }
        // One epoch later the epoch-6 sub-window is still live...
        assert_eq!(ring.merged_at(8).count(), 100);
        // ...but WINDOW_SLOTS epochs past it, it has expired.
        assert_eq!(ring.merged_at(6 + WINDOW_SLOTS as u64).count(), 50);
    }

    #[test]
    fn slots_recycle_for_new_epochs() {
        let ring = WindowedHistogram::new();
        for _ in 0..10 {
            ring.record_at(0, 500);
        }
        // Epoch WINDOW_SLOTS maps onto epoch 0's slot: the first write
        // recycles it, so the old generation is gone even from queries that
        // would still have admitted epoch 0 data.
        let epoch = WINDOW_SLOTS as u64;
        ring.record_at(epoch, 9_000);
        let merged = ring.merged_at(epoch);
        assert_eq!(merged.count(), 1);
        assert!(merged.quantile(0.5).unwrap() >= 9_000);

        // Stale epochs older than every live slot contribute nothing.
        assert_eq!(ring.merged_at(epoch + WINDOW_SLOTS as u64).count(), 0);
    }

    #[test]
    fn a_late_sample_counts_toward_the_live_subwindow() {
        // Epochs 8 and 4 share a slot. A sample stamped 4 after the slot
        // moved on to 8 (a worker that read the clock before the boundary)
        // joins sub-window 8 instead of recycling the slot back to 4.
        let ring = WindowedHistogram::new();
        ring.record_at(8, 1_000);
        ring.record_at(4, 2_000);
        assert_eq!(ring.merged_at(8).count(), 2);
    }

    #[test]
    fn rotation_never_moves_backwards() {
        let mut rotation = Rotation::new(Vec::new());
        assert!(rotation.advance(5));
        rotation.current.push("a");
        assert!(rotation.advance(6));
        rotation.current.push("b");
        assert!(!rotation.advance(5));
        rotation.current.push("c");
        assert_eq!(
            (rotation.current.clone(), rotation.previous.clone()),
            (vec!["b", "c"], vec!["a"])
        );
        // An idle gap empties both.
        assert!(rotation.advance(9));
        assert!(rotation.current.is_empty() && rotation.previous.is_empty());
        assert_eq!(rotation.stamp(), 10);
    }

    #[test]
    fn clock_rounds_to_whole_subwindows() {
        let clock = WindowClock::new(60);
        assert_eq!(clock.window_secs(), 60);
        // Too-small windows clamp to one second per sub-window.
        let tiny = WindowClock::new(1);
        assert_eq!(tiny.window_secs(), WINDOW_SLOTS as u64);
        // 30s / 4 slots rounds down to 7s sub-windows -> 28s effective.
        let odd = WindowClock::new(30);
        assert_eq!(odd.window_secs(), 28);
        assert!(clock.covered_secs() >= 0.0);
        let windows = WorkloadWindows::new(60);
        assert_eq!(windows.window_epoch(), 0);
    }
}
