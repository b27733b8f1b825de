//! Slow-request exemplars: keep the traces of the worst requests around.
//!
//! Sampled tracing (PR 6) answers "what does a typical request look like";
//! the question after an SLO blip is "show me the request that just blew
//! it". An [`ExemplarRing`] retains the full span [`Trace`]s of the
//! slowest requests of the current rolling window (plus the previous
//! window, so a spike remains inspectable for a while after it ends),
//! retrievable as JSON from `GET /debug/slow` — no log spelunking, no
//! hoping the sampler picked the outlier.
//!
//! Cost discipline: admission is pre-filtered by two relaxed atomic loads
//! (the floor — the slowest ring's *fastest* member); only requests that
//! would actually displace an exemplar take the ring's mutex. Under steady
//! traffic almost every request fails the floor check and pays nothing.

use super::trace::Trace;
use super::window::Rotation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One retained slow request: the finished trace plus the request facts the
/// trace alone does not carry.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The finished span stack (spans sum to `total_ns`).
    pub trace: Trace,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Wall-clock milliseconds since the Unix epoch at completion.
    pub ts_ms: u64,
}

/// Fixed-capacity ring of the slowest requests per rolling window. See the
/// [module docs](self).
#[derive(Debug)]
pub struct ExemplarRing {
    capacity: usize,
    /// Admission floor: requests at or below this latency cannot enter the
    /// live window's ring. Valid only for the window `floor_stamp` holds
    /// and any before it (a late request joins the live window); `0` admits
    /// everything (ring not full, or window just rotated).
    floor_ns: AtomicU64,
    floor_stamp: AtomicU64,
    inner: Mutex<Rotation<Vec<Exemplar>>>,
}

impl ExemplarRing {
    /// A ring keeping the `capacity` slowest requests per window.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            floor_ns: AtomicU64::new(0),
            floor_stamp: AtomicU64::new(0),
            inner: Mutex::new(Rotation::new(Vec::new())),
        }
    }

    /// Cheap pre-check (two relaxed loads) for whether a request of
    /// `total_ns` could enter the window `window_epoch` — lets callers skip
    /// building the [`Exemplar`] (string clones) for the overwhelming
    /// majority of requests. Racy in the admitting direction only: a `true`
    /// may still be rejected under the lock, a `false` is always final.
    pub fn admits(&self, window_epoch: u64, total_ns: u64) -> bool {
        // relaxed-ok: advisory admission filter; the mutex path re-checks
        let sealed_stamp = self.floor_stamp.load(Ordering::Relaxed);
        // relaxed-ok: advisory admission filter; the mutex path re-checks
        let floor_ns = self.floor_ns.load(Ordering::Relaxed);
        !(sealed_stamp > window_epoch && total_ns <= floor_ns)
    }

    /// Offer one finished request to the window `window_epoch` (or the live
    /// one, when a later window already began). Fast-path rejects (two
    /// relaxed loads) when the request is no slower than the live window's
    /// floor; otherwise displaces the fastest retained exemplar under the
    /// mutex.
    pub fn offer(&self, window_epoch: u64, exemplar: Exemplar) {
        if !self.admits(window_epoch, exemplar.total_ns) {
            return;
        }
        let mut inner = crate::sync::lock_unpoisoned(&self.inner);
        self.advance(&mut inner, window_epoch);
        let current = &mut inner.current;
        if current.len() < self.capacity {
            current.push(exemplar);
        } else {
            // The ring is at capacity (> 0), so a fastest entry exists; the
            // `else` keeps the path panic-free regardless.
            let Some((at, fastest)) = current
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_ns)
                .map(|(i, e)| (i, e.total_ns))
            else {
                return;
            };
            if exemplar.total_ns <= fastest {
                return;
            }
            current[at] = exemplar;
        }
        if current.len() == self.capacity {
            // Publish the new floor for the fast-path filter.
            let floor = current.iter().map(|e| e.total_ns).min().unwrap_or(0);
            // relaxed-ok: advisory admission filter; the mutex path re-checks
            self.floor_ns.store(floor, Ordering::Relaxed);
            // relaxed-ok: advisory admission filter; the mutex path re-checks
            self.floor_stamp.store(inner.stamp(), Ordering::Relaxed);
        }
    }

    /// The retained exemplars as of `window_epoch` — current window first,
    /// then the previous one, each slowest-first.
    pub fn snapshot_at(&self, window_epoch: u64) -> Vec<Exemplar> {
        let mut inner = crate::sync::lock_unpoisoned(&self.inner);
        self.advance(&mut inner, window_epoch);
        let mut current = inner.current.clone();
        let mut previous = inner.previous.clone();
        drop(inner);
        current.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        previous.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        current.extend(previous);
        current
    }

    /// [`Rotation::advance`], resetting the admission floor when it rotates.
    fn advance(&self, inner: &mut Rotation<Vec<Exemplar>>, window_epoch: u64) {
        if inner.advance(window_epoch) {
            // relaxed-ok: advisory admission filter; the mutex path re-checks
            self.floor_ns.store(0, Ordering::Relaxed);
            // relaxed-ok: advisory admission filter; the mutex path re-checks
            self.floor_stamp.store(inner.stamp(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar(id: u64, total_ns: u64) -> Exemplar {
        let mut trace = Trace::new(id, false);
        trace.finish(total_ns);
        Exemplar {
            trace,
            method: "POST".into(),
            path: "/match".into(),
            status: 200,
            total_ns,
            ts_ms: 0,
        }
    }

    #[test]
    fn ring_keeps_the_slowest_of_the_window() {
        let ring = ExemplarRing::new(3);
        for (id, ns) in [
            (1, 500),
            (2, 9_000),
            (3, 100),
            (4, 7_000),
            (5, 8_000),
            (6, 50),
        ] {
            ring.offer(0, exemplar(id, ns));
        }
        let kept = ring.snapshot_at(0);
        let ids: Vec<u64> = kept.iter().map(|e| e.trace.id).collect();
        // Slowest three, slowest first; the fast requests never displaced
        // anything.
        assert_eq!(ids, [2, 5, 4]);
        assert_eq!(kept[0].total_ns, 9_000);
    }

    #[test]
    fn windows_rotate_and_previous_stays_visible() {
        let ring = ExemplarRing::new(2);
        ring.offer(3, exemplar(1, 1_000));
        ring.offer(3, exemplar(2, 2_000));
        ring.offer(3, exemplar(3, 3_000)); // displaces id 1

        // Next window: the previous window's exemplars remain retrievable
        // behind the current (empty, then refilling) window's.
        ring.offer(4, exemplar(9, 10));
        let kept = ring.snapshot_at(4);
        let ids: Vec<u64> = kept.iter().map(|e| e.trace.id).collect();
        assert_eq!(ids, [9, 3, 2]);

        // A fast request is admitted again after rotation reset the floor.
        assert_eq!(kept[0].total_ns, 10);

        // Jumping windows clears everything.
        assert!(ring.snapshot_at(9).is_empty());
    }

    #[test]
    fn a_late_request_joins_the_live_window() {
        // Request 3 is stamped with window 5 after window 6 began: it joins
        // window 6 beside request 2 instead of rotating both rings away.
        let ring = ExemplarRing::new(4);
        ring.offer(5, exemplar(1, 1_000));
        ring.offer(6, exemplar(2, 3_000));
        ring.offer(5, exemplar(3, 2_000));
        let ids: Vec<u64> = ring.snapshot_at(6).iter().map(|e| e.trace.id).collect();
        assert_eq!(ids, [2, 3, 1]);
    }
}
