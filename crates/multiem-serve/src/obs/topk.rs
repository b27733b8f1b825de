//! Space-saving heavy-hitter sketches ("which keys are hot right now").
//!
//! A [`SpaceSaving`] sketch tracks the approximate top-K of an unbounded
//! key stream in O(K) memory (Metwally et al.'s *space-saving* algorithm):
//! a hit on a tracked key increments it; a hit on an untracked key, once
//! the sketch is full, **takes over** the minimum entry — inheriting its
//! count as the new entry's error bound. The classic guarantees follow:
//! every reported `count` overestimates the key's true frequency by at most
//! its `error`, and any key whose true frequency exceeds `N / K` (N hits
//! total) is guaranteed to be in the sketch. With K comfortably above the
//! number of genuinely hot keys — the server's is 16 against a handful of
//! hot sources — the top entries are exact.
//!
//! [`WindowedTopK`] scopes a sketch to the rolling analytics window: hits
//! land in a *current* sketch that rotates to *previous* when the window
//! epoch advances (lazily, on the next hit or query), so `/debug/top`
//! answers "hottest this window" with last window still visible — not a
//! lifetime ranking frozen around yesterday's batch import.
//!
//! The server feeds three of these from the dispatch path — ingest source
//! keys (the shard-routing token), routed shard ids, and match-result
//! entities — at the cost of one short mutex over a K-entry vector per
//! hit.

use super::window::Rotation;
use std::sync::Mutex;

/// One tracked heavy hitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The key (source token, shard id, entity id, ...).
    pub key: String,
    /// Estimated hits: true frequency <= `count` <= true frequency +
    /// `error`.
    pub count: u64,
    /// Overestimation bound inherited from the entry this key took over
    /// (`0` = the count is exact).
    pub error: u64,
}

/// A fixed-capacity space-saving sketch. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<HeavyHitter>,
}

impl SpaceSaving {
    /// An empty sketch tracking at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::with_capacity(capacity.min(1024)),
        }
    }

    /// Count one occurrence of `key`. O(capacity) scan — capacities are
    /// small (16 in the server) so this stays cheaper than a hash lookup
    /// would make it look.
    pub fn hit(&mut self, key: &str) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(HeavyHitter {
                key: key.to_string(),
                count: 1,
                error: 0,
            });
            return;
        }
        // Full: the new key takes over the minimum entry, inheriting its
        // count as the error bound (the key may have occurred up to that
        // many times while untracked — never more, or it would have evicted
        // its way in earlier).
        // A full sketch (capacity > 0) always has a minimum entry; the
        // `else` keeps the path panic-free — an empty sketch drops the hit.
        let Some(min) = self.entries.iter_mut().min_by_key(|e| e.count) else {
            return;
        };
        min.error = min.count;
        min.count += 1;
        min.key.clear();
        min.key.push_str(key);
    }

    /// Tracked entries, hottest first (ties broken by smaller error, i.e.
    /// higher confidence).
    pub fn top(&self) -> Vec<HeavyHitter> {
        let mut entries = self.entries.clone();
        entries.sort_by(|a, b| b.count.cmp(&a.count).then(a.error.cmp(&b.error)));
        entries
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch tracks nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A [`SpaceSaving`] pair scoped to the rolling analytics window: `current`
/// rotates to `previous` when the window epoch advances ([`Rotation`]).
#[derive(Debug)]
pub struct WindowedTopK {
    inner: Mutex<Rotation<SpaceSaving>>,
}

impl WindowedTopK {
    /// An empty windowed sketch of `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Rotation::new(SpaceSaving::new(capacity))),
        }
    }

    /// Count one occurrence of `key` in the window `window_epoch` (or the
    /// live one, when a later window already began).
    pub fn hit_at(&self, window_epoch: u64, key: &str) {
        let mut inner = crate::sync::lock_unpoisoned(&self.inner);
        inner.advance(window_epoch);
        inner.current.hit(key);
    }

    /// `(current, previous)` heavy hitters as of `window_epoch`, hottest
    /// first.
    pub fn top_at(&self, window_epoch: u64) -> (Vec<HeavyHitter>, Vec<HeavyHitter>) {
        let mut inner = crate::sync::lock_unpoisoned(&self.inner);
        inner.advance(window_epoch);
        (inner.current.top(), inner.previous.top())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    #[test]
    fn small_streams_are_counted_exactly() {
        let mut sketch = SpaceSaving::new(8);
        for key in ["a", "b", "a", "c", "a", "b"] {
            sketch.hit(key);
        }
        let top = sketch.top();
        assert_eq!(
            top[0],
            HeavyHitter {
                key: "a".into(),
                count: 3,
                error: 0
            }
        );
        assert_eq!(
            top[1],
            HeavyHitter {
                key: "b".into(),
                count: 2,
                error: 0
            }
        );
        assert_eq!(
            top[2],
            HeavyHitter {
                key: "c".into(),
                count: 1,
                error: 0
            }
        );
        assert_eq!(sketch.len(), 3);
    }

    #[test]
    fn eviction_keeps_the_space_saving_guarantees_on_zipf() {
        // A Zipf-ish stream over far more keys than the sketch holds: every
        // estimate must bracket the exact count (count - error <= exact <=
        // count), and every key hot enough for the N/K guarantee must be
        // tracked — with the genuinely hot head ranked correctly.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut sketch = SpaceSaving::new(32);
        let mut exact: HashMap<String, u64> = HashMap::new();
        let total = 20_000u64;
        for _ in 0..total {
            // Zipf-ish: rank r with probability proportional to 1/(r+1).
            let r = loop {
                let r = rng.gen_range(0..400u32);
                if rng.gen_range(0.0..1.0) < 1.0 / (f64::from(r) + 1.0) {
                    break r;
                }
            };
            let key = format!("key-{r}");
            sketch.hit(&key);
            *exact.entry(key).or_insert(0) += 1;
        }
        let top = sketch.top();
        assert_eq!(top.len(), 32);
        for entry in &top {
            let true_count = exact.get(&entry.key).copied().unwrap_or(0);
            assert!(
                entry.count >= true_count && entry.count - entry.error <= true_count,
                "{}: estimate {}±{} does not bracket exact {true_count}",
                entry.key,
                entry.count,
                entry.error
            );
        }
        // Guarantee: any key with exact frequency > N/K is in the sketch.
        let threshold = total / 32;
        let tracked: Vec<&str> = top.iter().map(|e| e.key.as_str()).collect();
        for (key, &count) in &exact {
            if count > threshold {
                assert!(tracked.contains(&key.as_str()), "{key} ({count}) missing");
            }
        }
        // The hottest key of a Zipf stream is unambiguous: rank 0.
        assert_eq!(top[0].key, "key-0");
    }

    #[test]
    fn windows_rotate_current_into_previous() {
        let topk = WindowedTopK::new(4);
        topk.hit_at(0, "alpha");
        topk.hit_at(0, "alpha");
        topk.hit_at(0, "beta");
        let (current, previous) = topk.top_at(0);
        assert_eq!(current[0].key, "alpha");
        assert!(previous.is_empty());

        // Next window: the old sketch becomes `previous`.
        topk.hit_at(1, "gamma");
        let (current, previous) = topk.top_at(1);
        assert_eq!(current.len(), 1);
        assert_eq!(current[0].key, "gamma");
        assert_eq!(previous[0].key, "alpha");

        // Skipping windows (idle gap) clears both.
        let (current, previous) = topk.top_at(5);
        assert!(current.is_empty());
        assert!(previous.is_empty());
    }

    #[test]
    fn a_late_hit_counts_toward_the_live_window() {
        // "c" is stamped with window 5 after window 6 began (a worker that
        // read the clock before the boundary): it joins window 6 instead of
        // rotating both sketches away.
        let topk = WindowedTopK::new(4);
        topk.hit_at(5, "a");
        topk.hit_at(6, "b");
        topk.hit_at(5, "c");
        let (current, previous) = topk.top_at(6);
        let keys = |hitters: &[HeavyHitter]| -> Vec<String> {
            hitters.iter().map(|h| h.key.clone()).collect()
        };
        assert_eq!(keys(&current), ["b", "c"]);
        assert_eq!(keys(&previous), ["a"]);
    }
}
