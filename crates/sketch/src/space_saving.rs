use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// One monitored key of a [`SpaceSaving`] summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopEntry {
    /// The key.
    pub key: u64,
    /// Estimated count (an upper bound on the true count).
    pub count: u64,
    /// Maximum possible overestimate: the count the key inherited when
    /// it evicted the previous minimum. `count − error` is a lower
    /// bound on the true count.
    pub error: u64,
}

impl TopEntry {
    /// Guaranteed lower bound on the key's true count.
    pub fn lower_bound(&self) -> u64 {
        self.count - self.error
    }
}

/// The Space-Saving top-k summary (Metwally et al.), the candidate
/// generator of the streaming heavy-hitter recipe the paper builds on.
///
/// At most `capacity` keys are monitored. An arriving unmonitored key
/// evicts the current minimum, inheriting its count as potential error.
/// Guarantees: every key with true count > `N / capacity` is monitored,
/// and every estimate overshoots by at most `N / capacity`.
///
/// # Example
///
/// ```
/// use tiresias_sketch::SpaceSaving;
///
/// let mut s = SpaceSaving::new(4);
/// for _ in 0..100 { s.add(1, 1); }
/// for _ in 0..50 { s.add(2, 1); }
/// for k in 100..140 { s.add(k, 1); } // tail noise
/// let top: Vec<u64> = s.top(2).iter().map(|e| e.key).collect();
/// assert_eq!(top, vec![1, 2]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceSaving {
    capacity: usize,
    counters: HashMap<u64, TopEntry>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a summary monitoring at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "space-saving capacity must be positive");
        SpaceSaving { capacity, counters: HashMap::with_capacity(capacity + 1), total: 0 }
    }

    /// Monitored-key budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total mass added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of currently monitored keys.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` iff nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Adds `count` occurrences of `key`.
    pub fn add(&mut self, key: u64, count: u64) {
        self.total += count;
        if let Some(e) = self.counters.get_mut(&key) {
            e.count += count;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, TopEntry { key, count, error: 0 });
            return;
        }
        // Evict the minimum; the newcomer inherits its count as error.
        let &min_key = self
            .counters
            .iter()
            .min_by_key(|(_, e)| e.count)
            .map(|(k, _)| k)
            .expect("capacity > 0 implies non-empty at this point");
        let min = self.counters.remove(&min_key).expect("key just found");
        self.counters.insert(key, TopEntry { key, count: min.count + count, error: min.count });
    }

    /// The estimated count of `key`; keys not monitored report the
    /// current minimum (their upper bound).
    pub fn estimate(&self, key: u64) -> u64 {
        if let Some(e) = self.counters.get(&key) {
            return e.count;
        }
        self.counters.values().map(|e| e.count).min().unwrap_or(0)
    }

    /// The `k` heaviest monitored entries, heaviest first.
    pub fn top(&self, k: usize) -> Vec<TopEntry> {
        let mut all: Vec<TopEntry> = self.counters.values().copied().collect();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        all.truncate(k);
        all
    }

    /// `true` iff `key` is currently monitored.
    pub fn contains(&self, key: u64) -> bool {
        self.counters.contains_key(&key)
    }

    /// Halves every monitored count (and its error bound), dropping
    /// keys that decay to zero — an exponential-decay step that turns
    /// the summary into a recency-weighted heavy-key detector when
    /// applied once per epoch. The `N / capacity` error guarantee keeps
    /// holding for the decayed totals, since halving is applied
    /// uniformly to counts, errors and the total mass.
    pub fn halve(&mut self) {
        self.counters.retain(|_, e| {
            e.count /= 2;
            e.error /= 2;
            e.count > 0
        });
        self.total /= 2;
    }

    /// Resets the summary, keeping the capacity.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut s = SpaceSaving::new(16);
        for k in 0..10u64 {
            s.add(k, k + 1);
        }
        for k in 0..10u64 {
            assert_eq!(s.estimate(k), k + 1);
            assert_eq!(s.top(16).iter().find(|e| e.key == k).unwrap().error, 0);
        }
    }

    #[test]
    fn heavy_keys_survive_tail_pressure() {
        let mut s = SpaceSaving::new(8);
        // Two heavy keys among a churning tail.
        for i in 0..10_000u64 {
            s.add(1, 1);
            if i % 2 == 0 {
                s.add(2, 1);
            }
            s.add(1000 + i, 1); // unique tail key each step
        }
        let top: Vec<u64> = s.top(2).iter().map(|e| e.key).collect();
        assert_eq!(top, vec![1, 2]);
        // Guarantee: true count 10 000 for key 1.
        let e1 = s.top(1)[0];
        assert!(e1.count >= 10_000);
        assert!(e1.lower_bound() <= 10_000);
    }

    #[test]
    fn overestimate_bounded_by_n_over_k() {
        let mut s = SpaceSaving::new(50);
        let mut truth = HashMap::new();
        let mut x: u64 = 88172645463325252;
        for _ in 0..30_000 {
            // Zipf-ish synthetic stream via xorshift.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 997).leading_zeros() as u64 * 13 + x % 200;
            s.add(key, 1);
            *truth.entry(key).or_insert(0u64) += 1;
        }
        let bound = s.total() / 50;
        for e in s.top(50) {
            let t = truth.get(&e.key).copied().unwrap_or(0);
            assert!(e.count >= t, "never underestimates");
            assert!(e.count - t <= bound, "overestimate within N/k");
        }
    }

    #[test]
    fn monitored_set_never_exceeds_capacity() {
        let mut s = SpaceSaving::new(5);
        for k in 0..1000u64 {
            s.add(k, 1);
            assert!(s.len() <= 5);
        }
        assert_eq!(s.total(), 1000);
    }

    #[test]
    fn clear_resets() {
        let mut s = SpaceSaving::new(3);
        s.add(1, 5);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::new(0);
    }

    #[test]
    fn halve_decays_and_evicts_stale_keys() {
        let mut s = SpaceSaving::new(8);
        s.add(1, 100);
        s.add(2, 1);
        assert!(s.contains(1) && s.contains(2));
        s.halve();
        assert_eq!(s.estimate(1), 50);
        assert!(!s.contains(2), "count 1 decays to zero and is dropped");
        assert_eq!(s.total(), 50);
        // A once-hot key fades under repeated decay with no traffic.
        for _ in 0..7 {
            s.halve();
        }
        assert!(!s.contains(1));
        assert!(s.is_empty());
    }
}
