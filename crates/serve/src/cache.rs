//! The circuit-hash-keyed sensitivity-table cache.
//!
//! The expensive part of a request is the PSS + LPTV solve of each unique
//! variant; mismatch σ enters only the cheap report assembly (the
//! campaign's "no additional simulation cost" sharing, see
//! [`tranvar::core::solve_groups`]). The daemon extends that sharing
//! *across requests*: the product of each solve, its
//! [`SensitivityTable`] (per metric, a nominal value and one float per
//! mismatch parameter, or that metric's typed error), is cached under a
//! digest of everything the solve reads — deck, period, step count, retry
//! ladder, metric list, solve-affecting overrides — so σ-only request
//! variants (σ-level sweeps, re-polls) are served from memory. No entry
//! holds an orbit or a response. Entries are `Arc`-shared and evicted
//! least-recently-used beyond a bounded capacity.
//!
//! Key stability: [`std::collections::hash_map::DefaultHasher`] (SipHash
//! with constant keys under `Default`) is deterministic within and across
//! processes of the same toolchain, which is all the cache needs — a
//! digest collision across *different* solves is the only correctness
//! hazard, and 64-bit SipHash over this few-field input makes that
//! negligible for a bounded cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tranvar::circuit::CircuitOverride;
use tranvar::core::{MetricSpec, SensitivityTable};

/// Digest of everything a unique solve reads; the cache key. Of the
/// metrics it hashes what the table is built from, each
/// [`Metric`](tranvar::core::Metric) in order, not the report names: a
/// JSON request names its metrics outside the deck text, and two metric
/// sets must not share one table.
pub fn solve_digest(
    deck: &str,
    period: f64,
    n_steps: usize,
    retry: bool,
    metrics: &[MetricSpec],
    solve_overrides: &[CircuitOverride],
) -> u64 {
    let mut h = DefaultHasher::new();
    deck.hash(&mut h);
    period.to_bits().hash(&mut h);
    n_steps.hash(&mut h);
    retry.hash(&mut h);
    // The debug forms are exact (shortest round-trip floats, device and
    // node indices) and total over both non-exhaustive enums; a request
    // has a handful of each.
    let metrics: Vec<_> = metrics.iter().map(|spec| &spec.metric).collect();
    format!("{metrics:?} {solve_overrides:?}").hash(&mut h);
    h.finish()
}

struct Entry<V> {
    value: V,
    /// Monotone LRU stamp; refreshed on every hit.
    stamp: u64,
}

struct Lru<V> {
    map: HashMap<u64, Entry<V>>,
    tick: u64,
}

/// A bounded, thread-safe LRU cache keyed by [`solve_digest`]; the daemon
/// instantiates it with `Arc<SensitivityTable>` values ([`ServeCache`]).
pub struct SolveCache<V> {
    inner: Mutex<Lru<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The daemon's concrete cache: the `Arc`-shared sensitivity tables of
/// successful solves. A table records its metrics' extraction errors, so
/// a metric that fails on an orbit is answered from the cache too.
pub type ServeCache = SolveCache<Arc<SensitivityTable>>;

impl<V: Clone> SolveCache<V> {
    /// Creates a cache holding at most `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> Self {
        SolveCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up an entry, refreshing its LRU stamp and counting hit/miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_mut(&key) {
            Some(entry) => {
                entry.stamp = tick;
                let value = entry.value.clone();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(lru);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an entry, evicting the least-recently-used one when full.
    pub fn insert(&self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        if !lru.map.contains_key(&key) && lru.map.len() >= self.capacity {
            if let Some(oldest) = lru.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                lru.map.remove(&oldest);
            }
        }
        lru.map.insert(key, Entry { value, stamp: tick });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Lru<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar::core::Metric;

    #[test]
    fn digest_separates_solve_inputs_but_not_sigma() {
        let ckt = crate::deck::build("divider").unwrap();
        let b = ckt.find_node("b").unwrap();
        let vout = [MetricSpec::new("vout", Metric::DcAverage { node: b })];
        let digest = |deck: &str, period, n_steps, retry, metrics: &[MetricSpec]| {
            solve_digest(deck, period, n_steps, retry, metrics, &[])
        };
        let hot = [CircuitOverride::Resistance {
            device: ckt.find_device("R1").unwrap(),
            ohms: 1100.0,
        }];
        let base = digest("divider", 1e-6, 16, false, &vout);
        assert_eq!(base, digest("divider", 1e-6, 16, false, &vout));
        assert_ne!(base, digest("divider", 2e-6, 16, false, &vout));
        assert_ne!(base, digest("divider", 1e-6, 32, false, &vout));
        assert_ne!(base, digest("divider", 1e-6, 16, true, &vout));
        assert_ne!(base, digest("rc-lowpass", 1e-6, 16, false, &vout));
        assert_ne!(base, solve_digest("divider", 1e-6, 16, false, &vout, &hot));
        // Another metric list is another table; a renamed metric is not.
        let freq = [MetricSpec::new("vout", Metric::Frequency)];
        assert_ne!(base, digest("divider", 1e-6, 16, false, &freq));
        let renamed = [MetricSpec::new("v", Metric::DcAverage { node: b })];
        assert_eq!(base, digest("divider", 1e-6, 16, false, &renamed));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let c: SolveCache<u32> = SolveCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(1), Some(10)); // 1 is now warmer than 2
        c.insert(3, 30); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.get(3), Some(30));
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let c: SolveCache<u32> = SolveCache::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }
}
