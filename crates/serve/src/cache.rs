//! A single-owner LRU for compiled query plans — one per worker shard.
//!
//! The previous architecture shared one sharded `Mutex`-per-shard LRU
//! between every connection thread; under the sharded-worker design each
//! worker owns its cache outright, so there is **no lock at all** — the
//! map is plain `&mut self` state, keyed by normalized query text + method
//! (the server builds the key) with a logical-clock recency stamp.
//!
//! Values are owned, not `Arc`-shared: a worker mutates its plan's result
//! memo in place between requests. Duplicate plans may exist across
//! shards (each worker compiles what it first sees — compile is ≤ 6 % of
//! request cost, E12), which is the price of zero cross-shard traffic.
//!
//! Hits, misses, evictions and the resident count go straight into the
//! shard's [`CacheCounters`] (registry handles), so `stats` and `metrics`
//! read them from the I/O thread with no copy step.
//!
//! Eviction scans for the smallest last-use tick — O(shard capacity),
//! which at service-scale capacities (dozens of plans per shard) is noise
//! next to a single FPRAS sample, and keeps the structure free of
//! intrusive lists.

use pqe_obs::metrics::{Counter, Gauge, Registry};
use pqe_par::FxHashMap;
use std::sync::Arc;

/// The registry handles a shard cache counts into as it goes — the
/// owning worker's books, readable from any thread.
#[derive(Clone)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: Arc<Counter>,
    /// Lookups that found nothing (and compiled).
    pub misses: Arc<Counter>,
    /// Entries displaced to make room.
    pub evictions: Arc<Counter>,
    /// Entries currently resident.
    pub resident: Arc<Gauge>,
}

impl CacheCounters {
    /// Resolves `{prefix}.hits`, `.misses`, `.evictions` and `.resident`.
    pub fn resolve(registry: &Registry, prefix: &str) -> Self {
        CacheCounters {
            hits: registry.counter(&format!("{prefix}.hits")),
            misses: registry.counter(&format!("{prefix}.misses")),
            evictions: registry.counter(&format!("{prefix}.evictions")),
            resident: registry.gauge(&format!("{prefix}.resident")),
        }
    }
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub(crate) fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// The per-shard plan cache (see module docs).
pub struct ShardCache<V> {
    map: FxHashMap<String, Entry<V>>,
    capacity: usize,
    clock: u64,
    counters: CacheCounters,
}

impl<V> ShardCache<V> {
    /// A cache holding at most `capacity` entries (≥ 1), counting into
    /// `counters`.
    pub fn new(capacity: usize, counters: CacheCounters) -> Self {
        ShardCache { map: FxHashMap::default(), capacity: capacity.max(1), clock: 0, counters }
    }

    /// Looks `key` up; on a miss, compiles a value with `build`, inserts
    /// it (evicting the least-recently-used entry if full), and returns
    /// it. The `bool` is `true` on a hit. `build` errors pass through and
    /// leave the cache untouched (a failing query never occupies a slot).
    pub fn get_or_insert_with<E>(
        &mut self,
        key: &str,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(&mut V, bool), E> {
        self.clock += 1;
        let clock = self.clock;
        // Single-owner map: no entry API dance needed, but the borrow
        // checker wants the hit path decided before a (potentially
        // evicting) insert.
        let hit = self.map.contains_key(key);
        if hit {
            self.counters.hits.inc();
        } else {
            self.counters.misses.inc();
            let value = build()?;
            if self.map.len() >= self.capacity {
                if let Some(lru_key) = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    self.map.remove(&lru_key);
                    self.counters.evictions.inc();
                }
            }
            self.map.insert(key.to_owned(), Entry { value, last_used: clock });
            self.counters.resident.set(self.map.len() as i64);
        }
        let entry = self.map.get_mut(key).expect("present by construction");
        entry.last_used = clock;
        Ok((&mut entry.value, hit))
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache counting into a fresh registry, plus its counters.
    fn cache(capacity: usize) -> (ShardCache<u32>, CacheCounters) {
        let counters = CacheCounters::resolve(&Registry::default(), "test");
        (ShardCache::new(capacity, counters.clone()), counters)
    }

    fn get(c: &mut ShardCache<u32>, key: &str) -> Option<u32> {
        // A probe that never inserts: build fails, so a miss errors out.
        match c.get_or_insert_with(key, || Err(())) {
            Ok((v, true)) => Some(*v),
            Ok((_, false)) => unreachable!("failing build cannot miss-insert"),
            Err(()) => None,
        }
    }

    fn put(c: &mut ShardCache<u32>, key: &str, v: u32) {
        let (_, _) = c.get_or_insert_with::<()>(key, || Ok(v)).unwrap();
    }

    #[test]
    fn hit_after_insert() {
        let (mut c, n) = cache(4);
        assert_eq!(get(&mut c, "a"), None);
        put(&mut c, "a", 1);
        assert_eq!(get(&mut c, "a"), Some(1));
        assert_eq!(n.hits.get(), 1);
        // One failing probe + one real miss.
        assert_eq!(n.misses.get(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let (mut c, n) = cache(2);
        put(&mut c, "a", 1);
        put(&mut c, "b", 2);
        // Touch "a" so "b" is the LRU entry.
        assert_eq!(get(&mut c, "a"), Some(1));
        put(&mut c, "c", 3);
        assert_eq!(get(&mut c, "b"), None, "LRU entry should be gone");
        assert_eq!(get(&mut c, "a"), Some(1));
        assert_eq!(get(&mut c, "c"), Some(3));
        assert_eq!(n.evictions.get(), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(n.resident.get(), 2);
    }

    #[test]
    fn repeat_key_is_a_hit_not_a_reinsert() {
        let (mut c, n) = cache(2);
        put(&mut c, "a", 1);
        // A hit returns the existing value; the new build is never run.
        let (v, hit) = c.get_or_insert_with::<()>("a", || Ok(9)).unwrap();
        assert_eq!((*v, hit), (1, true));
        assert_eq!(n.evictions.get(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn failing_build_leaves_cache_untouched() {
        let (mut c, n) = cache(2);
        assert_eq!(c.get_or_insert_with("bad", || Err("nope")), Err("nope"));
        assert!(c.is_empty());
        assert_eq!(n.misses.get(), 1);
        assert_eq!(n.resident.get(), 0);
    }

    #[test]
    fn values_are_mutable_in_place() {
        let (mut c, _) = cache(2);
        put(&mut c, "a", 1);
        {
            let (v, _) = c.get_or_insert_with::<()>("a", || Ok(0)).unwrap();
            *v += 41;
        }
        assert_eq!(get(&mut c, "a"), Some(42));
    }

    #[test]
    fn hit_rate_reported() {
        let (mut c, n) = cache(4);
        put(&mut c, "a", 1);
        for _ in 0..3 {
            get(&mut c, "a");
        }
        let r = hit_rate(n.hits.get(), n.misses.get());
        assert!((r - 0.75).abs() < 1e-9, "rate {r}");
        assert_eq!(hit_rate(0, 0), 0.0);
    }
}
