//! Zero-dependency parallel-execution substrate for the FPRAS hot paths.
//!
//! The workspace is hermetic (DESIGN.md §"Dependency policy"), so instead
//! of `rayon`/`crossbeam` this crate provides the two primitives the
//! estimators actually need, built on `std` alone:
//!
//! * [`map_chunks`] — a scoped, work-chunking fork/join: `total` indexed
//!   work items are pulled off an atomic counter in fixed-size chunks by
//!   `threads` scoped workers, and the results are returned **in index
//!   order** regardless of scheduling. Determinism therefore never depends
//!   on thread interleaving — only on what each indexed item computes.
//! * [`ShardedMap`] — a concurrent memo table: a fixed power-of-two number
//!   of `Mutex<HashMap>` shards, locked per operation (never across a
//!   recursive computation). Two workers may race to compute the same
//!   entry; callers guarantee idempotence (in this workspace every memo
//!   value is a pure function of the key and the run seed), so the race
//!   costs duplicated work, never divergent state.
//!
//! Nested parallelism is flattened: a [`map_chunks`] call made *from
//! inside* a worker runs inline on that worker. The estimators exploit
//! this — the outermost parallel loop (independent repetitions, or the
//! first ambiguous union) fans out, and everything beneath it stays
//! sequential within its worker, which is the efficient granularity.
//!
//! Thread-count resolution (see [`resolve_threads`]): an explicit request
//! wins; `0` means "auto" — the `PQE_THREADS` environment variable if set,
//! otherwise [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable that overrides auto-detected parallelism.
pub const THREADS_ENV: &str = "PQE_THREADS";

/// The largest explicit thread count any surface accepts (the CLI's
/// `--threads`, the serve wire's `"threads"`): far above any real core
/// count, low enough that a typo cannot ask for billions of workers.
pub const MAX_THREADS: usize = 4096;

thread_local! {
    /// Set while the current thread is a `map_chunks` worker; nested calls
    /// then run inline instead of spawning a second tier of threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` iff the current thread is already executing inside a
/// [`map_chunks`] worker (nested calls run inline).
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// The auto thread count: `PQE_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism (at least 1).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` means auto (see
/// [`default_threads`]); anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Applies `f` to every chunk of `0..total` and returns the concatenated
/// results **in index order**.
///
/// `f` receives half-open index ranges of length ≤ `chunk` and returns one
/// result per index. With `threads ≤ 1`, with a single chunk of work, or
/// when called from inside another `map_chunks` worker, `f(0..total)` runs
/// inline on the calling thread — the parallel and sequential paths
/// perform *exactly the same fold* over identical per-index results, which
/// is what makes thread count invisible to deterministic callers.
///
/// Panics in `f` are propagated to the caller after all workers stop
/// taking new chunks.
pub fn map_chunks<T, F>(threads: usize, total: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let chunk = chunk.max(1);
    if total == 0 {
        return Vec::new();
    }
    if threads <= 1 || total <= chunk || in_worker() {
        let out = f(0..total);
        debug_assert_eq!(out.len(), total, "map_chunks closure must yield one result per index");
        return out;
    }
    let workers = threads.min(total.div_ceil(chunk));
    let next = AtomicUsize::new(0);
    // Workers adopt the spawner's span context so fan-out work is
    // attributed to the phase that requested it (pqe-obs charges by name
    // path, never by thread, keeping span trees worker-count-invariant).
    let span_ctx = pqe_obs::span::current_context();
    let mut parts: Vec<(usize, Vec<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let _span = pqe_obs::span::enter_context(span_ctx);
                    IN_WORKER.with(|g| g.set(true));
                    let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= total {
                            break;
                        }
                        let end = (start + chunk).min(total);
                        let out = f(start..end);
                        debug_assert_eq!(out.len(), end - start);
                        local.push((start, out));
                    }
                    IN_WORKER.with(|g| g.set(false));
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pqe-par worker panicked"))
            .collect()
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(total);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    out
}

/// [`map_chunks`] with a per-index closure (chunking handled internally).
pub fn map_indexed<T, F>(threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Aim for several chunks per worker so uneven item costs balance.
    let chunk = if threads <= 1 {
        total.max(1)
    } else {
        (total / (threads * 4)).max(1)
    };
    map_chunks(threads, total, chunk, |r| r.map(&f).collect())
}

/// The multiply-rotate hash step of the rustc/Firefox "Fx" hasher. Not
/// DoS-resistant — for internal memo tables keyed by small integers, where
/// hashing sits on the sampling hot path and SipHash is measurable.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic [`Hasher`] (the classic FxHash recurrence).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] — drop-in for hot memo tables.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A concurrent memo table: `HashMap` split across power-of-two mutex
/// shards, locked per operation. Keys are hashed once with [`FxHasher`]:
/// the shard index takes the top bits, the inner maps reuse the same
/// hasher.
///
/// Designed for idempotent fills: when the value for a key is a pure
/// function of the key (true for every memo in this workspace — estimates
/// are keyed by `(state, size)` plus the run seed), concurrent duplicate
/// computation is harmless and the first insert wins.
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<FxHashMap<K, V>>>,
    mask: u64,
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// A map with the default shard count (16).
    pub fn new() -> Self {
        Self::with_shards(16)
    }

    /// A map with `n` shards, rounded up to a power of two.
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n).map(|_| Mutex::new(FxHashMap::default())).collect(),
            mask: (n - 1) as u64,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<FxHashMap<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // Top bits: the low bits are what the inner map's bucket index
        // uses, and Fx mixes the final word into high bits best.
        &self.shards[((h.finish() >> 48) & self.mask) as usize]
    }

    /// A clone of the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("shard poisoned").get(key).cloned()
    }

    /// `true` iff `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.shard(key).lock().expect("shard poisoned").contains_key(key)
    }

    /// Inserts `value` unless the key is already present (first insert
    /// wins — see the idempotence contract above). Returns the value now
    /// stored under `key`.
    pub fn insert(&self, key: K, value: V) -> V {
        self.shard(&key)
            .lock()
            .expect("shard poisoned")
            .entry(key)
            .or_insert(value)
            .clone()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard poisoned").len()).sum()
    }

    /// `true` iff no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_index_order() {
        for threads in [1, 2, 4, 8] {
            let out = map_chunks(threads, 103, 7, |r| r.map(|i| i * 3).collect());
            assert_eq!(out.len(), 103);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * 3, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_chunks_empty_and_tiny() {
        assert!(map_chunks(4, 0, 8, |r| r.collect::<Vec<_>>()).is_empty());
        assert_eq!(map_chunks(4, 1, 8, |r| r.map(|i| i + 1).collect()), vec![1]);
    }

    #[test]
    fn nested_calls_run_inline() {
        let out = map_chunks(4, 8, 1, |r| {
            r.map(|i| {
                // From inside a worker the nested call must not spawn.
                let inner = map_chunks(4, 3, 1, |r2| {
                    r2.map(|j| {
                        assert!(in_worker() || i == usize::MAX);
                        i * 10 + j
                    })
                    .collect()
                });
                inner.iter().sum::<usize>()
            })
            .collect()
        });
        let expect: Vec<usize> = (0..8).map(|i| 3 * (i * 10) + 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let seq = map_indexed(1, 57, |i| i * i);
        let par = map_indexed(4, 57, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn resolve_threads_literal_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn sharded_map_first_insert_wins() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        assert_eq!(m.insert(5, 50), 50);
        assert_eq!(m.insert(5, 99), 50); // first value is kept
        assert_eq!(m.get(&5), Some(50));
        assert!(m.contains(&5));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sharded_map_concurrent_fill_is_consistent() {
        let m: ShardedMap<usize, usize> = ShardedMap::with_shards(8);
        map_indexed(4, 1000, |i| {
            let k = i % 37;
            m.insert(k, k * 2);
        });
        assert_eq!(m.len(), 37);
        for k in 0..37 {
            assert_eq!(m.get(&k), Some(k * 2));
        }
    }
}
