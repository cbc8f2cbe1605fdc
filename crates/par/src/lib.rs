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
//! Nested parallelism goes to the crew. A top-level [`map_chunks`] runs
//! its workers as a *crew* (see [`share`]): a worker whose chunks run out
//! stays in the scope as a helper until the scope's last chunk finishes.
//! A loop nested in a chunk — a nested [`map_chunks`], or an FPRAS union's
//! sample loop — is shared with those helpers while there are any, and
//! runs inline on its worker otherwise. The outermost loop (independent
//! repetitions) thus fans out as before, and once it has fewer chunks
//! left than workers, the idle ones help the loops under the chunks still
//! running instead of waiting at the join. A shared loop's own nested
//! loops run inline.
//!
//! Thread-count resolution (see [`resolve_threads`]): an explicit request
//! wins; `0` means "auto" — the `PQE_THREADS` environment variable if set,
//! otherwise [`std::thread::available_parallelism`].

mod crew;

pub use crew::{has_helpers, share};

use crew::Crew;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The environment variable that overrides auto-detected parallelism.
pub const THREADS_ENV: &str = "PQE_THREADS";

/// The largest explicit thread count any surface accepts (the CLI's
/// `--threads`, the serve wire's `"threads"`): far above any real core
/// count, low enough that a typo cannot ask for billions of workers.
pub const MAX_THREADS: usize = 4096;

thread_local! {
    /// Set on the threads of a top-level `map_chunks` scope, through both
    /// their chunks and their helping: a nested call never spawns a
    /// second tier of threads; it shares with the crew or runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` iff the current thread is a worker of a top-level
/// [`map_chunks`] scope, running a chunk or helping. Loops started here
/// spawn no threads: they are shared with the worker's crew when
/// [`has_helpers`] says so, and run inline otherwise.
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
/// result per index. With `threads ≤ 1` or a single chunk of work,
/// `f(0..total)` runs inline on the calling thread. Called from a thread
/// that is not a worker, the chunks go to `threads` scoped workers that
/// form a crew (see [`share`]). Called from inside a worker, the chunks
/// are shared with the crew's idle helpers if it has any
/// ([`has_helpers`]), and run inline otherwise. Whoever computes a
/// chunk, the results are the same per-index values in the same order,
/// which is what makes thread count invisible to deterministic callers.
///
/// A panic in `f` reaches the caller, with its own payload, once every
/// worker has stopped taking chunks.
pub fn map_chunks<T, F>(threads: usize, total: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let chunk = chunk.max(1);
    if total == 0 {
        return Vec::new();
    }
    let inline = threads <= 1 || total <= chunk || (in_worker() && !has_helpers());
    if inline {
        let out = f(0..total);
        debug_assert_eq!(
            out.len(),
            total,
            "map_chunks closure must yield one result per index"
        );
        return out;
    }
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    // Takes chunks until none is left; returns at once after that.
    let take = || {
        while next.load(Ordering::Relaxed) < total {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= total {
                break;
            }
            let end = (start + chunk).min(total);
            let out = f(start..end);
            debug_assert_eq!(out.len(), end - start);
            parts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((start, out));
        }
    };
    if in_worker() {
        share(&take, take);
    } else {
        let workers = threads.min(total.div_ceil(chunk));
        let crew = Arc::new(Crew::new(workers));
        // Workers adopt the spawner's span context so fan-out work is
        // attributed to the phase that requested it (pqe-obs charges by
        // name path, never by thread, keeping span trees
        // worker-count-invariant).
        let span_ctx = pqe_obs::span::current_context();
        let panic = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let _span = pqe_obs::span::enter_context(span_ctx);
                        IN_WORKER.with(|g| g.set(true));
                        crew.work(span_ctx, take);
                        IN_WORKER.with(|g| g.set(false));
                    })
                })
                .collect();
            // Every worker is joined before the first panic is resumed.
            let mut panic = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    panic.get_or_insert(payload);
                }
            }
            panic
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
    let mut parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
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
        self.shard(key)
            .lock()
            .expect("shard poisoned")
            .get(key)
            .cloned()
    }

    /// `true` iff `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.shard(key)
            .lock()
            .expect("shard poisoned")
            .contains_key(key)
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
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
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
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

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
    fn nested_calls_stay_on_the_scope_s_workers() {
        let out = map_chunks(4, 8, 1, |r| {
            r.map(|i| {
                // A nested call spawns nothing: its items run on a worker
                // of this scope, the caller's or a helper.
                let inner = map_chunks(4, 3, 1, |r2| {
                    r2.map(|j| {
                        assert!(in_worker());
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

    /// Waits, at most a minute, until `ready` holds.
    fn await_until(what: &str, ready: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !ready() {
            assert!(t0.elapsed() < Duration::from_secs(60), "waited for {what}");
            std::thread::yield_now();
        }
    }

    /// A 3-item fan-out on 2 workers whose last item runs `nested` once
    /// the other worker is out of items (items 0 and 1 return at once).
    fn tail_runs<T: Send>(nested: impl Fn() -> T + Sync) -> T {
        let mut out = map_chunks(2, 3, 1, |r| {
            r.map(|i| {
                (i == 2).then(|| {
                    await_until("a helper", has_helpers);
                    nested()
                })
            })
            .collect()
        });
        out.pop().unwrap().unwrap()
    }

    #[test]
    fn a_nested_loop_at_the_tail_is_shared_in_index_order() {
        let out = tail_runs(|| {
            let owner = std::thread::current().id();
            let helped = AtomicBool::new(false);
            // The owner's items wait until a helper has computed one.
            map_chunks(2, 40, 1, |r| {
                r.map(|j| {
                    if std::thread::current().id() == owner {
                        await_until("a helped item", || helped.load(Ordering::Acquire));
                    } else {
                        helped.store(true, Ordering::Release);
                    }
                    j * 7
                })
                .collect()
            })
        });
        assert_eq!(out, (0..40).map(|j| j * 7).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_in_a_helped_item_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            tail_runs(|| {
                let owner = std::thread::current().id();
                let helped = AtomicBool::new(false);
                map_chunks(2, 40, 1, |r| {
                    r.inspect(|_| {
                        if std::thread::current().id() == owner {
                            await_until("a helped item", || helped.load(Ordering::Acquire));
                        } else {
                            helped.store(true, Ordering::Release);
                            panic!("helped item failed");
                        }
                    })
                    .collect::<Vec<_>>()
                })
            })
        });
        let payload = caught.expect_err("the helped item's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helped item failed"));
        // The pool holds no state across calls: the next one just works.
        let out = map_chunks(2, 100, 3, |r| r.map(|i| i + 1).collect());
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
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
