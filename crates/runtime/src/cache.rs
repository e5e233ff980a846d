//! Concurrent memoization of workload construction.
//!
//! Building a head workload (synthesize correlated Q/K, place the threshold,
//! quantize) costs an `s x s` matmul plus two quantization passes — far more
//! than many of the simulations that consume it, and *identical* across
//! every design point that shares the same operands. The cache keys
//! workloads by `(task, seed, seq_len)` plus the quantization knobs that
//! change the operands, so:
//!
//! * every row block of one head (each simulating all four configurations)
//!   shares a single construction, and
//! * parameter sweeps (`leopard sweep --param nqk=2..10`) construct each
//!   workload once and hit the cache for every subsequent design point.
//!
//! Entries are `Arc<OnceLock<...>>`: the shard lock is held only for the
//! map lookup, while concurrent requests for the *same* key block on the
//! entry's `OnceLock` so a workload is never built twice.

use leopard_accel::sim::HeadWorkload;
use leopard_workloads::pipeline::{build_head_workload, head_seed, sim_seq_len, PipelineOptions};
use leopard_workloads::suite::TaskDescriptor;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: everything that determines a head workload's contents.
///
/// Keys are `Ord` so shards can use `BTreeMap`: any iteration over cache
/// contents (diagnostics, future eviction sweeps) sees a deterministic
/// order, keeping the cache out of the nondeterminism budget entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadKey {
    /// Task id within the suite.
    pub task_id: usize,
    /// Per-head RNG seed (already folds in the head index).
    pub seed: u64,
    /// Simulated sequence length.
    pub seq_len: usize,
    /// Q/K quantization bit width.
    pub qk_bits: u32,
    /// Bit pattern of the Q/K correlation strength.
    pub correlation_bits: u32,
}

impl WorkloadKey {
    /// Builds the key for one head of one task under the given options.
    pub fn new(task: &TaskDescriptor, options: &PipelineOptions, head: usize) -> Self {
        Self {
            task_id: task.id,
            seed: head_seed(task, head),
            seq_len: sim_seq_len(task, options),
            qk_bits: options.qk_bits,
            correlation_bits: options.qk_correlation.to_bits(),
        }
    }
}

/// Hit/miss counters, readable while the cache is in use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an already-built entry.
    pub hits: u64,
    /// Requests that built (or waited on the build of) a new entry.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;

type Entry = Arc<OnceLock<Arc<HeadWorkload>>>;

/// Sharded concurrent workload cache.
///
/// Shards are `BTreeMap`s, not `HashMap`s: per-shard iteration order is the
/// key order, so any walk of the cache is deterministic. Shard *selection* still hashes the key — that only picks
/// which lock to take and never orders anything observable.
#[derive(Debug)]
pub struct WorkloadCache {
    shards: Vec<Mutex<BTreeMap<WorkloadKey, Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for WorkloadCache {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &WorkloadKey) -> &Mutex<BTreeMap<WorkloadKey, Entry>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Returns the workload for `key`, building it with `build` on first
    /// request. Concurrent requests for the same key build exactly once;
    /// requests for different keys proceed independently.
    pub fn get_or_build(
        &self,
        key: WorkloadKey,
        build: impl FnOnce() -> HeadWorkload,
    ) -> Arc<HeadWorkload> {
        let entry: Entry = {
            #[expect(
                clippy::expect_used,
                reason = "a poisoned shard means a builder panicked; propagating the panic is the only sound recovery"
            )]
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            Arc::clone(shard.entry(key).or_default())
        };
        if let Some(existing) = entry.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        let mut built_here = false;
        let workload = entry.get_or_init(|| {
            built_here = true;
            Arc::new(build())
        });
        if built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(workload)
    }

    /// Convenience wrapper: key derivation plus construction for one head of
    /// one task.
    pub fn head_workload(
        &self,
        task: &TaskDescriptor,
        options: &PipelineOptions,
        head: usize,
    ) -> Arc<HeadWorkload> {
        let key = WorkloadKey::new(task, options, head);
        self.get_or_build(key, || build_head_workload(task, options, head))
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // lint:allow(relaxed-atomic-in-result-path, reason = "monotonic advisory counters; suite reports read them after the pool quiesces, which the result channel's disconnect has already synchronized")
            hits: self.hits.load(Ordering::Relaxed),
            // lint:allow(relaxed-atomic-in-result-path, reason = "monotonic advisory counters; suite reports read them after the pool quiesces, which the result channel's disconnect has already synchronized")
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached workloads.
    pub fn len(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned shard means a builder panicked; propagating the panic is the only sound recovery"
        )]
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_accel::config::TileConfig;
    use leopard_workloads::suite::full_suite;

    fn options() -> PipelineOptions {
        PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn second_request_hits() {
        let cache = WorkloadCache::new();
        let suite = full_suite();
        let a = cache.head_workload(&suite[0], &options(), 0);
        let b = cache.head_workload(&suite[0], &options(), 0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_heads_and_tasks_get_distinct_entries() {
        let cache = WorkloadCache::new();
        let suite = full_suite();
        let _ = cache.head_workload(&suite[0], &options(), 0);
        let _ = cache.head_workload(&suite[0], &options(), 1);
        let _ = cache.head_workload(&suite[1], &options(), 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn quantization_knobs_are_part_of_the_key() {
        let cache = WorkloadCache::new();
        let suite = full_suite();
        let base = options();
        let other = PipelineOptions { qk_bits: 8, ..base };
        let a = cache.head_workload(&suite[0], &base, 0);
        let b = cache.head_workload(&suite[0], &other, 0);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_workload_matches_direct_construction() {
        let cache = WorkloadCache::new();
        let suite = full_suite();
        let cached = cache.head_workload(&suite[2], &options(), 0);
        let direct = build_head_workload(&suite[2], &options(), 0);
        assert_eq!(cached.q_codes, direct.q_codes);
        assert_eq!(cached.k_codes, direct.k_codes);
        assert_eq!(cached.threshold_int, direct.threshold_int);
        // The kernel's K pack rides along in the cached workload once
        // built, so the four simulation units of a head (and every sweep
        // design point that shares the operands) never rebuild it.
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let packed = cached.packed_keys_at(plan);
        assert_eq!(packed.cols(), direct.k_codes.len());
        let again = cache.head_workload(&suite[2], &options(), 0);
        assert!(Arc::ptr_eq(&packed, &again.packed_keys_at(plan)));
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(WorkloadCache::new());
        let suite = full_suite();
        let task = suite[0].clone();
        let opts = options();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let task = task.clone();
                std::thread::spawn(move || cache.head_workload(&task, &opts, 0))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], w));
        }
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }

    #[test]
    fn hit_ratio_is_sane() {
        let stats = CacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
