use crate::builder::PreparedRoutine;
use crate::{routines, DriverError, ParallelismMode};
use parking_lot::RwLock;
use pim_arch::{PimConfig, RegId};
use pim_isa::{DType, RegOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a compiled R-type routine: everything the micro-operation
/// sequence depends on. Thread ranges are *not* part of the key — routines
/// are mask-independent and replay under any crossbar/row masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutineKey {
    /// Operation.
    pub op: RegOp,
    /// Element datatype.
    pub dtype: DType,
    /// Destination register.
    pub dst: RegId,
    /// Source registers (unused slots zeroed).
    pub srcs: [RegId; 3],
    /// Parallelism mode the routine was compiled for.
    pub mode: ParallelismMode,
}

/// Cache of compiled routines.
///
/// This is the reason the *software* host driver is not a bottleneck
/// (§V-B, Figure 13): after the first use of an `(op, dtype, registers)`
/// combination, "translation" of a macro-instruction is an iteration over a
/// precompiled `Arc<PreparedRoutine>` — no gate-level compilation on the
/// hot path, and nothing for a backend to redo either: a miss compiles the
/// routine *and* prepares it ([`Routine::prepare`](crate::Routine::prepare):
/// every operation validated against the geometry, the cost summed), so a
/// hit hands
/// [`Backend::execute_prepared`](pim_arch::Backend::execute_prepared) a
/// batch it can replay without validating any operation again. The
/// prepared form owns the routine's operations (one copy) and adds O(1)
/// plus, once the engine has replayed it, 8 bytes per operation.
///
/// The compiled-routine map lives behind an `Arc<RwLock<…>>`, so a cache
/// can be [`share`d](RoutineCache::share) between many drivers: the
/// cluster hands every shard driver a handle onto one map, and a routine
/// compiles and prepares **once per cluster** instead of once per shard
/// (shards of one cluster share one geometry). Hit/miss
/// counters stay per handle, so per-shard telemetry survives sharing. The
/// steady-state cost of sharing is one uncontended read-lock acquisition
/// per macro-instruction. A clone is another handle onto the same map
/// that starts from this handle's counters.
#[derive(Debug, Default, Clone)]
pub struct RoutineCache {
    map: Arc<RwLock<HashMap<RoutineKey, Arc<PreparedRoutine>>>>,
    hits: u64,
    misses: u64,
}

impl RoutineCache {
    /// Creates an empty cache with its own routine map.
    pub fn new() -> Self {
        RoutineCache::default()
    }

    /// A new handle onto the same routine map, with fresh hit/miss
    /// counters. Compilations through any handle are visible to all.
    pub fn share(&self) -> Self {
        RoutineCache {
            map: Arc::clone(&self.map),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the routine for `key`, compiling and preparing it on first
    /// use.
    ///
    /// Compilation happens under the write lock, so concurrent sharers of
    /// one map compile a given key exactly once — every other caller
    /// blocks briefly, then takes the hit path.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors (unsupported op, scratch exhaustion).
    pub fn get_or_compile(
        &mut self,
        cfg: &PimConfig,
        key: RoutineKey,
    ) -> Result<Arc<PreparedRoutine>, DriverError> {
        if let Some(r) = self.map.read().get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(r));
        }
        let mut map = self.map.write();
        // Double-check: another sharer may have compiled it while this
        // thread waited for the write lock.
        if let Some(r) = map.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(r));
        }
        self.misses += 1;
        let arity = key.op.arity();
        let routine = routines::compile_rtype(
            cfg,
            key.mode,
            key.op,
            key.dtype,
            key.dst,
            &key.srcs[..arity],
        )?;
        let arc = Arc::new(routine.prepare(cfg)?);
        map.insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    /// Number of cached routines (across all sharers of the map).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// `(hits, misses)` counters of *this handle*.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zeroes this handle's hit/miss counters (the compiled-routine map is
    /// untouched — only the telemetry resets, so a measurement region can
    /// start from a clean slate without recompiling anything).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dst: RegId) -> RoutineKey {
        RoutineKey {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst,
            srcs: [0, 1, 0],
            mode: ParallelismMode::BitSerial,
        }
    }

    #[test]
    fn caches_by_key() {
        let cfg = PimConfig::small();
        let mut cache = RoutineCache::new();
        let a = cache.get_or_compile(&cfg, key(2)).unwrap();
        let b = cache.get_or_compile(&cfg, key(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        let c = cache.get_or_compile(&cfg, key(3)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn shared_handles_compile_once() {
        let cfg = PimConfig::small();
        let mut first = RoutineCache::new();
        let mut second = first.share();
        let a = first.get_or_compile(&cfg, key(2)).unwrap();
        let b = second.get_or_compile(&cfg, key(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one compilation serves both handles");
        // Telemetry is per handle: the first missed, the second hit.
        assert_eq!(first.stats(), (0, 1));
        assert_eq!(second.stats(), (1, 0));
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn concurrent_sharers_miss_exactly_once_per_key() {
        let cfg = PimConfig::small();
        let root = RoutineCache::new();
        let handles: Vec<RoutineCache> = (0..8).map(|_| root.share()).collect();
        let stats: Vec<(u64, u64)> = std::thread::scope(|scope| {
            handles
                .into_iter()
                .map(|mut h| {
                    let cfg = cfg.clone();
                    scope.spawn(move || {
                        h.get_or_compile(&cfg, key(2)).unwrap();
                        h.stats()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect()
        });
        let misses: u64 = stats.iter().map(|&(_, m)| m).sum();
        let hits: u64 = stats.iter().map(|&(h, _)| h).sum();
        assert_eq!(misses, 1, "exactly one sharer compiles: {stats:?}");
        assert_eq!(hits, 7);
    }
}
