//! Fingerprint-keyed sub-sweep cache: memoize completed scheduler chunks so
//! a repeated or overlapping sweep folds cached outcomes instead of
//! re-enumerating the subtree below each level-0 value.
//!
//! # Key derivation
//!
//! A chunk outcome depends on exactly three things, and the cache key covers
//! all of them:
//!
//! 1. **What program ran** — [`LoweredPlan::structural_hash`], which pins the
//!    loop nest, every folded constant (device parameters included: lowering
//!    folds them into `IntExpr::Const` leaves) and every constraint
//!    expression.
//! 2. **Which level-0 values the chunk covered** — an FNV digest of the
//!    bound-prefix value slice, so overlapping sweeps hit on shared chunks
//!    regardless of chunk *indices*.
//! 3. **The evaluation scope** — a caller-supplied string naming the device/
//!    request scope plus [`crate::compiled::EngineOptions::signature`] — the
//!    execution-options fingerprint (interval/congruence pruning, guard
//!    fanout, engine tier) shared with the checkpoint compatibility check.
//!    This is belt-and-suspenders on top of (1): the structural hash already
//!    separates devices, but the scope string keeps the key auditable and
//!    protects against option changes that alter *statistics* without
//!    altering the plan.
//!
//! # Soundness
//!
//! A hit is bit-identical to recomputation because chunk evaluation is a
//! pure function of (plan, chunk values, engine options): the supervisor
//! folds per-chunk outcomes in chunk order, so replacing "evaluate chunk"
//! with "replay stored outcome of the same chunk" cannot change the merge.
//! Three guards keep that function pure in practice — plans with opaque
//! (closure-backed) steps are never cached, sweeps with a fault injector
//! bypass the cache entirely, and only fault-free chunks are stored (see
//! `ScopedMemo`'s contract). `tests/service.rs` asserts
//! the survivor fingerprint equality end to end.
//!
//! The on-disk store reuses the checkpoint machinery from
//! [`crate::checkpoint`]: the same hand-rolled [`JsonValue`] parser, the
//! same exact-integer stats/blocks encoding, the same atomic
//! `.tmp`-then-rename write protocol.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use beast_core::hash::Fnv1a;
use beast_core::ir::LoweredPlan;

use crate::checkpoint::{blocks_json, parse_blocks, parse_stats, stats_json, JsonValue, SaveState};
use crate::stats::{BlockStats, PruneStats};
use crate::sweep::{sweep, SweepError, SweepSpec};
use crate::telemetry::{json_int, json_str, SweepReport};
use crate::visit::Visitor;
use crate::walker::SweepOutcome;

/// Current cache file format version.
const FORMAT: i128 = 1;

/// One memoized chunk outcome.
#[derive(Debug, Clone)]
struct Entry<V> {
    stats: PruneStats,
    blocks: BlockStats,
    visitor: V,
}

/// Lifetime counters of one [`SweepCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted (first-time stores; idempotent re-stores of an
    /// existing key are not counted).
    pub stores: u64,
}

impl CacheStats {
    /// Render as a JSON object with stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_int(&mut out, "entries", self.entries);
        out.push(',');
        json_int(&mut out, "hits", self.hits);
        out.push(',');
        json_int(&mut out, "misses", self.misses);
        out.push(',');
        json_int(&mut out, "stores", self.stores);
        out.push('}');
        out
    }
}

/// Shared, thread-safe store of memoized sub-sweep (chunk) outcomes.
///
/// Generic over the visitor state it memoizes; the sweep service uses
/// [`crate::visit::FingerprintVisitor`], whose mergeable rolling hash is what
/// makes "cached fold equals recomputed fold" independently checkable.
pub struct SweepCache<V> {
    entries: Mutex<HashMap<String, Entry<V>>>,
    path: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl<V: Visitor + SaveState + Clone> SweepCache<V> {
    /// Fresh in-memory cache with no persistence.
    pub fn new() -> SweepCache<V> {
        SweepCache {
            entries: Mutex::new(HashMap::new()),
            path: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// Cache backed by `path`: existing entries are loaded eagerly (a
    /// missing file starts empty; a malformed one is an error so corruption
    /// never silently degrades to a cold cache), and [`SweepCache::persist`]
    /// writes back atomically.
    pub fn with_path(
        path: impl Into<PathBuf>,
        make_visitor: &dyn Fn() -> V,
    ) -> Result<SweepCache<V>, String> {
        let path = path.into();
        let mut cache = SweepCache::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => cache.load(&text, make_visitor)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read cache {}: {e}", path.display())),
        }
        cache.path = Some(path);
        Ok(cache)
    }

    fn load(&mut self, text: &str, make_visitor: &dyn Fn() -> V) -> Result<(), String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("malformed cache: {e}"))?;
        if doc.get("format").and_then(JsonValue::as_i64) != Some(FORMAT as i64) {
            return Err("cache: unsupported format".to_string());
        }
        let items = doc
            .get("entries")
            .and_then(JsonValue::items)
            .ok_or_else(|| "cache: missing `entries`".to_string())?;
        let mut entries = HashMap::with_capacity(items.len());
        for item in items {
            let key = item
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "cache: entry missing `key`".to_string())?
                .to_string();
            let stats = parse_stats(
                item.get("stats").ok_or_else(|| "cache: entry missing `stats`".to_string())?,
                "cache",
            )?;
            let blocks = parse_blocks(
                item.get("blocks").ok_or_else(|| "cache: entry missing `blocks`".to_string())?,
                "cache",
            )?;
            let mut visitor = make_visitor();
            visitor.load_state(
                item.get("visitor").ok_or_else(|| "cache: entry missing `visitor`".to_string())?,
            )?;
            entries.insert(key, Entry { stats, blocks, visitor });
        }
        self.entries = Mutex::new(entries);
        Ok(())
    }

    /// Atomically write all entries to the path given at construction
    /// (no-op for purely in-memory caches).
    pub fn persist(&self) -> Result<(), String> {
        let Some(path) = &self.path else { return Ok(()) };
        self.persist_to(path)
    }

    /// Atomically write all entries to `path` (checkpoint-style
    /// `.tmp`-then-rename, so a crash mid-write preserves the old file).
    pub fn persist_to(&self, path: &Path) -> Result<(), String> {
        let entries = self.entries.lock().unwrap();
        let mut keys: Vec<&String> = entries.keys().collect();
        keys.sort(); // stable output → diffable files, deterministic tests
        let mut out = String::with_capacity(256 + entries.len() * 160);
        out.push_str(&format!("{{\"format\":{FORMAT},\"entries\":["));
        for (i, key) in keys.iter().enumerate() {
            let e = &entries[*key];
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str(&mut out, "key", key);
            out.push_str(",\"stats\":");
            stats_json(&mut out, &e.stats);
            out.push_str(",\"blocks\":");
            blocks_json(&mut out, &e.blocks);
            out.push_str(",\"visitor\":");
            out.push_str(&e.visitor.save_state());
            out.push('}');
        }
        out.push_str("]}");
        drop(entries);

        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &out).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot rename {} over {}: {e}", tmp.display(), path.display()))
    }

    /// Lifetime counters plus the current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.lock().unwrap().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

impl<V: Visitor + SaveState + Clone> Default for SweepCache<V> {
    fn default() -> SweepCache<V> {
        SweepCache::new()
    }
}

/// The entry map of a [`SweepCache`], reached through this object so that a
/// sweep asks only [`Visitor`] of its visitor: the bounds the cache needs
/// are checked where [`crate::sweep::SweepSpec::cache`] attaches it.
pub(crate) trait MemoStore<V>: Sync {
    /// The outcome stored under `key`, counting a hit or a miss.
    fn get(&self, key: &str) -> Option<SweepOutcome<V>>;
    /// Store `outcome` under `key` unless an entry is there already.
    fn put(&self, key: String, outcome: &SweepOutcome<V>);
}

impl<V: Visitor + SaveState + Clone + Send + Sync> MemoStore<V> for SweepCache<V> {
    fn get(&self, key: &str) -> Option<SweepOutcome<V>> {
        let entries = self.entries.lock().unwrap();
        match entries.get(key) {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(SweepOutcome {
                    stats: e.stats.clone(),
                    blocks: e.blocks,
                    visitor: e.visitor.clone(),
                })
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: String, outcome: &SweepOutcome<V>) {
        let mut entries = self.entries.lock().unwrap();
        if let std::collections::hash_map::Entry::Vacant(slot) = entries.entry(key) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            slot.insert(Entry {
                stats: outcome.stats.clone(),
                blocks: outcome.blocks,
                visitor: outcome.visitor.clone(),
            });
        }
    }
}

/// A cache bound to one (structural plan hash, scope) pair: the memo the
/// sweep frame consults at each chunk boundary.
///
/// A hit replaces chunk evaluation entirely: the returned outcome is folded
/// exactly where a freshly evaluated one would be, so the merged result is
/// bit-identical because a key only ever names outcomes of the *same*
/// level-0 values under the same plan and options. The frame offers only
/// fault-free chunks to [`ScopedMemo::store`]: a skipped-point or
/// quarantined chunk's outcome depends on the fault policy, not just the
/// plan, and must never be replayed.
pub(crate) struct ScopedMemo<'a, V> {
    cache: &'a dyn MemoStore<V>,
    plan_hash: u64,
    scope: String,
}

impl<'a, V> ScopedMemo<'a, V> {
    /// `cache` under the request `scope` and the sweep's engine options.
    /// [`crate::compiled::EngineOptions::signature`] is the execution-options
    /// fingerprint shared with the checkpoint compatibility check; folding
    /// it into the scope keeps any two option sets (including engine
    /// tiers, whose PruneStats accounting differs) from sharing entries.
    pub(crate) fn new(
        cache: &'a dyn MemoStore<V>,
        plan_hash: u64,
        scope: &str,
        engine_sig: &str,
    ) -> ScopedMemo<'a, V> {
        ScopedMemo { cache, plan_hash, scope: format!("{scope}|{engine_sig}") }
    }

    /// Full entry key: plan hash, digest + length of the chunk's level-0
    /// value slice, and the scope string. Chunk *indices* are deliberately
    /// absent so overlapping sweeps with different grids can still share
    /// chunks that cover the same values.
    fn key(&self, values: &[i64]) -> String {
        let mut h = Fnv1a::new();
        for &v in values {
            h.write_i64(v);
        }
        format!(
            "{:016x}|{:016x}x{}|{}",
            self.plan_hash,
            h.finish(),
            values.len(),
            self.scope
        )
    }

    /// The memoized outcome of the chunk covering `values`, if any.
    pub(crate) fn lookup(&self, values: &[i64]) -> Option<SweepOutcome<V>> {
        self.cache.get(&self.key(values))
    }

    /// Store a freshly evaluated, fault-free chunk outcome.
    pub(crate) fn store(&self, values: &[i64], outcome: &SweepOutcome<V>) {
        self.cache.put(self.key(values), outcome);
    }
}

/// [`sweep`] of `opts` with `cache` attached under `scope`
/// ([`SweepSpec::cache`]), under its former name, kept for the benchmark
/// harness.
pub fn run_cached<V, F>(
    lp: &LoweredPlan,
    opts: &SweepSpec<'_, V>,
    cache: &SweepCache<V>,
    scope: &str,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + SaveState + Clone + Send + Sync,
    F: Fn() -> V + Sync,
{
    sweep(lp, &opts.clone().cache(cache, scope), make_visitor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    use std::time::Instant;

    use crate::compiled::Compiled;
    use crate::visit::FingerprintVisitor;

    fn lowered(cap: i64) -> LoweredPlan {
        let s = Space::builder("cache-unit")
            .constant("cap", cap)
            .range("a", 1, 33)
            .range("b", 1, 33)
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    fn opts() -> SweepSpec<'static, FingerprintVisitor> {
        SweepSpec { slots: 2, chunk_count: 8, ..SweepSpec::default() }
    }

    #[test]
    fn warm_run_hits_every_chunk_and_matches_cold() {
        let lp = lowered(300);
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        let (cold_ref, _) =
            sweep(&lp, &opts(), FingerprintVisitor::new).unwrap();
        let (cold, cold_rep) =
            run_cached(&lp, &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        assert_eq!(cold.visitor, cold_ref.visitor, "caching must not change a cold run");
        assert_eq!(cold_rep.cache_hits, 0);
        assert_eq!(cold_rep.cache_misses, 8);

        let (warm, warm_rep) =
            run_cached(&lp, &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        assert_eq!(warm.visitor, cold.visitor);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.blocks, cold.blocks);
        assert_eq!(warm_rep.cache_hits, 8);
        assert_eq!(warm_rep.cache_misses, 0);
        assert_eq!(warm_rep.survivors, cold_rep.survivors);
        assert_eq!(cache.stats().entries, 8);
    }

    #[test]
    fn a_prebuilt_engine_shares_entries_with_a_built_one() {
        let lp = lowered(300);
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        let (cold, _) =
            run_cached(&lp, &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        let engine = Compiled::with_options(lp.clone(), opts().engine);
        for _ in 0..2 {
            let spec = opts().on_engine(&engine, lp.structural_hash(), Instant::now());
            let (warm, rep) =
                sweep(&lp, &spec.cache(&cache, "unit"), FingerprintVisitor::new).unwrap();
            assert_eq!((rep.cache_hits, rep.cache_misses), (8, 0));
            assert_eq!(warm.visitor, cold.visitor);
            assert_eq!(warm.stats, cold.stats);
        }
    }

    #[test]
    fn scope_separates_otherwise_identical_sweeps() {
        let lp = lowered(300);
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        run_cached(&lp, &opts(), &cache, "dev-A", FingerprintVisitor::new).unwrap();
        let (_, rep) =
            run_cached(&lp, &opts(), &cache, "dev-B", FingerprintVisitor::new).unwrap();
        assert_eq!(rep.cache_hits, 0, "different scope must miss");
    }

    #[test]
    fn plan_change_separates_keys() {
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        run_cached(&lowered(300), &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        let (_, rep) =
            run_cached(&lowered(200), &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        assert_eq!(rep.cache_hits, 0, "changed folded constant must miss");
    }

    #[test]
    fn injector_bypasses_the_cache() {
        let lp = lowered(300);
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        run_cached(&lp, &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        let with_injector = SweepSpec {
            injector: Some(crate::fault::FaultInjector::new(7)),
            fault_policy: crate::fault::FaultPolicy::QuarantineChunk,
            ..opts()
        };
        let (_, rep) =
            run_cached(&lp, &with_injector, &cache, "unit", FingerprintVisitor::new).unwrap();
        assert_eq!(rep.cache_hits + rep.cache_misses, 0, "injector sweeps must not touch cache");
    }

    #[test]
    fn cache_file_round_trips() {
        let dir = std::env::temp_dir().join("beast-cache-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        std::fs::remove_file(&path).ok();

        let lp = lowered(300);
        let cache = SweepCache::with_path(&path, &FingerprintVisitor::new).unwrap();
        let (cold, _) =
            run_cached(&lp, &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        cache.persist().unwrap();

        let reloaded = SweepCache::with_path(&path, &FingerprintVisitor::new).unwrap();
        assert_eq!(reloaded.stats().entries, 8);
        let (warm, rep) =
            run_cached(&lp, &opts(), &reloaded, "unit", FingerprintVisitor::new).unwrap();
        assert_eq!(rep.cache_hits, 8);
        assert_eq!(warm.visitor, cold.visitor);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_cache_file_is_an_error_not_a_cold_start() {
        let dir = std::env::temp_dir().join("beast-cache-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{\"format\":1,\"entries\":[{\"key\":").unwrap();
        assert!(SweepCache::<FingerprintVisitor>::with_path(&path, &FingerprintVisitor::new)
            .is_err());
        std::fs::remove_file(&path).ok();
    }
}
