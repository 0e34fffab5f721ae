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
//!    request scope plus [`crate::compiled::EngineOptions::signature`] — the execution-options
//!    fingerprint (schedule mode, interval/congruence pruning, guard fanout,
//!    engine tier) shared with the checkpoint compatibility check.
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
//! [`crate::parallel`]'s `ChunkMemo` contract). `tests/service.rs` asserts
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
use std::time::Instant;

use beast_core::hash::Fnv1a;
use beast_core::ir::LoweredPlan;

use crate::checkpoint::{blocks_json, parse_blocks, parse_stats, stats_json, JsonValue, SaveState};
use crate::compiled::{Compiled, EngineOptions, EngineTier};
use crate::parallel::{run_supervised, run_threaded, ChunkMemo, InThread, ParallelOptions};
use crate::stats::{BlockStats, PruneStats};
use crate::sweep::SweepError;
use crate::telemetry::{json_num, json_str, SweepReport};
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
        json_num(&mut out, "entries", self.entries as f64);
        out.push(',');
        json_num(&mut out, "hits", self.hits as f64);
        out.push(',');
        json_num(&mut out, "misses", self.misses as f64);
        out.push(',');
        json_num(&mut out, "stores", self.stores as f64);
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

    /// Bind this cache to one (plan, scope, engine options) triple, yielding
    /// the `ChunkMemo` view the sweep frame consults at each chunk boundary.
    fn scoped(&self, plan_hash: u64, scope: &str, engine: &EngineOptions) -> ScopedMemo<'_, V> {
        // [`EngineOptions::signature`] is the single execution-options
        // fingerprint shared with the checkpoint compatibility check; folding
        // it into the scope keeps any two option sets (including engine
        // tiers, whose PruneStats accounting differs) from sharing entries.
        ScopedMemo { cache: self, plan_hash, scope: format!("{scope}|{}", engine.signature()) }
    }
}

impl<V: Visitor + SaveState + Clone> Default for SweepCache<V> {
    fn default() -> SweepCache<V> {
        SweepCache::new()
    }
}

/// A [`SweepCache`] bound to one (structural plan hash, scope string) pair.
struct ScopedMemo<'a, V> {
    cache: &'a SweepCache<V>,
    plan_hash: u64,
    scope: String,
}

impl<V> ScopedMemo<'_, V> {
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
}

impl<V: Visitor + SaveState + Clone + Send + Sync> ChunkMemo<V> for ScopedMemo<'_, V> {
    fn lookup(&self, _chunk: usize, values: &[i64]) -> Option<SweepOutcome<V>> {
        let key = self.key(values);
        let entries = self.cache.entries.lock().unwrap();
        match entries.get(&key) {
            Some(e) => {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                Some(SweepOutcome {
                    stats: e.stats.clone(),
                    blocks: e.blocks,
                    // Per sweep, not per chunk: the driver reports the
                    // engine's learned order whether or not chunks replay.
                    schedule: None,
                    visitor: e.visitor.clone(),
                })
            }
            None => {
                self.cache.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, _chunk: usize, values: &[i64], outcome: &SweepOutcome<V>) {
        let key = self.key(values);
        let mut entries = self.cache.entries.lock().unwrap();
        if let std::collections::hash_map::Entry::Vacant(slot) = entries.entry(key) {
            self.cache.stores.fetch_add(1, Ordering::Relaxed);
            slot.insert(Entry {
                stats: outcome.stats.clone(),
                blocks: outcome.blocks,
                visitor: outcome.visitor.clone(),
            });
        }
    }
}

/// [`crate::parallel::run_parallel_report`] with chunk-level memoization.
///
/// Cache-eligible sweeps consult `cache` before evaluating each chunk and
/// offer fault-free chunk outcomes back to it; the merged outcome is
/// bit-identical to an uncached run (see the module-level soundness
/// argument). Two kinds of sweep bypass the cache entirely and run exactly
/// like [`crate::parallel::run_parallel_report`]:
///
/// * plans with opaque (closure-backed) steps — their behavior is not pinned
///   by the structural hash;
/// * sweeps with a fault injector — replaying a clean outcome would skip the
///   injection a cold run performs.
///
/// The report's [`SweepReport::cache_hits`] / `cache_misses` count this
/// run's chunk-level cache traffic; `cache.stats()` tracks lifetime totals.
pub fn run_cached<V, F>(
    lp: &LoweredPlan,
    opts: &ParallelOptions,
    cache: &SweepCache<V>,
    scope: &str,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + SaveState + Clone + Send + Sync,
    F: Fn() -> V + Sync,
{
    let memo = cacheable(lp, opts).then(|| cache.scoped(lp.structural_hash(), scope, &opts.engine));
    let memo = memo.as_ref().map(|memo| memo as &dyn ChunkMemo<V>);
    run_threaded(lp, opts, make_visitor, None, None, memo)
}

/// [`run_cached`] on an engine the caller already built, so a caller that
/// sweeps one space many times (the daemon) resolves and compiles it once.
///
/// `plan_hash` is the [`LoweredPlan::structural_hash`] of the plan the engine
/// was built from, taken before the build (an adaptive schedule reorders the
/// engine's own copy). `t_start` is the report clock: start it before the
/// build to have `elapsed` cover it. The cache scope's options are the
/// engine's ([`Compiled::options`]); `opts.engine` is not read. Only the
/// in-process compiled tier runs here: an engine built for another tier is
/// refused with [`SweepError::Config`], since [`run_cached`] serves those.
pub fn run_cached_on<V, F>(
    compiled: &Compiled,
    plan_hash: u64,
    t_start: Instant,
    opts: &ParallelOptions,
    cache: &SweepCache<V>,
    scope: &str,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + SaveState + Clone + Send + Sync,
    F: Fn() -> V + Sync,
{
    let engine = compiled.options();
    if engine.engine != EngineTier::Compiled {
        return Err(SweepError::Config(format!(
            "run_cached_on sweeps in process; an engine built for the {} tier goes \
             through run_cached",
            engine.engine.as_str()
        )));
    }
    let memo = cacheable(compiled.lowered(), opts).then(|| cache.scoped(plan_hash, scope, &engine));
    let memo = memo.as_ref().map(|memo| memo as &dyn ChunkMemo<V>);
    run_supervised(compiled, t_start, opts, make_visitor, None, None, memo, &InThread)
}

/// Whether a sweep may consult the cache at all (the bypass rules above).
fn cacheable(lp: &LoweredPlan, opts: &ParallelOptions) -> bool {
    !lp.has_opaque_steps() && opts.injector.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    use crate::parallel::run_parallel_report;
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

    fn opts() -> ParallelOptions {
        ParallelOptions { threads: 2, chunk_count: 8, ..ParallelOptions::default() }
    }

    #[test]
    fn warm_run_hits_every_chunk_and_matches_cold() {
        let lp = lowered(300);
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        let (cold_ref, _) =
            run_parallel_report(&lp, &opts(), FingerprintVisitor::new).unwrap();
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
    fn a_prebuilt_engine_shares_entries_with_run_cached() {
        let lp = lowered(300);
        let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
        let (cold, _) =
            run_cached(&lp, &opts(), &cache, "unit", FingerprintVisitor::new).unwrap();
        let engine = Compiled::with_options(lp.clone(), opts().engine);
        for _ in 0..2 {
            let (warm, rep) = run_cached_on(
                &engine,
                lp.structural_hash(),
                Instant::now(),
                &opts(),
                &cache,
                "unit",
                FingerprintVisitor::new,
            )
            .unwrap();
            assert_eq!((rep.cache_hits, rep.cache_misses), (8, 0));
            assert_eq!(warm.visitor, cold.visitor);
            assert_eq!(warm.stats, cold.stats);
        }
        let native = Compiled::with_options(lp.clone(), EngineOptions::native());
        let refused = run_cached_on(
            &native,
            0,
            Instant::now(),
            &opts(),
            &cache,
            "unit",
            FingerprintVisitor::new,
        );
        assert!(matches!(refused, Err(SweepError::Config(_))));
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
        let with_injector = ParallelOptions {
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
