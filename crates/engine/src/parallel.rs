//! Multithreaded sweep evaluation — the paper's Section X-B observation that
//! parallelization "can be very beneficial at the outermost loop nests,
//! close to level 0" — plus the fault-tolerant supervisor that keeps a
//! multi-hour sweep alive across bad points, panicking chunks, deadlines and
//! process restarts.
//!
//! # Dynamic scheduling
//!
//! The driver realizes the outermost loop's domain once (level-0 iterators
//! depend only on constants by construction) and splits it into chunks that
//! are deliberately *finer* than one-per-thread. Workers then pull chunks
//! from a shared [`AtomicUsize`] cursor as they finish — a work-stealing-style
//! dynamic schedule with a single global queue.
//!
//! Static one-chunk-per-thread splitting (what this module did originally)
//! assumes the cost below each level-0 value is uniform. DAG-hoisted pruning
//! makes it anything but: a level-0 constraint can cut an entire subtree
//! after one comparison, while a neighbouring value fans out into millions of
//! tuples, so one unlucky thread ends up serializing the sweep. With dynamic
//! chunk pulling the fast threads simply take more chunks; the
//! [`SweepReport::imbalance`](crate::telemetry::SweepReport::imbalance)
//! metric makes the difference observable.
//!
//! Chunk granularity adapts to the shape of the plan via
//! [`LoweredPlan::static_fanout_below_outer`]: when every inner domain is
//! statically sized, subtree costs are near-uniform and a modest number of
//! chunks per thread suffices; when inner domains depend on outer variables
//! (the skewed regime), the driver cuts finer chunks. Callers that need a
//! *thread-invariant* grid (fault injection, checkpoint/resume) pin it with
//! [`ParallelOptions::chunk_count`].
//!
//! # Fault supervision
//!
//! [`ParallelOptions::fault_policy`] decides what an
//! [`EvalError`] or a chunk panic does to the
//! sweep: abort it (the default, with panics surfaced as structured
//! [`SweepError::WorkerPanic`] instead of poisoning the orchestrator), skip
//! the failing point, quarantine the chunk, or retry the chunk with backoff.
//! Every recovered fault becomes a [`FaultRecord`] merged in chunk order and
//! surfaced in the [`SweepReport`]. Panics are caught per chunk attempt with
//! [`std::panic::catch_unwind`]; per-chunk state is private, so a poisoned
//! chunk never corrupts the merged outcome.
//!
//! Cooperative cancellation ([`ParallelOptions::cancel`]) and wall-clock
//! deadlines ([`ParallelOptions::deadline`]) are polled both between chunks
//! and *inside* chunks (every few thousand loop advances), so stopping
//! latency is bounded by the poll interval, not by chunk length. A stopped
//! sweep returns the merged chunk-order prefix with
//! [`SweepReport::partial`] set — resumable when checkpointing is on (see
//! [`crate::checkpoint`]).
//!
//! # Determinism contract
//!
//! For a given plan, [`run_parallel`] and [`run_parallel_report`] produce
//! results **bit-for-bit identical to the serial [`Compiled::run`] and to
//! themselves at every thread count**:
//!
//! * each chunk is evaluated with a private visitor and statistics block
//!   (no shared mutable state on the hot path);
//! * per-chunk results are merged *in chunk order* — which worker happened
//!   to execute a chunk never affects the merged outcome;
//! * chunk boundaries only partition the level-0 domain, so concatenating
//!   chunk results in order reproduces the serial visit order exactly;
//! * preamble (constants-only) constraints are recorded once, not per chunk.
//!
//! Faults extend the contract rather than break it: injector decisions and
//! recovery actions are keyed on `(chunk, point ordinal, attempt)` — never on
//! thread identity or timing — so with a pinned chunk grid the fault records,
//! the surviving-point sequence and the merged statistics are identical at
//! any thread count, and an interrupted-then-resumed sweep is bit-identical
//! to an uninterrupted one. Only the *telemetry* (worker timings,
//! chunks-per-worker) varies run to run. This is enforced by
//! `tests/determinism.rs` and `tests/fault_tolerance.rs`.
//!
//! The same contract is what makes chunk-level *memoization* sound: the
//! supervisor exposes an internal `ChunkMemo` hook consulted at each chunk
//! boundary, and because a stored fault-free outcome is folded exactly where
//! evaluation would have folded, a cache hit cannot change the merge. The
//! fingerprint-keyed cache in [`crate::service::cache`] builds on this;
//! per-run hit/miss traffic lands in
//! [`SweepReport::cache_hits`]/[`SweepReport::cache_misses`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use beast_core::error::EvalError;
use beast_core::ir::LoweredPlan;

use crate::compiled::{ChunkCtx, Compiled, EngineOptions, EngineTier};
use crate::fault::{
    CancelProbe, CancelToken, FaultAction, FaultInjector, FaultKind, FaultPolicy, FaultRecord,
};
use crate::native::NativeContext;
use crate::stats::{BlockStats, FaultCounters, LaneStats, PruneStats};
use crate::sweep::SweepError;
use crate::telemetry::{SweepProgress, SweepReport, WorkerTelemetry};
use crate::visit::Visitor;
use crate::walker::SweepOutcome;

/// Chunks per thread when inner loop domains are statically sized (near-
/// uniform subtree cost; chunks mainly serve scheduling slack).
const CHUNKS_PER_THREAD_UNIFORM: usize = 8;

/// Chunks per thread when some inner domain depends on outer variables or
/// is opaque (skewed subtree cost; fine chunks are what balances the load).
const CHUNKS_PER_THREAD_SKEWED: usize = 32;

/// Configuration for [`run_parallel_report`].
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Worker threads (values below 1 are treated as 1).
    pub threads: usize,
    /// Scheduler chunks per thread; 0 picks automatically from the plan's
    /// static fanout (fine chunks for skewed spaces, coarser for uniform).
    /// Ignored when [`ParallelOptions::chunk_count`] is set.
    pub chunks_per_thread: usize,
    /// Explicit total number of scheduler chunks, independent of the thread
    /// count (0 = derive from `threads × chunks_per_thread`). Fault
    /// injection, checkpointing and the cross-thread-count determinism
    /// assertions all require a pinned grid, because chunk indices key both
    /// injector decisions and the completed-chunk prefix.
    pub chunk_count: usize,
    /// Optional shared progress counters, bumped once per completed chunk.
    pub progress: Option<Arc<SweepProgress>>,
    /// Compiled-engine options (interval block pruning is on by default;
    /// results are identical either way, see the determinism contract).
    pub engine: EngineOptions,
    /// What an evaluation error or chunk panic does to the sweep.
    pub fault_policy: FaultPolicy,
    /// Optional deterministic fault injector (tests, CI, chaos drills).
    pub injector: Option<FaultInjector>,
    /// Optional cooperative cancellation token shared with the caller.
    pub cancel: Option<Arc<CancelToken>>,
    /// Optional wall-clock budget; when it expires the sweep degrades to a
    /// partial result exactly as if cancelled.
    pub deadline: Option<Duration>,
    /// Stop pulling new chunks after this many (0 = no limit). This is the
    /// deterministic "kill the process after K chunks" knob used by the
    /// checkpoint/resume tests and the CI smoke job; unlike a deadline it
    /// always stops at a chunk boundary.
    pub stop_after_chunks: usize,
}

impl ParallelOptions {
    /// Options for `threads` workers with automatic chunk sizing.
    pub fn new(threads: usize) -> ParallelOptions {
        ParallelOptions { threads, ..ParallelOptions::default() }
    }
}

/// Run a lowered plan across `threads` worker threads.
///
/// `make_visitor` constructs one private visitor per scheduler chunk; the
/// per-chunk results are merged in chunk order, so the merged visitor sees
/// points in exactly the serial order regardless of thread count or
/// scheduling — see the module-level determinism contract.
///
/// With `threads == 1` this degenerates to a serial run with identical
/// statistics to [`Compiled::run`].
pub fn run_parallel<V, F>(
    lp: &LoweredPlan,
    threads: usize,
    make_visitor: F,
) -> Result<SweepOutcome<V>, SweepError>
where
    V: Visitor + Send,
    F: Fn() -> V + Sync,
{
    run_parallel_report(lp, &ParallelOptions::new(threads), make_visitor)
        .map(|(outcome, _)| outcome)
}

/// [`run_parallel`] plus a [`SweepReport`] with the pruning funnel,
/// per-worker timings, scheduler telemetry and fault records.
///
/// The sweep outcome obeys the module-level determinism contract; only the
/// report's timing fields vary between runs.
pub fn run_parallel_report<V, F>(
    lp: &LoweredPlan,
    opts: &ParallelOptions,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send,
    F: Fn() -> V + Sync,
{
    run_supervised(lp, opts, make_visitor, None, None, None)
}

/// Merged state an interrupted sweep hands back to [`run_supervised`] so the
/// resumed run completes only the missing chunk suffix.
pub(crate) struct ResumeSeed<V> {
    /// Level-0 domain length the interrupted run saw; re-validated against
    /// the freshly realized domain so a checkpoint from a different space
    /// shape fails loudly instead of merging nonsense.
    pub outer_len: usize,
    /// Chunk length of the interrupted run — pinned, because chunk indices
    /// key the completed prefix and the injector.
    pub chunk_len: usize,
    /// First chunk index not yet folded (the completed prefix is `0..next`).
    pub next: usize,
    /// Merged statistics of the completed prefix (preamble included).
    pub stats: PruneStats,
    /// Merged block-pruning counters of the completed prefix.
    pub blocks: BlockStats,
    /// Fault records of the completed prefix.
    pub faults: Vec<FaultRecord>,
    /// Merged visitor state of the completed prefix.
    pub visitor: V,
}

/// A point-in-time view of the merged chunk-order prefix, handed to the
/// checkpoint writer.
pub(crate) struct CkSnapshot<'a, V> {
    pub outer_len: usize,
    pub chunk_len: usize,
    pub chunks: usize,
    pub next: usize,
    pub stats: &'a PruneStats,
    pub blocks: &'a BlockStats,
    pub faults: &'a [FaultRecord],
    pub visitor: &'a V,
}

/// Where and how often to persist checkpoints during a supervised run.
pub(crate) struct CkSink<'a, V> {
    /// Persist after this many newly folded chunks (and always at the end).
    pub every: usize,
    /// Writer; failures abort the sweep with [`SweepError::Checkpoint`].
    #[allow(clippy::type_complexity)]
    pub write: &'a (dyn Fn(&CkSnapshot<'_, V>) -> Result<(), String> + Sync),
}

/// Sub-sweep memo consulted by [`run_supervised`] at every chunk boundary.
///
/// A hit replaces chunk evaluation entirely: the returned outcome is folded
/// exactly where a freshly evaluated one would be, so the merged result is
/// bit-identical as long as implementations only return outcomes previously
/// stored for the *same* `(chunk index, level-0 values)` under the same plan
/// — the contract `crate::service::cache` enforces with its structural-hash
/// key. Only fault-free chunks are offered to [`ChunkMemo::store`]; a
/// skipped-point or quarantined chunk must never be replayed from cache
/// because its outcome depends on the fault policy, not just the plan.
pub(crate) trait ChunkMemo<V>: Sync {
    /// Return the memoized outcome for `chunk` covering `values`, if any.
    fn lookup(&self, chunk: usize, values: &[i64]) -> Option<SweepOutcome<V>>;
    /// Offer a freshly evaluated, fault-free chunk outcome for storage.
    fn store(&self, chunk: usize, values: &[i64], outcome: &SweepOutcome<V>);
}

/// What one finished chunk contributes to the merge: its outcome (`None`
/// when the chunk was quarantined) plus the faults recorded while running it.
pub(crate) struct ChunkDone<V> {
    pub(crate) outcome: Option<SweepOutcome<V>>,
    pub(crate) faults: Vec<FaultRecord>,
}

/// Chunk-order prefix folder shared by all workers behind a mutex.
///
/// Chunks finish out of order; the collector parks them in `pending` and
/// folds the contiguous prefix `0..next` as it becomes available. Folding —
/// not chunk completion — is the unit of progress accounting, which makes
/// the `tuples_decided` counter idempotent under retries: a chunk index is
/// folded exactly once no matter how many attempts it took.
pub(crate) struct Collector<V> {
    pub(crate) next: usize,
    pub(crate) pending: BTreeMap<usize, ChunkDone<V>>,
    pub(crate) stats: PruneStats,
    pub(crate) blocks: BlockStats,
    pub(crate) lanes: LaneStats,
    pub(crate) faults: Vec<FaultRecord>,
    pub(crate) visitor: Option<V>,
    pub(crate) outer_len: usize,
    pub(crate) chunk_len: usize,
    pub(crate) chunks: usize,
    pub(crate) since_save: usize,
}

impl<V: Visitor> Collector<V> {
    /// Park `done` under chunk index `i`, fold the contiguous prefix, and
    /// persist a checkpoint when the sink interval elapsed.
    pub(crate) fn add(
        &mut self,
        i: usize,
        done: ChunkDone<V>,
        progress: Option<&Arc<SweepProgress>>,
        sink: Option<&CkSink<'_, V>>,
    ) -> Result<(), String> {
        self.pending.insert(i, done);
        let mut advanced = false;
        while let Some(done) = self.pending.remove(&self.next) {
            if let Some(out) = done.outcome {
                self.stats.merge(&out.stats);
                self.blocks.merge(&out.blocks);
                self.lanes.merge(&out.lanes);
                if let Some(progress) = progress {
                    progress.tuples_decided.fetch_add(
                        out.stats.survivors + out.stats.total_pruned(),
                        Ordering::Relaxed,
                    );
                }
                self.visitor = Some(match self.visitor.take() {
                    None => out.visitor,
                    Some(mut acc) => {
                        acc.merge(out.visitor);
                        acc
                    }
                });
            }
            self.faults.extend(done.faults);
            if let Some(progress) = progress {
                progress.chunks_done.fetch_add(1, Ordering::Relaxed);
            }
            self.next += 1;
            self.since_save += 1;
            advanced = true;
        }
        if advanced {
            if let Some(sink) = sink {
                if self.since_save >= sink.every.max(1) {
                    self.save(sink)?;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn save(&mut self, sink: &CkSink<'_, V>) -> Result<(), String> {
        // The visitor may be `None` before any chunk folded; persist only
        // once there is real progress (a fresh run needs no checkpoint).
        if let Some(visitor) = &self.visitor {
            (sink.write)(&CkSnapshot {
                outer_len: self.outer_len,
                chunk_len: self.chunk_len,
                chunks: self.chunks,
                next: self.next,
                stats: &self.stats,
                blocks: &self.blocks,
                faults: &self.faults,
                visitor,
            })?;
            self.since_save = 0;
        }
        Ok(())
    }
}

/// Full-control sweep driver behind [`run_parallel_report`] and
/// [`crate::checkpoint::run_checkpointed`]: dynamic chunk scheduling with
/// fault policies, panic isolation, cancellation/deadline, resume seeding
/// and periodic checkpoint persistence.
pub(crate) fn run_supervised<V, F>(
    lp: &LoweredPlan,
    opts: &ParallelOptions,
    make_visitor: F,
    resume: Option<ResumeSeed<V>>,
    sink: Option<&CkSink<'_, V>>,
    memo: Option<&dyn ChunkMemo<V>>,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send,
    F: Fn() -> V + Sync,
{
    let threads = opts.threads.max(1);
    let t_start = Instant::now();
    if opts.engine.engine == EngineTier::Walker {
        return Err(SweepError::Config(
            "the walker tier is serial-only; use the compiled or native tier \
             for parallel sweeps"
                .to_string(),
        ));
    }
    // Runtime-native tier: lower the plan to a C chunk worker and compile it
    // once up front. Preparation failure (no compiler, opaque steps, compile
    // error) silently falls back to the in-process engine — the tier is an
    // accelerator, never a requirement. Fault injection stays in-process:
    // injected faults are keyed to evaluation sites the worker binary cannot
    // observe.
    let native: Option<NativeContext> =
        if opts.engine.engine == EngineTier::Native && opts.injector.is_none() {
            NativeContext::prepare(lp, &opts.engine).ok()
        } else {
            None
        };
    // Native workers account per point in declared order (no block pruning,
    // no reordering), so when the tier is active the in-process engine that
    // evaluates fallback chunks is normalized to the same accounting —
    // otherwise a fallback chunk's PruneStats would diverge from its
    // worker-evaluated twin. Survivors, order and fingerprints are identical
    // under any options; only the evaluated/pruned split is at stake.
    let engine_opts = if native.is_some() {
        EngineOptions {
            intervals: false,
            congruence: false,
            schedule: Default::default(),
            ..opts.engine
        }
    } else {
        opts.engine
    };
    let compiled = Compiled::with_options(lp.clone(), engine_opts);
    compiled.lint_denied()?;
    let space = lp.plan.space();
    let policy = opts.fault_policy;

    let resumed_at = resume.as_ref().map(|r| r.next);
    let (mut stats, seed_blocks, seed_faults, seed_visitor, pinned) = match resume {
        Some(seed) => (
            seed.stats,
            seed.blocks,
            seed.faults,
            Some(seed.visitor),
            Some((seed.chunk_len, seed.outer_len)),
        ),
        None => (
            PruneStats::new(space.constraints().len()),
            BlockStats::default(),
            Vec::new(),
            None,
            None,
        ),
    };

    // Preamble constraints (constants only) run once per sweep. A resumed
    // run's seed statistics already include them, so it re-executes the
    // preamble (errors still surface) but records into scratch counters.
    let preamble_ok = if resumed_at.is_some() {
        let mut scratch = PruneStats::new(space.constraints().len());
        compiled.preamble_record(&mut scratch).map_err(SweepError::Eval)?
    } else {
        compiled.preamble_record(&mut stats).map_err(SweepError::Eval)?
    };

    let finish_early = |stats: PruneStats, blocks: BlockStats, faults: Vec<FaultRecord>| {
        let mut report = SweepReport::new(
            space,
            &stats,
            &blocks,
            threads,
            0,
            0,
            0,
            t_start.elapsed(),
            vec![],
            compiled.schedule_telemetry(),
            compiled.lint_summary(),
        );
        report.resumed_at = resumed_at;
        report.fault_policy = policy.name();
        report.fault_counters = FaultCounters::from_records(&faults);
        report.faults = faults;
        report.native = native.as_ref().map(|n| n.stats());
        report
    };

    if !preamble_ok {
        let report = finish_early(stats.clone(), seed_blocks, seed_faults.clone());
        return Ok((
            SweepOutcome {
                stats,
                blocks: seed_blocks,
                lanes: LaneStats::default(),
                schedule: None,
                visitor: seed_visitor.unwrap_or_else(&make_visitor),
            },
            report,
        ));
    }

    let outer = compiled.outer_domain().map_err(SweepError::Eval)?;
    if outer.is_empty() {
        let report = finish_early(stats.clone(), seed_blocks, seed_faults.clone());
        return Ok((
            SweepOutcome {
                stats,
                blocks: seed_blocks,
                lanes: LaneStats::default(),
                schedule: None,
                visitor: seed_visitor.unwrap_or_else(&make_visitor),
            },
            report,
        ));
    }

    if let Some((_, expected_outer)) = pinned {
        if outer.len() != expected_outer {
            return Err(SweepError::Checkpoint(format!(
                "checkpointed level-0 domain has {expected_outer} value(s) but the \
                 realized domain has {}; the space changed since the checkpoint",
                outer.len()
            )));
        }
    }
    let chunk_len = pinned.map(|(len, _)| len).unwrap_or_else(|| {
        chunk_len_for(lp, outer.len(), threads, opts.chunks_per_thread, opts.chunk_count)
    });
    let chunks: Vec<&[i64]> = outer.chunks(chunk_len.max(1)).collect();
    let start = resumed_at.unwrap_or(0).min(chunks.len());
    let limit = if opts.stop_after_chunks > 0 {
        (start + opts.stop_after_chunks).min(chunks.len())
    } else {
        chunks.len()
    };
    if let Some(progress) = &opts.progress {
        progress.chunks_total.store(chunks.len(), Ordering::Relaxed);
        progress.chunks_done.store(start, Ordering::Relaxed);
        progress
            .tuples_decided
            .store(stats.survivors + stats.total_pruned(), Ordering::Relaxed);
    }

    let probe = CancelProbe::new(opts.cancel.clone(), opts.deadline.map(|d| t_start + d));
    let n_workers = threads.min((limit - start).max(1));
    let cursor = AtomicUsize::new(start);
    let memo_hits = AtomicU64::new(0);
    let memo_misses = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let collector = Mutex::new(Collector {
        next: start,
        pending: BTreeMap::new(),
        stats,
        blocks: seed_blocks,
        // Lane telemetry is not checkpointed (it is observational only, like
        // the schedule); a resumed run reports counters for its own chunks.
        lanes: LaneStats::default(),
        faults: seed_faults,
        visitor: seed_visitor,
        outer_len: outer.len(),
        chunk_len,
        chunks: chunks.len(),
        since_save: 0,
    });

    let fail = |err: SweepError| {
        let mut slot = first_error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
        abort.store(true, Ordering::Relaxed);
    };

    // Each worker drains the shared cursor; finished chunks are folded in
    // chunk-index order by the collector, so the merged result is
    // independent of the race for chunks. Errors and panics are resolved
    // per the fault policy right here, at the chunk boundary.
    let worker_loop = |worker: usize| -> WorkerTelemetry {
        let mut telemetry = WorkerTelemetry {
            worker,
            chunks: 0,
            busy: Duration::ZERO,
            evaluated: 0,
            survivors: 0,
        };
        let (retry_max, backoff_ms) = match policy {
            FaultPolicy::Retry { max, backoff_ms } => (max, backoff_ms),
            _ => (0, 0),
        };
        'pull: loop {
            if abort.load(Ordering::Relaxed) || probe.cancelled() {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= limit {
                break;
            }
            let t0 = Instant::now();
            let mut chunk_faults: Vec<FaultRecord> = Vec::new();
            let mut outcome: Option<SweepOutcome<V>> = None;
            // Sub-sweep cache: a hit replaces evaluation of this chunk with
            // the memoized outcome, folded exactly where a fresh one would
            // be — the merge path cannot tell the difference.
            if let Some(memo) = memo {
                if let Some(cached) = memo.lookup(i, chunks[i]) {
                    memo_hits.fetch_add(1, Ordering::Relaxed);
                    telemetry.busy += t0.elapsed();
                    telemetry.chunks += 1;
                    // Replayed work still counts toward the merged totals,
                    // so worker sums keep matching the report.
                    telemetry.evaluated += cached.stats.evaluated.iter().sum::<u64>();
                    telemetry.survivors += cached.stats.survivors;
                    let folded = collector.lock().unwrap().add(
                        i,
                        ChunkDone { outcome: Some(cached), faults: Vec::new() },
                        opts.progress.as_ref(),
                        sink,
                    );
                    if let Err(msg) = folded {
                        fail(SweepError::Checkpoint(msg));
                        break;
                    }
                    continue 'pull;
                }
                memo_misses.fetch_add(1, Ordering::Relaxed);
            }
            // Native tier: dispatch the chunk to a worker process. Any
            // worker-side failure (spawn, crash, protocol violation) is
            // counted and falls through to the in-process path below — the
            // fallback re-evaluates from scratch, and no visit happened yet
            // because the worker's output is fully validated before replay.
            if let Some(nat) = &native {
                match nat.run_chunk(chunks[i], compiled.point_names(), make_visitor()) {
                    Ok(out) => {
                        if let Some(memo) = memo {
                            memo.store(i, chunks[i], &out);
                        }
                        telemetry.busy += t0.elapsed();
                        telemetry.chunks += 1;
                        telemetry.evaluated += out.stats.evaluated.iter().sum::<u64>();
                        telemetry.survivors += out.stats.survivors;
                        let folded = collector.lock().unwrap().add(
                            i,
                            ChunkDone { outcome: Some(out), faults: Vec::new() },
                            opts.progress.as_ref(),
                            sink,
                        );
                        if let Err(msg) = folded {
                            fail(SweepError::Checkpoint(msg));
                            break;
                        }
                        continue 'pull;
                    }
                    Err(_) => nat.note_fallback(),
                }
            }
            for attempt in 0..=retry_max {
                if attempt > 0 && backoff_ms > 0 {
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                }
                let ctx = ChunkCtx {
                    policy,
                    injector: opts.injector.as_ref(),
                    chunk: i,
                    attempt,
                    cancel: Some(&probe),
                };
                let attempt_result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(inj) = &opts.injector {
                        if inj.chunk_panic(i, attempt) {
                            panic!("injected panic (chunk {i})");
                        }
                    }
                    compiled.run_outer_chunk_supervised(chunks[i], make_visitor(), &ctx)
                }));
                let (kind, error, site, bindings) = match attempt_result {
                    Ok(Ok(run)) => {
                        chunk_faults.extend(run.faults);
                        outcome = Some(run.outcome);
                        break;
                    }
                    Ok(Err(EvalError::Cancelled)) => {
                        // Cancel/deadline tripped mid-chunk: drop the chunk
                        // entirely (it will be re-run on resume) and stop.
                        telemetry.busy += t0.elapsed();
                        break 'pull;
                    }
                    Ok(Err(e)) => {
                        if policy == FaultPolicy::Abort {
                            fail(SweepError::Eval(e));
                            telemetry.busy += t0.elapsed();
                            break 'pull;
                        }
                        let (site, bindings) = match e.point_context() {
                            Some(ctx) => (ctx.site.clone(), ctx.bindings.clone()),
                            None => ("chunk".to_string(), Vec::new()),
                        };
                        (FaultKind::Error, e.root().to_string(), site, bindings)
                    }
                    Err(payload) => {
                        let message = panic_message(payload);
                        if policy == FaultPolicy::Abort {
                            fail(SweepError::WorkerPanic { chunk: Some(i), message });
                            telemetry.busy += t0.elapsed();
                            break 'pull;
                        }
                        (FaultKind::Panic, message, "chunk".to_string(), Vec::new())
                    }
                };
                let exhausted = attempt == retry_max;
                chunk_faults.push(FaultRecord {
                    chunk: i,
                    ordinal: 0,
                    attempt,
                    kind,
                    action: if exhausted {
                        FaultAction::QuarantinedChunk
                    } else {
                        FaultAction::Retried
                    },
                    site,
                    error,
                    bindings,
                });
                if exhausted {
                    break;
                }
            }
            if let (Some(memo), Some(out)) = (memo, &outcome) {
                // Only clean chunks are cacheable: an outcome shaped by a
                // fault policy (skipped points, retries) must be recomputed,
                // not replayed under a possibly different policy.
                if chunk_faults.is_empty() {
                    memo.store(i, chunks[i], out);
                }
            }
            telemetry.busy += t0.elapsed();
            telemetry.chunks += 1;
            if let Some(out) = &outcome {
                telemetry.evaluated += out.stats.evaluated.iter().sum::<u64>();
                telemetry.survivors += out.stats.survivors;
            }
            let folded = collector.lock().unwrap().add(
                i,
                ChunkDone { outcome, faults: chunk_faults },
                opts.progress.as_ref(),
                sink,
            );
            if let Err(msg) = folded {
                fail(SweepError::Checkpoint(msg));
                break;
            }
        }
        telemetry
    };

    let mut workers: Vec<WorkerTelemetry> = if n_workers == 1 {
        vec![worker_loop(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| scope.spawn(move || worker_loop(w)))
                .collect();
            handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(telemetry) => Some(telemetry),
                    Err(payload) => {
                        // The supervisor loop itself panicked (outside the
                        // per-chunk catch_unwind). Surface it as a structured
                        // error instead of re-panicking in the orchestrator.
                        fail(SweepError::WorkerPanic {
                            chunk: None,
                            message: panic_message(payload),
                        });
                        None
                    }
                })
                .collect()
        })
    };
    workers.sort_by_key(|w| w.worker);

    if let Some(err) = first_error.into_inner().unwrap() {
        return Err(err);
    }

    let mut collector = collector.into_inner().unwrap();
    let partial = collector.next < chunks.len();
    if let Some(sink) = sink {
        // Final flush so the file always reflects the folded prefix edge.
        collector.save(sink).map_err(SweepError::Checkpoint)?;
    }
    let Collector { stats, blocks, lanes, faults, visitor, .. } = collector;

    let mut report = SweepReport::new(
        space,
        &stats,
        &blocks,
        threads,
        outer.len(),
        chunk_len,
        chunks.len(),
        t_start.elapsed(),
        workers,
        compiled.schedule_telemetry(),
        compiled.lint_summary(),
    );
    report.partial = partial;
    report.resumed_at = resumed_at;
    report.fault_policy = policy.name();
    report.fault_counters = FaultCounters::from_records(&faults);
    report.faults = faults;
    report.cache_hits = memo_hits.into_inner();
    report.cache_misses = memo_misses.into_inner();
    report.lanes = lanes.clone();
    report.native = native.as_ref().map(|n| n.stats());
    Ok((
        SweepOutcome {
            stats,
            blocks,
            lanes,
            schedule: compiled.learned_orders(),
            visitor: visitor.unwrap_or_else(make_visitor),
        },
        report,
    ))
}

/// Render a caught panic payload (almost always a `String` or `&str`).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Pick the number of level-0 values per scheduler chunk.
///
/// An explicit `chunk_count` pins the grid regardless of thread count. With
/// one thread the whole domain is otherwise one chunk (serial fast path).
/// With more, the domain is cut into `threads × chunks_per_thread` pieces,
/// where `chunks_per_thread` comes from the caller or, automatically, from
/// whether the plan's inner loop domains are statically sized
/// ([`LoweredPlan::static_fanout_below_outer`]): dependent or opaque inner
/// domains mean skewed subtree costs and get 4× finer chunks.
pub(crate) fn chunk_len_for(
    lp: &LoweredPlan,
    outer_len: usize,
    threads: usize,
    chunks_per_thread: usize,
    chunk_count: usize,
) -> usize {
    if chunk_count > 0 {
        return outer_len.div_ceil(chunk_count).max(1);
    }
    if threads <= 1 {
        return outer_len;
    }
    let per_thread = if chunks_per_thread > 0 {
        chunks_per_thread
    } else if lp.static_fanout_below_outer().is_some() {
        CHUNKS_PER_THREAD_UNIFORM
    } else {
        CHUNKS_PER_THREAD_SKEWED
    };
    outer_len.div_ceil(threads.saturating_mul(per_thread).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    use crate::visit::{CollectVisitor, CountVisitor};

    fn lowered(space: &std::sync::Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    fn space() -> std::sync::Arc<Space> {
        Space::builder("par")
            .constant("cap", 300)
            .range("a", 1, 33)
            .range("b", 1, 33)
            .range_step("c", var("a"), 65, var("a"))
            .derived("abc", var("a") * var("b") + var("c"))
            .constraint("over", ConstraintClass::Hard, var("abc").gt(var("cap")))
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_matches_serial_for_any_thread_count() {
        let lp = lowered(&space());
        let serial = Compiled::new(lp.clone()).run(CountVisitor::default()).unwrap();
        for threads in [1, 2, 3, 8, 64] {
            let par = run_parallel(&lp, threads, CountVisitor::default).unwrap();
            assert_eq!(par.visitor.count, serial.visitor.count, "{threads} threads");
            assert_eq!(par.stats, serial.stats, "{threads} threads");
        }
    }

    #[test]
    fn chunk_order_gives_deterministic_collection() {
        let lp = lowered(&space());
        let names = Compiled::new(lp.clone()).point_names().clone();
        let serial = Compiled::new(lp.clone())
            .run(CollectVisitor::new(names.clone(), usize::MAX))
            .unwrap();
        let par = run_parallel(&lp, 4, || CollectVisitor::new(names.clone(), usize::MAX))
            .unwrap();
        assert_eq!(par.visitor.points, serial.visitor.points);
    }

    #[test]
    fn explicit_chunks_per_thread_respected() {
        let lp = lowered(&space());
        let opts = ParallelOptions {
            threads: 2,
            chunks_per_thread: 4,
            ..ParallelOptions::default()
        };
        let (_, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        // 32 outer values into 2×4 = 8 target chunks → chunk_len 4.
        assert_eq!(report.chunk_len, 4);
        assert_eq!(report.chunks, 8);
    }

    #[test]
    fn explicit_chunk_count_pins_grid_across_thread_counts() {
        let lp = lowered(&space());
        let mut reports = Vec::new();
        for threads in [1, 3, 8] {
            let opts = ParallelOptions {
                threads,
                chunk_count: 5,
                ..ParallelOptions::default()
            };
            let (_, report) =
                run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
            reports.push(report);
        }
        assert!(reports.iter().all(|r| r.chunk_len == reports[0].chunk_len));
        assert!(reports.iter().all(|r| r.chunks == 5));
    }

    #[test]
    fn skewed_plans_get_finer_chunks_than_uniform_ones() {
        // `space()` has a range_step loop depending on `a` → skewed.
        let skewed = lowered(&space());
        assert_eq!(skewed.static_fanout_below_outer(), None);
        assert_eq!(
            chunk_len_for(&skewed, 1024, 4, 0, 0),
            1024usize.div_ceil(4 * CHUNKS_PER_THREAD_SKEWED)
        );
        let uniform = lowered(
            &Space::builder("uni")
                .range("a", 0, 1024)
                .range("b", 0, 7)
                .build()
                .unwrap(),
        );
        assert!(uniform.static_fanout_below_outer().is_some());
        assert_eq!(
            chunk_len_for(&uniform, 1024, 4, 0, 0),
            1024usize.div_ceil(4 * CHUNKS_PER_THREAD_UNIFORM)
        );
        // Serial runs never split; an explicit chunk count overrides all.
        assert_eq!(chunk_len_for(&uniform, 1024, 1, 0, 0), 1024);
        assert_eq!(chunk_len_for(&uniform, 1024, 1, 0, 16), 64);
    }

    #[test]
    fn report_accounts_for_all_chunks_and_work() {
        let lp = lowered(&space());
        let serial = Compiled::new(lp.clone()).run(CountVisitor::default()).unwrap();
        let (out, report) =
            run_parallel_report(&lp, &ParallelOptions::new(4), CountVisitor::default).unwrap();
        assert_eq!(out.stats, serial.stats);
        assert_eq!(report.chunks, report.outer_len.div_ceil(report.chunk_len));
        let worker_chunks: u64 = report.workers.iter().map(|w| w.chunks).sum();
        assert_eq!(worker_chunks, report.chunks as u64);
        let worker_survivors: u64 = report.workers.iter().map(|w| w.survivors).sum();
        assert_eq!(worker_survivors, report.survivors);
        // Workers never record the preamble, so their evaluation totals sum
        // to the merged totals minus the preamble-recorded ones (none here).
        let worker_evaluated: u64 = report.workers.iter().map(|w| w.evaluated).sum();
        assert_eq!(worker_evaluated, report.evaluated);
        assert!(report.imbalance() >= 1.0);
        assert!(!report.partial);
        assert_eq!(report.fault_policy, "abort");
        assert!(report.faults.is_empty());
    }

    #[test]
    fn progress_counters_reach_totals() {
        let lp = lowered(&space());
        let progress = Arc::new(SweepProgress::default());
        let opts = ParallelOptions {
            threads: 4,
            chunks_per_thread: 0,
            progress: Some(progress.clone()),
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        let snap = progress.snapshot();
        assert_eq!(snap.chunks_done, snap.chunks_total);
        assert_eq!(snap.chunks_total, report.chunks);
        assert_eq!(snap.tuples_decided, out.stats.survivors + out.stats.total_pruned());
        assert!((progress.fraction_done() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_threads_than_outer_values() {
        let s = Space::builder("tiny").range("x", 0, 3).build().unwrap();
        let lp = lowered(&s);
        let out = run_parallel(&lp, 16, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 3);
    }

    #[test]
    fn preamble_rejection_short_circuits() {
        let s = Space::builder("pre")
            .constant("off", 1)
            .range("x", 0, 1000)
            .constraint("disabled", ConstraintClass::Generic, var("off").eq(1))
            .build()
            .unwrap();
        let lp = lowered(&s);
        let out = run_parallel(&lp, 4, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 0);
        assert_eq!(out.stats.pruned[0], 1);
        assert_eq!(out.stats.evaluated[0], 1);
    }

    #[test]
    fn empty_outer_domain() {
        let s = Space::builder("empty").range("x", 5, 5).build().unwrap();
        let lp = lowered(&s);
        let out = run_parallel(&lp, 4, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 0);
    }

    fn dz_space() -> std::sync::Arc<Space> {
        Space::builder("dz")
            .range("x", 0, 64)
            .derived("bad", var("x") / (var("x") - 10))
            .build()
            .unwrap()
    }

    #[test]
    fn errors_propagate_from_workers_with_point_context() {
        let lp = lowered(&dz_space());
        let err = run_parallel(&lp, 4, CountVisitor::default).unwrap_err();
        let SweepError::Eval(e) = err else {
            panic!("expected Eval error, got {err:?}")
        };
        assert_eq!(e.root(), &beast_core::error::EvalError::DivisionByZero);
        let ctx = e.point_context().expect("escaped error carries point context");
        assert_eq!(ctx.site, "bad");
        assert_eq!(ctx.bindings, vec![("x".to_string(), 10)]);
    }

    #[test]
    fn skip_point_policy_drops_only_the_bad_point() {
        let lp = lowered(&dz_space());
        let opts = ParallelOptions {
            threads: 4,
            fault_policy: FaultPolicy::SkipPoint,
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        // Only x = 10 divides by zero; the other 63 values survive.
        assert_eq!(out.visitor.count, 63);
        assert_eq!(report.fault_counters.points_skipped, 1);
        assert_eq!(report.faults.len(), 1);
        let r = &report.faults[0];
        assert_eq!(r.site, "bad");
        assert_eq!(r.bindings, vec![("x".to_string(), 10)]);
        assert_eq!(r.kind, FaultKind::Error);
        assert_eq!(r.action, FaultAction::SkippedPoint);
        assert!(!report.partial);
    }

    #[test]
    fn quarantine_policy_drops_the_chunk_and_continues() {
        let lp = lowered(&dz_space());
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 16, // 64 values → chunk_len 4; x = 10 is in chunk 2
            fault_policy: FaultPolicy::QuarantineChunk,
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 60, "one 4-value chunk dropped");
        assert_eq!(report.fault_counters.chunks_quarantined, 1);
        assert_eq!(report.faults[0].chunk, 2);
        assert!(!report.partial);
    }

    #[test]
    fn retry_policy_quarantines_after_exhaustion() {
        let lp = lowered(&dz_space());
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 16,
            fault_policy: FaultPolicy::Retry { max: 2, backoff_ms: 0 },
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        // The fault is persistent, so every retry fails and the chunk is
        // quarantined; the record trail shows both retries.
        assert_eq!(out.visitor.count, 60);
        assert_eq!(report.fault_counters.retries, 2);
        assert_eq!(report.fault_counters.chunks_quarantined, 1);
        let actions: Vec<_> = report.faults.iter().map(|r| r.action).collect();
        assert_eq!(
            actions,
            vec![
                FaultAction::Retried,
                FaultAction::Retried,
                FaultAction::QuarantinedChunk
            ]
        );
        assert_eq!(report.faults.iter().map(|r| r.attempt).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn injected_panics_are_isolated_and_recorded() {
        let lp = lowered(&space());
        let clean = run_parallel(&lp, 2, CountVisitor::default).unwrap();
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 8,
            fault_policy: FaultPolicy::QuarantineChunk,
            injector: Some(FaultInjector::new(11).panic_rate(0.3)),
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        assert!(report.fault_counters.panics > 0, "seed 11 at 30% must hit ≥ 1 of 8 chunks");
        assert!(out.visitor.count < clean.visitor.count);
        assert!(report.faults.iter().all(|r| r.kind == FaultKind::Panic));
        assert!(report.faults.iter().all(|r| r.error.contains("injected panic")));
    }

    #[test]
    fn abort_policy_surfaces_panic_as_structured_error() {
        let lp = lowered(&space());
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 8,
            injector: Some(FaultInjector::new(11).panic_rate(0.3)),
            ..ParallelOptions::default()
        };
        let err = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap_err();
        let SweepError::WorkerPanic { chunk, message } = err else {
            panic!("expected WorkerPanic, got {err:?}")
        };
        assert!(chunk.is_some());
        assert!(message.contains("injected panic"));
    }

    #[test]
    fn stop_after_chunks_yields_partial_prefix() {
        let lp = lowered(&space());
        let progress = Arc::new(SweepProgress::default());
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 8,
            stop_after_chunks: 3,
            progress: Some(progress.clone()),
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        assert!(report.partial);
        assert_eq!(progress.snapshot().chunks_done, 3);
        // The partial outcome is exactly the serial prefix of 3 chunks.
        let compiled = Compiled::new(lp.clone());
        let outer = compiled.outer_domain().unwrap();
        let prefix = &outer[..(3 * report.chunk_len).min(outer.len())];
        let serial = compiled.run_outer_chunk(prefix, CountVisitor::default()).unwrap();
        assert_eq!(out.visitor.count, serial.visitor.count);
        assert_eq!(out.stats.survivors, serial.stats.survivors);
    }

    #[test]
    fn cancel_token_stops_the_sweep_before_it_starts() {
        let lp = lowered(&space());
        let cancel = Arc::new(CancelToken::new());
        cancel.cancel();
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 8,
            cancel: Some(cancel),
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        assert!(report.partial);
        assert_eq!(out.visitor.count, 0);
    }
}
