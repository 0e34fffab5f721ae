//! The sweep supervisor — the paper's Section X-B observation that
//! parallelization "can be very beneficial at the outermost loop nests,
//! close to level 0", implemented once: one frame (`run_supervised`: set-up
//! → deal → chunk-order fold → report), reached only through
//! [`crate::sweep::sweep`] and the [`SweepSpec`] it runs, that keeps a multi-hour sweep alive
//! across bad points, panicking chunks, dead workers, deadlines and process
//! restarts, and one question it asks per chunk — *where does this chunk
//! run?* — answered by a crate-private `ChunkExecutor`: on the slot's own
//! thread, in a resident native C worker process ([`crate::native`]: one
//! process per busy slot, not per chunk), or in a distribute worker over a
//! pipe ([`crate::distribute`]).
//!
//! # Dynamic scheduling
//!
//! The driver realizes the outermost loop's domain once (level-0 iterators
//! read only constants and preamble values, which the engine's build
//! evaluated once) and splits it into chunks that
//! are deliberately *finer* than one-per-slot. Slots then pull chunks from a
//! shared cursor as they finish — a work-stealing-style dynamic schedule
//! with a single global queue. A one-slot sweep runs inline on the caller's
//! thread.
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
//! [`SweepSpec::chunk_count`].
//!
//! # Who owns what
//!
//! An executor answers one of four things for a dealt chunk: *done* (a
//! validated outcome from elsewhere), *local* (evaluate here), *worker-level
//! fault* (the worker died, stalled or lied) or *abort*. Everything else is
//! the frame's and exists once: the cursor, re-dealing with backoff,
//! [`FaultRecord`] bookkeeping and quarantine, memo lookup and store, worker
//! telemetry, cancellation, and the single call that folds a chunk into the
//! chunk-order collector (which also drives checkpoint writes). Local
//! evaluation is one function, `attempt_chunk` — the per-policy retry loop
//! under [`std::panic::catch_unwind`] — which a distribute worker process
//! calls too, so a chunk's outcome and fault records do not depend on where
//! it ran.
//!
//! # Fault supervision
//!
//! [`SweepSpec::fault_policy`] decides what an
//! [`EvalError`] or a chunk panic does to the
//! sweep: abort it (the default, with panics surfaced as structured
//! [`SweepError::WorkerPanic`] instead of poisoning the orchestrator), skip
//! the failing point, quarantine the chunk, or retry the chunk with backoff.
//! Every recovered fault becomes a [`FaultRecord`] merged in chunk order and
//! surfaced in the [`SweepReport`]. Per-chunk state is private, so a
//! poisoned chunk never corrupts the merged outcome.
//!
//! Cooperative cancellation ([`SweepSpec::cancel`]) and wall-clock
//! deadlines ([`SweepSpec::deadline`]) are polled both between chunks
//! and *inside* chunks (every few thousand loop advances), so stopping
//! latency is bounded by the poll interval, not by chunk length. A stopped
//! sweep returns the merged chunk-order prefix with
//! [`SweepReport::partial`] set — resumable when checkpointing is on (see
//! [`crate::checkpoint`]).
//!
//! # Determinism contract
//!
//! For a given plan, [`crate::sweep::sweep`] produces results **bit-for-bit
//! identical to the serial [`Compiled::run`] and to itself at every slot
//! count, and wherever its chunks run**:
//!
//! * each chunk is evaluated with a private visitor and statistics block
//!   (no shared mutable state on the hot path);
//! * per-chunk results are merged *in chunk order* — which slot happened
//!   to take a chunk, and where it ran, never affects the merged outcome;
//! * chunk boundaries only partition the level-0 domain, so concatenating
//!   chunk results in order reproduces the serial visit order exactly;
//! * the preamble (the defines and checks before the first loop) runs once,
//!   when the engine is built, by the same interpreter as the loops: every
//!   chunk starts from its values, its rows join the merged statistics
//!   once, and its error — annotated exactly as a serial run's — fails the
//!   sweep before any chunk is dealt.
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
//! frame consults the spec's cache (a `ScopedMemo`) at each chunk boundary, and
//! because a stored fault-free outcome is folded exactly where evaluation
//! would have folded, a cache hit cannot change the merge. The
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

use crate::checkpoint::{write_checkpoint, CheckpointConfig, StateCodec};
use crate::compiled::{ChunkCtx, Compiled};
use crate::fault::{CancelProbe, FaultAction, FaultInjector, FaultKind, FaultPolicy, FaultRecord};
use crate::service::cache::ScopedMemo;
use crate::stats::{BlockStats, FaultCounters, PruneStats};
use crate::sweep::{sweep, SweepError, SweepSpec};
use crate::telemetry::{SweepProgress, SweepReport, WorkerTelemetry};
use crate::visit::{FingerprintVisitor, Visitor};
use crate::walker::SweepOutcome;

/// Chunks per thread when inner loop domains are statically sized (near-
/// uniform subtree cost; chunks mainly serve scheduling slack).
const CHUNKS_PER_THREAD_UNIFORM: usize = 8;

/// Chunks per thread when some inner domain depends on outer variables or
/// is opaque (skewed subtree cost; fine chunks are what balances the load).
const CHUNKS_PER_THREAD_SKEWED: usize = 32;

/// [`SweepSpec`] under its former name, kept for the benchmark harness;
/// the default visitor is the one it sweeps with.
pub type ParallelOptions<V = FingerprintVisitor> = SweepSpec<'static, V>;

/// [`sweep`] under its former name, kept for the benchmark harness.
pub fn run_parallel_report<V, F>(
    lp: &LoweredPlan,
    opts: &SweepSpec<'_, V>,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send,
    F: Fn() -> V + Sync,
{
    sweep(lp, opts, make_visitor)
}

/// Where and how often to persist checkpoints during a supervised run; a
/// failed write aborts the sweep with [`SweepError::Checkpoint`].
pub(crate) struct CkSink<'a, V> {
    pub ck: &'a CheckpointConfig,
    pub space: &'a str,
    /// [`crate::compiled::EngineOptions::signature`] of the sweep.
    pub engine_sig: &'a str,
    pub codec: StateCodec<V>,
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
///
/// The folded prefix and its grid are also all a checkpoint holds: the
/// file is written from the collector, and a resumed sweep starts from the
/// collector read back from it (its `outer_len` re-validated against the
/// realized domain, its `chunk_len` pinning the grid, because chunk indices
/// key the completed prefix and the injector).
pub(crate) struct Collector<V> {
    pub(crate) next: usize,
    pub(crate) pending: BTreeMap<usize, ChunkDone<V>>,
    pub(crate) stats: PruneStats,
    pub(crate) blocks: BlockStats,
    pub(crate) faults: Vec<FaultRecord>,
    pub(crate) visitor: Option<V>,
    pub(crate) outer_len: usize,
    pub(crate) chunk_len: usize,
    pub(crate) chunks: usize,
    pub(crate) since_save: usize,
}

impl<V: Visitor> Collector<V> {
    /// An empty prefix of a sweep over `n_constraints` constraints.
    pub(crate) fn new(n_constraints: usize) -> Collector<V> {
        Collector {
            next: 0,
            pending: BTreeMap::new(),
            stats: PruneStats::new(n_constraints),
            blocks: BlockStats::default(),
            faults: Vec::new(),
            visitor: None,
            outer_len: 0,
            chunk_len: 0,
            chunks: 0,
            since_save: 0,
        }
    }

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
                if self.since_save >= sink.ck.every_chunks.max(1) {
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
            write_checkpoint(&sink.ck.path, sink.space, sink.engine_sig, self, visitor, sink.codec)?;
            self.since_save = 0;
        }
        Ok(())
    }
}

/// What a slot's [`ChunkExecutor`] answers for one dealt chunk. Everything
/// that follows an answer — re-dealing, backoff, fault records, memo store,
/// telemetry, the fold — is the frame's, so it exists once.
pub(crate) enum Answer<V> {
    /// Evaluated elsewhere and validated in full: fold it.
    Done(ChunkDone<V>),
    /// Evaluate on this thread with [`attempt_chunk`] (the in-thread
    /// executor always; a native fallback; a degraded distribute slot).
    Local,
    /// Worker-level fault (death, silence, lie): the frame records it and
    /// re-deals the chunk or, with the budget spent, quarantines it.
    Fault { kind: FaultKind, error: String },
    /// Stop the sweep with this error.
    Abort(SweepError),
}

/// "Evaluate chunk *k* somewhere": the seam between the one sweep frame
/// ([`run_supervised`]) and where a chunk actually runs. Three
/// implementations: [`InThread`], [`NativeContext`] (a pool of resident C
/// worker processes, one per busy slot) and the distribute link in
/// [`crate::distribute`].
pub(crate) trait ChunkExecutor<V>: Sync {
    /// Answer for `chunk` (covering `values`) dealt to worker slot `slot`.
    fn run(
        &self,
        slot: usize,
        chunk: usize,
        values: &[i64],
        compiled: &Compiled,
        make_visitor: &dyn Fn() -> V,
    ) -> Answer<V>;

    /// `(deals beyond the first, base backoff ms)` for a chunk answered with
    /// [`Answer::Fault`]; the backoff doubles per deal.
    fn redeal(&self) -> (u32, u64) {
        (0, 0)
    }

    /// Slot `slot` pulls no more chunks: release what it holds.
    fn close(&self, _slot: usize) {}

    /// Add this executor's counters to the sweep report.
    fn stamp(&self, _report: &mut SweepReport) {}
}

/// The in-thread executor: every chunk runs on the slot's own thread.
pub(crate) struct InThread;

impl<V> ChunkExecutor<V> for InThread {
    fn run(&self, _: usize, _: usize, _: &[i64], _: &Compiled, _: &dyn Fn() -> V) -> Answer<V> {
        Answer::Local
    }
}

/// Hard ceiling on one re-deal backoff sleep, so exponential growth cannot
/// stall the deal for minutes.
const MAX_BACKOFF_MS: u64 = 2_000;

/// Evaluate one chunk on the calling thread: the per-policy retry loop with
/// panic isolation and structured fault records. The only copy — the sweep
/// frame runs it for [`Answer::Local`], and a distribute worker process
/// runs it for every shard — so outcomes and records are bit-identical
/// wherever a chunk lands.
///
/// `Err` is what stops a sweep: the structured [`SweepError::Eval`] (site and
/// bindings intact) or [`SweepError::WorkerPanic`] under
/// [`FaultPolicy::Abort`], and a bare `Eval(EvalError::Cancelled)` under any
/// policy when `cancel` tripped mid-chunk.
pub(crate) fn attempt_chunk<V: Visitor>(
    compiled: &Compiled,
    values: &[i64],
    chunk: usize,
    policy: FaultPolicy,
    injector: Option<&FaultInjector>,
    cancel: Option<&CancelProbe>,
    make_visitor: &dyn Fn() -> V,
) -> Result<ChunkDone<V>, SweepError> {
    let (retry_max, backoff_ms) = match policy {
        FaultPolicy::Retry { max, backoff_ms } => (max, backoff_ms),
        _ => (0, 0),
    };
    let mut faults: Vec<FaultRecord> = Vec::new();
    let mut outcome: Option<SweepOutcome<V>> = None;
    for attempt in 0..=retry_max {
        if attempt > 0 && backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(backoff_ms));
        }
        let ctx = ChunkCtx { policy, injector, chunk, attempt, cancel };
        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            if injector.is_some_and(|inj| inj.chunk_panic(chunk, attempt)) {
                panic!("injected panic (chunk {chunk})");
            }
            compiled.run_loops(Some(values), make_visitor(), &ctx)
        }));
        let (kind, error, site, bindings) = match attempt_result {
            Ok(Ok(run)) => {
                faults.extend(run.faults);
                outcome = Some(run.outcome);
                break;
            }
            // Cancel/deadline tripped mid-chunk: the caller drops the chunk
            // entirely (it is re-run on resume).
            Ok(Err(e)) if policy == FaultPolicy::Abort || matches!(e, EvalError::Cancelled) => {
                return Err(SweepError::Eval(e));
            }
            Ok(Err(e)) => {
                let (site, bindings) = match e.point_context() {
                    Some(ctx) => (ctx.site.clone(), ctx.bindings.clone()),
                    None => ("chunk".to_string(), Vec::new()),
                };
                (FaultKind::Error, e.root().to_string(), site, bindings)
            }
            Err(payload) => {
                let message = panic_message(payload);
                if policy == FaultPolicy::Abort {
                    return Err(SweepError::WorkerPanic { chunk: Some(chunk), message });
                }
                (FaultKind::Panic, message, "chunk".to_string(), Vec::new())
            }
        };
        let exhausted = attempt == retry_max;
        faults.push(FaultRecord {
            chunk,
            ordinal: 0,
            attempt,
            kind,
            action: if exhausted { FaultAction::QuarantinedChunk } else { FaultAction::Retried },
            site,
            error,
            bindings,
        });
        if exhausted {
            break;
        }
    }
    Ok(ChunkDone { outcome, faults })
}

/// The one sweep frame: set-up (resume seeding, the build's preamble rows,
/// level-0 grid) → deal (`opts.slots` slots drain one cursor, each asking `exec`
/// where its chunk runs and re-dealing it after a worker-level fault) →
/// chunk-order fold (the single [`Collector::add`] call site, with periodic
/// checkpoints) → report.
/// Threaded, native-process and distributed sweeps differ only in `exec`.
///
/// The frame sweeps the engine [`sweep`] decided on: `opts.engine` is not
/// read, `compiled`'s own options are what runs. `t_start` is the report clock and
/// the deadline's origin; callers start it before the build they want
/// `elapsed` to cover.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervised<V, F>(
    compiled: &Compiled,
    t_start: Instant,
    opts: &SweepSpec<'_, V>,
    make_visitor: F,
    resume: Option<Collector<V>>,
    sink: Option<&CkSink<'_, V>>,
    memo: Option<&ScopedMemo<'_, V>>,
    exec: &dyn ChunkExecutor<V>,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send,
    F: Fn() -> V + Sync,
{
    let threads = opts.slots.max(1);
    compiled.lint_denied()?;
    let lp = compiled.lowered();
    let space = lp.plan.space();
    let policy = opts.fault_policy;

    let resumed_at = resume.as_ref().map(|seed| seed.next);
    let mut collector = resume.unwrap_or_else(|| Collector::new(space.constraints().len()));

    // The build ran the preamble once: its error fails the sweep before any
    // chunk is dealt (under every policy), a rejection leaves the level-0
    // domain empty, and its rows join a fresh sweep's statistics — a resumed
    // sweep's seed already holds them.
    let outer = compiled.outer_domain().map_err(SweepError::Eval)?;
    if resumed_at.is_none() {
        collector.stats.merge(compiled.preamble_stats());
    }

    // `grid` is (level-0 values, chunk length, chunks): zeros when the sweep
    // ends before any chunk is cut.
    let report = |stats: &PruneStats,
                  blocks: &BlockStats,
                  faults: Vec<FaultRecord>,
                  grid: (usize, usize, usize),
                  workers: Vec<WorkerTelemetry>| {
        let mut report = SweepReport::new(
            space,
            stats,
            blocks,
            threads,
            grid.0,
            grid.1,
            grid.2,
            t_start.elapsed(),
            workers,
            compiled.lint_summary(),
        );
        report.resumed_at = resumed_at;
        report.fault_policy = policy.name();
        report.fault_counters = FaultCounters::from_records(&faults);
        report.faults = faults;
        exec.stamp(&mut report);
        report
    };

    if outer.is_empty() {
        let Collector { stats, blocks, faults, visitor, .. } = collector;
        let report = report(&stats, &blocks, faults, (0, 0, 0), vec![]);
        let visitor = visitor.unwrap_or_else(&make_visitor);
        return Ok((SweepOutcome { stats, blocks, visitor }, report));
    }

    let chunk_len = match resumed_at {
        Some(_) if outer.len() != collector.outer_len => {
            return Err(SweepError::Checkpoint(format!(
                "checkpointed level-0 domain has {} value(s) but the realized domain has \
                 {}; the space changed since the checkpoint",
                collector.outer_len,
                outer.len()
            )));
        }
        Some(_) => collector.chunk_len,
        None => chunk_len_for(lp, outer.len(), threads, opts.chunk_count),
    };
    let chunks: Vec<&[i64]> = outer.chunks(chunk_len.max(1)).collect();
    let start = collector.next.min(chunks.len());
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
            .store(collector.stats.survivors + collector.stats.total_pruned(), Ordering::Relaxed);
    }

    let probe = CancelProbe::new(opts.cancel.clone(), opts.deadline.map(|d| t_start + d));
    let n_slots = threads.min((limit - start).max(1));
    let (redeal_max, redeal_backoff_ms) = exec.redeal();
    let cursor = AtomicUsize::new(start);
    let memo_hits = AtomicU64::new(0);
    let memo_misses = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);
    collector.next = start;
    collector.outer_len = outer.len();
    collector.chunk_len = chunk_len;
    collector.chunks = chunks.len();
    let collector = Mutex::new(collector);

    let fail = |err: SweepError| {
        let mut slot = first_error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
        abort.store(true, Ordering::Relaxed);
    };

    // Get chunk `i` evaluated for `slot`, wherever `exec` says. The slot that
    // dealt a chunk re-deals it until it is done or quarantined, so a dead
    // worker is replaced (or its slot degraded) by the slot that lost it and
    // no sibling ever waits for a chunk to come back. `Err` stops the slot:
    // with the error that fails the sweep, or `None` when cancelled.
    let evaluate = |slot: usize, i: usize| -> Result<ChunkDone<V>, Option<SweepError>> {
        // Worker-level faults of this chunk's earlier deals: folded with the
        // chunk when it completes, so the recovery history survives in chunk
        // order.
        let mut dealt_faults: Vec<FaultRecord> = Vec::new();
        let mut done = loop {
            match exec.run(slot, i, chunks[i], compiled, &make_visitor) {
                Answer::Done(done) => break done,
                Answer::Local => {
                    let ran = attempt_chunk(
                        compiled,
                        chunks[i],
                        i,
                        policy,
                        opts.injector.as_ref(),
                        Some(&probe),
                        &make_visitor,
                    );
                    match ran {
                        Ok(done) => break done,
                        // Cancel/deadline tripped mid-chunk: drop the chunk
                        // (it is re-run on resume) and stop.
                        Err(SweepError::Eval(EvalError::Cancelled)) => return Err(None),
                        Err(e) => return Err(Some(e)),
                    }
                }
                Answer::Fault { kind, error } => {
                    let attempt = dealt_faults.len() as u32;
                    let exhausted = attempt >= redeal_max;
                    dealt_faults.push(FaultRecord {
                        chunk: i,
                        ordinal: 0,
                        attempt,
                        kind,
                        action: if exhausted {
                            FaultAction::QuarantinedChunk
                        } else {
                            FaultAction::Retried
                        },
                        site: "worker".to_string(),
                        error,
                        bindings: Vec::new(),
                    });
                    if exhausted {
                        break ChunkDone { outcome: None, faults: Vec::new() };
                    }
                    let backoff_ms = redeal_backoff_ms
                        .saturating_mul(1u64 << attempt.min(5))
                        .min(MAX_BACKOFF_MS);
                    if backoff_ms > 0 {
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                    }
                    if abort.load(Ordering::Relaxed) {
                        return Err(None);
                    }
                }
                Answer::Abort(e) => return Err(Some(e)),
            }
        };
        dealt_faults.append(&mut done.faults);
        done.faults = dealt_faults;
        if let (Some(memo), Some(out)) = (memo, &done.outcome) {
            // Only clean chunks are cacheable: an outcome shaped by a fault
            // policy (skipped points, retries) must be recomputed, not
            // replayed under a possibly different policy.
            if done.faults.is_empty() {
                memo.store(chunks[i], out);
            }
        }
        Ok(done)
    };

    // Each slot drains the shared cursor; finished chunks are folded in
    // chunk-index order by the collector, so the merged result is independent
    // of the race for chunks and of where a chunk was evaluated. Errors,
    // panics and worker-level faults are resolved right here, at the chunk
    // boundary.
    let run_slot = |slot: usize| -> WorkerTelemetry {
        let mut telemetry = WorkerTelemetry {
            worker: slot,
            chunks: 0,
            busy: Duration::ZERO,
            evaluated: 0,
            survivors: 0,
        };
        loop {
            if abort.load(Ordering::Relaxed) || probe.cancelled() {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= limit {
                break;
            }
            let t0 = Instant::now();
            // Sub-sweep cache: a hit replaces evaluation of this chunk with
            // the memoized outcome, folded exactly where a fresh one would
            // be — the merge path cannot tell the difference.
            let cached = memo.and_then(|memo| {
                let hit = memo.lookup(chunks[i]);
                let counter = if hit.is_some() { &memo_hits } else { &memo_misses };
                counter.fetch_add(1, Ordering::Relaxed);
                hit
            });
            let done = match cached {
                Some(cached) => ChunkDone { outcome: Some(cached), faults: Vec::new() },
                None => match evaluate(slot, i) {
                    Ok(done) => done,
                    Err(stop) => {
                        if let Some(e) = stop {
                            fail(e);
                        }
                        telemetry.busy += t0.elapsed();
                        break;
                    }
                },
            };
            telemetry.busy += t0.elapsed();
            telemetry.chunks += 1;
            if let Some(out) = &done.outcome {
                // Replayed (memoized) work counts too, so worker sums keep
                // matching the report.
                telemetry.evaluated += out.stats.evaluated.iter().sum::<u64>();
                telemetry.survivors += out.stats.survivors;
            }
            let folded = collector.lock().unwrap().add(i, done, opts.progress.as_ref(), sink);
            if let Err(msg) = folded {
                fail(SweepError::Checkpoint(msg));
                break;
            }
        }
        exec.close(slot);
        telemetry
    };

    // One slot runs inline on the caller's thread (no spawn).
    let mut workers: Vec<WorkerTelemetry> = if n_slots == 1 {
        vec![run_slot(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..n_slots).map(|s| scope.spawn(move || run_slot(s))).collect();
            handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(telemetry) => Some(telemetry),
                    Err(payload) => {
                        // The slot loop itself panicked (outside the
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
    let Collector { stats, blocks, faults, visitor, .. } = collector;

    let mut report = report(&stats, &blocks, faults, (outer.len(), chunk_len, chunks.len()), workers);
    report.partial = partial;
    report.cache_hits = memo_hits.into_inner();
    report.cache_misses = memo_misses.into_inner();
    Ok((
        SweepOutcome {
            stats,
            blocks,
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
/// With more, the domain is cut into `threads × chunks per thread` pieces,
/// where the chunks per thread follow from whether the plan's inner loop
/// domains are statically sized
/// ([`LoweredPlan::static_fanout_below_outer`]): dependent or opaque inner
/// domains mean skewed subtree costs and get 4× finer chunks.
pub(crate) fn chunk_len_for(
    lp: &LoweredPlan,
    outer_len: usize,
    threads: usize,
    chunk_count: usize,
) -> usize {
    if chunk_count > 0 {
        return outer_len.div_ceil(chunk_count).max(1);
    }
    if threads <= 1 {
        return outer_len;
    }
    let per_thread = if lp.static_fanout_below_outer().is_some() {
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

    use crate::fault::CancelToken;
    use crate::visit::{CollectVisitor, CountVisitor};

    /// A plain sweep on `threads` threads, its outcome only.
    fn run<V: Visitor + Send>(
        lp: &LoweredPlan,
        threads: usize,
        make_visitor: impl Fn() -> V + Sync,
    ) -> Result<SweepOutcome<V>, SweepError> {
        sweep(lp, &SweepSpec::new(threads), make_visitor).map(|(outcome, _)| outcome)
    }

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
            let par = run(&lp, threads, CountVisitor::default).unwrap();
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
        let par = run(&lp, 4, || CollectVisitor::new(names.clone(), usize::MAX)).unwrap();
        assert_eq!(par.visitor.points, serial.visitor.points);
    }

    #[test]
    fn explicit_chunk_count_pins_grid_across_thread_counts() {
        let lp = lowered(&space());
        let mut reports = Vec::new();
        for threads in [1, 3, 8] {
            let opts = SweepSpec {
                slots: threads,
                chunk_count: 5,
                ..SweepSpec::default()
            };
            let (_, report) =
                sweep(&lp, &opts, CountVisitor::default).unwrap();
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
            chunk_len_for(&skewed, 1024, 4, 0),
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
            chunk_len_for(&uniform, 1024, 4, 0),
            1024usize.div_ceil(4 * CHUNKS_PER_THREAD_UNIFORM)
        );
        // Serial runs never split; an explicit chunk count overrides all.
        assert_eq!(chunk_len_for(&uniform, 1024, 1, 0), 1024);
        assert_eq!(chunk_len_for(&uniform, 1024, 1, 16), 64);
    }

    #[test]
    fn report_accounts_for_all_chunks_and_work() {
        let lp = lowered(&space());
        let serial = Compiled::new(lp.clone()).run(CountVisitor::default()).unwrap();
        let (out, report) =
            sweep(&lp, &SweepSpec::new(4), CountVisitor::default).unwrap();
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
        let opts = SweepSpec {
            slots: 4,
            progress: Some(progress.clone()),
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
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
        let out = run(&lp, 16, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 3);
    }

    #[test]
    fn preamble_rejection_short_circuits() {
        let expr = Space::builder("pre")
            .constant("off", 1)
            .range("x", 0, 1000)
            .constraint("disabled", ConstraintClass::Generic, var("off").eq(1))
            .build()
            .unwrap();
        // A closure check of a preamble define.
        let closure = Space::builder("pre_fn")
            .constant("cap", 0)
            .derived("a", var("cap") + 1)
            .range("x", 0, 1000)
            .constraint_fn("off", ConstraintClass::Generic, &["a"], |env| {
                Ok(env.require_int("a")? == 1)
            })
            .build()
            .unwrap();
        for s in [expr, closure] {
            let lp = lowered(&s);
            let out = run(&lp, 4, CountVisitor::default).unwrap();
            assert_eq!(out.visitor.count, 0);
            assert_eq!(out.stats.pruned[0], 1);
            assert_eq!(out.stats.evaluated[0], 1);
        }
    }

    #[test]
    fn empty_outer_domain() {
        let s = Space::builder("empty").range("x", 5, 5).build().unwrap();
        let lp = lowered(&s);
        let out = run(&lp, 4, CountVisitor::default).unwrap();
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
        let err = run(&lp, 4, CountVisitor::default).unwrap_err();
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
        let opts = SweepSpec {
            slots: 4,
            fault_policy: FaultPolicy::SkipPoint,
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
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
        let opts = SweepSpec {
            slots: 2,
            chunk_count: 16, // 64 values → chunk_len 4; x = 10 is in chunk 2
            fault_policy: FaultPolicy::QuarantineChunk,
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 60, "one 4-value chunk dropped");
        assert_eq!(report.fault_counters.chunks_quarantined, 1);
        assert_eq!(report.faults[0].chunk, 2);
        assert!(!report.partial);
    }

    #[test]
    fn retry_policy_quarantines_after_exhaustion() {
        let lp = lowered(&dz_space());
        let opts = SweepSpec {
            slots: 2,
            chunk_count: 16,
            fault_policy: FaultPolicy::Retry { max: 2, backoff_ms: 0 },
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
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
        let clean = run(&lp, 2, CountVisitor::default).unwrap();
        let opts = SweepSpec {
            slots: 2,
            chunk_count: 8,
            fault_policy: FaultPolicy::QuarantineChunk,
            injector: Some(FaultInjector::new(11).panic_rate(0.3)),
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
        assert!(report.fault_counters.panics > 0, "seed 11 at 30% must hit ≥ 1 of 8 chunks");
        assert!(out.visitor.count < clean.visitor.count);
        assert!(report.faults.iter().all(|r| r.kind == FaultKind::Panic));
        assert!(report.faults.iter().all(|r| r.error.contains("injected panic")));
    }

    #[test]
    fn abort_policy_surfaces_panic_as_structured_error() {
        let lp = lowered(&space());
        let opts = SweepSpec {
            slots: 2,
            chunk_count: 8,
            injector: Some(FaultInjector::new(11).panic_rate(0.3)),
            ..SweepSpec::default()
        };
        let err = sweep(&lp, &opts, CountVisitor::default).unwrap_err();
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
        let opts = SweepSpec {
            slots: 2,
            chunk_count: 8,
            stop_after_chunks: 3,
            progress: Some(progress.clone()),
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
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
        let opts = SweepSpec {
            slots: 2,
            chunk_count: 8,
            cancel: Some(cancel),
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &opts, CountVisitor::default).unwrap();
        assert!(report.partial);
        assert_eq!(out.visitor.count, 0);
    }
}
