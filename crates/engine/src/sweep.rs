//! The one entry point of a chunked sweep — a [`SweepSpec`] run by
//! [`sweep`] — and one-call helpers (plan → lower → compile → run).
//!
//! A spec says everything a sweep is apart from the plan and the visitor;
//! [`sweep`] validates it, decides the engine build once and hands it to
//! the one frame in [`crate::parallel`]. The parts that carry visitor state
//! across a pipe, a file or a cache attach through methods with the bounds
//! they need ([`SaveState`], and `Clone + Sync` for the cache), so a plain
//! sweep of any [`Visitor`] compiles.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beast_core::error::{EvalError, SpaceError};
use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_core::space::Space;

use crate::checkpoint::{parse_checkpoint, CheckpointConfig, SaveState, StateCodec};
use crate::compiled::{Compiled, EngineOptions, EngineTier};
use crate::distribute::{LinkExecutor, Workers};
use crate::fault::{CancelToken, FaultInjector, FaultPolicy};
use crate::native::NativeContext;
use crate::parallel::{run_supervised, ChunkExecutor, CkSink, InThread};
use crate::point::{Point, PointRef};
use crate::service::cache::{MemoStore, ScopedMemo, SweepCache};
use crate::stats::PruneStats;
use crate::telemetry::{SweepProgress, SweepReport};
use crate::visit::{BestK, CollectVisitor, CountVisitor, Visitor};
use crate::walker::SweepOutcome;

/// Errors from the sweep drivers and one-call helpers.
#[derive(Debug)]
pub enum SweepError {
    /// Planning or lowering failed.
    Space(SpaceError),
    /// Evaluation failed.
    Eval(EvalError),
    /// A worker thread panicked. Under [`FaultPolicy::Abort`](crate::fault::FaultPolicy)
    /// the panic payload surfaces here as a structured error instead of
    /// poisoning the orchestrator's `join`; other policies convert panics
    /// into quarantined-chunk [`FaultRecord`](crate::fault::FaultRecord)s.
    WorkerPanic {
        /// Chunk being evaluated when the panic fired (`None` when the panic
        /// escaped outside any chunk).
        chunk: Option<usize>,
        /// Stringified panic payload.
        message: String,
    },
    /// Reading, writing or validating a checkpoint file failed.
    Checkpoint(String),
    /// The spec pairs two options that cannot run together (see
    /// [`SweepSpec::validate`]); the message names both, and why.
    Config(String),
}

impl From<SpaceError> for SweepError {
    fn from(e: SpaceError) -> Self {
        SweepError::Space(e)
    }
}

impl From<EvalError> for SweepError {
    fn from(e: EvalError) -> Self {
        SweepError::Eval(e)
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Space(e) => write!(f, "{e}"),
            SweepError::Eval(e) => write!(f, "{e}"),
            SweepError::WorkerPanic { chunk: Some(c), message } => {
                write!(f, "worker panicked in chunk {c}: {message}")
            }
            SweepError::WorkerPanic { chunk: None, message } => {
                write!(f, "worker panicked: {message}")
            }
            SweepError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SweepError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Everything one chunked sweep is, whichever front end asks for it: the
/// library, `repro sweep` / `distribute` / `threads`, or the daemon's jobs.
///
/// The plain settings are public fields; the parts that need more of the
/// visitor than [`Visitor`] are attached with [`SweepSpec::workers`],
/// [`SweepSpec::checkpoint`] and [`SweepSpec::cache`], and a daemon's
/// prebuilt engine with [`SweepSpec::on_engine`].
pub struct SweepSpec<'a, V> {
    /// Worker slots: threads in process, or worker processes under
    /// [`SweepSpec::workers`] (values below 1 are treated as 1).
    pub slots: usize,
    /// Explicit total number of scheduler chunks, independent of the slot
    /// count (0 = pick chunks per slot from the plan's static fanout: fine
    /// chunks for skewed spaces, coarser for uniform ones). Fault
    /// injection, checkpointing and the cross-slot-count determinism
    /// assertions all require a pinned grid, because chunk indices key both
    /// injector decisions and the completed-chunk prefix.
    pub chunk_count: usize,
    /// Compiled-engine options (interval block pruning is on by default;
    /// results are identical either way). Worker processes must be
    /// configured identically: the handshake checks
    /// [`EngineOptions::signature`].
    pub engine: EngineOptions,
    /// What an evaluation error or chunk panic does to the sweep, wherever
    /// the chunk runs.
    pub fault_policy: FaultPolicy,
    /// Optional deterministic fault injector (tests, CI, chaos drills).
    pub injector: Option<FaultInjector>,
    /// Optional cooperative cancellation token shared with the caller.
    pub cancel: Option<Arc<CancelToken>>,
    /// Optional wall-clock budget; when it expires the sweep degrades to a
    /// partial result exactly as if cancelled.
    pub deadline: Option<Duration>,
    /// Stop pulling new chunks after this many (0 = no limit): the
    /// deterministic "kill the process after K chunks" knob of the
    /// checkpoint/resume tests and the CI smoke jobs. Unlike a deadline it
    /// always stops at a chunk boundary.
    pub stop_after_chunks: usize,
    /// Optional shared progress counters, bumped once per folded chunk.
    pub progress: Option<Arc<SweepProgress>>,
    /// What the attaching methods attached; `Default` attaches nothing.
    pub attached: Attached<'a, V>,
}

/// The parts of a [`SweepSpec`] that carry visitor state across a process,
/// a file or a cache, set only through the methods that carry their bounds.
pub struct Attached<'a, V> {
    pub(crate) workers: Option<(Workers, StateCodec<V>)>,
    pub(crate) checkpoint: Option<(CheckpointConfig, StateCodec<V>)>,
    pub(crate) cache: Option<(&'a dyn MemoStore<V>, &'a str)>,
    pub(crate) built: Option<Built<'a>>,
}

/// An engine built once for many sweeps ([`SweepSpec::on_engine`]).
#[derive(Clone, Copy)]
pub(crate) struct Built<'a> {
    pub(crate) engine: &'a Compiled,
    pub(crate) plan_hash: u64,
    pub(crate) since: Instant,
}

impl<V> Default for Attached<'_, V> {
    fn default() -> Self {
        Attached { workers: None, checkpoint: None, cache: None, built: None }
    }
}

impl<V> Clone for Attached<'_, V> {
    fn clone(&self) -> Self {
        Attached {
            workers: self.workers.clone(),
            checkpoint: self.checkpoint.clone(),
            cache: self.cache,
            built: self.built,
        }
    }
}

impl<V> Default for SweepSpec<'_, V> {
    fn default() -> Self {
        SweepSpec {
            slots: 0,
            chunk_count: 0,
            engine: EngineOptions::default(),
            fault_policy: FaultPolicy::default(),
            injector: None,
            cancel: None,
            deadline: None,
            stop_after_chunks: 0,
            progress: None,
            attached: Attached::default(),
        }
    }
}

impl<V> Clone for SweepSpec<'_, V> {
    fn clone(&self) -> Self {
        SweepSpec {
            cancel: self.cancel.clone(),
            progress: self.progress.clone(),
            attached: self.attached.clone(),
            ..*self
        }
    }
}

impl<'a, V> SweepSpec<'a, V> {
    /// A spec for `slots` in-process threads with automatic chunk sizing.
    pub fn new(slots: usize) -> Self {
        SweepSpec { slots, ..SweepSpec::default() }
    }

    /// Sweep `engine`, which the caller built once for many sweeps of one
    /// plan, instead of building one: its options become the spec's, and
    /// `plan_hash` is its plan's [`LoweredPlan::structural_hash`], which
    /// keys the cache. `since` starts the report clock, so a caller that
    /// starts it before the build has `elapsed` cover the build.
    pub fn on_engine(mut self, engine: &'a Compiled, plan_hash: u64, since: Instant) -> Self {
        self.engine = engine.options();
        self.attached.built = Some(Built { engine, plan_hash, since });
        self
    }

    /// Refuse a spec that pairs two options which cannot run together,
    /// with [`SweepError::Config`] naming both; [`sweep`] calls this first.
    pub fn validate(&self) -> Result<(), SweepError> {
        let at = &self.attached;
        let built = at.built.map(|built| built.engine.options());
        let set = [
            (self.engine.engine == EngineTier::Native, NATIVE),
            (at.workers.is_some(), WORKERS),
            (self.injector.is_some(), INJECTOR),
            (built.is_some(), PREBUILT),
            (built.is_some_and(|options| options != self.engine), OTHER_OPTIONS),
        ];
        refuse_pairings(&set.into_iter().filter(|(on, _)| *on).map(|(_, name)| name).collect::<Vec<_>>())
    }
}

impl<'a, V: Visitor + SaveState> SweepSpec<'a, V> {
    /// Deal chunks to worker processes running `workers.cmd` instead of the
    /// spec's threads, one process per slot (see [`crate::distribute`]).
    pub fn workers(mut self, workers: Workers) -> Self {
        self.attached.workers = Some((workers, StateCodec::of()));
        self
    }

    /// Persist the merged chunk-order prefix to `ck.path`, and with
    /// `ck.resume` complete only the chunks a previous run left (see
    /// [`crate::checkpoint`]).
    pub fn checkpoint(mut self, ck: CheckpointConfig) -> Self {
        self.attached.checkpoint = Some((ck, StateCodec::of()));
        self
    }
}

impl<'a, V: Visitor + SaveState + Clone + Send + Sync> SweepSpec<'a, V> {
    /// Consult `cache` at every chunk boundary under `scope`, and offer it
    /// every fault-free chunk (see [`crate::service::cache`]). Plans with
    /// opaque steps and sweeps with an injector bypass it silently.
    pub fn cache(mut self, cache: &'a SweepCache<V>, scope: &'a str) -> Self {
        self.attached.cache = Some((cache, scope));
        self
    }
}

const NATIVE: &str = "--engine native";
const WORKERS: &str = "--workers";
const INJECTOR: &str = "an injector";
const NO_CHECKPOINT: &str = "no --checkpoint";
const PREBUILT: &str = "a prebuilt engine";
const OTHER_OPTIONS: &str = "other engine options";
const WALKER: &str = "--engine walker";

/// Every pairing of sweep options that cannot run together, and why. An
/// option is named as `repro` spells its flag (`no --checkpoint` names the
/// flag's absence), so [`SweepSpec::validate`] and the CLI, which refuses a
/// flag that a run would read and ignore, share one table.
const REFUSED: &[(&str, &str, &str)] = &[
    (NATIVE, WORKERS, "the native tier already runs its chunks in worker processes"),
    (INJECTOR, WORKERS, "a worker process cannot observe injected faults"),
    (PREBUILT, NATIVE, "a prebuilt engine sweeps in process"),
    (PREBUILT, OTHER_OPTIONS, "the engine runs the options it was built with"),
    ("--resume", NO_CHECKPOINT, "there is no checkpoint to resume from"),
    ("--every", NO_CHECKPOINT, "there is no checkpoint to write"),
    (WALKER, "--stop-after", "the serial walker has no chunks to stop after"),
    (WALKER, "--deadline", "the serial walker polls no deadline"),
    (WALKER, "--policy", "the serial walker has no fault supervision"),
    (WALKER, "--verify", "the serial walker is the reference, not a tier to verify"),
    (WALKER, "--checkpoint", "the serial walker has no chunks to checkpoint"),
    (WALKER, "--inject-errors", "the serial walker injects no faults"),
    (WALKER, "--inject-panics", "the serial walker injects no faults"),
];

/// Refuse the first refused pairing whose two options `set` both holds,
/// with [`SweepError::Config`] naming them and why. The pairings: the
/// native tier or an injector with worker processes; a prebuilt engine with
/// the native tier or other options; `--resume` or `--every` with no
/// `--checkpoint`; and the serial walker with a flag only a chunked sweep
/// reads (`--stop-after`, `--deadline`, `--policy`, `--verify`,
/// `--checkpoint`, `--inject-errors`, `--inject-panics`).
pub fn refuse_pairings(set: &[&str]) -> Result<(), SweepError> {
    match REFUSED.iter().find(|(a, b, _)| set.contains(a) && set.contains(b)) {
        Some((a, b, why)) => Err(SweepError::Config(format!("{a} with {b}: {why}"))),
        None => Ok(()),
    }
}

/// Run a lowered plan as `spec` says — the one entry point of every chunked
/// sweep.
///
/// `make_visitor` constructs one private visitor per scheduler chunk; the
/// per-chunk results are merged in chunk order, so the outcome is
/// bit-identical to the serial [`Compiled::run`] at any slot count, chunk
/// grid and transport (see [`crate::parallel`]'s determinism contract).
/// Only the report's timing fields vary between runs.
///
/// The engine is built once here: with the native tier, the in-process
/// engine that evaluates fallback chunks is normalized to the native
/// workers' accounting (no block pruning), so a fallback chunk's
/// `PruneStats` equal its worker-evaluated twin's. Preparing the native
/// tier fails over silently to the in-process engine (no compiler, opaque
/// steps), and so does a sweep with an injector, whose faults are keyed to
/// sites the worker binary cannot observe.
pub fn sweep<V, F>(
    lp: &LoweredPlan,
    spec: &SweepSpec<'_, V>,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send,
    F: Fn() -> V + Sync,
{
    spec.validate()?;
    let at = &spec.attached;
    // The options fingerprint that scopes cache entries is recorded in
    // every checkpoint too: a prefix evaluated under other options has
    // incompatible accounting.
    let signature = spec.engine.signature();
    let space = lp.plan.space().name();
    let (resume, sink) = match &at.checkpoint {
        Some((ck, codec)) => {
            let seed = if ck.resume {
                let text = std::fs::read_to_string(&ck.path).map_err(|e| {
                    SweepError::Checkpoint(format!("cannot read checkpoint {}: {e}", ck.path.display()))
                })?;
                parse_checkpoint(&text, space, &signature, &make_visitor, *codec)
                    .map_err(SweepError::Checkpoint)?
            } else {
                None
            };
            (seed, Some(CkSink { ck, space, engine_sig: &signature, codec: *codec }))
        }
        None => (None, None),
    };
    let memo = at.cache.filter(|_| !lp.has_opaque_steps() && spec.injector.is_none()).map(
        |(store, scope)| {
            let plan_hash = at.built.map_or_else(|| lp.structural_hash(), |b| b.plan_hash);
            ScopedMemo::new(store, plan_hash, scope, &signature)
        },
    );
    let native = (spec.engine.engine == EngineTier::Native && spec.injector.is_none())
        .then(|| NativeContext::prepare(lp, &spec.engine).ok())
        .flatten();
    let link = at.workers.as_ref().map(|(workers, codec)| LinkExecutor::new(lp, spec, workers, *codec));
    let exec: &dyn ChunkExecutor<V> = match (&link, &native) {
        (Some(link), _) => link,
        (None, Some(native)) => native,
        (None, None) => &InThread,
    };
    let engine = match native {
        Some(_) => EngineOptions { intervals: false, congruence: false, ..spec.engine },
        None => spec.engine,
    };
    let owned;
    let (compiled, t_start) = match at.built {
        Some(built) => (built.engine, built.since),
        None => {
            // The report clock starts before the build, so `elapsed` covers it.
            let t_start = Instant::now();
            owned = Compiled::with_options(lp.clone(), engine);
            (&owned, t_start)
        }
    };
    run_supervised(compiled, t_start, spec, make_visitor, resume, sink.as_ref(), memo.as_ref(), exec)
}

fn compile(space: &Arc<Space>) -> Result<Compiled, SweepError> {
    let plan = Plan::new(space, PlanOptions::default())?;
    Ok(Compiled::new(LoweredPlan::new(&plan)?))
}

/// Count the survivors of a space (default plan, compiled engine).
pub fn count(space: &Arc<Space>) -> Result<(u64, PruneStats), SweepError> {
    let out = compile(space)?.run(CountVisitor::default())?;
    Ok((out.visitor.count, out.stats))
}

/// Collect up to `cap` surviving points.
pub fn collect(space: &Arc<Space>, cap: usize) -> Result<(Vec<Point>, PruneStats), SweepError> {
    let compiled = compile(space)?;
    let out = compiled.run(CollectVisitor::new(compiled.point_names().clone(), cap))?;
    Ok((out.visitor.points, out.stats))
}

/// Keep the `k` best survivors under `score` (higher wins), swept across
/// `threads` worker threads.
pub fn best_k<F>(
    space: &Arc<Space>,
    k: usize,
    threads: usize,
    score: F,
) -> Result<(Vec<(f64, Point)>, PruneStats), SweepError>
where
    F: Fn(&PointRef<'_>) -> f64 + Send + Sync + Clone + 'static,
{
    let plan = Plan::new(space, PlanOptions::default())?;
    let lowered = LoweredPlan::new(&plan)?;
    let names = Compiled::new(lowered.clone()).point_names().clone();
    let (out, _) = sweep(&lowered, &SweepSpec::new(threads), move || {
        BestK::new(names.clone(), k, score.clone())
    })?;
    Ok((out.visitor.best, out.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;

    use crate::visit::FingerprintVisitor;

    fn space() -> Arc<Space> {
        Space::builder("sweep_helpers")
            .range("x", 0, 50)
            .range("y", 0, 10)
            .constraint("diag", ConstraintClass::Generic, var("x").lt(var("y")))
            .build()
            .unwrap()
    }

    #[test]
    fn count_matches_brute_force() {
        let (n, stats) = count(&space()).unwrap();
        // keep x >= y: for y in 0..10, x in y..50 → sum (50 - y)
        let expect: u64 = (0..10u64).map(|y| 50 - y).sum();
        assert_eq!(n, expect);
        assert_eq!(stats.survivors, n);
    }

    #[test]
    fn collect_caps() {
        let (points, _) = collect(&space(), 7).unwrap();
        assert_eq!(points.len(), 7);
        assert!(points.iter().all(|p| p.get_int("x") >= p.get_int("y")));
    }

    #[test]
    fn best_k_finds_maximum() {
        let (best, _) = best_k(&space(), 3, 2, |p| {
            (p.get("x").unwrap().as_int().unwrap() + p.get("y").unwrap().as_int().unwrap())
                as f64
        })
        .unwrap();
        assert_eq!(best.len(), 3);
        // Max of x + y subject to x >= y: (49, 9).
        assert_eq!(best[0].0, 58.0);
        assert_eq!(best[0].1.get_int("x"), 49);
    }

    /// Every pairing `validate` refuses fails the sweep with `Config`
    /// naming both options before anything runs, and every row of the
    /// table is refused by the check a front end runs on its flags.
    #[test]
    fn every_refused_pairing_is_a_config_error_naming_both_options() {
        let lp = LoweredPlan::new(&Plan::new(&space(), PlanOptions::default()).unwrap()).unwrap();
        let compiled = Compiled::new(lp.clone());
        let native = Compiled::with_options(lp.clone(), EngineOptions::native());
        let workers = || Workers::new(Vec::new());
        let specs: [(&str, &str, SweepSpec<'_, FingerprintVisitor>); 4] = [
            (
                NATIVE,
                WORKERS,
                SweepSpec { engine: EngineOptions::native(), ..SweepSpec::new(2) }.workers(workers()),
            ),
            (
                INJECTOR,
                WORKERS,
                SweepSpec { injector: Some(FaultInjector::new(1)), ..SweepSpec::new(2) }
                    .workers(workers()),
            ),
            (PREBUILT, NATIVE, SweepSpec::new(2).on_engine(&native, 0, Instant::now())),
            (PREBUILT, OTHER_OPTIONS, {
                let mut spec = SweepSpec::new(2).on_engine(&compiled, 0, Instant::now());
                spec.engine.intervals = false;
                spec
            }),
        ];
        let names_both = |err: SweepError, a: &str, b: &str| match err {
            SweepError::Config(msg) => assert!(msg.contains(a) && msg.contains(b), "{msg}"),
            other => panic!("{a} with {b}: expected Config, got {other:?}"),
        };
        for (a, b, spec) in specs {
            names_both(sweep(&lp, &spec, FingerprintVisitor::new).err().unwrap(), a, b);
        }
        for (a, b, _) in REFUSED {
            names_both(refuse_pairings(&[a, b]).unwrap_err(), a, b);
            assert!(refuse_pairings(&[a]).is_ok() && refuse_pairings(&[b]).is_ok());
        }
    }

    #[test]
    fn errors_surface() {
        let bad = Space::builder("dz")
            .range("x", 0, 4)
            .derived("boom", var("x") / var("x"))
            .build()
            .unwrap();
        assert!(matches!(count(&bad), Err(SweepError::Eval(_))));
    }
}
