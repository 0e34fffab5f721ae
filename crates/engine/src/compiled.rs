//! The *compiled* backend: the in-process analog of the paper's generated C.
//!
//! A [`LoweredPlan`] — constants folded, variables assigned to dense `i64`
//! slots, expressions reduced to integer IR — is flattened into a **threaded-
//! code program**: one linear instruction array with explicit jump offsets,
//! executed with plain machine integers for loop control. There is no node
//! tree and no recursion on the hot path, mirroring the shape of the paper's
//! generated C (a single function of nested `for` loops and `continue`s).
//! Loop bounds are evaluated once at loop entry (they are invariant inside
//! the loop by the planner's dependency ordering), and every expression is a
//! constant-folded register program ([`PointProg`]) reading its leaves in
//! place. This is the backend that turns the
//! paper's 18.5-hour Python sweep into minutes (Section XI-D), and the one
//! the multithreaded driver parallelizes.
//!
//! # Interval block pruning
//!
//! On top of the paper's per-point hoisted checks, the engine performs
//! *block pruning* driven by abstract guard programs
//! ([`beast_core::analyze::AbsProgs`], compiled from the plan's abstract
//! step program over the intervals of [`beast_core::interval`]): at entry
//! to every guarded loop it propagates `[lo, hi]` bounds through the
//! subtree's binds, defines and checks, re-evaluating only what depends on
//! values bound since the enclosing guard ran. A constraint whose interval
//! excludes 0 rejects every point of the subtree, so the subtree is skipped
//! without enumeration; a constraint whose interval is exactly `[0, 0]` can
//! never reject, so its per-point
//! evaluation is elided for the duration of the subtree (while still being
//! *counted* as evaluated-and-passed, which keeps the pruning funnel
//! bit-for-bit comparable with the walker). Verdicts are only trusted when
//! the analysis also proves the subtree cannot raise an evaluation error
//! before the deciding check, so error semantics are preserved exactly.
//! Survivors and visit order are identical with intervals on or off; only
//! the per-constraint `evaluated` totals shrink when whole subtrees are
//! skipped (reported separately in [`BlockStats`]).
//!
//! The outermost loop is deliberately *not* guarded: its
//! entry analysis would see a chunk-dependent subdomain under the parallel
//! driver, and constraints hoisted to level 0 are re-checked per outer value
//! anyway. Skipping it keeps serial and chunked runs bit-for-bit identical,
//! telemetry counters included.
//!
//! Opaque (deferred/closure) definitions are supported by calling back into
//! the Rust closures through a slot-backed [`Bindings`](beast_core::expr::Bindings)
//! view ([`SlotView`]); such calls
//! happen once per realization, not per point, so they do not change the
//! asymptotic cost profile. Opaque steps are treated as unknowable by the
//! interval analysis (top interval, possibly failing), which disables block
//! verdicts below them.
//!
//! # Congruence pruning
//!
//! The guard additionally tracks the congruence domain of
//! [`beast_core::analyze::congruence`] in lockstep with the intervals (the
//! reduced product): a stepped range carries `value ≡ start (mod |step|)`,
//! and divisibility constraints — GEMM's `% == 0` family — become
//! statically decidable where the interval hull alone is inconclusive. A
//! check whose congruence proves it rejects the whole subdomain skips the
//! subtree exactly like an interval verdict (counted separately as
//! `congruence_skips`). The congruence half never influences the interval
//! half, so interval verdicts — and survivors and visit order — are
//! bit-identical with `congruence` on or off (`tests/determinism.rs`
//! asserts this). The product runs only on the guard steps of the
//! congruence slice ([`beast_core::analyze::AbsSteps::slice`]):
//! the checks congruence can decide and what they read. A comparison gains
//! no verdict from it, so a run of comparisons stays interval-only.
//!
//! # Lint gate
//!
//! Per [`EngineOptions::lint`], compilation can run the
//! [`beast_core::analyze`] space linter over the lowered plan: `Warn` (the
//! default) records the diagnostic summary for sweep telemetry, `Deny`
//! additionally makes [`Compiled::run`] refuse to sweep a space with
//! error-severity findings (a provably empty space), and `Allow` skips the
//! analyzer entirely.

use std::sync::Arc;

use beast_core::analyze::levels::{levels, LevelPlan};
use beast_core::analyze::narrow::{ChildEntry, ChildProgs, Divisors, Solve};
use beast_core::analyze::steps::{range_box, values_box};
use beast_core::analyze::{
    self, AbsFile, AbsProgs, AbsSteps, Congruence, LintGate, LintSummary, Verdict, Window,
};
use beast_core::error::EvalError;
use beast_core::interval::Interval;
use beast_core::ir::{LBody, LIter, LStep, LoweredPlan};
use beast_core::iterator::range_len;
use beast_core::pointprog::{PointProg, RunExit, RunProgs, RunSpec, SlotView};
use beast_core::schedule::ScheduleMode;

use crate::point::PointRef;

use crate::fault::{CancelProbe, FaultAction, FaultInjector, FaultKind, FaultPolicy, FaultRecord};
use crate::replay::{self, Closed};
use crate::stats::{BlockStats, PruneStats};
use crate::visit::{CountVisitor, Visitor};
use crate::walker::SweepOutcome;

/// Which evaluation tier executes a sweep (see
/// [`EngineOptions::engine`]). Survivors, emission order and the survivor
/// fingerprint are bit-identical across tiers; only throughput and
/// telemetry differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineTier {
    /// The in-process compiled (threaded-code) engine — the default.
    #[default]
    Compiled,
    /// Runtime-native worker processes: the plan is lowered to a C chunk
    /// worker, compiled once with the host C compiler, and level-0 chunks
    /// are dispatched to it (see [`crate::native`]). Falls back to the
    /// compiled tier when no compiler is available or the plan cannot be
    /// emitted; per-chunk worker failures fall back in-process.
    Native,
}

impl EngineTier {
    /// Stable lowercase name, used in signatures, CLI flags and telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineTier::Compiled => "compiled",
            EngineTier::Native => "native",
        }
    }

    /// Parse a CLI-style tier name.
    pub fn parse(s: &str) -> Option<EngineTier> {
        match s {
            "compiled" => Some(EngineTier::Compiled),
            "native" => Some(EngineTier::Native),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for the compiled engine.
///
/// There is no check-order knob: every engine runs a level's checks in the
/// order the planner emitted them, as the walker, the counter and the
/// generated C do, so `PruneStats` rows equal the walker's whenever
/// intervals are off (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Enable interval-based block pruning (subtree skips and check
    /// elision). On by default; survivors and visit order are identical
    /// either way, so turning it off is only useful for ablations.
    pub intervals: bool,
    /// Minimum static fanout (points below one iteration, see
    /// [`LevelPlan::fanout_below`]) for a loop to get an interval
    /// guard. Guards on deep loops with tiny subtrees cost more per entry
    /// than the few points they can skip; gating them *statically* keeps
    /// the guard set — and therefore every skip/elide decision — identical
    /// across serial and parallel runs at any thread count. The default of
    /// 4 was the fastest of {1, 4, 16, 64} on GEMM reduced(32) in the dated
    /// table of EXPERIMENTS.md ("One abstract program per guard"); 1 guards
    /// every eligible loop.
    pub min_guard_fanout: u64,
    /// Track the congruence domain (`x ≡ r (mod m)`) alongside intervals in
    /// the block-pruning guards, so divisibility constraints can skip
    /// subtrees the interval hull cannot decide. Only meaningful with
    /// `intervals` on. Survivors and visit order are identical either way
    /// (the congruence half never changes an interval verdict), so turning
    /// it off is only useful for ablations.
    pub congruence: bool,
    /// What to do with space-linter findings at compile time (see
    /// [`beast_core::analyze`]): record them (`Warn`, the default), refuse
    /// to sweep on error-severity findings (`Deny`), or skip the analyzer
    /// (`Allow`).
    pub lint: LintGate,
    /// Which evaluation tier executes the sweep. `Compiled` (the default)
    /// runs in process; `Native` dispatches chunks to a gcc-compiled worker
    /// binary with graceful fallback. Results are bit-identical across
    /// tiers, and to the serial walker ([`crate::walker::Walker`]).
    pub engine: EngineTier,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            intervals: true,
            min_guard_fanout: 4,
            congruence: true,
            lint: LintGate::Warn,
            engine: EngineTier::Compiled,
        }
    }
}

impl EngineOptions {
    /// Options with block pruning disabled (the paper's plain per-point
    /// engine; behind `--no-intervals` and `compiled.run_nointervals_s`).
    pub fn no_intervals() -> EngineOptions {
        EngineOptions { intervals: false, ..EngineOptions::default() }
    }

    /// Options with interval pruning on but the congruence half disabled
    /// (behind `--no-congruence`).
    pub fn no_congruence() -> EngineOptions {
        EngineOptions { congruence: false, ..EngineOptions::default() }
    }

    /// Alias of [`EngineOptions::default`]: every schedule mode now runs
    /// the declared check order, but the untouchable `benchmark/` crate
    /// still compiles against the name (goes with ROADMAP item 1a).
    #[doc(hidden)]
    pub fn scheduled(_mode: ScheduleMode) -> EngineOptions {
        EngineOptions::default()
    }

    /// Alias of [`EngineOptions::default`]: the lane tier it used to switch
    /// off is gone, but the untouchable `benchmark/` crate still compiles
    /// against the name (goes with ROADMAP item 1a).
    #[doc(hidden)]
    pub fn no_batch() -> EngineOptions {
        EngineOptions::default()
    }

    /// Default options on the runtime-native tier (behind `--engine
    /// native`).
    pub fn native() -> EngineOptions {
        EngineOptions { engine: EngineTier::Native, ..EngineOptions::default() }
    }

    /// Exact execution-options fingerprint: every knob that can change a
    /// sweep's counters, telemetry provenance or execution tier, in a
    /// stable printable form. This single signature keys both the
    /// fingerprint-keyed sub-sweep cache ([`crate::service::cache`]) and
    /// the checkpoint resume compatibility check, so a future option can
    /// never silently alias cache entries or resume across incompatible
    /// configurations — a pinned test asserts the exact default string and
    /// the struct size, forcing this function to be revisited whenever a
    /// field is added. The lint gate is excluded: it gates compilation but
    /// never alters sweep results. `Declared` names the one check order, so
    /// a checkpoint or cache file written under the retired adaptive
    /// schedule (`…Adaptive…`) never matches.
    pub fn signature(&self) -> String {
        format!(
            "iv{}cg{}g{}Declarede{}",
            u8::from(self.intervals),
            u8::from(self.congruence),
            self.min_guard_fanout,
            self.engine.as_str()
        )
    }
}

/// A loop domain in the flat program.
#[derive(Debug, Clone)]
enum CDomain {
    /// Range with compiled bounds evaluated once at loop entry.
    Range { start: PointProg, stop: PointProg, step: PointProg },
    /// Static list of values, shared (not deep-copied) across clones and
    /// parallel chunk runs, with its box for the guard ([`values_box`]).
    Values { values: Arc<[i64]>, iv: Interval, cg: Congruence },
    /// Opaque: realize through the space's iterator definition.
    Opaque { iter: usize },
}

/// One instruction of the threaded-code program.
///
/// Jump fields are absolute instruction indices. Control flow is a single
/// `ip` cursor: checks jump to the innermost enclosing loop's [`Op::Next`]
/// on rejection (`continue`), loop entries jump past their [`Op::Next`]
/// when the domain is empty or the subtree is block-pruned. The program is
/// `[preamble…, Halt, loops…, Halt]`: the preamble — the defines and checks
/// before the first loop — ends at its own [`Op::Halt`], which its checks
/// jump to on rejection, so the build runs it alone (see [`Preamble`]).
#[derive(Debug, Clone)]
enum Op {
    /// Enter loop `loop_id`: realize the domain, run the interval guard,
    /// bind the first value. `next` is the index of the loop's `Next`
    /// instruction (the loop exits to `next + 1`).
    Enter { loop_id: u32, slot: u32, domain: CDomain, next: u32 },
    /// Advance loop `loop_id`; jump back to `body` (= its `Enter + 1`) or
    /// fall through when exhausted.
    Next { loop_id: u32, slot: u32, body: u32 },
    /// Run program `run` of [`Compiled::runs`]: a straight-line run of
    /// expression defines and checks; on a rejection jump to `on_reject`.
    /// `checks` credits its checks in [`PruneStats`].
    Run { run: u32, checks: Box<[RunCheck]>, on_reject: u32 },
    /// Evaluate an opaque derived through the closure callback.
    DefineOpaque { slot: u32, derived: usize },
    /// Evaluate an opaque constraint through the closure callback.
    CheckOpaque { constraint: u32, on_reject: u32 },
    /// Record a survivor and invoke the visitor.
    Visit,
    /// End of the preamble, or of the program.
    Halt,
}

/// One check of an [`Op::Run`], for crediting: its index into the run's
/// steps, its constraint, and its bit in the block pruner's elision mask
/// (0 for preamble checks and beyond 64 constraints), which the run
/// program skips it under.
#[derive(Debug, Clone, Copy)]
struct RunCheck {
    k: u32,
    constraint: u32,
    elide: u64,
}

/// Credit the checks of `checks` a run executed before its step `upto`:
/// each passed, the elided ones (`elide` holds their bits) without being
/// evaluated. Returns how many it credited and how many were elided.
#[inline]
fn credit_passes(
    checks: &[RunCheck],
    upto: u32,
    elide: u64,
    stats: &mut PruneStats,
) -> (usize, u64) {
    let mut elided = 0;
    let mut n = 0;
    for c in checks.iter().take_while(|c| c.k < upto) {
        stats.record(c.constraint as usize, false);
        elided += u64::from(c.elide & elide != 0);
        n += 1;
    }
    (n, elided)
}

/// Credit `entries` solved entries of a loop whose opening check is
/// constraint `c`, each over `len` values with `hits` passing values in all:
/// exactly what `entries · len` scalar evaluations of the check would
/// record — all evaluated, all but the hits rejected.
#[inline]
fn credit_solved(
    stats: &mut PruneStats,
    blocks: &mut BlockStats,
    c: usize,
    entries: u64,
    len: u64,
    hits: u64,
) {
    stats.evaluated[c] += entries * len;
    stats.pruned[c] += entries * len - hits;
    blocks.loops_solved += entries;
    blocks.points_solved += entries * len;
}

/// Advance the cancel-poll countdown by `ticks` loop advances; once
/// [`CANCEL_POLL_EVERY`] have passed, restart it and ask the chunk's probe.
/// `true` when the chunk is cancelled.
#[inline]
fn poll_tick(poll: &mut u32, ticks: u32, ctx: &ChunkCtx<'_>) -> bool {
    *poll = poll.saturating_add(ticks);
    *poll >= CANCEL_POLL_EVERY && {
        *poll = 0;
        ctx.cancel.is_some_and(|p| p.cancelled())
    }
}

/// Point the checks at `check_ips` (runs and opaque checks) at `target` on
/// rejection: the end of the scope they sit in.
fn patch_rejects(ops: &mut [Op], check_ips: Vec<usize>, target: usize) {
    for check_ip in check_ips {
        match &mut ops[check_ip] {
            Op::Run { on_reject, .. } | Op::CheckOpaque { on_reject, .. } => {
                *on_reject = target as u32;
            }
            _ => unreachable!("check ip points at a check"),
        }
    }
}

/// One narrowed loop: at `Op::Enter` the engine evaluates `a` and `k` and,
/// when the solve can be decided without wrap-around, credits the check in
/// closed form and runs the body for the at most one passing value.
/// Anything it cannot prove enumerates, which is always correct.
#[derive(Debug, Clone)]
struct LoopSolve {
    solve: Solve,
    /// The check's bit in the block pruner's elision mask (0 when it has
    /// none): a check the guard elided is statically true over the subtree
    /// — nothing to solve — and is credited through the elision counters.
    elide_mask: u64,
}

/// One loop that solves its child (a [`LoopSolve`] one step below, whose
/// coefficient is `c·x + d` in this loop's slot `x`): at its `Op::Enter` the
/// engine evaluates `c`, `d`, the child's offset and range once, steps only
/// over the values whose child solve hits or cannot be decided
/// ([`ChildEntry::candidates`]), and credits every other value as the
/// child's own solve would. Not placed where the child has a guard, whose
/// runs and verdicts are per value.
#[derive(Debug, Clone)]
struct ParentSolve {
    progs: ChildProgs,
    /// The child's slot, set to its range's last value when no value is a
    /// candidate, as the last value's solved entry would leave it.
    child_slot: u32,
}

/// The build's one run of the preamble (the defines and checks before the
/// first loop, which read only constants and each other), by `exec` itself:
/// every sweep, chunk and level-0 realization starts from this record, so
/// none re-evaluates the preamble and all see the same values, rows and
/// errors.
struct Preamble {
    /// The value file with the preamble's slots written.
    file: Vec<i64>,
    /// The rows its checks recorded: a sweep adds them once.
    stats: PruneStats,
    /// `Ok(true)` when every check passed, `Ok(false)` when one rejected
    /// (the space is empty), or `exec`'s point-annotated error.
    outcome: Result<bool, EvalError>,
}

/// The compiled evaluation backend.
pub struct Compiled {
    lp: LoweredPlan,
    /// The flat threaded-code program.
    ops: Vec<Op>,
    /// The run programs its `Op::Run`s execute, and their value file.
    runs: RunProgs,
    /// Per loop: the guard program run at its entry, an index into
    /// `gprogs` (`None` for the outermost loop, for loops with nothing
    /// decidable below them, for loops whose guard could never decide
    /// anything its nearest guarded ancestor didn't already decide, and
    /// for every loop with `opts.intervals` off).
    guards: Vec<Option<u32>>,
    /// The guard programs (see [`build_guards`]).
    gprogs: AbsProgs,
    /// Per-loop lower-bound static fanout below one iteration, for
    /// points-skipped estimates.
    fanout_below: Vec<u64>,
    /// Instruction index of the outermost `Enter`, right after the
    /// preamble's `Halt` (a space has at least one iterator).
    first_enter: usize,
    /// The preamble's one run, made by the build.
    preamble: Preamble,
    /// Per-loop narrowing table.
    narrow: Vec<Option<LoopSolve>>,
    /// Per-loop table of loops that solve their child.
    parents: Vec<Option<ParentSolve>>,
    /// Per-loop replay table.
    replay: replay::Table,
    point_names: Arc<[Arc<str>]>,
    /// Space-linter summary recorded at compile time (`None` when
    /// `opts.lint` is [`LintGate::Allow`]).
    lint: Option<LintSummary>,
    opts: EngineOptions,
}

impl Compiled {
    /// Build the flat program from a lowered plan with default options
    /// (interval block pruning on).
    pub fn new(lp: LoweredPlan) -> Compiled {
        Compiled::with_options(lp, EngineOptions::default())
    }

    /// Build the flat program with explicit engine options: its run
    /// programs, guards, narrowing and replay tables, plus the pre-sweep
    /// lint gate's summary of the plan (`Deny` is enforced lazily in `run`,
    /// so compilation itself stays infallible). Every chunk, thread, worker
    /// process and resumed run executes this one shared immutable op stream.
    pub fn with_options(lp: LoweredPlan, opts: EngineOptions) -> Compiled {
        let abs = AbsSteps::new(&lp);
        let plan = levels(&lp).levels;
        // A narrowed loop's `Enter` steps over its opening check (`ip += 2`),
        // so that check is a run of its own. The outermost loop never
        // narrows: the parallel driver feeds it chunk by chunk, and the
        // narrowing counters — like guards — must not depend on the chunk
        // grid.
        let narrows = |l: usize, p: &LevelPlan| l > 0 && p.narrowing.is_some();
        let cuts: Vec<usize> = (plan.iter().enumerate())
            .filter(|(l, p)| narrows(*l, p))
            .map(|(_, p)| p.step + 1)
            .collect();
        let first_bind = plan.first().map_or(usize::MAX, |p| p.step);
        let elide_bit = |i: usize| match &lp.steps[i] {
            LStep::Check { constraint, .. } if i > first_bind && *constraint < 64 => {
                Some(*constraint as u32)
            }
            _ => None,
        };
        let spec = RunSpec { checks: true, cuts: &cuts, skip_bit: &elide_bit, derive: false };
        let runs = RunProgs::new(&lp, spec);

        let mut ops: Vec<Op> = Vec::new();
        // Open loops: (loop_id, enter_ip); per open scope (the preamble,
        // then each open loop), the check ips awaiting its end as their
        // reject target.
        let mut open: Vec<(u32, usize)> = Vec::new();
        let mut pending_rejects: Vec<Vec<usize>> = vec![Vec::new()];
        let mut n_loops = 0u32;
        let mut first_enter = None;

        let mut i = 0;
        while i < lp.steps.len() {
            if let Some(r) = runs.find(i) {
                let run = &runs[r];
                let checks: Box<[RunCheck]> = (run.steps().iter().enumerate())
                    .filter_map(|(k, &s)| match &lp.steps[s as usize] {
                        LStep::Check { constraint, .. } => Some(RunCheck {
                            k: k as u32,
                            constraint: *constraint as u32,
                            elide: elide_bit(s as usize).map_or(0, |b| 1 << b),
                        }),
                        _ => None,
                    })
                    .collect();
                if !checks.is_empty() {
                    pending_rejects.last_mut().expect("scope").push(ops.len());
                }
                // `on_reject` is patched when the enclosing scope closes.
                ops.push(Op::Run { run: r as u32, checks, on_reject: 0 });
                i = run.end();
                continue;
            }
            match &lp.steps[i] {
                LStep::Bind { slot, domain, iter, .. } => {
                    let d = match domain {
                        LIter::Range { start, stop, step } => CDomain::Range {
                            start: PointProg::compile(start),
                            stop: PointProg::compile(stop),
                            step: PointProg::compile(step),
                        },
                        LIter::Values(v) => {
                            let (iv, cg) = values_box(v);
                            CDomain::Values { values: Arc::from(v.as_slice()), iv, cg }
                        }
                        LIter::Opaque { .. } => CDomain::Opaque { iter: *iter },
                    };
                    if first_enter.is_none() {
                        // The preamble ends here, at a `Halt` of its own
                        // that its rejections (an empty space) jump to.
                        let halt_ip = ops.len();
                        ops.push(Op::Halt);
                        let preamble = pending_rejects.pop().expect("preamble scope");
                        patch_rejects(&mut ops, preamble, halt_ip);
                        first_enter = Some(ops.len());
                    }
                    let loop_id = n_loops;
                    n_loops += 1;
                    open.push((loop_id, ops.len()));
                    pending_rejects.push(Vec::new());
                    // `next` is patched when the loop closes.
                    ops.push(Op::Enter { loop_id, slot: *slot, domain: d, next: 0 });
                }
                // Expression defines and checks are in runs.
                LStep::Define { slot, derived, .. } => {
                    ops.push(Op::DefineOpaque { slot: *slot, derived: *derived })
                }
                LStep::Check { constraint, .. } => {
                    pending_rejects.last_mut().expect("scope").push(ops.len());
                    ops.push(Op::CheckOpaque { constraint: *constraint as u32, on_reject: 0 });
                }
                LStep::Visit => ops.push(Op::Visit),
            }
            i += 1;
        }

        // Close loops innermost-first: emit each Next, patch its Enter and
        // the reject targets of the checks in its body.
        while let Some((loop_id, enter_ip)) = open.pop() {
            let next_ip = ops.len();
            let slot = match &ops[enter_ip] {
                Op::Enter { slot, .. } => *slot,
                _ => unreachable!("enter ip points at Enter"),
            };
            ops.push(Op::Next { loop_id, slot, body: (enter_ip + 1) as u32 });
            if let Op::Enter { next, .. } = &mut ops[enter_ip] {
                *next = next_ip as u32;
            }
            patch_rejects(&mut ops, pending_rejects.pop().expect("scope"), next_ip);
        }
        ops.push(Op::Halt);
        debug_assert!(pending_rejects.is_empty());

        debug_assert_eq!(plan.len(), n_loops as usize);
        let fanout_below: Vec<u64> = plan.iter().map(|p| p.fanout_below).collect();
        let (guards, gprogs) = build_guards(&lp, &abs, &plan, opts);

        let narrow: Vec<Option<LoopSolve>> = (plan.iter().enumerate())
            .map(|(l, p)| {
                let n = p.narrowing.as_ref().filter(|_| narrows(l, p))?;
                let elide_mask = if n.constraint < 64 { 1u64 << n.constraint } else { 0 };
                Some(LoopSolve { solve: Solve::new(n), elide_mask })
            })
            .collect();
        let parents = parent_table(&plan, &narrow, &guards);
        let point_names: Arc<[Arc<str>]> =
            Arc::from(lp.slot_names.clone().into_boxed_slice());
        let lint = (opts.lint != LintGate::Allow)
            .then(|| analyze::analyze_steps(&lp, &abs).summary());
        let mut compiled = Compiled {
            lp,
            ops,
            runs,
            guards,
            gprogs,
            fanout_below,
            first_enter: first_enter.expect("a space has at least one iterator"),
            preamble: Preamble {
                file: Vec::new(),
                stats: PruneStats::default(),
                outcome: Ok(false),
            },
            narrow,
            parents,
            replay: replay::Table::build(&plan),
            point_names,
            lint,
            opts,
        };
        compiled.preamble = compiled.run_preamble();
        compiled
    }

    /// Run the preamble, from the top of the program to its `Halt`: a
    /// rejection is the one pruned row it leaves.
    fn run_preamble(&self) -> Preamble {
        let mut file = self.runs.file();
        let mut state = self.fresh_state(CountVisitor::default());
        let ran = self.exec(0, None, &mut file, &mut state, &ChunkCtx::plain());
        let outcome = ran.map(|()| state.stats.total_pruned() == 0);
        Preamble { file, stats: state.stats, outcome }
    }

    /// The space-linter summary recorded at compile time (`None` when the
    /// lint gate is [`LintGate::Allow`]).
    pub fn lint_summary(&self) -> Option<LintSummary> {
        self.lint
    }

    /// The deny-gate check shared by [`Compiled::run`] and the parallel
    /// driver: `Err` when the gate is [`LintGate::Deny`] and the linter
    /// found error-severity diagnostics (a provably broken space).
    pub(crate) fn lint_denied(&self) -> Result<(), EvalError> {
        if self.opts.lint == LintGate::Deny {
            if let Some(sum) = self.lint {
                if sum.errors > 0 {
                    return Err(EvalError::Custom(format!(
                        "lint gate: {} error-severity diagnostic(s); \
                         run `repro lint` for details or relax the gate",
                        sum.errors
                    )));
                }
            }
        }
        Ok(())
    }

    /// Names reported for visited points (slot order).
    pub fn point_names(&self) -> &Arc<[Arc<str>]> {
        &self.point_names
    }

    /// The lowered plan this backend executes.
    pub fn lowered(&self) -> &LoweredPlan {
        &self.lp
    }

    /// The options this backend was built with.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// Fresh per-run interpreter state.
    fn fresh_state<V: Visitor>(&self, visitor: V) -> State<V> {
        State {
            stats: PruneStats::new(self.lp.plan.space().constraints().len()),
            blocks: BlockStats::default(),
            visitor,
            gfile: self.gprogs.file(),
            #[cfg(test)]
            guard_log: Vec::new(),
            #[cfg(test)]
            parent_entries: 0,
            elide: 0,
            faults: Vec::new(),
            visit_ordinal: 0,
            poll: 0,
            replay: self.replay.new_log(self.lp.n_slots as usize),
        }
    }

    /// Test hook for `crate::replay`'s suites: the same engine with its
    /// replay table swapped (declined, or recording under a tiny cap).
    #[cfg(test)]
    pub(crate) fn map_replay(mut self, f: impl FnOnce(replay::Table) -> replay::Table) -> Self {
        self.replay = f(self.replay);
        self
    }

    /// Test hook: the same engine with every guard step in the congruence
    /// slice, as before the slice existed.
    #[cfg(test)]
    pub(crate) fn with_full_product(mut self) -> Self {
        let abs = AbsSteps::new(&self.lp).with_full_product();
        let plan = levels(&self.lp).levels;
        (self.guards, self.gprogs) = build_guards(&self.lp, &abs, &plan, self.opts);
        self.parents = parent_table(&plan, &self.narrow, &self.guards);
        self
    }

    /// Test hook: the same engine with no loop solving its child, so every
    /// value of a parent enters the child's own solve.
    #[cfg(test)]
    pub(crate) fn decline_parents(mut self) -> Self {
        self.parents.fill(None);
        self
    }

    /// Run the full sweep: the loops from the preamble record, plus its
    /// rows.
    pub fn run<V: Visitor>(&self, visitor: V) -> Result<SweepOutcome<V>, EvalError> {
        self.lint_denied()?;
        let mut outcome = self.run_loops(None, visitor, &ChunkCtx::plain())?.outcome;
        outcome.stats.merge(&self.preamble.stats);
        Ok(outcome)
    }

    /// Run only a chunk of the outermost loop's domain — the parallel driver
    /// realizes the outer domain once, splits it, and calls this per worker.
    ///
    /// The chunk starts from the values the build's one preamble run wrote;
    /// the preamble's constraint rows are not in its statistics (a sweep
    /// adds them once), so merged chunk statistics stay meaningful. A
    /// rejecting preamble leaves the chunk empty, a failing one is its
    /// error.
    pub fn run_outer_chunk<V: Visitor>(
        &self,
        outer_values: &[i64],
        visitor: V,
    ) -> Result<SweepOutcome<V>, EvalError> {
        self.run_loops(Some(outer_values), visitor, &ChunkCtx::plain()).map(|run| run.outcome)
    }

    /// Run the loops from the preamble record — all of level 0, or the
    /// chunk `outer_override` — over a copy of its value file, unless the
    /// preamble rejected (nothing to run) or failed (its error). The
    /// preamble's rows are the caller's to add. The chunk context selects
    /// the fault policy, the injector, and the cancel probe, and the result
    /// carries the faults that were skipped over. Errors that still escape
    /// (any policy but `SkipPoint`) carry point context;
    /// [`EvalError::Cancelled`] escapes as-is.
    pub(crate) fn run_loops<V: Visitor>(
        &self,
        outer_override: Option<&[i64]>,
        visitor: V,
        ctx: &ChunkCtx<'_>,
    ) -> Result<ChunkRun<V>, EvalError> {
        let mut state = self.fresh_state(visitor);
        if self.preamble.outcome.clone()? {
            let mut file = self.preamble.file.clone();
            self.exec(self.first_enter, outer_override, &mut file, &mut state, ctx)?;
        }
        Ok(ChunkRun {
            outcome: SweepOutcome {
                stats: state.stats,
                blocks: state.blocks,
                visitor: state.visitor,
            },
            faults: state.faults,
        })
    }

    /// The constraint rows the build's preamble run recorded: a sweep adds
    /// them once to its merged statistics (a resumed one already holds
    /// them).
    pub(crate) fn preamble_stats(&self) -> &PruneStats {
        &self.preamble.stats
    }

    /// Realize the outermost (level-0) loop's domain.
    ///
    /// Level-0 bounds read only constants and preamble values, so this
    /// realizes the domain over the build's preamble record exactly as a
    /// serial run's first `Enter` does — same values, same errors — and is
    /// side-effect free. A rejecting preamble empties the domain; a failing
    /// one is this function's error. The parallel driver splits the domain
    /// into scheduler chunks; it is public so external tooling can size or
    /// inspect a sweep before running it.
    pub fn outer_domain(&self) -> Result<Vec<i64>, EvalError> {
        let pre = &self.preamble;
        if !pre.outcome.clone()? {
            return Ok(Vec::new());
        }
        let Op::Enter { slot, domain, .. } = &self.ops[self.first_enter] else {
            unreachable!("first_enter points at Enter");
        };
        let mut f = Frame::default();
        let (first, _) = self.realize(domain, &pre.file, &mut f).map_err(|e| {
            self.at_point(e, Site::Slot(*slot), self.first_enter, 0, &pre.file)
        })?;
        Ok(std::iter::successors(first, |_| advance_frame(&mut f)).collect())
    }

    /// Realize `domain` into frame `f` over the value file `slots`: the one
    /// definition of a loop domain's values, shared by `Op::Enter` and
    /// [`Compiled::outer_domain`]. Returns the first value (`None` when the
    /// domain is empty) and the length; the frame then yields the rest
    /// through [`advance_frame`].
    #[inline]
    fn realize(
        &self,
        domain: &CDomain,
        slots: &[i64],
        f: &mut Frame,
    ) -> Result<(Option<i64>, u64), EvalError> {
        Ok(match domain {
            CDomain::Range { start, stop, step } => {
                let (start, stop, step) =
                    (start.eval(slots)?, stop.eval(slots)?, step.eval(slots)?);
                f.kind = FrameKind::Range;
                f.cur = start;
                f.stop = stop;
                f.step = step;
                let n = range_len(start, stop, step);
                ((n > 0).then_some(start), n)
            }
            CDomain::Values { values, .. } => {
                f.kind = FrameKind::Values;
                f.vals = values.clone();
                f.idx = 0;
                (values.first().copied(), values.len() as u64)
            }
            CDomain::Opaque { iter } => {
                f.buf.clear();
                let view = self.bindings_view(slots);
                for v in self.lp.plan.space().realize_iter(*iter, &view)?.iter() {
                    f.buf.push(v.as_int()?);
                }
                f.kind = FrameKind::Buffer;
                f.idx = 0;
                (f.buf.first().copied(), f.buf.len() as u64)
            }
        })
    }

    /// The child solve loop `ps`, entered at `ip`, runs for the entry
    /// `slots` opens: the child's range bounds (its `Enter` is the next
    /// instruction) and `ps`'s `c`, `d` and `child`'s offset, evaluated
    /// once. `None` when any of them fails to evaluate.
    fn child_entry(
        &self,
        ps: &ParentSolve,
        child: &Solve,
        ip: usize,
        slots: &[i64],
    ) -> Option<ChildEntry> {
        let Op::Enter { domain: CDomain::Range { start, stop, step }, .. } = &self.ops[ip + 1]
        else {
            unreachable!("a solved child is a range loop entered first in its parent's body")
        };
        let (start, stop, step) =
            (start.eval(slots).ok()?, stop.eval(slots).ok()?, step.eval(slots).ok()?);
        ps.progs.entry(child, slots, start, step, range_len(start, stop, step))
    }

    fn bindings_view<'a>(&'a self, slots: &'a [i64]) -> SlotView<'a> {
        SlotView {
            names: &self.lp.slot_names,
            slots,
            consts: self.lp.plan.space().consts(),
        }
    }

    /// The threaded-code interpreter: a single `ip` cursor over the flat
    /// instruction array, running from `start_ip` until `Halt`.
    /// `outer_override`, when given, replaces the outermost loop's
    /// domain with an explicit value list (the parallel driver's chunk);
    /// `ctx` is the chunk's supervision context — under
    /// [`FaultPolicy::SkipPoint`] evaluation errors are recovered from by
    /// jumping to the innermost open loop's `Next` (the same transition as
    /// a check rejection, so interpreter state stays consistent), every
    /// escaping error is annotated with point context, the injector can
    /// force faults at visited points, and an armed cancel probe is polled
    /// every [`CANCEL_POLL_EVERY`] loop advances.
    fn exec<V: Visitor>(
        &self,
        start_ip: usize,
        outer_override: Option<&[i64]>,
        slots: &mut [i64],
        state: &mut State<V>,
        ctx: &ChunkCtx<'_>,
    ) -> Result<(), EvalError> {
        // Loop frames, indexed by loop id and fully initialized at each
        // `Enter`.
        let mut frames: Vec<Frame> = (0..self.guards.len()).map(|_| Frame::default()).collect();
        let poll_cancel = ctx.cancel.is_some_and(|p| p.armed());
        let ops: &[Op] = &self.ops;
        let mut ip = start_ip;
        // Evaluate a fallible expression; on error, hand the fault to
        // `fault_recover`, which either yields a recovery ip (SkipPoint:
        // resume at the innermost open loop's Next) or a context-annotated
        // error to propagate. The interpreter loop's label is passed in so
        // the expansion can restart dispatch from the recovery ip.
        macro_rules! try_eval {
            ($label:lifetime, $site:expr, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(err) => {
                        match self.fault_recover(
                            err,
                            $site,
                            ip,
                            0,
                            state.visit_ordinal,
                            slots,
                            ctx,
                            &mut state.faults,
                        ) {
                            Ok(next_ip) => {
                                ip = next_ip;
                                continue $label;
                            }
                            Err(err) => return Err(err),
                        }
                    }
                }
            };
        }
        'interp: loop {
            match &ops[ip] {
                Op::Enter { loop_id, slot, domain, next } => {
                    let l = *loop_id as usize;
                    let exit = *next as usize + 1;
                    // Realize the domain into the loop frame.
                    let f = &mut frames[l];
                    let (first, len) = if let (0, Some(chunk)) = (l, outer_override) {
                        f.kind = FrameKind::Buffer;
                        f.buf.clear();
                        f.buf.extend_from_slice(chunk);
                        f.idx = 0;
                        (chunk.first().copied(), chunk.len() as u64)
                    } else {
                        try_eval!('interp, Site::Slot(*slot), self.realize(domain, slots, f))
                    };
                    let Some(first) = first else {
                        ip = exit;
                        continue;
                    };
                    // Interval guard: skip the subtree or elide checks.
                    let mut elide_add = 0u64;
                    if self.opts.intervals {
                        if let Some(g) = self.guards[l] {
                            // Only the guard reads the domain's exact value
                            // hull and residue class, so unguarded loops
                            // never pay for them.
                            let (iv, cg) = domain_facts(domain, &frames[l], len);
                            state.blocks.guard_runs += 1;
                            let gfile = &mut state.gfile;
                            let verdict = self.gprogs.run(g as usize, gfile, slots, iv, cg);
                            #[cfg(test)]
                            state.guard_log.push(GuardCall {
                                l,
                                slots: slots[..self.lp.n_slots as usize].to_vec(),
                                dom: (iv, cg),
                                verdict,
                            });
                            match verdict {
                                Verdict::Skip { by_congruence } => {
                                    state.blocks.subtree_skips += 1;
                                    if by_congruence {
                                        state.blocks.congruence_skips += 1;
                                    }
                                    state.blocks.points_skipped =
                                        state.blocks.points_skipped.saturating_add(
                                            len.saturating_mul(self.fanout_below[l]),
                                        );
                                    ip = exit;
                                    continue;
                                }
                                Verdict::Elide(mask) => elide_add = mask,
                            }
                        }
                    }
                    let f = &mut frames[l];
                    f.saved_elide = state.elide;
                    state.elide |= elide_add;
                    // In-parent solve: step only over the values whose
                    // child solve hits or cannot be decided, and credit
                    // every other one exactly as the child's own solve would
                    // (see `ParentSolve`). Not over a chunk's values, nor
                    // when the child's check is elided here or anything
                    // fails to evaluate or to be proven: those enter the
                    // child for every value.
                    if let (Some(ps), FrameKind::Range) = (&self.parents[l], &f.kind) {
                        let child = self.narrow[l + 1].as_ref().expect("a solved child");
                        let entry = (state.elide & child.elide_mask == 0)
                            .then(|| self.child_entry(ps, &child.solve, ip, slots))
                            .flatten()
                            .filter(|e| {
                                e.candidates(f.cur, f.step, len, &mut f.divisors, &mut f.buf)
                            });
                        if let Some(entry) = entry {
                            let passed = len - f.buf.len() as u64;
                            let (c, stats) = (child.solve.constraint, &mut state.stats);
                            credit_solved(stats, &mut state.blocks, c, passed, entry.len, 0);
                            #[cfg(test)]
                            {
                                state.parent_entries += 1;
                            }
                            // One poll tick per value passed over, as one
                            // per loop advance elsewhere.
                            let ticks = u32::try_from(passed).unwrap_or(u32::MAX);
                            if poll_cancel && poll_tick(&mut state.poll, ticks, ctx) {
                                return Err(EvalError::Cancelled);
                            }
                            let last = f.cur.wrapping_add(f.step.wrapping_mul((len - 1) as i64));
                            if let Some(&x) = f.buf.first() {
                                f.kind = FrameKind::Candidates;
                                f.idx = 0;
                                f.cur = last;
                                slots[*slot as usize] = x;
                                ip += 1;
                            } else {
                                slots[*slot as usize] = last;
                                slots[ps.child_slot as usize] = entry.last();
                                state.elide = f.saved_elide;
                                ip = exit;
                            }
                            continue;
                        }
                    }
                    // Loop narrowing: when the body opens with a reject-
                    // unless-equal check affine in the loop slot, solve for
                    // the ≤ 1 passing value instead of enumerating (see
                    // `LoopSolve`). Unprovable entries enumerate below.
                    if let Some(ns) = &self.narrow[l] {
                        let solved = (state.elide & ns.elide_mask == 0)
                            .then(|| ns.solve.solve(slots, f.cur, f.step, len))
                            .flatten();
                        if let Some(sol) = solved {
                            let (c, hits) = (ns.solve.constraint, u64::from(sol.hit.is_some()));
                            credit_solved(&mut state.stats, &mut state.blocks, c, 1, len, hits);
                            if let Some(x) = sol.hit {
                                // Run the body once; `Next` then finds the
                                // frame dry and parks the slot on `last`.
                                f.kind = FrameKind::Solved;
                                f.cur = sol.last;
                                slots[*slot as usize] = x;
                                ip += 2;
                            } else {
                                // The common case leaves directly (an extra
                                // `Next` dispatch per entry measured ≈ 5 %).
                                slots[*slot as usize] = sol.last;
                                state.elide = f.saved_elide;
                                ip = exit;
                            }
                            continue;
                        }
                    }
                    // Replay: nothing below reads this loop's slot, so run
                    // the body for the first value with a recording open and
                    // let `Next` re-emit its survivors for the other values
                    // (see `crate::replay`). Not with an injector attached:
                    // its faults are keyed on per-point visit ordinals.
                    if self.replay.replays(l) && len >= 2 && ctx.injector.is_none() {
                        state.replay.open(
                            *loop_id,
                            state.faults.len(),
                            &mut state.stats,
                            &mut state.blocks,
                        );
                    }
                    slots[*slot as usize] = first;
                    ip += 1;
                }
                Op::Next { loop_id, slot, body } => {
                    if poll_cancel && poll_tick(&mut state.poll, 1, ctx) {
                        return Err(EvalError::Cancelled);
                    }
                    let f = &mut frames[*loop_id as usize];
                    // A recording this entry opened (and nothing abandoned
                    // since): replay the remaining values instead of
                    // advancing through them.
                    if state.replay.is_open(*loop_id) {
                        let names = &self.lp.slot_names;
                        let State { replay, stats, blocks, visitor, faults, poll, .. } =
                            &mut *state;
                        let closed = replay.close(
                            *slot,
                            slots[*slot as usize],
                            faults.len(),
                            || advance_frame(f),
                            stats,
                            blocks,
                            |row| {
                                visitor.visit(&PointRef::Slots { names, slots: row });
                                // One poll tick per replayed point, as one
                                // per loop advance elsewhere.
                                poll_cancel && poll_tick(poll, 1, ctx)
                            },
                        );
                        match closed {
                            Closed::Replayed(last) => {
                                slots[*slot as usize] = last;
                                state.elide = f.saved_elide;
                                ip += 1;
                                continue;
                            }
                            Closed::Cancelled => return Err(EvalError::Cancelled),
                            Closed::Declined => {}
                        }
                    }
                    match advance_frame(f) {
                        Some(v) => {
                            slots[*slot as usize] = v;
                            ip = *body as usize;
                        }
                        None => {
                            match f.kind {
                                FrameKind::Solved | FrameKind::Candidates => {
                                    slots[*slot as usize] = f.cur
                                }
                                _ => {}
                            }
                            state.elide = f.saved_elide;
                            ip += 1;
                        }
                    }
                }
                Op::Run { run, checks, on_reject } => {
                    let prog = &self.runs[*run as usize];
                    let exit = prog.run(slots, state.elide);
                    let upto = match &exit {
                        Ok(RunExit::Pass) => u32::MAX,
                        Ok(RunExit::Reject(k)) => *k,
                        Err(fault) => fault.step,
                    };
                    let (n, elided) = credit_passes(checks, upto, state.elide, &mut state.stats);
                    state.blocks.checks_elided += elided;
                    match exit {
                        Ok(RunExit::Pass) => ip += 1,
                        Ok(RunExit::Reject(_)) => {
                            state.stats.record(checks[n].constraint as usize, true);
                            ip = *on_reject as usize;
                        }
                        Err(fault) => {
                            let site = self.step_site(prog.steps()[fault.step as usize]);
                            ip = self.fault_recover(
                                fault.error,
                                site,
                                ip,
                                fault.step as usize,
                                state.visit_ordinal,
                                slots,
                                ctx,
                                &mut state.faults,
                            )?;
                        }
                    }
                }
                Op::DefineOpaque { slot, derived } => {
                    let v = try_eval!('interp, Site::Slot(*slot), {
                        let view = self.bindings_view(slots);
                        self.lp.plan.space().deriveds()[*derived].kind.eval(&view)
                    });
                    slots[*slot as usize] =
                        try_eval!('interp, Site::Slot(*slot), v.as_int());
                    ip += 1;
                }
                Op::CheckOpaque { constraint, on_reject } => {
                    let rejected = try_eval!('interp, Site::Constraint(*constraint), {
                        let view = self.bindings_view(slots);
                        self.lp.plan.space().constraints()[*constraint as usize]
                            .kind
                            .rejects(&view)
                    });
                    state.stats.record(*constraint as usize, rejected);
                    ip = if rejected { *on_reject as usize } else { ip + 1 };
                }
                Op::Visit => {
                    if let Some(inj) = ctx.injector {
                        let ord = state.visit_ordinal;
                        state.visit_ordinal = ord + 1;
                        if inj.point_error(ctx.chunk, ord, ctx.attempt) {
                            // Route the injected fault through the standard
                            // recovery path, as if a constraint had errored.
                            let _: i64 = try_eval!(
                                'interp,
                                Site::Visit,
                                Err::<i64, EvalError>(EvalError::Custom(
                                    "injected fault".into(),
                                ))
                            );
                        }
                    }
                    // Count the survivor, log its row for any open recording
                    // (see `crate::replay`), and hand it to the visitor.
                    let row = &slots[..self.lp.n_slots as usize];
                    state.stats.record_survivor();
                    state.replay.record(row);
                    let names = &self.lp.slot_names;
                    state.visitor.visit(&PointRef::Slots { names, slots: row });
                    ip += 1;
                }
                Op::Halt => return Ok(()),
            }
        }
    }

    /// Cold fault path shared by every fallible site in `exec`: annotate the
    /// error with point context and, under [`FaultPolicy::SkipPoint`],
    /// recover by returning the ip of the innermost open loop's `Next` —
    /// the exact transition a check rejection takes, so frames, elision
    /// masks and guard caches stay consistent. Faults with no enclosing
    /// loop (the preamble, run once by the build) and
    /// [`EvalError::Cancelled`] always propagate.
    /// `done` counts the steps of an `Op::Run` at `ip` that completed
    /// before its fault.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fault_recover(
        &self,
        e: EvalError,
        site: Site,
        ip: usize,
        done: usize,
        ordinal: u64,
        slots: &[i64],
        ctx: &ChunkCtx<'_>,
        faults: &mut Vec<FaultRecord>,
    ) -> Result<usize, EvalError> {
        if matches!(e, EvalError::Cancelled) {
            return Err(e);
        }
        let e = self.at_point(e, site, ip, done, slots);
        if ctx.policy == FaultPolicy::SkipPoint {
            if let Some(next_ip) = self.innermost_open_next(ip) {
                let (site, bindings) = match e.point_context() {
                    Some(c) => (c.site.clone(), c.bindings.clone()),
                    None => (self.site_label(site), Vec::new()),
                };
                faults.push(FaultRecord {
                    chunk: ctx.chunk,
                    ordinal,
                    attempt: ctx.attempt,
                    kind: FaultKind::Error,
                    action: FaultAction::SkippedPoint,
                    site,
                    error: e.root().to_string(),
                    bindings,
                });
                return Ok(next_ip);
            }
        }
        Err(e)
    }

    /// `e` annotated with the point it fired at: `site`'s name and the
    /// bindings at `ip` (see [`Compiled::point_bindings`]).
    fn at_point(
        &self,
        e: EvalError,
        site: Site,
        ip: usize,
        done: usize,
        slots: &[i64],
    ) -> EvalError {
        e.with_point(self.site_label(site), self.point_bindings(ip, done, slots))
    }

    /// Human-readable name for a fault site.
    fn site_label(&self, site: Site) -> String {
        match site {
            Site::Constraint(c) => {
                self.lp.plan.space().constraints()[c as usize].name.to_string()
            }
            Site::Slot(s) => self.lp.slot_names[s as usize].to_string(),
            Site::Visit => "visit".to_string(),
        }
    }

    /// The `Next` ip of the innermost loop whose body contains `ip`, or
    /// `None` when `ip` is outside every loop. A loop with `Enter` at `e`
    /// and `Next` at `n` is *open* at `ip` iff `e < ip <= n`; closed loops
    /// entirely before `ip` are skipped over wholesale.
    fn innermost_open_next(&self, ip: usize) -> Option<usize> {
        let mut best = None;
        let mut i = 0;
        while i < ip {
            if let Op::Enter { next, .. } = &self.ops[i] {
                let n = *next as usize;
                if n >= ip {
                    best = Some(n);
                } else {
                    i = n;
                }
            }
            i += 1;
        }
        best
    }

    /// Where a fault at plan step `step` (a run's define or check) is
    /// reported.
    fn step_site(&self, step: u32) -> Site {
        match &self.lp.steps[step as usize] {
            LStep::Define { slot, .. } => Site::Slot(*slot),
            LStep::Check { constraint, .. } => Site::Constraint(*constraint as u32),
            other => unreachable!("a run holds defines and checks, not {other:?}"),
        }
    }

    /// `(name, value)` pairs for every slot bound at `ip`, where an
    /// `Op::Run` has completed its first `done` steps: the iterators of
    /// open loops plus the defines already executed in open scopes, in
    /// program order. Defines inside closed inner loops are stale for the
    /// current point and are skipped along with their loop.
    fn point_bindings(&self, ip: usize, done: usize, slots: &[i64]) -> Vec<(String, i64)> {
        let defines = |run: u32, upto: usize, out: &mut Vec<u32>| {
            for &s in self.runs[run as usize].steps().iter().take(upto) {
                if let LStep::Define { slot, .. } = &self.lp.steps[s as usize] {
                    out.push(*slot);
                }
            }
        };
        let mut out = Vec::new();
        let mut i = 0;
        while i < ip {
            match &self.ops[i] {
                Op::Enter { slot, next, .. } => {
                    let n = *next as usize;
                    if n >= ip {
                        out.push(*slot);
                    } else {
                        i = n;
                    }
                }
                Op::Run { run, .. } => defines(*run, usize::MAX, &mut out),
                Op::DefineOpaque { slot, .. } => out.push(*slot),
                _ => {}
            }
            i += 1;
        }
        if let Some(Op::Run { run, .. }) = self.ops.get(ip) {
            defines(*run, done, &mut out);
        }
        out.into_iter()
            .map(|s| (self.lp.slot_names[s as usize].to_string(), slots[s as usize]))
            .collect()
    }
}

/// Place and compile the per-loop guards: loop `l >= 1` with a decidable
/// (non-opaque) check below it runs an abstract program ([`AbsProgs`]) over
/// the steps after its bind. The outermost loop gets no guard — its
/// subdomain is chunk-dependent under the parallel driver, and determinism
/// across thread counts takes priority over one extra level of block
/// pruning. With `opts.intervals` off no guard is placed.
///
/// A guard's program evaluates only the steps that can evaluate
/// differently than they did at the nearest enclosing *kept* guard, its
/// parent: steps transitively depending on slots bound/defined since the
/// parent's bind (its seeds) or on this loop's own slot. Every other step's
/// value and fact is read from the parent's last run, which precedes every
/// run of this guard with those inputs unchanged, so the verdict is the
/// one a walk of the whole suffix would reach. A loop where no decidable
/// check is dirty in this sense gets no guard at all — its verdict would
/// always equal the ancestor's, which already skipped or elided
/// accordingly — so the dropped guard changes no decision.
fn build_guards(
    lp: &LoweredPlan,
    abs: &AbsSteps,
    plan: &[LevelPlan],
    opts: EngineOptions,
) -> (Vec<Option<u32>>, AbsProgs) {
    let n_loops = plan.len();
    let mut guards: Vec<Option<u32>> = vec![None; n_loops];
    let mut windows: Vec<Window> = Vec::new();
    let decidable = |s: &LStep| matches!(s, LStep::Check { body: LBody::Expr(_), .. });

    // The first candidate: the shallowest loop l >= 1 with a non-opaque
    // check below its bind. Without one, no guard can ever decide anything.
    let first = (1..n_loops).find(|&l| lp.steps[plan[l].step + 1..].iter().any(decidable));
    let first = first.filter(|_| opts.intervals).unwrap_or(n_loops);

    // `prev_kept` tracks the nearest enclosing kept guard; its bind position
    // starts the seed tile (inclusive, so the ancestor's own loop slot —
    // a fresh point on every one of its iterations — is reseeded too).
    let mut prev_kept: Option<usize> = None;
    for l in first..n_loops {
        let (pos, slot) = (plan[l].step, plan[l].slot);
        // Seed tile: slots bound/defined since the nearest kept guard's
        // bind (or since the start of the plan for the first kept guard).
        let tile_begin = prev_kept.map_or(0, |p| plan[p].step);
        let seed: Vec<u32> =
            lp.steps[tile_begin..pos].iter().filter_map(LStep::written_slot).collect();
        let dirty = abs.dirty(pos + 1, seed.iter().copied().chain([slot]));
        let below = || lp.steps.iter().zip(&dirty).skip(pos + 1);
        let any_check = below().any(|(s, _)| decidable(s));
        let any_dirty_check = below().any(|(s, &d)| d && decidable(s));
        // Keep the guard if a decidable check can evaluate differently than
        // it did at the nearest kept guard; the first kept guard has no
        // ancestor verdict to inherit, so plain decidability suffices.
        // Either way, the subtree must be big enough that a skip pays for
        // the guard run (`min_guard_fanout` gates deep, tiny subtrees).
        if plan[l].fanout_below >= opts.min_guard_fanout
            && (any_dirty_check || (prev_kept.is_none() && any_check))
        {
            guards[l] = Some(windows.len() as u32);
            let parent = prev_kept.and_then(|p| guards[p]).map(|g| g as usize);
            windows.push(Window { start: pos + 1, end: lp.steps.len(), slot, seed, dirty, parent });
            prev_kept = Some(l);
        }
    }
    (guards, AbsProgs::new(lp, abs, opts.congruence, &windows))
}

/// Per loop: its [`ParentSolve`], when the level plan has it solve its child
/// (`LevelPlan::child_solve`), the child narrows and the child has no guard.
fn parent_table(
    plan: &[LevelPlan],
    narrow: &[Option<LoopSolve>],
    guards: &[Option<u32>],
) -> Vec<Option<ParentSolve>> {
    (plan.iter().enumerate())
        .map(|(l, p)| {
            let s = p.child_solve.as_ref()?;
            (narrow.get(l + 1)?.is_some() && guards[l + 1].is_none())
                .then(|| ParentSolve { progs: ChildProgs::new(s), child_slot: plan[l + 1].slot })
        })
        .collect()
}

/// The box of a just-realized, non-empty domain of `len` values — the
/// guard's view of the loop slot.
fn domain_facts(domain: &CDomain, f: &Frame, len: u64) -> (Interval, Congruence) {
    match domain {
        CDomain::Range { .. } => range_box(f.cur, f.step, len),
        CDomain::Values { iv, cg, .. } => (*iv, *cg),
        CDomain::Opaque { .. } => values_box(&f.buf),
    }
}

/// Runtime iteration state for one loop of the flat program.
#[derive(Default)]
struct Frame {
    kind: FrameKind,
    /// Range iteration.
    cur: i64,
    stop: i64,
    step: i64,
    /// Values/Buffer cursor.
    idx: usize,
    /// Shared static value list (Values domains).
    vals: Arc<[i64]>,
    /// Reusable buffer for opaque realizations and outer chunk overrides.
    buf: Vec<i64>,
    /// Elision mask to restore when this loop exhausts.
    saved_elide: u64,
    /// A solving parent's cache of the divisors of its child's last offset.
    divisors: Divisors,
}

/// Which iteration fields of a [`Frame`] are live.
#[derive(Default)]
enum FrameKind {
    #[default]
    Range,
    Values,
    Buffer,
    /// A narrowed range running its body for the one solved value: dry,
    /// with `cur` holding the range's last value for the slot's exit state.
    Solved,
    /// A range that solves its child, stepping over its candidates in
    /// `buf`, with `cur` holding the range's last value for the slot's exit
    /// state. The child's slot needs no parking: each candidate's entry of
    /// the child leaves it on the child range's last value.
    Candidates,
}

/// One loop advance — the single definition of `Op::Next`'s stepping
/// semantics, shared by the interpreter and replay's drain of the remaining
/// values so both walk identical value sequences and leave identical
/// exhausted frame state.
#[inline]
fn advance_frame(f: &mut Frame) -> Option<i64> {
    match f.kind {
        // A step past `i64` is past `stop`: overflow is exhaustion, as in
        // the walker's `RealizedIter` (a wrapped value would pass the bound
        // test and the loop would never end).
        FrameKind::Range => {
            let x = f.cur.checked_add(f.step)?;
            f.cur = x;
            ((f.step > 0 && x < f.stop) || (f.step < 0 && x > f.stop)).then_some(x)
        }
        FrameKind::Solved => None,
        FrameKind::Values => {
            f.idx += 1;
            f.vals.get(f.idx).copied()
        }
        FrameKind::Buffer | FrameKind::Candidates => {
            f.idx += 1;
            f.buf.get(f.idx).copied()
        }
    }
}

struct State<V> {
    stats: PruneStats,
    blocks: BlockStats,
    visitor: V,
    /// The file the guard programs run over: each guard's values and
    /// facts stay there for the guards nested in it.
    gfile: AbsFile,
    /// Every guard run, for the differential test.
    #[cfg(test)]
    guard_log: Vec<GuardCall>,
    /// Loop entries that stepped over their candidates only.
    #[cfg(test)]
    parent_entries: u64,
    /// Bitmask of currently elided checks (bit = constraint index).
    elide: u64,
    /// Faults recovered from during this run (only under
    /// [`FaultPolicy::SkipPoint`]); drained by the supervisor.
    faults: Vec<FaultRecord>,
    /// Per-run visit counter: the point ordinal faults and the injector are
    /// keyed on. Deterministic for a fixed chunk, independent of threads.
    visit_ordinal: u64,
    /// Countdown for intra-chunk cancel polling (see `CANCEL_POLL_EVERY`).
    poll: u32,
    /// Open recordings and their survivor log (see [`crate::replay`]).
    replay: replay::Log,
}

/// One guard run: its loop, the slot values and domain box it ran over,
/// and its verdict.
#[cfg(test)]
struct GuardCall {
    l: usize,
    slots: Vec<i64>,
    dom: (Interval, Congruence),
    verdict: Verdict,
}

/// How many loop advances may pass between two cancel/deadline polls: the
/// bound on cancellation latency, in `Op::Next` executions.
const CANCEL_POLL_EVERY: u32 = 1024;

/// Per-chunk supervision context threaded through `exec`: the fault policy,
/// the (optional) injector and cancel probe, and the chunk coordinates every
/// [`FaultRecord`] is keyed on. `plain()` is the unsupervised configuration
/// used by [`Compiled::run`] — abort on first error, inject nothing, never
/// poll.
pub(crate) struct ChunkCtx<'a> {
    pub(crate) policy: FaultPolicy,
    pub(crate) injector: Option<&'a FaultInjector>,
    pub(crate) chunk: usize,
    pub(crate) attempt: u32,
    pub(crate) cancel: Option<&'a CancelProbe>,
}

impl ChunkCtx<'static> {
    pub(crate) fn plain() -> Self {
        ChunkCtx {
            policy: FaultPolicy::Abort,
            injector: None,
            chunk: 0,
            attempt: 0,
            cancel: None,
        }
    }
}

/// A supervised chunk execution's result: the outcome plus the faults that
/// were recovered from along the way.
pub(crate) struct ChunkRun<V> {
    pub(crate) outcome: SweepOutcome<V>,
    pub(crate) faults: Vec<FaultRecord>,
}

/// Which expression an evaluation error fired in, as a cheap key resolved to
/// a name only on the (cold) fault path.
#[derive(Clone, Copy)]
enum Site {
    /// A constraint, by constraint index.
    Constraint(u32),
    /// An iterator bound or define, by destination slot.
    Slot(u32),
    /// The injector's visit-time fault site.
    Visit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;
    use beast_core::value::Value;

    use crate::visit::{CollectVisitor, CountVisitor};
    use crate::walker::{LoopStyle, Walker};

    fn compile(space: &std::sync::Arc<Space>) -> Compiled {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        Compiled::new(LoweredPlan::new(&plan).unwrap())
    }

    fn compile_no_intervals(space: &std::sync::Arc<Space>) -> Compiled {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        Compiled::with_options(
            LoweredPlan::new(&plan).unwrap(),
            EngineOptions::no_intervals(),
        )
    }

    /// Compile with a guard on every eligible loop (`min_guard_fanout: 1`):
    /// the test spaces here are tiny, so the default fanout gate would drop
    /// the very guards the tests exercise.
    fn compile_all_guards(space: &std::sync::Arc<Space>) -> Compiled {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        Compiled::with_options(
            LoweredPlan::new(&plan).unwrap(),
            EngineOptions { min_guard_fanout: 1, ..EngineOptions::default() },
        )
    }

    fn mini_space() -> std::sync::Arc<Space> {
        Space::builder("mini")
            .constant("cap", 20)
            .range("a", 1, 5)
            .range_step("b", var("a"), 13, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap()
    }

    #[test]
    fn matches_walker_exactly() {
        let space = mini_space();
        let compiled = compile(&space);
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);

        let w = walker
            .run(CollectVisitor::new(walker.point_names().clone(), 10_000))
            .unwrap();
        let c = compiled
            .run(CollectVisitor::new(compiled.point_names().clone(), 10_000))
            .unwrap();

        assert_eq!(w.stats, c.stats);
        let wp: Vec<(i64, i64, i64)> = w
            .visitor
            .points
            .iter()
            .map(|p| (p.get_int("a"), p.get_int("b"), p.get_int("ab")))
            .collect();
        let cp: Vec<(i64, i64, i64)> = c
            .visitor
            .points
            .iter()
            .map(|p| (p.get_int("a"), p.get_int("b"), p.get_int("ab")))
            .collect();
        assert_eq!(wp, cp);
    }

    #[test]
    fn opaque_iterators_through_callback() {
        let space = Space::builder("opaque")
            .range("n", 1, 6)
            .deferred_iter("d", &["n"], |env| {
                let n = env.require_int("n")?;
                Ok(beast_core::iterator::Realized::Range { start: n, stop: 0, step: -1 })
            })
            .build()
            .unwrap();
        let compiled = compile(&space);
        let out = compiled.run(CountVisitor::default()).unwrap();
        // sum over n of n values = 1+2+3+4+5 = 15.
        assert_eq!(out.visitor.count, 15);
    }

    #[test]
    fn opaque_constraints_and_deriveds() {
        let space = Space::builder("opq2")
            .constant("cap", 6)
            .range("x", 0, 10)
            .derived_fn("x2", &["x"], |env| {
                Ok(Value::Int(env.require_int("x")? * 2))
            })
            .constraint_fn("big", ConstraintClass::Soft, &["x2", "cap"], |env| {
                Ok(env.require_int("x2")? > env.require_int("cap")?)
            })
            .build()
            .unwrap();
        let compiled = compile(&space);
        let out = compiled.run(CountVisitor::default()).unwrap();
        // x in 0..10, keep 2x <= 6 → x in {0,1,2,3}.
        assert_eq!(out.visitor.count, 4);
        assert_eq!(out.stats.pruned[0], 6);
    }

    #[test]
    fn outer_domain_and_chunked_run_match_full_run() {
        let space = mini_space();
        let compiled = compile(&space);
        let full = compiled.run(CountVisitor::default()).unwrap();
        let outer = compiled.outer_domain().unwrap();
        assert_eq!(outer, vec![1, 2, 3, 4]);

        let mut merged = PruneStats::new(1);
        let mut blocks = BlockStats::default();
        let mut count = 0u64;
        for chunk in outer.chunks(2) {
            let out = compiled.run_outer_chunk(chunk, CountVisitor::default()).unwrap();
            merged.merge(&out.stats);
            blocks.merge(&out.blocks);
            count += out.visitor.count;
        }
        assert_eq!(count, full.visitor.count);
        assert_eq!(merged, full.stats);
        assert_eq!(blocks, full.blocks);
    }

    /// A preamble check that rejects empties the space: an expression check
    /// of a constant, and a closure check of a preamble define.
    fn rejecting_preambles() -> [std::sync::Arc<Space>; 2] {
        let closure = Space::builder("pre_fn")
            .constant("cap", 0)
            .derived("a", var("cap") + 1)
            .range("x", 0, 100)
            .constraint_fn("off", ConstraintClass::Generic, &["a"], |env| {
                Ok(env.require_int("a")? == 1)
            })
            .build()
            .unwrap();
        let expr = Space::builder("pre")
            .constant("enabled", 0)
            .range("x", 0, 100)
            .constraint("disabled", ConstraintClass::Generic, var("enabled").eq(0))
            .build()
            .unwrap();
        [expr, closure]
    }

    #[test]
    fn preamble_constraint_can_empty_the_space() {
        for space in rejecting_preambles() {
            let compiled = compile(&space);
            let out = compiled.run(CountVisitor::default()).unwrap();
            assert_eq!(out.visitor.count, 0);
            assert_eq!((out.stats.evaluated[0], out.stats.pruned[0]), (1, 1));
            assert_eq!(compiled.outer_domain().unwrap(), Vec::<i64>::new());
            let chunk = compiled.run_outer_chunk(&[0, 1], CountVisitor::default()).unwrap();
            assert_eq!((chunk.visitor.count, chunk.stats.evaluated[0]), (0, 0));
        }
    }

    #[test]
    fn division_by_zero_propagates() {
        let space = Space::builder("dz")
            .range("x", 0, 4)
            .derived("bad", var("x") / var("x"))
            .build()
            .unwrap();
        let compiled = compile(&space);
        let err = compiled.run(CountVisitor::default()).unwrap_err();
        assert_eq!(err.root(), &EvalError::DivisionByZero);
        // Satellite of the fault work: escaping errors carry the failing
        // define's name and the iterator values at the point of failure.
        let ctx = err.point_context().expect("point context");
        assert_eq!(ctx.site, "bad");
        assert_eq!(ctx.bindings, vec![("x".to_string(), 0)]);
    }

    #[test]
    fn intervals_skip_always_rejected_subtrees() {
        // b in [a, 12]; a*b > 20 rejects the whole b-loop once a >= 5
        // (min product a*a = 25 > 20).
        let space = Space::builder("skip")
            .constant("cap", 20)
            .range("a", 1, 9)
            .range_step("b", var("a"), 13, 1)
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap();
        let on = compile_all_guards(&space).run(CountVisitor::default()).unwrap();
        let off = compile_no_intervals(&space).run(CountVisitor::default()).unwrap();
        assert!(on.blocks.subtree_skips > 0, "expected subtree skips");
        assert!(on.blocks.points_skipped > 0);
        assert_eq!(off.blocks, BlockStats::default());
        // Identical survivors; fewer per-point evaluations with intervals.
        assert_eq!(on.visitor.count, off.visitor.count);
        assert_eq!(on.stats.survivors, off.stats.survivors);
        assert!(
            on.stats.evaluated[0] < off.stats.evaluated[0],
            "skips must remove per-point evaluations"
        );
    }

    #[test]
    fn intervals_elide_always_true_checks_with_identical_stats() {
        // For a = 1, max a*b = 12 <= 20: the check is statically true over
        // the whole b-subtree and is elided, but still counted.
        let space = mini_space();
        let on = compile_all_guards(&space).run(CountVisitor::default()).unwrap();
        let off = compile_no_intervals(&space).run(CountVisitor::default()).unwrap();
        assert!(on.blocks.checks_elided > 0, "expected elided checks");
        assert_eq!(on.blocks.subtree_skips, 0, "mini space has no skippable subtree");
        // Elision is invisible in the funnel: identical PruneStats.
        assert_eq!(on.stats, off.stats);
        assert_eq!(on.visitor.count, off.visitor.count);
    }

    #[test]
    fn intervals_on_and_off_agree_on_survivors_and_order() {
        let space = Space::builder("agree")
            .constant("cap", 40)
            .range("a", 1, 12)
            .range("b", 1, 12)
            .range_step("c", var("a"), 30, var("a"))
            .derived("abc", var("a") * var("b") + var("c"))
            .constraint("over", ConstraintClass::Hard, var("abc").gt(var("cap")))
            .constraint("odd", ConstraintClass::Soft, (var("c") % 2).ne(0))
            .build()
            .unwrap();
        let on = compile_all_guards(&space);
        let off = compile_no_intervals(&space);
        let a = on
            .run(CollectVisitor::new(on.point_names().clone(), usize::MAX))
            .unwrap();
        let b = off
            .run(CollectVisitor::new(off.point_names().clone(), usize::MAX))
            .unwrap();
        assert_eq!(a.stats.survivors, b.stats.survivors);
        let pa: Vec<Vec<i64>> = a
            .visitor
            .points
            .iter()
            .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        let pb: Vec<Vec<i64>> = b
            .visitor
            .points
            .iter()
            .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn guards_respect_error_semantics() {
        // The check is statically false (always rejecting) for x >= 5
        // (x*x > 20), but it depends on `bad`, whose define errors at
        // x = 5 and precedes it in the subtree. The guard must see the
        // unclean define and refuse to skip, so the sweep errors exactly
        // like the per-point engine instead of silently skipping x = 5.
        let space = Space::builder("err")
            .range("x", 0, 8)
            .range("y", 1, 4)
            .derived("xx", var("x") * var("x"))
            .derived("bad", var("y") / (var("x") - 5))
            .constraint(
                "big",
                ConstraintClass::Hard,
                var("xx").gt(20).or(var("bad").gt(99)),
            )
            .build()
            .unwrap();
        let on = compile_all_guards(&space).run(CountVisitor::default());
        let off = compile_no_intervals(&space).run(CountVisitor::default());
        assert_eq!(on.unwrap_err().root(), &EvalError::DivisionByZero);
        assert_eq!(off.unwrap_err().root(), &EvalError::DivisionByZero);
    }

    /// The options signature keys the sub-sweep cache and the checkpoint
    /// compatibility check, so its exact shape is pinned: the default string
    /// must never change silently, every semantic knob must perturb it, and
    /// the struct size is asserted so adding a field without updating
    /// `signature()` (and this test) fails loudly instead of aliasing cache
    /// entries.
    #[test]
    fn engine_options_signature_is_pinned_and_injective_per_field() {
        let d = EngineOptions::default();
        assert_eq!(d.signature(), "iv1cg1g4Declaredecompiled");
        assert_eq!(EngineOptions::native().signature(), "iv1cg1g4Declaredenative");
        let variants = [
            EngineOptions { intervals: false, ..d },
            EngineOptions { congruence: false, ..d },
            EngineOptions { min_guard_fanout: 2, ..d },
            EngineOptions { engine: EngineTier::Native, ..d },
        ];
        let mut seen = vec![d.signature()];
        for v in variants {
            let sig = v.signature();
            assert!(!seen.contains(&sig), "field change did not alter signature: {sig}");
            seen.push(sig);
        }
        // If this assertion fires you added a field to `EngineOptions`:
        // fold it into `signature()` (unless, like `lint`, it provably
        // cannot change sweep results) and update both pins here.
        assert_eq!(std::mem::size_of::<EngineOptions>(), 16);
    }

    #[test]
    fn the_outermost_loop_never_narrows() {
        // Both loops open with a solvable check; only the inner one may be
        // solved, or the counters would follow the driver's chunk grid.
        let space = Space::builder("narrow_outer")
            .range("x", 1, 9)
            .constraint("x4", ConstraintClass::Hard, var("x").ne(4))
            .range("y", 1, var("x") + 9)
            .constraint("yx", ConstraintClass::Hard, (var("y") * 2).ne(var("x") + 2))
            .build()
            .unwrap();
        let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
        let recognised: Vec<bool> =
            levels(&lp).levels.iter().map(|l| l.narrowing.is_some()).collect();
        assert_eq!(recognised, [true, true]);
        let table: Vec<bool> = Compiled::new(lp).narrow.iter().map(Option::is_some).collect();
        assert_eq!(table, [false, true]);
    }

    #[test]
    fn engine_tier_parses_its_own_names() {
        for tier in [EngineTier::Compiled, EngineTier::Native] {
            assert_eq!(EngineTier::parse(tier.as_str()), Some(tier));
            assert_eq!(tier.to_string(), tier.as_str());
        }
        assert_eq!(EngineTier::parse("turbo"), None);
        assert_eq!(EngineTier::parse("walker"), None);
        assert_eq!(EngineTier::default(), EngineTier::Compiled);
    }

    /// The seeded spaces of the narrowing and replay suites, and stepped
    /// ranges whose residue decides a check only congruence can.
    fn seeded_plans() -> Vec<(PlanOptions, std::sync::Arc<Space>)> {
        let mut plans = Vec::new();
        for seed in 0..100u64 {
            plans.push((PlanOptions::default(), crate::narrow_gen::generate(seed).space));
            let g = crate::replay_gen::generate(seed);
            let order = beast_core::plan::LoopOrder::Explicit(g.order);
            plans.push((PlanOptions { order, ..PlanOptions::default() }, g.space));
        }
        // Stepped ranges whose residue decides `b % a != 0` (off = 1), next
        // to comparisons the slice leaves out.
        for (k, off) in [(1, 0), (1, 1), (2, 1), (3, 0)] {
            let space = Space::builder("cg_slice")
                .range("a", 2, 7)
                .derived("t", var("a") * 3)
                .constraint("t_small", ConstraintClass::Soft, (var("t") + 1).lt(8))
                .range_step("b", var("a") + off, 60, var("a") * k)
                .derived("d", var("b") * 2)
                .constraint("d_big", ConstraintClass::Soft, var("d").gt(100))
                .constraint("b_rem", ConstraintClass::Hard, (var("b") % var("a")).ne(0))
                .range("y", 0, 3)
                .constraint(
                    "by",
                    ConstraintClass::Soft,
                    ((var("b") + var("y")) % 2).eq(0).and(var("y").lt(2)),
                )
                .build()
                .unwrap();
            plans.push((PlanOptions::default(), space));
        }
        plans
    }

    /// Every guard verdict of a sweep is the one a walk of the guard's
    /// whole suffix with the per-step transfer (`AbsSteps::eval`) reaches
    /// over the same box — the outer slots exact points, the loop slot its
    /// domain — skip, `by_congruence` and elision mask alike, the `clean`
    /// chain included: on the seeded spaces of the narrowing and replay
    /// suites (solved, replayed, stepped, opaque and failing levels), with
    /// a guard on every eligible loop (nested
    /// kept guards reading their parent's facts) or the default fanout
    /// gate, with and without the congruence half.
    #[test]
    fn guard_programs_match_step_by_step_evaluation() {
        use beast_core::analyze::{AbsEnv, BindHull};

        let plans = seeded_plans();
        let (mut runs, mut nested, mut skips, mut cg_skips, mut elided) = (0u64, 0u64, 0, 0, 0);
        for (n, (options, space)) in plans.iter().enumerate() {
            let lp = LoweredPlan::new(&Plan::new(space, options.clone()).unwrap()).unwrap();
            for (fanout, congruence) in [(1, true), (1, false), (4, true)] {
                let opts =
                    EngineOptions { min_guard_fanout: fanout, congruence, ..EngineOptions::default() };
                let c = Compiled::with_options(lp.clone(), opts);
                let mut state = c.fresh_state(CountVisitor::default());
                let mut slots = c.preamble.file.clone();
                // Failing spaces stop the sweep; the runs before still count.
                if c.preamble.outcome == Ok(true) {
                    let _ = c.exec(c.first_enter, None, &mut slots, &mut state, &ChunkCtx::plain());
                }
                let plan = levels(&c.lp).levels;
                let abs = AbsSteps::new(&c.lp);
                let kept: Vec<usize> = (0..plan.len()).filter(|&l| c.guards[l].is_some()).collect();
                for call in &state.guard_log {
                    let (start, slot) = (plan[call.l].step + 1, plan[call.l].slot as usize);
                    let mut env = AbsEnv::top(c.lp.n_slots as usize);
                    env.set_points(&call.slots);
                    (env.iv[slot], env.cg[slot]) = call.dom;
                    let (mut clean, mut elide, mut want) = (true, 0u64, None);
                    for i in start..c.lp.steps.len() {
                        let product = congruence && abs.slice()[i];
                        let fact = abs.eval(i, &mut env, product, BindHull::Bounds);
                        if fact.rejects_all && clean {
                            let by_congruence = fact.out.iv.contains(0);
                            want = Some(Verdict::Skip { by_congruence });
                            break;
                        }
                        if let (true, LStep::Check { constraint, .. }) =
                            (fact.passes_all, &c.lp.steps[i])
                        {
                            elide |= 1u64.checked_shl(*constraint as u32).unwrap_or(0);
                        }
                        clean &= fact.out.clean;
                        env.write(&fact, product);
                    }
                    let want = want.unwrap_or(Verdict::Elide(elide));
                    assert_eq!(call.verdict, want, "plan {n}, {opts:?}, loop {}", call.l);
                    runs += 1;
                    nested += u64::from(kept.first().is_some_and(|&f| call.l > f));
                    match want {
                        Verdict::Skip { by_congruence } => {
                            skips += 1;
                            cg_skips += u32::from(by_congruence);
                        }
                        Verdict::Elide(mask) => elided += u32::from(mask != 0),
                    }
                }
            }
        }
        assert!(runs > 15_000 && nested > 15_000, "{runs} guard runs, {nested} nested");
        assert!(skips > 100 && cg_skips > 5 && elided > 2_500, "{skips} / {cg_skips} / {elided}");
    }

    /// The congruence slice changes no sweep: on the seeded spaces of the
    /// narrowing and replay suites, with a guard on every eligible loop,
    /// the engine as built and the one evaluating every guard step over the
    /// product agree on the survivors' fingerprint and the prune and block
    /// counters — or fail alike.
    #[test]
    fn the_congruence_slice_changes_no_sweep() {
        use crate::visit::FingerprintVisitor;

        let plans = seeded_plans();
        let (mut sliced_out, mut congruence_skips) = (0u32, 0u64);
        for (n, (options, space)) in plans.iter().enumerate() {
            let lp = LoweredPlan::new(&Plan::new(space, options.clone()).unwrap()).unwrap();
            let opts = EngineOptions { min_guard_fanout: 1, ..EngineOptions::default() };
            let built = Compiled::with_options(lp.clone(), opts);
            // A real step below the first guard that the slice leaves
            // out (the trailing `Visit` is never in it).
            let plan = levels(&built.lp).levels;
            let abs = AbsSteps::new(&built.lp);
            let first = built.guards.iter().position(Option::is_some);
            let below = |l: usize| {
                let window = plan[l].step + 1..built.lp.steps.len();
                built.lp.steps[window.clone()]
                    .iter()
                    .zip(&abs.slice()[window])
                    .any(|(s, &sliced)| !sliced && !matches!(s, LStep::Visit))
            };
            sliced_out += u32::from(first.is_some_and(below));
            let outcome = |c: &Compiled| match c.run(FingerprintVisitor::new()) {
                Ok(out) => Ok((out.visitor.hash, out.visitor.count, out.stats, out.blocks)),
                Err(e) => Err(e.to_string()),
            };
            let want = outcome(&built);
            if let Ok((.., blocks)) = &want {
                congruence_skips += blocks.congruence_skips;
            }
            let full = Compiled::with_options(lp, opts).with_full_product();
            assert_eq!(outcome(&full), want, "plan {n}");
        }
        assert!(
            sliced_out > 100 && congruence_skips > 0,
            "{sliced_out} engines with steps outside the slice, {congruence_skips} congruence skips"
        );
    }

    /// A serial run of `c` from its preamble record, as digest text —
    /// fingerprint, count, prune and block counters, or the error — with
    /// the number of loop entries that stepped over their candidates only.
    fn run_counting_parents(c: &Compiled) -> (String, u64) {
        use crate::visit::FingerprintVisitor;

        let mut state = c.fresh_state(FingerprintVisitor::new());
        let mut file = c.preamble.file.clone();
        let ran = match c.preamble.outcome.clone() {
            Ok(true) => c.exec(c.first_enter, None, &mut file, &mut state, &ChunkCtx::plain()),
            other => other.map(drop),
        };
        let v = &state.visitor;
        let text = match ran {
            Ok(()) => format!("{:x} {} {:?} {:?}", v.hash, v.count, state.stats, state.blocks),
            Err(e) => format!("{e:?}"),
        };
        (text, state.parent_entries)
    }

    /// GEMM reduced(16) and the parent-coefficient family of the counter's
    /// suites (zero, faulting and wrap-adjacent coefficients, `k = 0`,
    /// negative steps, empty ranges).
    fn parent_spaces() -> Vec<(String, LoweredPlan)> {
        let lower = |space: &std::sync::Arc<Space>| {
            LoweredPlan::new(&Plan::new(space, PlanOptions::default()).unwrap()).unwrap()
        };
        let gemm = beast_gemm::build_gemm_space(&beast_gemm::GemmSpaceParams::reduced(16)).unwrap();
        let seeds = (0..120u64).map(|seed| {
            (format!("seed {seed}"), lower(&crate::narrow_gen::generate_parent(seed, false).space))
        });
        std::iter::once(("gemm reduced(16)".to_string(), lower(&gemm))).chain(seeds).collect()
    }

    /// A loop that solves its child changes nothing but time: against the
    /// same engine with the path declined, the survivors' fingerprint,
    /// `PruneStats` and every `BlockStats` counter — or the error — are
    /// equal serially, and so are they and the `FaultRecord`s on every
    /// thread × chunk grid under every fault policy. The path must engage on
    /// GEMM and on generated seeds, or this proves nothing.
    #[test]
    fn a_solving_parent_changes_no_counter_and_engages() {
        use crate::sweep::{sweep, SweepSpec};
        use crate::visit::FingerprintVisitor;
        use std::time::Instant;

        let options = [
            EngineOptions::default(),
            EngineOptions::no_intervals(),
            EngineOptions { min_guard_fanout: 1, ..EngineOptions::default() },
        ];
        let policies = [
            FaultPolicy::Abort,
            FaultPolicy::SkipPoint,
            FaultPolicy::QuarantineChunk,
            FaultPolicy::Retry { max: 1, backoff_ms: 0 },
        ];
        let (mut engaged_seeds, mut entries_total) = (0u32, 0u64);
        for (name, lp) in parent_spaces() {
            let mut engaged = 0;
            for opts in options {
                let on = Compiled::with_options(lp.clone(), opts);
                let off = Compiled::with_options(lp.clone(), opts).decline_parents();
                let at = format!("{name} under {}", opts.signature());
                let ((want, none), (got, entries)) =
                    (run_counting_parents(&off), run_counting_parents(&on));
                assert_eq!(none, 0, "{at}: the declined engine solved from a parent");
                assert_eq!(got, want, "{at}: serial run");
                engaged += entries;
                for (slots, chunk_count) in [1, 2, 8].into_iter().flat_map(|s| [(s, 1), (s, 7)]) {
                    for fault_policy in policies {
                        let spec =
                            SweepSpec { slots, chunk_count, fault_policy, ..SweepSpec::default() };
                        let run = |c: &Compiled| {
                            let spec = spec.clone().on_engine(c, 0, Instant::now());
                            match sweep(&lp, &spec, FingerprintVisitor::new) {
                                Ok((o, r)) => Ok((o.visitor, o.stats, o.blocks, r.faults)),
                                Err(e) => Err(format!("{e:?}")),
                            }
                        };
                        let at =
                            format!("{at}, {slots} slots × {chunk_count} chunks, {fault_policy:?}");
                        assert_eq!(run(&on), run(&off), "{at}");
                    }
                }
            }
            if name.starts_with("gemm") {
                assert!(engaged > 0, "{name}: no loop solved its child");
            }
            engaged_seeds += u32::from(engaged > 0);
            entries_total += engaged;
        }
        assert!(engaged_seeds > 40, "{engaged_seeds} spaces engaged ({entries_total} entries)");
    }

    /// Values a solving parent passes over tick the cancel poll, as the
    /// loop advances they replace did: one outer value, a parent of 5000
    /// values none of which is a candidate (7919 is prime and the child's
    /// range stops at 2), so the loop advances alone poll far below the
    /// cadence and a tripped probe is noticed only through the passed-over
    /// values.
    #[test]
    fn a_cancel_while_passing_over_values_is_noticed() {
        use crate::fault::{CancelProbe, CancelToken};

        let space = Space::builder("cancel_parent")
            .range("o", 0, 1)
            .range("m", 1, 5001)
            .range("x", 1, 2)
            .constraint("mx", ConstraintClass::Correctness, (var("m") * var("x")).ne(7919))
            .build()
            .unwrap();
        let order =
            beast_core::plan::LoopOrder::Explicit(["o", "m", "x"].map(String::from).to_vec());
        let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        let c = Compiled::new(LoweredPlan::new(&plan).unwrap());
        let (_, entries) = run_counting_parents(&c);
        assert_eq!(entries, 1, "m did not solve its child");
        let token = std::sync::Arc::new(CancelToken::new());
        token.cancel();
        let probe = CancelProbe::new(Some(token), None);
        let ctx = ChunkCtx {
            policy: FaultPolicy::Abort,
            injector: None,
            chunk: 0,
            attempt: 0,
            cancel: Some(&probe),
        };
        let run = c.run_loops(Some(&[0]), CountVisitor::default(), &ctx);
        assert!(matches!(run, Err(EvalError::Cancelled)));
    }
}
