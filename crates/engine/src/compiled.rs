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
//! *block pruning* driven by the static interval analysis in
//! [`beast_core::interval`]: at entry to every non-outermost loop it
//! propagates `[lo, hi]` bounds through the subtree's binds, defines and
//! checks. A constraint whose interval excludes 0 rejects every point of
//! the subtree, so the subtree is skipped without enumeration; a constraint
//! whose interval is exactly `[0, 0]` can never reject, so its per-point
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
//! asserts this).
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

use beast_core::analyze::{
    self, cg_of_bind, cg_of_values, eval_product, Congruence, LintGate, LintSummary,
};
use beast_core::error::EvalError;
use beast_core::interval::{range_value_hull, Interval, IntervalOutcome, IvProg, IvScratch};
use beast_core::ir::{LBody, LIter, LStep, LoweredPlan};
use beast_core::iterator::Realized;
use beast_core::pointprog::{PointProg, SlotView};
use beast_core::schedule::{self, ScheduleMode};

use crate::point::PointRef;

use crate::fault::{CancelProbe, FaultAction, FaultInjector, FaultKind, FaultPolicy, FaultRecord};
use crate::narrow::{self, LoopSolve};
use crate::replay::{self, Closed};
use crate::stats::{BlockStats, PruneStats};
use crate::telemetry::{GroupSchedule, ScheduleTelemetry};
use crate::visit::{CountVisitor, Visitor};
use crate::walker::SweepOutcome;

/// Which evaluation tier executes a sweep (see
/// [`EngineOptions::engine`]). Survivors, emission order and the survivor
/// fingerprint are bit-identical across tiers; only throughput and
/// telemetry differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineTier {
    /// The serial interpreting walker. Supported only by serial drivers
    /// (the parallel supervisor rejects it — there is nothing to chunk).
    Walker,
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
            EngineTier::Walker => "walker",
            EngineTier::Compiled => "compiled",
            EngineTier::Native => "native",
        }
    }

    /// Parse a CLI-style tier name.
    pub fn parse(s: &str) -> Option<EngineTier> {
        match s {
            "walker" => Some(EngineTier::Walker),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Enable interval-based block pruning (subtree skips and check
    /// elision). On by default; survivors and visit order are identical
    /// either way, so turning it off is only useful for ablations.
    pub intervals: bool,
    /// Minimum static fanout (points below one iteration, see
    /// [`LoweredPlan::static_fanout_below`]) for a loop to get an interval
    /// guard. Guards on deep loops with tiny subtrees cost more per entry
    /// than the few points they can skip; gating them *statically* keeps
    /// the guard set — and therefore every skip/elide decision — identical
    /// across serial and parallel runs at any thread count. The default of
    /// 4 sits in the middle of the 2–8 plateau measured on the GEMM space
    /// (see EXPERIMENTS.md); 1 guards every eligible loop.
    pub min_guard_fanout: u64,
    /// How to order the checks within each loop level (see
    /// [`beast_core::schedule`]). `Declared` — the library default — runs
    /// checks in plan order and reproduces the walker's per-constraint
    /// statistics exactly. `Adaptive` reorders reorder-safe groups, which
    /// never changes survivors or emission order but does shift *which*
    /// constraint gets credit for a kill, so `PruneStats` may differ from
    /// declared-order runs. Either mode is a *compile-time* decision:
    /// `Adaptive` learns its order in one bounded calibration pass inside
    /// [`Compiled::with_options`] (a pure function of plan and options) and
    /// writes it into the plan before the guards are built, so all counters
    /// are invariant across thread and chunk counts in both modes.
    pub schedule: ScheduleMode,
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
    /// binary with graceful fallback; `Walker` is serial-only. Results are
    /// bit-identical across tiers.
    pub engine: EngineTier,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            intervals: true,
            min_guard_fanout: 4,
            schedule: ScheduleMode::Declared,
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

    /// Default options with the given constraint-schedule mode.
    pub fn scheduled(mode: ScheduleMode) -> EngineOptions {
        EngineOptions { schedule: mode, ..EngineOptions::default() }
    }

    /// Alias of [`EngineOptions::default`]: the lane tier it used to switch
    /// off is gone, but the untouchable `benchmark/` crate still compiles
    /// against the name (goes with ROADMAP item 5d).
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
    /// never alters sweep results.
    pub fn signature(&self) -> String {
        format!(
            "iv{}cg{}g{}{:?}e{}",
            u8::from(self.intervals),
            u8::from(self.congruence),
            self.min_guard_fanout,
            self.schedule,
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
    /// parallel chunk runs. `lo`/`hi`/`cg` are the precomputed interval and
    /// congruence hulls for the guard.
    Values { values: Arc<[i64]>, lo: i64, hi: i64, cg: Congruence },
    /// Opaque: realize through the space's iterator definition.
    Opaque { iter: usize },
}

/// One instruction of the threaded-code program.
///
/// Jump fields are absolute instruction indices. Control flow is a single
/// `ip` cursor: checks jump to the innermost enclosing loop's [`Op::Next`]
/// on rejection (`continue`), loop entries jump past their [`Op::Next`]
/// when the domain is empty or the subtree is block-pruned, and preamble
/// checks jump to [`Op::Halt`].
#[derive(Debug, Clone)]
enum Op {
    /// Enter loop `loop_id`: realize the domain, run the interval guard,
    /// bind the first value. `next` is the index of the loop's `Next`
    /// instruction (the loop exits to `next + 1`).
    Enter { loop_id: u32, slot: u32, domain: CDomain, next: u32 },
    /// Advance loop `loop_id`; jump back to `body` (= its `Enter + 1`) or
    /// fall through when exhausted.
    Next { loop_id: u32, slot: u32, body: u32 },
    /// Evaluate a derived expression into a slot.
    Define { slot: u32, expr: PointProg },
    /// Evaluate an opaque derived through the closure callback.
    DefineOpaque { slot: u32, derived: usize },
    /// Evaluate a constraint; on rejection jump to `on_reject`. `elide_bit`
    /// is this check's position in the block pruner's elision bitmask
    /// (`None` for preamble checks or beyond 64 constraints).
    Check { constraint: u32, expr: PointProg, elide_bit: Option<u8>, on_reject: u32 },
    /// Evaluate an opaque constraint through the closure callback.
    CheckOpaque { constraint: u32, on_reject: u32 },
    /// Calibration-only check group: evaluate the members of
    /// `agroups[group]` in the group's *current* order — each member
    /// preceded by the not-yet-run defines of its closure — jumping to the
    /// shared reject target on the first rejection, and executing the
    /// remaining defines before falling through when every member passes
    /// (descendant levels read all derived slots). Replaces the first op of
    /// a reorder-safe region; the remaining region positions keep their
    /// original (now unreachable) ops — the only jump into a region targets
    /// its first position (`Enter + 1` when the region opens the loop
    /// body), since reject targets are always a `Next`, an `Enter + 1`, or
    /// `Halt`. Only the probe engine of [`Compiled::with_options`]'s
    /// adaptive calibration pass contains this op; the engine that sweeps
    /// runs the learned order as straight-line `Define`/`Check` ops.
    CheckGroup { group: u32 },
    /// Record a survivor and invoke the visitor.
    Visit,
    /// End of program.
    Halt,
}

/// One member of a calibration check group.
#[derive(Debug, Clone)]
struct AMember {
    /// Constraint index (also the `PruneStats` row and elision-bit key).
    constraint: u32,
    /// Compiled predicate.
    expr: PointProg,
    /// Elision bit, as on [`Op::Check`].
    elide_bit: Option<u8>,
    /// Unit cost — IR op count of the predicate plus its define closure
    /// ([`schedule::unit_cost`], the static cost model's unit), the
    /// denominator for kill-rate-per-op.
    cost: u32,
    /// Ascending indices into [`AGroup::defines`]: the transitive closure
    /// of region defines this predicate reads, executed on demand before
    /// the predicate (ascending = dependency order).
    deps: Vec<u16>,
}

/// One lazily-executed define of a calibration check group's region.
#[derive(Debug, Clone)]
struct ADefine {
    /// Destination slot.
    slot: u32,
    /// Compiled body (infallible over the subtree by region construction).
    expr: PointProg,
}

/// A reorder-safe region (checks + interleaved defines) executed through
/// [`Op::CheckGroup`] during calibration.
///
/// All members share one loop scope, hence one reject target; members and
/// defines are infallible, so evaluating units in any order — defines on
/// demand, the rest before falling through — is semantics-preserving (AND
/// over pure predicates; defines are pure functions of bound slots).
#[derive(Debug, Clone)]
struct AGroup {
    /// Members in static-schedule order (the initial order).
    members: Vec<AMember>,
    /// The region's defines in dependency order, run at most once per
    /// group execution (tracked in a bitmask, hence ≤ 64 per region).
    defines: Vec<ADefine>,
    /// Shared reject target (the enclosing loop's `Next`).
    on_reject: u32,
    /// Instruction index just past the region (the all-pass successor).
    end: u32,
}

/// Calibration state of one check group.
#[derive(Debug, Clone)]
struct GroupState {
    /// Current evaluation order (member indices).
    order: Vec<u16>,
    /// Per-member evaluations so far.
    evaluated: Vec<u64>,
    /// Per-member rejections so far.
    killed: Vec<u64>,
    /// Group executions so far; every [`ADAPT_EPOCH`]th re-sorts `order`.
    ticks: u32,
}

/// Group executions between calibration re-sorts: large enough that sorting
/// cost vanishes against the member evaluations it amortizes, small enough
/// that members starved behind a deadlier one get re-ranked within the
/// calibration budget.
const ADAPT_EPOCH: u32 = 256;

/// Level-0 values the calibration pass samples first, evenly strided over
/// the realized outer domain; each may spend `CALIB_BUDGET / CALIB_SAMPLES`.
const CALIB_SAMPLES: usize = 8;

/// Interpreter work units (loop advances + group executions) the whole
/// calibration pass may spend. Fixed, so calibration costs at most the same
/// 2–3 ms on every space (≈ 1 % of a reduced(32) GEMM sweep).
const CALIB_BUDGET: u64 = 1 << 14;

/// Re-sort a group's evaluation order by observed kill rate per unit cost,
/// descending — the measured analogue of the static expected-cost-to-kill
/// ordering. Members never evaluated (everything ahead of them always
/// killed first) sink to the back; ties keep static-schedule order.
fn resort(g: &AGroup, gs: &mut GroupState) {
    let score = |mi: u16| {
        let mi = mi as usize;
        if gs.evaluated[mi] == 0 {
            return -1.0;
        }
        let kill_rate = gs.killed[mi] as f64 / gs.evaluated[mi] as f64;
        kill_rate / g.members[mi].cost as f64
    };
    let mut order = std::mem::take(&mut gs.order);
    order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then_with(|| a.cmp(&b)));
    gs.order = order;
}

/// A reorder-safe check group as reported in telemetry (tracked in every
/// mode, so reports can always show the per-level order): its loop level
/// and member constraints in declared/static order and in executed order —
/// the two differ only where adaptive calibration re-ranked the group.
#[derive(Debug, Clone)]
struct SchedGroup {
    level: usize,
    initial: Vec<u32>,
    executed: Vec<u32>,
}

/// One step of a loop's precompiled interval-guard program: the lowered
/// steps of the subtree, lifted to interval semantics. Expressions are
/// pre-flattened to [`IvProg`] so guard runs, like the point path, execute
/// linear programs instead of walking boxed trees.
#[derive(Debug, Clone)]
enum GStep {
    /// An inner loop bind over a range: the slot's interval becomes the
    /// hull of the bound intervals.
    BindRange { slot: u32, start: IvProg, stop: IvProg, step: IvProg },
    /// An inner loop bind over a static list (bounds and congruence hull
    /// precomputed).
    BindValues { slot: u32, lo: i64, hi: i64, cg: Congruence },
    /// An inner opaque bind: unknowable, possibly failing.
    BindOpaque { slot: u32 },
    /// A derived definition.
    Define { slot: u32, prog: IvProg },
    /// An opaque derived: unknowable, possibly failing.
    DefineOpaque { slot: u32 },
    /// A constraint check; `elide_bit` mirrors the flat program's bit.
    Check { prog: IvProg, elide_bit: Option<u8> },
    /// An opaque constraint: possibly failing, never decidable.
    CheckOpaque,
}

/// Memoized outcome of one master guard step (see [`GuardInfo`]).
#[derive(Debug, Clone, Copy)]
struct GCache {
    /// The step cannot raise an evaluation error for any point of the
    /// subdomain it was last evaluated over.
    clean: bool,
    /// Checks only: the interval or congruence excludes 0, i.e. the
    /// constraint statically rejects the whole subdomain (skip-worthy given
    /// a clean prefix).
    worthy: bool,
    /// Checks only: `worthy` holds but only the congruence half proved it
    /// (the interval was inconclusive) — counted as a congruence skip.
    by_cg: bool,
    /// Checks only: the interval is exactly [0,0] or the congruence is the
    /// point 0 (statically passes).
    elidable: bool,
    /// Loop id of the guard run that last evaluated this position. A cache
    /// written by a *deeper* guard was computed with tighter, sibling-
    /// specific inputs (its point seeds and exact domain) and is not an
    /// over-approximation for a shallower guard, so a guard at loop `l`
    /// only reuses entries with `writer <= l`.
    writer: u16,
    /// For write positions (binds/defines): the interval this step wrote,
    /// restored into `ivals` on reuse so later dirty steps don't read a
    /// slot clobbered by a deeper guard's run.
    iv: Interval,
    /// For write positions: the congruence this step wrote, restored into
    /// `cvals` on reuse (mirrors `iv`).
    cg: Congruence,
}

impl Default for GCache {
    fn default() -> GCache {
        GCache {
            clean: false,
            worthy: false,
            by_cg: false,
            elidable: false,
            writer: 0,
            iv: Interval::TOP,
            cg: Congruence::top(),
        }
    }
}

/// The interval-guard program attached to one loop's entry.
///
/// All guards share one master step list (each guard's range is a suffix of
/// it), and step outcomes are memoized per position: a run re-evaluates only
/// the `dirty` positions — those transitively depending on slots whose
/// values can have changed since the nearest enclosing kept guard ran — and
/// reads cached outcomes for the rest. The caches are pure functions of the
/// current slot values, so verdicts are identical to full re-evaluation
/// (and hence identical across serial and chunked parallel runs).
#[derive(Debug, Clone)]
struct GuardInfo {
    /// Master index of the first step after this loop's bind.
    start: u32,
    /// Slot bound by the guarded loop (receives the domain interval).
    slot: u32,
    /// Slots bound/defined between the nearest enclosing kept guard's bind
    /// and this loop's bind: the only point values that can have changed
    /// since that guard ran, reseeded from `slots` on every run.
    seed: Vec<u32>,
    /// Master positions whose inputs transitively depend on `seed` or this
    /// loop's own slot; everything else reads its memoized outcome.
    dirty: Vec<bool>,
}

/// Verdict of one guard run.
enum GuardVerdict {
    /// Some constraint is statically false over the whole subtree: skip it.
    /// `by_congruence` is set when only the congruence half could decide it.
    Skip { by_congruence: bool },
    /// Bitmask of checks that are statically true over the subtree and can
    /// be elided (possibly empty).
    Elide(u64),
}

/// The compiled evaluation backend.
pub struct Compiled {
    lp: LoweredPlan,
    /// The flat threaded-code program.
    ops: Vec<Op>,
    /// Shared interval-guard step list; each loop's guard range is a suffix.
    gmaster: Vec<GStep>,
    /// Per-loop interval guards (`None` for the outermost loop, for loops
    /// with nothing decidable below them, for loops whose guard could never
    /// decide anything its nearest guarded ancestor didn't already decide,
    /// or trivially when the program has no loops).
    guards: Vec<Option<GuardInfo>>,
    /// Per-loop lower-bound static fanout below one iteration, for
    /// points-skipped estimates.
    fanout_below: Vec<u64>,
    /// Instruction index of the outermost `Enter` (None for loop-free
    /// programs, which cannot occur for valid spaces).
    first_enter: Option<usize>,
    /// Per-loop narrowing table (all `None` in the adaptive probe engine,
    /// whose regions run through reorderable group dispatch).
    narrow: Vec<Option<LoopSolve>>,
    /// Per-loop replay table (empty, like `narrow`, in the probe engine).
    replay: replay::Table,
    /// Calibration check groups (empty except in the adaptive probe engine).
    agroups: Vec<AGroup>,
    /// Reorder-safe groups, for telemetry (all modes).
    sched_groups: Vec<SchedGroup>,
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

    /// Build the flat program with explicit engine options.
    ///
    /// The constraint schedule is fixed here, before anything is built on
    /// top of it: `Adaptive` first applies the cost-model order
    /// ([`schedule::static_schedule`]), then measures real kill rates in one
    /// bounded calibration pass (`Compiled::calibrate`) and writes each
    /// learned order back into the lowered plan. Guards are built over that
    /// straight-line plan exactly as for a declared schedule, so every
    /// chunk, thread, worker process and resumed run executes one shared
    /// immutable op stream.
    pub fn with_options(mut lp: LoweredPlan, opts: EngineOptions) -> Compiled {
        if opts.schedule == ScheduleMode::Adaptive {
            schedule::static_schedule(&mut lp);
        }
        let regions = schedule::check_regions(&lp);
        let mut sched_groups: Vec<SchedGroup> = regions
            .iter()
            .map(|r| {
                let initial: Vec<u32> = r
                    .checks
                    .iter()
                    .map(|&si| match &lp.steps[si] {
                        LStep::Check { constraint, .. } => *constraint as u32,
                        other => unreachable!("check group holds non-check step {other:?}"),
                    })
                    .collect();
                let level = schedule::group_level(&lp, &r.checks);
                SchedGroup { level, executed: initial.clone(), initial }
            })
            .collect();
        if opts.schedule == ScheduleMode::Adaptive {
            // The probe is never linted (same plan as the real engine, up
            // to order).
            let probe_opts = EngineOptions { lint: LintGate::Allow, ..opts };
            let probe = Compiled::build(lp, probe_opts, &regions, Vec::new());
            let orders = probe.calibrate().unwrap_or_default();
            lp = probe.lp;
            for ((region, order), group) in regions.iter().zip(&orders).zip(&mut sched_groups) {
                let steps: Vec<usize> =
                    order.iter().map(|&k| region.checks[k as usize]).collect();
                schedule::apply_order(&mut lp, region, &steps);
                group.executed = order.iter().map(|&k| group.initial[k as usize]).collect();
            }
        }
        Compiled::build(lp, opts, &[], sched_groups)
    }

    /// Lower `lp` — already in its final step order — to the flat program.
    /// `groups` is empty for every engine that sweeps; the adaptive probe
    /// passes the plan's reorder-safe regions, each of which is rewired
    /// through one [`Op::CheckGroup`] so [`Compiled::calibrate`] can
    /// re-order its members between executions. `sched_groups` is telemetry,
    /// stored as given.
    fn build(
        lp: LoweredPlan,
        opts: EngineOptions,
        groups: &[schedule::Region],
        sched_groups: Vec<SchedGroup>,
    ) -> Compiled {
        // Pre-sweep lint gate: analyze the exact plan the engine will
        // execute. `Deny` is enforced lazily in `run` so compilation itself
        // stays infallible.
        let lint = (opts.lint != LintGate::Allow)
            .then(|| analyze::check_space(&lp).summary());
        let mut ops: Vec<Op> = Vec::new();
        // Open loops: (loop_id, enter_ip, check ips awaiting this loop's
        // Next as their reject target).
        let mut open: Vec<(u32, usize)> = Vec::new();
        let mut pending_rejects: Vec<Vec<usize>> = vec![Vec::new()];
        let mut n_loops = 0u32;
        // Step index → the instruction it emitted (every step emits exactly
        // one op), for locating check-group runs after patching.
        let mut step_ops: Vec<u32> = Vec::with_capacity(lp.steps.len());

        for step in &lp.steps {
            step_ops.push(ops.len() as u32);
            match step {
                LStep::Bind { slot, domain, iter, .. } => {
                    let d = match domain {
                        LIter::Range { start, stop, step } => CDomain::Range {
                            start: PointProg::compile(start),
                            stop: PointProg::compile(stop),
                            step: PointProg::compile(step),
                        },
                        LIter::Values(v) => CDomain::Values {
                            values: Arc::from(v.as_slice()),
                            lo: v.iter().copied().min().unwrap_or(0),
                            hi: v.iter().copied().max().unwrap_or(0),
                            cg: cg_of_values(v),
                        },
                        LIter::Opaque { .. } => CDomain::Opaque { iter: *iter },
                    };
                    let loop_id = n_loops;
                    n_loops += 1;
                    open.push((loop_id, ops.len()));
                    pending_rejects.push(Vec::new());
                    // `next` is patched when the loop closes.
                    ops.push(Op::Enter { loop_id, slot: *slot, domain: d, next: 0 });
                }
                LStep::Define { slot, body, derived } => ops.push(match body {
                    LBody::Expr(e) => Op::Define { slot: *slot, expr: PointProg::compile(e) },
                    LBody::Opaque => Op::DefineOpaque { slot: *slot, derived: *derived },
                }),
                LStep::Check { constraint, body } => {
                    pending_rejects.last_mut().expect("scope").push(ops.len());
                    let elide_bit = if open.is_empty() || *constraint >= 64 {
                        None
                    } else {
                        Some(*constraint as u8)
                    };
                    // `on_reject` is patched when the enclosing scope closes.
                    ops.push(match body {
                        LBody::Expr(e) => Op::Check {
                            constraint: *constraint as u32,
                            expr: PointProg::compile(e),
                            elide_bit,
                            on_reject: 0,
                        },
                        LBody::Opaque => {
                            Op::CheckOpaque { constraint: *constraint as u32, on_reject: 0 }
                        }
                    });
                }
                LStep::Visit => ops.push(Op::Visit),
            }
        }

        // Close loops innermost-first: emit each Next, patch its Enter and
        // the reject targets of the checks in its body.
        let mut first_enter = None;
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
            for check_ip in pending_rejects.pop().expect("scope") {
                match &mut ops[check_ip] {
                    Op::Check { on_reject, .. } | Op::CheckOpaque { on_reject, .. } => {
                        *on_reject = next_ip as u32;
                    }
                    _ => unreachable!("check ip points at a check"),
                }
            }
            first_enter = Some(enter_ip);
        }
        let halt_ip = ops.len();
        ops.push(Op::Halt);
        // Preamble checks (outside every loop) reject the whole space.
        for check_ip in pending_rejects.pop().expect("preamble scope") {
            match &mut ops[check_ip] {
                Op::Check { on_reject, .. } | Op::CheckOpaque { on_reject, .. } => {
                    *on_reject = halt_ip as u32;
                }
                _ => unreachable!("check ip points at a check"),
            }
        }
        debug_assert!(pending_rejects.is_empty());

        // Calibration probe only: rewire each reorder-safe region through a
        // single `CheckGroup` dispatch so the member order can change
        // between executions without touching the instruction stream.
        let mut agroups: Vec<AGroup> = Vec::with_capacity(groups.len());
        for region in groups {
            let first_ip = step_ops[region.start] as usize;
            let defines: Vec<ADefine> = region
                .defines
                .iter()
                .map(|&si| {
                    let Op::Define { slot, expr } = &ops[step_ops[si] as usize] else {
                        unreachable!("region define lowered to a non-Define op");
                    };
                    ADefine { slot: *slot, expr: expr.clone() }
                })
                .collect();
            let mut members = Vec::with_capacity(region.checks.len());
            let mut reject = 0u32;
            for (k, &si) in region.checks.iter().enumerate() {
                let ip = step_ops[si] as usize;
                debug_assert!(
                    (first_ip..first_ip + (region.end - region.start)).contains(&ip),
                    "region ops must be contiguous"
                );
                let Op::Check { constraint, expr, elide_bit, on_reject } = &ops[ip] else {
                    unreachable!("check group step lowered to a non-Check op");
                };
                debug_assert!(k == 0 || reject == *on_reject, "members share one scope");
                reject = *on_reject;
                let LStep::Check { body: LBody::Expr(check), .. } = &lp.steps[si] else {
                    unreachable!("check group member without an expression body");
                };
                members.push(AMember {
                    constraint: *constraint,
                    expr: expr.clone(),
                    elide_bit: *elide_bit,
                    cost: schedule::unit_cost(&lp, region, k, check.op_count()).max(1),
                    deps: region.deps[k].iter().map(|&d| d as u16).collect(),
                });
            }
            let end = (first_ip + (region.end - region.start)) as u32;
            ops[first_ip] = Op::CheckGroup { group: agroups.len() as u32 };
            agroups.push(AGroup { members, defines, on_reject: reject, end });
        }

        let fanout_below: Vec<u64> =
            (0..n_loops as usize).map(|l| lp.static_fanout_below(l)).collect();
        let (gmaster, guards) =
            build_guards(&lp, n_loops as usize, &fanout_below, opts.min_guard_fanout);

        let (narrow, replay) = if groups.is_empty() {
            (narrow::build_table(&lp), replay::Table::build(&lp))
        } else {
            (vec![None; n_loops as usize], replay::Table::none(n_loops as usize))
        };
        let point_names: Arc<[Arc<str>]> =
            Arc::from(lp.slot_names.clone().into_boxed_slice());
        Compiled {
            lp,
            ops,
            gmaster,
            guards,
            fanout_below,
            first_enter,
            narrow,
            replay,
            agroups,
            sched_groups,
            point_names,
            lint,
            opts,
        }
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
            ivals: vec![Interval::TOP; self.lp.n_slots as usize],
            cvals: vec![Congruence::top(); self.lp.n_slots as usize],
            gcache: vec![GCache::default(); self.gmaster.len()],
            gprimed: vec![false; self.guards.len()],
            gscratch: IvScratch::default(),
            elide: 0,
            sched: Vec::new(),
            budget: u64::MAX,
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

    /// The adaptive schedule's calibration pass, run on the probe engine:
    /// sweep level-0 values — [`CALIB_SAMPLES`] evenly strided ones first —
    /// through the [`Op::CheckGroup`] dispatch with a discarded visitor,
    /// each under at most an equal share of [`CALIB_BUDGET`] and until the
    /// budget is spent, re-sorting every group by observed kill rate per op
    /// as it goes. Returns each group's final member order. Sample and
    /// budget depend on nothing but the plan and the options — never on the
    /// chunk grid, thread count or wall clock — so every build of the same
    /// plan learns the same orders. `None` keeps the static order: an
    /// evaluation error ends calibration, and the real run reports it under
    /// its own fault policy.
    fn calibrate(&self) -> Option<Vec<Vec<u16>>> {
        let mut sched: Vec<GroupState> = self
            .agroups
            .iter()
            .map(|g| GroupState {
                order: (0..g.members.len() as u16).collect(),
                evaluated: vec![0; g.members.len()],
                killed: vec![0; g.members.len()],
                ticks: 0,
            })
            .collect();
        let first_enter = self.first_enter?;
        let outer = self.outer_domain().ok()?;
        let mut slots = vec![0i64; self.lp.n_slots as usize];
        if !self.preamble(&mut slots, None).ok()? {
            return None;
        }
        // Evenly strided values first, then the rest in order: a sample that
        // dies early passes its unused share on instead of wasting it.
        let samples = outer.len().min(CALIB_SAMPLES);
        let strided: Vec<usize> = (0..samples).map(|k| k * outer.len() / samples).collect();
        let rest = (0..outer.len()).filter(|i| !strided.contains(i));
        let mut left = CALIB_BUDGET;
        for i in strided.iter().copied().chain(rest) {
            if left == 0 {
                break;
            }
            // A fresh state per sample: a budget stop leaves elision masks
            // and guard caches mid-subtree.
            let mut state = self.fresh_state(CountVisitor::default());
            state.sched = sched;
            state.budget = left.min(CALIB_BUDGET / samples as u64);
            left -= state.budget;
            let run = self.exec(
                first_enter,
                Some(&[outer[i]]),
                &mut slots,
                &mut state,
                &ChunkCtx::plain(),
            );
            left += state.budget;
            sched = state.sched;
            if !matches!(run, Ok(()) | Err(EvalError::Cancelled)) {
                return None;
            }
        }
        for (g, gs) in self.agroups.iter().zip(&mut sched) {
            resort(g, gs);
        }
        Some(sched.into_iter().map(|gs| gs.order).collect())
    }

    /// Per reorder-safe group, the member constraints in the order the
    /// adaptive calibration pass learned — the order this engine executes
    /// (`None` unless built with an adaptive schedule). A property of the
    /// engine, identical for every run, chunk and worker of a sweep.
    pub fn learned_orders(&self) -> Option<Vec<Vec<u32>>> {
        (self.opts.schedule == ScheduleMode::Adaptive)
            .then(|| self.sched_groups.iter().map(|g| g.executed.clone()).collect())
    }

    /// Run the full sweep.
    pub fn run<V: Visitor>(&self, visitor: V) -> Result<SweepOutcome<V>, EvalError> {
        self.lint_denied()?;
        let mut slots = vec![0i64; self.lp.n_slots as usize];
        let mut state = self.fresh_state(visitor);
        self.exec(0, None, &mut slots, &mut state, &ChunkCtx::plain())?;
        Ok(SweepOutcome {
            stats: state.stats,
            blocks: state.blocks,
            schedule: self.learned_orders(),
            visitor: state.visitor,
        })
    }

    /// Run only a chunk of the outermost loop's domain — the parallel driver
    /// realizes the outer domain once, splits it, and calls this per worker.
    ///
    /// Preamble instructions (defines/checks before the first loop) are
    /// re-executed per chunk; they are loop-invariant so this is correct,
    /// and they are evaluated against constants so it is cheap. Their
    /// constraint counters are *not* re-recorded to keep merged statistics
    /// meaningful. Chunk outcomes carry no `schedule`: the learned order is
    /// a property of the engine ([`Compiled::learned_orders`]), reported
    /// once per sweep.
    pub fn run_outer_chunk<V: Visitor>(
        &self,
        outer_values: &[i64],
        visitor: V,
    ) -> Result<SweepOutcome<V>, EvalError> {
        self.run_outer_chunk_supervised(outer_values, visitor, &ChunkCtx::plain())
            .map(|run| run.outcome)
    }

    /// [`Compiled::run_outer_chunk`] with fault supervision: the chunk
    /// context selects the fault policy, the injector, and the cancel probe,
    /// and the result carries the faults that were skipped over. Errors that
    /// still escape (any policy but `SkipPoint`, or a fault outside every
    /// loop) carry point context; [`EvalError::Cancelled`] escapes as-is.
    pub(crate) fn run_outer_chunk_supervised<V: Visitor>(
        &self,
        outer_values: &[i64],
        visitor: V,
        ctx: &ChunkCtx<'_>,
    ) -> Result<ChunkRun<V>, EvalError> {
        let mut slots = vec![0i64; self.lp.n_slots as usize];
        let mut state = self.fresh_state(visitor);
        if let Some(first_enter) = self.first_enter {
            // Execute the preamble quietly; a constants-only constraint that
            // rejects leaves the chunk empty.
            if self.preamble(&mut slots, None)? {
                self.exec(first_enter, Some(outer_values), &mut slots, &mut state, ctx)?;
            }
        }
        Ok(ChunkRun {
            outcome: SweepOutcome {
                stats: state.stats,
                blocks: state.blocks,
                schedule: None,
                visitor: state.visitor,
            },
            faults: state.faults,
        })
    }

    /// Execute the preamble (pre-loop defines/checks) once, *recording* the
    /// constraint evaluations into `stats`. Returns `false` if a preamble
    /// constraint rejected, in which case the whole space is empty. The
    /// parallel driver calls this once so that merged statistics match a
    /// serial run (workers execute the preamble quietly).
    pub(crate) fn preamble_record(&self, stats: &mut PruneStats) -> Result<bool, EvalError> {
        let mut slots = vec![0i64; self.lp.n_slots as usize];
        self.preamble(&mut slots, Some(stats))
    }

    /// Shared preamble executor; records into `stats` when provided.
    fn preamble(
        &self,
        slots: &mut [i64],
        mut stats: Option<&mut PruneStats>,
    ) -> Result<bool, EvalError> {
        let end = self.first_enter.unwrap_or(self.ops.len().saturating_sub(1));
        // Preamble expressions read only constants; errors here are
        // space-level, so the context carries the site name and no bindings.
        let at = |slot: &u32| self.lp.slot_names[*slot as usize].to_string();
        for op in &self.ops[..end] {
            match op {
                Op::Define { slot, expr } => {
                    slots[*slot as usize] =
                        expr.eval(slots).map_err(|e| e.with_point(at(slot), Vec::new()))?;
                }
                Op::DefineOpaque { slot, derived } => {
                    let v = {
                        let view = self.bindings_view(slots);
                        self.lp.plan.space().deriveds()[*derived]
                            .kind
                            .eval(&view)
                            .map_err(|e| e.with_point(at(slot), Vec::new()))?
                    };
                    slots[*slot as usize] =
                        v.as_int().map_err(|e| e.with_point(at(slot), Vec::new()))?;
                }
                Op::Check { constraint, expr, .. } => {
                    let rejected = expr.eval(slots).map_err(|e| {
                        let name =
                            &self.lp.plan.space().constraints()[*constraint as usize].name;
                        e.with_point(name.to_string(), Vec::new())
                    })? != 0;
                    if let Some(stats) = stats.as_deref_mut() {
                        stats.record(*constraint as usize, rejected);
                    }
                    if rejected {
                        return Ok(false);
                    }
                }
                Op::CheckOpaque { constraint, .. } => {
                    let rejected = {
                        let view = self.bindings_view(slots);
                        self.lp.plan.space().constraints()[*constraint as usize]
                            .kind
                            .rejects(&view)
                            .map_err(|e| {
                                let name = &self.lp.plan.space().constraints()
                                    [*constraint as usize]
                                    .name;
                                e.with_point(name.to_string(), Vec::new())
                            })?
                    };
                    if let Some(stats) = stats.as_deref_mut() {
                        stats.record(*constraint as usize, rejected);
                    }
                    if rejected {
                        return Ok(false);
                    }
                }
                Op::CheckGroup { .. } => {
                    unreachable!("check groups require an enclosing loop")
                }
                Op::Visit | Op::Enter { .. } | Op::Next { .. } | Op::Halt => break,
            }
        }
        Ok(true)
    }

    /// The constraint schedule this backend runs, for
    /// [`SweepReport`](crate::telemetry::SweepReport)s: mode, per-constraint
    /// ranks in the executed check order, and per-group initial (static or
    /// declared) and final member orders — the final order differs from the
    /// initial one only where adaptive calibration re-ranked a group.
    pub fn schedule_telemetry(&self) -> ScheduleTelemetry {
        let constraints = self.lp.plan.space().constraints();
        let names = |order: &[u32]| -> Vec<String> {
            order.iter().map(|&c| constraints[c as usize].name.to_string()).collect()
        };
        let groups = self
            .sched_groups
            .iter()
            .map(|g| GroupSchedule {
                level: g.level,
                initial: names(&g.initial),
                final_order: names(&g.executed),
            })
            .collect();
        ScheduleTelemetry {
            mode: self.opts.schedule.to_string(),
            ranks: schedule::check_ranks(&self.lp),
            groups,
        }
    }

    /// Realize the outermost (level-0) loop's domain.
    ///
    /// Level-0 iterators depend only on constants, so this is cheap and
    /// side-effect free. The parallel driver splits this domain into
    /// scheduler chunks; it is public so external tooling can size or
    /// inspect a sweep before running it.
    pub fn outer_domain(&self) -> Result<Vec<i64>, EvalError> {
        let slots = vec![0i64; self.lp.n_slots as usize];
        let Some(first_enter) = self.first_enter else {
            return Ok(Vec::new());
        };
        let Op::Enter { slot, domain, .. } = &self.ops[first_enter] else {
            unreachable!("first_enter points at Enter");
        };
        let at = |e: EvalError| {
            e.with_point(self.lp.slot_names[*slot as usize].to_string(), Vec::new())
        };
        match domain {
            CDomain::Range { start, stop, step } => {
                let r = Realized::Range {
                    start: start.eval(&slots).map_err(at)?,
                    stop: stop.eval(&slots).map_err(at)?,
                    step: step.eval(&slots).map_err(at)?,
                };
                r.iter().map(|v| v.as_int().map_err(at)).collect()
            }
            CDomain::Values { values, .. } => Ok(values.to_vec()),
            CDomain::Opaque { iter } => {
                let view = self.bindings_view(&slots);
                let r = self.lp.plan.space().realize_iter(*iter, &view).map_err(at)?;
                r.iter().map(|v| v.as_int().map_err(at)).collect()
            }
        }
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
        let empty: Arc<[i64]> = Arc::from([] as [i64; 0]);
        let mut frames: Vec<Frame> = (0..self.guards.len())
            .map(|_| Frame {
                kind: FrameKind::Range,
                cur: 0,
                stop: 0,
                step: 0,
                idx: 0,
                vals: empty.clone(),
                buf: Vec::new(),
                saved_elide: 0,
            })
            .collect();
        let poll_cancel = ctx.cancel.is_some_and(|p| p.armed());
        // Calibration runs spend a work budget; sweeps never do.
        let budgeted = state.budget != u64::MAX;
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
                    let (first, len): (Option<i64>, u64) =
                        if let (0, Some(chunk)) = (l, outer_override) {
                            f.kind = FrameKind::Buffer;
                            f.buf.clear();
                            f.buf.extend_from_slice(chunk);
                            f.idx = 0;
                            (chunk.first().copied(), chunk.len() as u64)
                        } else {
                            match domain {
                                CDomain::Range { start, stop, step } => {
                                    let start =
                                        try_eval!('interp, Site::Slot(*slot), start.eval(slots));
                                    let stop =
                                        try_eval!('interp, Site::Slot(*slot), stop.eval(slots));
                                    let step =
                                        try_eval!('interp, Site::Slot(*slot), step.eval(slots));
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
                                    let realized = try_eval!('interp, Site::Slot(*slot), {
                                        let view = SlotView {
                                            names: &self.lp.slot_names,
                                            slots,
                                            consts: self.lp.plan.space().consts(),
                                        };
                                        self.lp.plan.space().realize_iter(*iter, &view)
                                    });
                                    for v in realized.iter() {
                                        f.buf.push(try_eval!(
                                            'interp,
                                            Site::Slot(*slot),
                                            v.as_int()
                                        ));
                                    }
                                    f.kind = FrameKind::Buffer;
                                    f.idx = 0;
                                    (f.buf.first().copied(), f.buf.len() as u64)
                                }
                            }
                        };
                    let Some(first) = first else {
                        ip = exit;
                        continue;
                    };
                    // Interval guard: skip the subtree or elide checks.
                    let mut elide_add = 0u64;
                    if self.opts.intervals {
                        if let Some(info) = &self.guards[l] {
                            // Only the guard reads the domain's exact value
                            // hull and residue class, so unguarded loops
                            // never pay for them.
                            let (iv, cg) = domain_facts(domain, &frames[l], len);
                            state.blocks.guard_runs += 1;
                            match self.run_guard(l, info, iv, cg, slots, state) {
                                GuardVerdict::Skip { by_congruence } => {
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
                                GuardVerdict::Elide(mask) => elide_add = mask,
                            }
                        }
                    }
                    let f = &mut frames[l];
                    f.saved_elide = state.elide;
                    state.elide |= elide_add;
                    // Loop narrowing: when the body opens with a reject-
                    // unless-equal check affine in the loop slot, solve for
                    // the ≤ 1 passing value instead of enumerating (see
                    // `crate::narrow`). Unprovable entries enumerate below.
                    if let Some(ns) = &self.narrow[l] {
                        let range = (f.cur, f.step, len);
                        if let Some(sol) = ns.solve(state.elide, slots, range) {
                            ns.credit(&mut state.stats, &mut state.blocks, len, &sol);
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
                    if budgeted && !state.spend() {
                        return Err(EvalError::Cancelled);
                    }
                    if poll_cancel {
                        state.poll += 1;
                        if state.poll >= CANCEL_POLL_EVERY {
                            state.poll = 0;
                            if ctx.cancel.is_some_and(|p| p.cancelled()) {
                                return Err(EvalError::Cancelled);
                            }
                        }
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
                                *poll += u32::from(poll_cancel);
                                *poll >= CANCEL_POLL_EVERY && {
                                    *poll = 0;
                                    ctx.cancel.is_some_and(|p| p.cancelled())
                                }
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
                            if let FrameKind::Solved = f.kind {
                                slots[*slot as usize] = f.cur;
                            }
                            state.elide = f.saved_elide;
                            ip += 1;
                        }
                    }
                }
                Op::Define { slot, expr } => {
                    slots[*slot as usize] = try_eval!('interp, Site::Slot(*slot), expr.eval(slots));
                    ip += 1;
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
                Op::Check { constraint, expr, elide_bit, on_reject } => {
                    if let Some(bit) = elide_bit {
                        if state.elide & (1u64 << bit) != 0 {
                            // Statically true for this subtree: count the
                            // evaluation the per-point engine would have
                            // done (it always passes) without doing it.
                            state.stats.record(*constraint as usize, false);
                            state.blocks.checks_elided += 1;
                            ip += 1;
                            continue;
                        }
                    }
                    let rejected =
                        try_eval!('interp, Site::Constraint(*constraint), expr.eval(slots)) != 0;
                    state.stats.record(*constraint as usize, rejected);
                    ip = if rejected { *on_reject as usize } else { ip + 1 };
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
                Op::CheckGroup { group } => {
                    if !state.spend() {
                        return Err(EvalError::Cancelled);
                    }
                    let gi = *group as usize;
                    let g = &self.agroups[gi];
                    let gs = &mut state.sched[gi];
                    let mut rejected = false;
                    // Region defines already executed this point (lazily,
                    // on first demand by a member's closure).
                    let mut done = 0u64;
                    for k in 0..gs.order.len() {
                        let mi = gs.order[k] as usize;
                        let m = &g.members[mi];
                        if let Some(bit) = m.elide_bit {
                            if state.elide & (1u64 << bit) != 0 {
                                // As on Op::Check: count the pass the
                                // per-point engine would have recorded.
                                // Elided members don't feed the kill-rate
                                // counters — no expression actually ran.
                                state.stats.record(m.constraint as usize, false);
                                state.blocks.checks_elided += 1;
                                continue;
                            }
                        }
                        for &d in &m.deps {
                            if done & (1u64 << d) == 0 {
                                done |= 1u64 << d;
                                let def = &g.defines[d as usize];
                                slots[def.slot as usize] =
                                    try_eval!('interp, Site::Slot(def.slot), def.expr.eval(slots));
                            }
                        }
                        let r =
                            try_eval!('interp, Site::Constraint(m.constraint), m.expr.eval(slots))
                                != 0;
                        state.stats.record(m.constraint as usize, r);
                        gs.evaluated[mi] += 1;
                        gs.killed[mi] += r as u64;
                        if r {
                            rejected = true;
                            break;
                        }
                    }
                    if !rejected {
                        // Every member passed: run the defines no closure
                        // demanded, so the surviving point (and everything
                        // below this level) sees all derived slots.
                        for (d, def) in g.defines.iter().enumerate() {
                            if done & (1u64 << d) == 0 {
                                slots[def.slot as usize] =
                                    try_eval!('interp, Site::Slot(def.slot), def.expr.eval(slots));
                            }
                        }
                    }
                    gs.ticks = gs.ticks.wrapping_add(1);
                    if gs.ticks.is_multiple_of(ADAPT_EPOCH) {
                        resort(g, gs);
                    }
                    ip = if rejected { g.on_reject as usize } else { g.end as usize };
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
                    state.stats.record_survivor();
                    state.replay.record(slots);
                    state.visitor.visit(&PointRef::Slots { names: &self.lp.slot_names, slots });
                    ip += 1;
                }
                Op::Halt => return Ok(()),
            }
        }
    }

    /// Run one loop's guard program against the current outer slot values
    /// and the just-realized domain interval and congruence.
    ///
    /// Memoized: only `dirty` positions are re-evaluated; the rest read the
    /// outcome cached by this guard's own last completed scan or by an
    /// enclosing guard's run (their inputs are unchanged either way, so the
    /// cached outcome equals what re-evaluation would produce). A run that
    /// returns [`GuardVerdict::Skip`] aborts mid-scan and leaves the guard
    /// unprimed — safe, because a skip means no deeper guard runs under
    /// this entry, and the next entry re-scans.
    ///
    /// With `opts.congruence` on, every evaluation runs over the
    /// interval×congruence reduced product ([`eval_product`]); the interval
    /// halves are bit-identical to the interval-only path, so the
    /// congruence can only add verdicts (`worthy` where the interval was
    /// inconclusive, flagged `by_cg`), never change interval ones.
    fn run_guard<V>(
        &self,
        loop_id: usize,
        info: &GuardInfo,
        domain_iv: Interval,
        domain_cg: Congruence,
        slots: &[i64],
        state: &mut State<V>,
    ) -> GuardVerdict {
        let cg_on = self.opts.congruence;
        let primed = state.gprimed[loop_id];
        // Point values that can have changed since the enclosing kept guard
        // ran; everything deeper is overwritten by a (dirty) guard step
        // before any use (the planner's dependency order guarantees defs
        // precede uses), or holds a still-valid cached interval.
        for &q in &info.seed {
            state.ivals[q as usize] = Interval::point(slots[q as usize]);
            if cg_on {
                state.cvals[q as usize] = Congruence::point(slots[q as usize]);
            }
        }
        state.ivals[info.slot as usize] = domain_iv;
        if cg_on {
            // Reduce the domain congruence against its (exact) interval.
            state.cvals[info.slot as usize] = if domain_iv.is_point() {
                Congruence::point(domain_iv.lo)
            } else {
                domain_cg
            };
        }
        // `clean` = no step so far can raise an evaluation error, so a
        // statically-false check really is reached (or the point was
        // rejected earlier without error) for every point of the subtree.
        let mut clean = true;
        let mut elide = 0u64;
        let w = loop_id as u16;
        for (i, step) in self.gmaster.iter().enumerate().skip(info.start as usize) {
            // Re-evaluate when nothing is cached yet, when the position's
            // inputs may have changed, or when the cached entry was written
            // by a deeper guard: deeper runs compute over a strict subset of
            // this subtree, so their outcomes don't over-approximate it.
            if !primed || info.dirty[i] || state.gcache[i].writer > w {
                let entry = match step {
                    GStep::BindRange { slot, start, stop, step } => {
                        let (s, s_cg) = eval_guard(start, state, cg_on);
                        let (e, _) = eval_guard(stop, state, cg_on);
                        let (st, st_cg) = eval_guard(step, state, cg_on);
                        let iv = range_value_hull(s.iv, e.iv);
                        state.ivals[*slot as usize] = iv;
                        // The bind's residue fact, valid only while the
                        // bound expressions are wrap-free (their product
                        // congruences are already ⊤ when widened).
                        let cg = if cg_on {
                            let cg = cg_of_bind(s_cg, st_cg);
                            if iv.is_point() { Congruence::point(iv.lo) } else { cg }
                        } else {
                            Congruence::top()
                        };
                        if cg_on {
                            state.cvals[*slot as usize] = cg;
                        }
                        GCache {
                            clean: s.clean && e.clean && st.clean,
                            iv,
                            cg,
                            writer: w,
                            ..GCache::default()
                        }
                    }
                    GStep::BindValues { slot, lo, hi, cg } => {
                        let iv = Interval { lo: *lo, hi: *hi };
                        state.ivals[*slot as usize] = iv;
                        if cg_on {
                            state.cvals[*slot as usize] = *cg;
                        }
                        GCache { clean: true, iv, cg: *cg, writer: w, ..GCache::default() }
                    }
                    GStep::BindOpaque { slot } | GStep::DefineOpaque { slot } => {
                        state.ivals[*slot as usize] = Interval::TOP;
                        if cg_on {
                            state.cvals[*slot as usize] = Congruence::top();
                        }
                        GCache { writer: w, ..GCache::default() }
                    }
                    GStep::Define { slot, prog } => {
                        let (o, cg) = eval_guard(prog, state, cg_on);
                        state.ivals[*slot as usize] = o.iv;
                        if cg_on {
                            state.cvals[*slot as usize] = cg;
                        }
                        GCache { clean: o.clean, iv: o.iv, cg, writer: w, ..GCache::default() }
                    }
                    GStep::Check { prog, .. } => {
                        let (o, cg) = eval_guard(prog, state, cg_on);
                        let worthy_iv = o.clean && !o.iv.contains(0);
                        let by_cg = !worthy_iv && o.clean && cg.always_nonzero();
                        GCache {
                            clean: o.clean,
                            worthy: worthy_iv || by_cg,
                            by_cg,
                            elidable: o.clean
                                && (o.iv == Interval::point(0) || cg.as_point() == Some(0)),
                            writer: w,
                            ..GCache::default()
                        }
                    }
                    GStep::CheckOpaque => GCache { writer: w, ..GCache::default() },
                };
                state.gcache[i] = entry;
            } else if let Some(slot) = gstep_write_slot(step) {
                // Reused write position: restore the slot's interval and
                // congruence, which a deeper guard's run may have clobbered
                // with tighter, sibling-specific values that later dirty
                // steps must not read.
                state.ivals[slot as usize] = state.gcache[i].iv;
                if cg_on {
                    state.cvals[slot as usize] = state.gcache[i].cg;
                }
            }
            let c = state.gcache[i];
            if c.worthy && clean {
                // Statically false (the expression is the rejection
                // condition): every point of the subtree is rejected at or
                // before this check, error-free.
                return GuardVerdict::Skip { by_congruence: c.by_cg };
            }
            if c.elidable {
                if let GStep::Check { elide_bit: Some(bit), .. } = step {
                    elide |= 1u64 << bit;
                }
            }
            clean &= c.clean;
        }
        state.gprimed[loop_id] = true;
        GuardVerdict::Elide(elide)
    }

    /// Cold fault path shared by every fallible site in `exec`: annotate the
    /// error with point context and, under [`FaultPolicy::SkipPoint`],
    /// recover by returning the ip of the innermost open loop's `Next` —
    /// the exact transition a check rejection takes, so frames, elision
    /// masks and guard caches stay consistent. Faults with no enclosing
    /// loop (chunk preamble) and [`EvalError::Cancelled`] always propagate.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fault_recover(
        &self,
        e: EvalError,
        site: Site,
        ip: usize,
        ordinal: u64,
        slots: &[i64],
        ctx: &ChunkCtx<'_>,
        faults: &mut Vec<FaultRecord>,
    ) -> Result<usize, EvalError> {
        if matches!(e, EvalError::Cancelled) {
            return Err(e);
        }
        let e = e.with_point(self.site_label(site), self.point_bindings(ip, slots));
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

    /// `(name, value)` pairs for every slot bound at `ip`: the iterators of
    /// open loops plus the defines already executed in open scopes, in
    /// program order. Defines inside closed inner loops are stale for the
    /// current point and are skipped along with their loop.
    fn point_bindings(&self, ip: usize, slots: &[i64]) -> Vec<(String, i64)> {
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
                Op::Define { slot, .. } | Op::DefineOpaque { slot, .. } => {
                    out.push(*slot);
                }
                _ => {}
            }
            i += 1;
        }
        out.into_iter()
            .map(|s| (self.lp.slot_names[s as usize].to_string(), slots[s as usize]))
            .collect()
    }
}

/// Evaluate one guard program over the interval domain, or — when the
/// congruence half is on — over the reduced product. The interval outcome
/// is bit-identical either way ([`eval_product`]'s interval half is
/// [`IvProg::eval`]).
fn eval_guard<V>(
    prog: &IvProg,
    state: &mut State<V>,
    cg_on: bool,
) -> (IntervalOutcome, Congruence) {
    if cg_on {
        eval_product(prog, &state.ivals, &state.cvals, &mut state.gscratch)
    } else {
        (prog.eval(&state.ivals, &mut state.gscratch), Congruence::top())
    }
}

/// The slot a guard step writes, if any (allocation-free hot-path variant
/// of [`gstep_deps`]).
fn gstep_write_slot(g: &GStep) -> Option<u32> {
    match g {
        GStep::BindRange { slot, .. }
        | GStep::BindValues { slot, .. }
        | GStep::BindOpaque { slot }
        | GStep::Define { slot, .. }
        | GStep::DefineOpaque { slot } => Some(*slot),
        GStep::Check { .. } | GStep::CheckOpaque => None,
    }
}

/// The slots a guard step reads, and the slot it writes (if any). Opaque
/// steps read nothing *as far as dirtiness is concerned*: their outcome
/// (TOP / unclean) is input-independent.
fn gstep_deps(g: &GStep) -> (std::collections::BTreeSet<u32>, Option<u32>) {
    let mut reads = std::collections::BTreeSet::new();
    let writes = match g {
        GStep::BindRange { slot, start, stop, step } => {
            reads.extend(start.read_slots());
            reads.extend(stop.read_slots());
            reads.extend(step.read_slots());
            Some(*slot)
        }
        GStep::BindValues { slot, .. }
        | GStep::BindOpaque { slot }
        | GStep::DefineOpaque { slot } => Some(*slot),
        GStep::Define { slot, prog } => {
            reads.extend(prog.read_slots());
            Some(*slot)
        }
        GStep::Check { prog, .. } => {
            reads.extend(prog.read_slots());
            None
        }
        GStep::CheckOpaque => None,
    };
    (reads, writes)
}

/// Lift one lowered step to interval semantics (`None` for `Visit`).
fn lift_gstep(step: &LStep) -> Option<GStep> {
    match step {
        LStep::Bind { slot, domain, .. } => Some(match domain {
            LIter::Range { start, stop, step } => GStep::BindRange {
                slot: *slot,
                start: IvProg::compile(start),
                stop: IvProg::compile(stop),
                step: IvProg::compile(step),
            },
            LIter::Values(v) => GStep::BindValues {
                slot: *slot,
                lo: v.iter().copied().min().unwrap_or(0),
                hi: v.iter().copied().max().unwrap_or(0),
                cg: cg_of_values(v),
            },
            LIter::Opaque { .. } => GStep::BindOpaque { slot: *slot },
        }),
        LStep::Define { slot, body, .. } => Some(match body {
            LBody::Expr(e) => GStep::Define { slot: *slot, prog: IvProg::compile(e) },
            LBody::Opaque => GStep::DefineOpaque { slot: *slot },
        }),
        LStep::Check { constraint, body } => Some(match body {
            LBody::Expr(e) => GStep::Check {
                prog: IvProg::compile(e),
                elide_bit: (*constraint < 64).then_some(*constraint as u8),
            },
            LBody::Opaque => GStep::CheckOpaque,
        }),
        LStep::Visit => None,
    }
}

/// Build the per-loop guard programs: for loop `l >= 1` with a decidable
/// (non-opaque) check below it, the lowered steps after its bind lifted to
/// interval semantics. The outermost loop gets no guard — its subdomain is
/// chunk-dependent under the parallel driver, and determinism across thread
/// counts takes priority over one extra level of block pruning.
///
/// All guard ranges are suffixes of one shared master list, and each guard
/// records which positions can evaluate differently than they did at the
/// nearest enclosing *kept* guard: positions transitively depending on slots
/// bound/defined since that guard's bind (plus this loop's own slot). A loop
/// where no decidable check is dirty in this sense gets no guard at all —
/// its verdict would always equal the ancestor's, which already skipped or
/// elided accordingly — so the dropped guard changes no decision.
fn build_guards(
    lp: &LoweredPlan,
    n_loops: usize,
    fanout_below: &[u64],
    min_guard_fanout: u64,
) -> (Vec<GStep>, Vec<Option<GuardInfo>>) {
    let mut guards: Vec<Option<GuardInfo>> = vec![None; n_loops];
    // Indices into lp.steps of each bind, to slice the subtree per loop.
    let bind_positions: Vec<(usize, u32)> = lp
        .steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            LStep::Bind { slot, .. } => Some((i, *slot)),
            _ => None,
        })
        .collect();
    debug_assert_eq!(bind_positions.len(), n_loops);

    // The first candidate: the shallowest loop l >= 1 with a non-opaque
    // check below its bind. Without one, no guard can ever decide anything.
    let first = (1..bind_positions.len()).find(|&l| {
        lp.steps[bind_positions[l].0 + 1..].iter().any(|s| {
            matches!(s, LStep::Check { body: LBody::Expr(_), .. })
        })
    });
    let Some(first) = first else {
        return (Vec::new(), guards);
    };

    // Master step list: everything after the first candidate's bind. Each
    // deeper loop's guard range is the suffix starting after its own bind.
    let mut master: Vec<GStep> = Vec::new();
    let mut m_start = vec![0u32; n_loops];
    {
        let mut loop_idx = first;
        for step in &lp.steps[bind_positions[first].0 + 1..] {
            if let LStep::Bind { .. } = step {
                loop_idx += 1;
            }
            if let Some(g) = lift_gstep(step) {
                master.push(g);
            }
            if let LStep::Bind { .. } = step {
                m_start[loop_idx] = master.len() as u32;
            }
        }
    }
    let deps: Vec<(std::collections::BTreeSet<u32>, Option<u32>)> =
        master.iter().map(gstep_deps).collect();

    // `prev_kept` tracks the nearest enclosing kept guard; its bind position
    // starts the seed tile (inclusive, so the ancestor's own loop slot —
    // a fresh point on every one of its iterations — is reseeded too).
    let mut prev_kept: Option<usize> = None;
    for l in first..n_loops {
        let (pos, slot) = bind_positions[l];
        // Seed tile: slots bound/defined since the nearest kept guard's
        // bind (or since the start of the plan for the first kept guard).
        let tile_begin = prev_kept.map_or(0, |p| bind_positions[p].0);
        let seed: Vec<u32> = lp.steps[tile_begin..pos]
            .iter()
            .filter_map(|s| match s {
                LStep::Bind { slot, .. } | LStep::Define { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();

        // Forward dirtiness pass over this guard's range.
        let mut dirty_slots: std::collections::BTreeSet<u32> =
            seed.iter().copied().collect();
        dirty_slots.insert(slot);
        let mut dirty = vec![false; master.len()];
        let mut any_dirty_check = false;
        let mut any_check = false;
        for i in m_start[l] as usize..master.len() {
            let (reads, writes) = &deps[i];
            if matches!(master[i], GStep::Check { .. }) {
                any_check = true;
            }
            if reads.iter().any(|r| dirty_slots.contains(r)) {
                dirty[i] = true;
                if let Some(w) = writes {
                    dirty_slots.insert(*w);
                }
                if matches!(master[i], GStep::Check { .. }) {
                    any_dirty_check = true;
                }
            }
        }
        // Keep the guard if a decidable check can evaluate differently than
        // it did at the nearest kept guard; the first kept guard has no
        // ancestor verdict to inherit, so plain decidability suffices.
        // Either way, the subtree must be big enough that a skip pays for
        // the guard run (`min_guard_fanout` gates deep, tiny subtrees).
        if fanout_below[l] >= min_guard_fanout
            && (any_dirty_check || (prev_kept.is_none() && any_check))
        {
            guards[l] = Some(GuardInfo { start: m_start[l], slot, seed, dirty });
            prev_kept = Some(l);
        }
    }
    (master, guards)
}

/// Python-range length (0 for empty or zero-step ranges).
fn range_len(start: i64, stop: i64, step: i64) -> u64 {
    // The span lies in `1..2^64`, so it is exact in `u64` and the division
    // needs no 128-bit libcall on this per-entry path.
    let span = if step > 0 && start < stop {
        stop.wrapping_sub(start) as u64
    } else if step < 0 && start > stop {
        start.wrapping_sub(stop) as u64
    } else {
        return 0;
    };
    (span - 1) / step.unsigned_abs() + 1
}

/// The exact value hull and residue class of a just-realized, non-empty
/// domain of `len` values — the guard's view of the loop slot.
fn domain_facts(domain: &CDomain, f: &Frame, len: u64) -> (Interval, Congruence) {
    match domain {
        CDomain::Range { .. } => {
            let last = (f.cur as i128 + f.step as i128 * (len as i128 - 1)) as i64;
            // Every yielded value is `≡ start (mod |step|)` — the residue
            // fact the interval hull throws away.
            let cg = cg_of_bind(Congruence::point(f.cur), Congruence::point(f.step));
            (Interval::new(f.cur, last), cg)
        }
        CDomain::Values { lo, hi, cg, .. } => (Interval { lo: *lo, hi: *hi }, *cg),
        CDomain::Opaque { .. } => {
            let lo = f.buf.iter().copied().min().unwrap_or(0);
            let hi = f.buf.iter().copied().max().unwrap_or(0);
            (Interval { lo, hi }, cg_of_values(&f.buf))
        }
    }
}

/// Runtime iteration state for one loop of the flat program.
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
}

/// Which iteration fields of a [`Frame`] are live.
enum FrameKind {
    Range,
    Values,
    Buffer,
    /// A narrowed range running its body for the one solved value: dry,
    /// with `cur` holding the range's last value for the slot's exit state.
    Solved,
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
        FrameKind::Buffer => {
            f.idx += 1;
            f.buf.get(f.idx).copied()
        }
    }
}

struct State<V> {
    stats: PruneStats,
    blocks: BlockStats,
    visitor: V,
    /// Per-slot interval environment for guard runs, maintained
    /// incrementally across runs (see [`GuardInfo`]).
    ivals: Vec<Interval>,
    /// Per-slot congruence environment, maintained in lockstep with
    /// `ivals` (only touched when `opts.congruence` is on).
    cvals: Vec<Congruence>,
    /// Per-master-position memoized guard step outcomes.
    gcache: Vec<GCache>,
    /// Per-loop flag: this guard has completed at least one full scan, so
    /// every position in its range has a cached outcome.
    gprimed: Vec<bool>,
    /// Registers of the [`IvProg`] guard evaluations.
    gscratch: IvScratch,
    /// Bitmask of currently elided checks (bit = constraint index).
    elide: u64,
    /// Per-group calibration state (empty outside [`Compiled::calibrate`]).
    sched: Vec<GroupState>,
    /// Calibration work units left — loop advances plus group executions
    /// (`u64::MAX` = unbounded, every real sweep).
    budget: u64,
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

impl<V> State<V> {
    /// Spend one calibration work unit; `false` once the budget is gone.
    #[inline]
    fn spend(&mut self) -> bool {
        let left = self.budget > 0;
        self.budget = self.budget.saturating_sub(1);
        left
    }
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

    #[test]
    fn preamble_constraint_can_empty_the_space() {
        let space = Space::builder("pre")
            .constant("enabled", 0)
            .range("x", 0, 100)
            .constraint("disabled", ConstraintClass::Generic, var("enabled").eq(0))
            .build()
            .unwrap();
        let compiled = compile(&space);
        let out = compiled.run(CountVisitor::default()).unwrap();
        assert_eq!(out.visitor.count, 0);
        assert_eq!(out.stats.pruned[0], 1);
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

    /// A space with a run of three reorder-safe checks at the innermost
    /// level, declared weakest-first so scheduling has room to improve.
    fn sched_space() -> std::sync::Arc<Space> {
        Space::builder("sched")
            .constant("cap", 60)
            .range("a", 1, 9)
            .range("b", 1, 9)
            .range("c", 1, 9)
            .derived("abc", var("a") * var("b") * var("c"))
            // Declared first, kills almost nothing.
            .constraint("rare", ConstraintClass::Soft, var("abc").gt(500))
            // Declared second, kills some.
            .constraint("mid", ConstraintClass::Soft, var("abc").gt(200))
            // Declared last, kills most.
            .constraint("deadly", ConstraintClass::Hard, var("abc").gt(var("cap")))
            .build()
            .unwrap()
    }

    fn scheduled(space: &std::sync::Arc<Space>, mode: ScheduleMode) -> Compiled {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        Compiled::with_options(
            LoweredPlan::new(&plan).unwrap(),
            EngineOptions::scheduled(mode),
        )
    }

    #[test]
    fn schedule_modes_agree_on_survivors_and_order() {
        let space = sched_space();
        let mut baseline: Option<Vec<Vec<i64>>> = None;
        for mode in [ScheduleMode::Declared, ScheduleMode::Adaptive] {
            let c = scheduled(&space, mode);
            let out = c
                .run(CollectVisitor::new(c.point_names().clone(), usize::MAX))
                .unwrap();
            let points: Vec<Vec<i64>> = out
                .visitor
                .points
                .iter()
                .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
                .collect();
            match &baseline {
                None => baseline = Some(points),
                Some(b) => assert_eq!(&points, b, "{mode} diverged from declared"),
            }
        }
    }

    #[test]
    fn static_schedule_reorders_checks_by_expected_cost_to_kill() {
        let space = sched_space();
        // The cost-model order is the adaptive schedule's *initial* order.
        let tele = scheduled(&space, ScheduleMode::Adaptive).schedule_telemetry();
        assert_eq!(tele.mode, "adaptive");
        assert_eq!(tele.groups.len(), 1);
        // The deadliest check moves to the front of its group.
        assert_eq!(tele.groups[0].initial[0], "deadly");
        assert_eq!(tele.groups[0].initial.len(), 3);
        // ... and it is exactly what `static_schedule` writes into the plan.
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let mut lp = LoweredPlan::new(&plan).unwrap();
        schedule::static_schedule(&mut lp);
        let checks: Vec<usize> = lp
            .steps
            .iter()
            .filter_map(|s| match s {
                LStep::Check { constraint, .. } => Some(*constraint),
                _ => None,
            })
            .collect();
        assert_eq!(checks, [2, 1, 0]);
        // Declared mode reports the declared order untouched.
        let declared = scheduled(&space, ScheduleMode::Declared).schedule_telemetry();
        assert_eq!(declared.groups[0].initial, vec!["rare", "mid", "deadly"]);
    }

    #[test]
    fn adaptive_run_reports_final_orders() {
        let space = sched_space();
        let c = scheduled(&space, ScheduleMode::Adaptive);
        let out = c.run(CountVisitor::default()).unwrap();
        let finals = out.schedule.as_ref().expect("adaptive runs report a schedule");
        assert_eq!(Some(finals), c.learned_orders().as_ref());
        assert_eq!(finals.len(), 1);
        // 9^3 = 729 calibration group executions > ADAPT_EPOCH; "deadly"
        // (constraint 2) has by far the best kill rate per op and must end
        // up first — in the report and in the executed check order.
        let tele = c.schedule_telemetry();
        assert_eq!(tele.groups[0].final_order[0], "deadly");
        assert_eq!(tele.ranks[2], 0);
        // The learned order is compiled in: no group dispatch survives.
        assert!(c.agroups.is_empty());
        assert!(!c.ops.iter().any(|op| matches!(op, Op::CheckGroup { .. })));
        // Declared-mode runs don't carry a schedule.
        let d = scheduled(&space, ScheduleMode::Declared);
        assert!(d.run(CountVisitor::default()).unwrap().schedule.is_none());
    }

    #[test]
    fn adaptive_stats_still_count_every_tuple_once() {
        // Reordering shifts which constraint gets the kill credit, but the
        // totals must still account for every tuple: survivors + pruned
        // equals the full cross product at the innermost level.
        let space = sched_space();
        let out = scheduled(&space, ScheduleMode::Adaptive)
            .run(CountVisitor::default())
            .unwrap();
        let declared = scheduled(&space, ScheduleMode::Declared)
            .run(CountVisitor::default())
            .unwrap();
        assert_eq!(out.stats.survivors, declared.stats.survivors);
        assert_eq!(out.stats.total_pruned(), declared.stats.total_pruned());
        assert_eq!(out.visitor.count, declared.visitor.count);
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
            EngineOptions { schedule: ScheduleMode::Adaptive, ..d },
            EngineOptions { engine: EngineTier::Native, ..d },
            EngineOptions { engine: EngineTier::Walker, ..d },
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
    fn engine_tier_parses_its_own_names() {
        for tier in [EngineTier::Walker, EngineTier::Compiled, EngineTier::Native] {
            assert_eq!(EngineTier::parse(tier.as_str()), Some(tier));
            assert_eq!(tier.to_string(), tier.as_str());
        }
        assert_eq!(EngineTier::parse("turbo"), None);
        assert_eq!(EngineTier::default(), EngineTier::Compiled);
    }
}
