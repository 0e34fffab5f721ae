//! Profile-guided constraint scheduling: in what *order* should the checks
//! hoisted to one loop level run?
//!
//! The paper's DAG construction (Section X) decides *where* each constraint
//! is evaluated — the shallowest loop at which its inputs are bound — but is
//! silent on the order of checks sharing a level, and measured kill rates at
//! one level routinely span 0 % to 98 % (see `repro funnel`). Since the
//! checks of a level form a pure conjunction over already-bound slots,
//! *any* order yields the same survivors in the same emission order; cost,
//! however, differs wildly: the cheapest-deadliest check first means most
//! points die after one evaluation.
//!
//! This module provides the **static** half of that scheduling decision:
//!
//! * [`check_regions`] — the maximal runs of reorder-safe steps: in-loop
//!   checks *and the derived definitions interleaved between them*, all
//!   provably [infallible over the subtree's intervals](infallible_in) so
//!   error semantics are bit-for-bit preserved. Within a region each check
//!   forms a *unit* with the transitive closure of region defines it reads;
//!   units may run in any order as long as a unit's defines precede its
//!   check, and defines no executed unit needed run before control leaves
//!   the region (survivors must carry every derived value). Killing early
//!   therefore skips not just the remaining *checks* but their entire
//!   define chains — on the GEMM space that is 9 defines (divisions
//!   included) per point killed by the one deadly check of the level;
//! * [`unit_cost`] — a unit's price (IR op count of the check and its
//!   define closure), the cost unit of the compiled engine's calibration;
//! * [`apply_order`] — linearizes a region in a given unit order in the
//!   lowered plan itself, so every consumer — interpreters, the
//!   threaded-code engine, and the C/Rust source generators — inherits the
//!   schedule for free.
//!
//! The *measured* half — the only heuristic for the order — lives in the
//! compiled engine: at engine-build time the declared program itself runs
//! a bounded calibration sample, each region's checks are sorted once by
//! the kill rate per [`unit_cost`] that the sample's own per-constraint
//! counters recorded, and the learned order is written back into the plan
//! with [`apply_order`] — so an adaptive schedule is, like the declared
//! one, just a step order every consumer inherits.

use crate::analyze::AbsSteps;
use crate::expr::Builtin;
use crate::interval::{interval_of, Interval};
use crate::ir::{IntBinOp, IntExpr, LBody, LStep, LoweredPlan};

/// How an engine orders the checks within one loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The declared plan order (the paper's behaviour): checks run in the
    /// order the planner emitted them.
    #[default]
    Declared,
    /// The declared order as the starting point, re-sorted by the kill
    /// rates observed in one bounded calibration pass at engine-build time
    /// — a pure function of plan and options, so every thread, chunk and
    /// worker process runs the same learned order.
    Adaptive,
}

impl ScheduleMode {
    /// Stable lower-case name (used by telemetry JSON and CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            ScheduleMode::Declared => "declared",
            ScheduleMode::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ScheduleMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ScheduleMode, String> {
        match s {
            "declared" => Ok(ScheduleMode::Declared),
            "adaptive" => Ok(ScheduleMode::Adaptive),
            other => Err(format!(
                "unknown schedule mode `{other}` (expected declared or adaptive)"
            )),
        }
    }
}

/// Interval-aware infallibility: can evaluating `e` raise an error or panic
/// for *any* point of the subtree, judged against the interval environment?
///
/// Strictly more permissive than the syntactic [`IntExpr::infallible`]
/// (const-divisor only): a division is safe here whenever the divisor's
/// interval excludes 0 — e.g. `x % (a * b)` with positive loop iterators
/// `a`, `b`, the shape of the GEMM reshape constraints. The `i64::MIN / -1`
/// corner is excluded intervalically too: `//` raises `Overflow` there, and
/// `/` and `%` (which wrap) are excluded conservatively alongside it.
/// `div_ceil`/`round_up` additionally need a provably positive divisor and
/// their wrapping inner sum `a + c - 1` provably in range.
pub fn infallible_in(e: &IntExpr, env: &[Interval]) -> bool {
    match e {
        IntExpr::Const(_) | IntExpr::Slot(_) => true,
        IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => infallible_in(a, env),
        IntExpr::Bin(IntBinOp::Div | IntBinOp::FloorDiv | IntBinOp::Rem, a, b) => {
            infallible_in(a, env) && infallible_in(b, env) && {
                let ia = interval_of(a, env).iv;
                let ib = interval_of(b, env).iv;
                !(ib.contains(0) || (ib.contains(-1) && ia.contains(i64::MIN)))
            }
        }
        IntExpr::Bin(_, a, b) => infallible_in(a, env) && infallible_in(b, env),
        IntExpr::Call2(Builtin::Min | Builtin::Max | Builtin::Gcd, a, b) => {
            infallible_in(a, env) && infallible_in(b, env)
        }
        IntExpr::Call2(Builtin::DivCeil | Builtin::RoundUp, a, c) => {
            infallible_in(a, env) && infallible_in(c, env) && {
                let ia = interval_of(a, env).iv;
                let ic = interval_of(c, env).iv;
                ic.lo >= 1
                    && ia.lo as i128 + ic.lo as i128 > i64::MIN as i128
                    && ia.hi as i128 + ic.hi as i128 - 1 <= i64::MAX as i128
            }
        }
        IntExpr::Call2(_, _, _) => false,
        IntExpr::Ternary(c, t, f) => {
            infallible_in(c, env) && infallible_in(t, env) && infallible_in(f, env)
        }
    }
}

/// A maximal reorder-safe run of lowered steps: ≥ 2 checks plus the derived
/// definitions interleaved among them, all provably infallible over the
/// subtree's intervals (see [`check_regions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// First step index of the region (a check or a define).
    pub start: usize,
    /// One past the region's last check (trailing defines are excluded —
    /// they run after every check in declared order already).
    pub end: usize,
    /// Step indices of the region's checks, in declared order (≥ 2).
    pub checks: Vec<usize>,
    /// Step indices of the region's defines, in declared (= dependency)
    /// order.
    pub defines: Vec<usize>,
    /// Per check (parallel to `checks`): ascending indices into `defines`
    /// forming the transitive closure of region defines the check reads.
    /// Ascending index order is dependency order, so executing a closure
    /// front-to-back is always safe.
    pub deps: Vec<Vec<usize>>,
}

/// The maximal reorder-safe regions of a lowered plan.
///
/// A step joins the current region only if it is inside at least one loop
/// (preamble checks gate the whole space and stay put) and is either a
/// check or a define whose body is a lowered expression [infallible over
/// the subtree's intervals](infallible_in). A fallible or opaque step, a
/// bind, or a visit *breaks* the run: moving work across it could turn an
/// evaluation error into a silent rejection or vice versa (and binds open
/// a new scope). Defines must be infallible too — scheduling a unit first
/// executes its define chain on points an earlier declared check might
/// have rejected before they ran.
///
/// Within a region the checks form a pure conjunction and the defines are
/// pure functions of bound slots, so any unit linearization — each check
/// preceded by its not-yet-run closure, all remaining defines before the
/// region exits downward — preserves survivors, emission order (survivor
/// points carry every derived slot), and error behaviour.
///
/// `abs` is the plan's compiled abstract step program ([`AbsSteps::new`]
/// of `lp`); its static walk supplies each step's interval environment.
pub fn check_regions(lp: &LoweredPlan, abs: &AbsSteps) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    let mut run: Vec<usize> = Vec::new(); // step indices of the current run
    let mut in_loop = false;
    let mut flush = |run: &mut Vec<usize>, lp: &LoweredPlan| {
        // Trim trailing defines: the region ends at its last check.
        while matches!(run.last().map(|&i| &lp.steps[i]), Some(LStep::Define { .. })) {
            run.pop();
        }
        let checks: Vec<usize> = run
            .iter()
            .copied()
            .filter(|&i| matches!(lp.steps[i], LStep::Check { .. }))
            .collect();
        if checks.len() >= 2 {
            let defines: Vec<usize> = run
                .iter()
                .copied()
                .filter(|&i| matches!(lp.steps[i], LStep::Define { .. }))
                .collect();
            regions.push(build_region(lp, checks, defines));
        }
        run.clear();
    };
    abs.walk(false, |i, env, _| {
        let step = &lp.steps[i];
        let joins = in_loop
            && match step {
                LStep::Check { body: LBody::Expr(e), .. }
                | LStep::Define { body: LBody::Expr(e), .. } => infallible_in(e, &env.iv),
                _ => false,
            };
        if joins {
            run.push(i);
            return;
        }
        flush(&mut run, lp);
        if matches!(step, LStep::Bind { .. }) {
            in_loop = true;
        }
    });
    flush(&mut run, lp);
    regions
}

/// Assemble a [`Region`] from its check and define step indices: compute
/// each check's transitive define closure by walking read slots backwards
/// through the region's define bodies.
fn build_region(lp: &LoweredPlan, checks: Vec<usize>, defines: Vec<usize>) -> Region {
    let start = checks
        .first()
        .copied()
        .unwrap_or(usize::MAX)
        .min(defines.first().copied().unwrap_or(usize::MAX));
    let end = checks.last().copied().unwrap_or(0) + 1;
    // Slot written by each region define, and its body's read slots.
    let def_slot: Vec<u32> = defines
        .iter()
        .map(|&i| match &lp.steps[i] {
            LStep::Define { slot, .. } => *slot,
            other => unreachable!("region define list holds {other:?}"),
        })
        .collect();
    let body_of = |i: usize| match &lp.steps[i] {
        LStep::Define { body: LBody::Expr(e), .. }
        | LStep::Check { body: LBody::Expr(e), .. } => e,
        other => unreachable!("region step has no expression body: {other:?}"),
    };
    let deps: Vec<Vec<usize>> = checks
        .iter()
        .map(|&c| {
            let mut want: Vec<u32> = Vec::new();
            body_of(c).for_each_slot(&mut |s| want.push(s));
            let mut closure = vec![false; defines.len()];
            while let Some(slot) = want.pop() {
                if let Some(d) = def_slot.iter().position(|&s| s == slot) {
                    if !closure[d] {
                        closure[d] = true;
                        body_of(defines[d]).for_each_slot(&mut |s| want.push(s));
                    }
                }
            }
            (0..defines.len()).filter(|&d| closure[d]).collect()
        })
        .collect();
    Region { start, end, checks, defines, deps }
}

/// Loop level of a group: the number of `Bind` steps before its first check,
/// minus one (level 0 = directly under the outermost loop). This counts
/// enclosing loops, so it is not the constraint DAG level reported per
/// constraint in telemetry: on reduced(32) GEMM `over_max_threads` sits at
/// DAG level 2 and its group at loop level 1.
pub fn group_level(lp: &LoweredPlan, group: &[usize]) -> usize {
    let first = group.first().copied().unwrap_or(0);
    lp.steps[..first]
        .iter()
        .filter(|s| matches!(s, LStep::Bind { .. }))
        .count()
        .saturating_sub(1)
}

/// Constraint index → rank of its check in the flattened plan order (the
/// position among all `Check` steps). Reported as `schedule_rank` in
/// telemetry so a reordered plan is observable.
pub fn check_ranks(lp: &LoweredPlan) -> Vec<usize> {
    let n = lp.plan.space().constraints().len();
    let mut ranks = vec![0usize; n];
    let mut rank = 0usize;
    for step in &lp.steps {
        if let LStep::Check { constraint, .. } = step {
            if let Some(r) = ranks.get_mut(*constraint) {
                *r = rank;
            }
            rank += 1;
        }
    }
    ranks
}

/// Linearize a region so its checks run in `order` (a permutation of
/// `region.checks`, given as the step indices to place first, second, …):
/// each check is preceded by the not-yet-emitted defines of its closure,
/// and the defines no check needed come last — exactly the execution
/// discipline [`check_regions`] proves safe. Used by the compiled engine to
/// freeze its calibrated order and by the permutation property tests.
/// Returns whether any step moved: the declared check order can still sink
/// a define no check reads.
///
/// # Panics
/// If `order` is not a permutation of `region.checks`.
pub fn apply_order(lp: &mut LoweredPlan, region: &Region, order: &[usize]) -> bool {
    assert_eq!(region.checks.len(), order.len(), "order must permute the checks");
    let mut check = order.to_vec();
    check.sort_unstable();
    assert_eq!(check, region.checks, "order must permute the checks");
    let mut emitted = vec![false; region.defines.len()];
    // Source step index of each position of the linearized region.
    let mut src: Vec<usize> = Vec::with_capacity(region.end - region.start);
    for &c in order {
        let k = region.checks.iter().position(|&i| i == c).expect("member");
        for &d in &region.deps[k] {
            if !emitted[d] {
                emitted[d] = true;
                src.push(region.defines[d]);
            }
        }
        src.push(c);
    }
    for (d, &di) in region.defines.iter().enumerate() {
        if !emitted[d] {
            src.push(di);
        }
    }
    debug_assert_eq!(src.len(), region.end - region.start);
    if src.iter().copied().eq(region.start..region.end) {
        return false;
    }
    let steps: Vec<LStep> = src.iter().map(|&i| lp.steps[i].clone()).collect();
    lp.steps[region.start..region.end].clone_from_slice(&steps);
    true
}

/// A check's scheduling cost within its region: `check_cost` (its own op
/// count) plus the op counts of every define in its closure — the price of
/// running region check `k`'s unit first on a fresh point. The unit of
/// the compiled engine's adaptive calibration.
pub fn unit_cost(lp: &LoweredPlan, region: &Region, k: usize, check_cost: u32) -> u32 {
    region.deps[k]
        .iter()
        .map(|&d| match &lp.steps[region.defines[d]] {
            LStep::Define { body: LBody::Expr(e), .. } => e.op_count(),
            _ => 0,
        })
        .sum::<u32>()
        + check_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::var;
    use crate::plan::{Plan, PlanOptions};
    use crate::space::Space;

    fn lower(space: &std::sync::Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    fn regions_of(lp: &LoweredPlan) -> Vec<Region> {
        check_regions(lp, &AbsSteps::new(lp))
    }

    /// Two same-level constraints: `never` (rejects nothing) is declared
    /// before `always` (rejects everything).
    fn swap_space() -> std::sync::Arc<Space> {
        Space::builder("sched")
            .range("a", 1, 10)
            .range("b", 1, 10)
            .derived("ab", var("a") * var("b"))
            .constraint("never", ConstraintClass::Soft, var("ab").gt(1000))
            .constraint("always", ConstraintClass::Hard, var("ab").ge(0))
            .build()
            .unwrap()
    }

    fn check_names(lp: &LoweredPlan) -> Vec<String> {
        let space = lp.plan.space();
        lp.steps
            .iter()
            .filter_map(|s| match s {
                LStep::Check { constraint, .. } => {
                    Some(space.constraints()[*constraint].name.to_string())
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn groups_require_adjacency_and_infallibility() {
        // `mid` (fallible: its divisor `b - 5` straddles 0) splits the run
        // of five same-level checks into two flanking pairs.
        let space = Space::builder("split")
            .range("a", 1, 10)
            .range("b", 0, 10)
            .constraint("l1", ConstraintClass::Soft, var("a").gt(var("b")))
            .constraint("l2", ConstraintClass::Soft, (var("a") + var("b")).gt(3))
            .constraint("mid", ConstraintClass::Soft, (var("a") / (var("b") - 5)).gt(3))
            .constraint("r1", ConstraintClass::Soft, var("b").gt(5))
            .constraint("r2", ConstraintClass::Soft, (var("b") * var("a")).gt(8))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mid_step = lp
            .steps
            .iter()
            .position(|s| matches!(s, LStep::Check { constraint: 2, .. }))
            .unwrap();
        let groups: Vec<Vec<usize>> = regions_of(&lp).into_iter().map(|r| r.checks).collect();
        assert_eq!(groups.len(), 2, "expected two flanking pairs, got {groups:?}");
        for group in &groups {
            assert_eq!(group.len(), 2);
            for w in group.windows(2) {
                assert_eq!(w[1], w[0] + 1, "group steps must be adjacent");
            }
            assert!(!group.contains(&mid_step), "fallible check joined a group");
        }
    }

    #[test]
    fn interval_proven_divisors_are_reorder_safe() {
        // Same shape, but the divisor's interval ([1, 9] × [1, 9] → ≥ 1)
        // provably excludes 0, so all three checks form one group even
        // though the divisor is not a constant.
        let space = Space::builder("divsafe")
            .range("a", 1, 10)
            .range("b", 1, 10)
            .constraint("left", ConstraintClass::Soft, var("a").gt(var("b")))
            .constraint("mid", ConstraintClass::Soft, (var("a") % (var("b") * var("a"))).ne(0))
            .constraint("right", ConstraintClass::Soft, (var("b") + var("a")).gt(5))
            .build()
            .unwrap();
        let lp = lower(&space);
        let regions = regions_of(&lp);
        assert_eq!(regions.len(), 1, "expected one region, got {regions:?}");
        assert_eq!(regions[0].checks.len(), 3);
    }

    #[test]
    fn preamble_checks_never_group() {
        let space = Space::builder("pre")
            .constant("k", 3)
            .range("x", 0, 10)
            .constraint("c1", ConstraintClass::Generic, var("k").gt(10))
            .constraint("c2", ConstraintClass::Generic, var("k").gt(20))
            .build()
            .unwrap();
        let lp = lower(&space);
        // Both checks fold to constants and precede the loop: no group may
        // contain a step before the first bind.
        let first_bind = lp
            .steps
            .iter()
            .position(|s| matches!(s, LStep::Bind { .. }))
            .unwrap();
        for region in regions_of(&lp) {
            assert!(region.checks.iter().all(|&i| i > first_bind));
        }
    }

    #[test]
    fn apply_order_permutes_and_ranks_follow() {
        let mut lp = lower(&swap_space());
        let regions = regions_of(&lp);
        assert_eq!(regions.len(), 1);
        let region = regions[0].clone();
        let reversed: Vec<usize> = region.checks.iter().rev().copied().collect();
        let before = check_ranks(&lp);
        assert!(!apply_order(&mut lp, &region, &region.checks), "the declared order moves nothing");
        assert_eq!(check_ranks(&lp), before);
        assert!(apply_order(&mut lp, &region, &reversed));
        let after = check_ranks(&lp);
        assert_ne!(before, after);
        assert_eq!(check_names(&lp), ["always", "never"]);
    }

    #[test]
    fn regions_span_defines_and_closures_are_transitive() {
        // d1 = a * b, d2 = d1 + a; `late` reads d2 so its closure must pull
        // in both defines transitively; `early` reads only bound slots.
        let space = Space::builder("region")
            .range("a", 1, 10)
            .range("b", 1, 10)
            .derived("d1", var("a") * var("b"))
            .derived("d2", var("d1") + var("a"))
            .constraint("early", ConstraintClass::Soft, var("a").gt(var("b")))
            .constraint("late", ConstraintClass::Soft, var("d2").gt(50))
            .build()
            .unwrap();
        let mut lp = lower(&space);
        let regions = regions_of(&lp);
        assert_eq!(regions.len(), 1, "got {regions:?}");
        let r = regions[0].clone();
        assert_eq!(r.checks.len(), 2);
        assert_eq!(r.defines.len(), 2);
        let early = 0; // declared first
        let late = 1;
        assert!(r.deps[early].is_empty(), "early reads no defines");
        assert_eq!(r.deps[late], [0, 1], "late's closure is transitive");
        // Putting `late` first must hoist both defines ahead of it while
        // keeping the region the same length.
        let order = vec![r.checks[late], r.checks[early]];
        apply_order(&mut lp, &r, &order);
        let names = check_names(&lp);
        assert_eq!(names, ["late", "early"]);
        // Re-deriving regions on the transformed plan still works and the
        // new declared order is the applied one.
        let again = regions_of(&lp);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].checks.len(), 2);
    }
}
