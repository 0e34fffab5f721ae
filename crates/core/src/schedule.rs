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
//! * [`CostModel`] — per-constraint cost (IR op count, also the unit of the
//!   compiled engine's adaptive calibration) and a *kill prior* estimated by
//!   pushing the domain bounds through the interval analysis of
//!   [`crate::interval`];
//! * [`static_schedule`] — linearizes each region by ascending
//!   expected-cost-to-kill (unit cost / prior) in the lowered plan itself,
//!   so every consumer — interpreters, the threaded-code engine, and the
//!   C/Rust source generators — inherits the schedule for free.
//!
//! The *measured* half lives in the compiled engine: a bounded calibration
//! pass at engine-build time starts from the static order produced here,
//! re-sorts each region by observed kill rate per op, and writes the learned
//! order back into the plan with [`apply_order`] — so an adaptive schedule
//! is, like a static one, just a step order every consumer inherits.

use std::cmp::Ordering;

use crate::interval::{interval_of, range_value_hull, Interval};
use crate::expr::Builtin;
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};

/// How an engine orders the checks within one loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The declared plan order (the paper's behaviour): checks run in the
    /// order the planner emitted them.
    #[default]
    Declared,
    /// The cost-model order ([`static_schedule`]: each reorder-safe group
    /// by ascending expected-cost-to-kill) as the starting point, then
    /// re-sorted by the kill rates observed in one bounded calibration pass
    /// at engine-build time — a pure function of plan and options, so every
    /// thread, chunk and worker process runs the same learned order.
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

/// Cost and kill prior for one lowered constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckScore {
    /// IR op count of the predicate — proportional to what one evaluation
    /// costs in every backend.
    pub cost: u32,
    /// Estimated probability that the predicate rejects a point, from
    /// interval analysis of the domain bounds (0 = never kills, 1 = always).
    pub kill_prior: f64,
}

impl CheckScore {
    /// Expected evaluations-worth of work spent per killed point: checks
    /// with the lowest value should run first. A floor on the prior keeps
    /// never-killing checks finitely ranked (they simply sort last).
    pub fn expected_cost_to_kill(&self) -> f64 {
        self.cost as f64 / self.kill_prior.max(1e-4)
    }
}

/// Per-constraint [`CheckScore`]s for one lowered plan, indexed by
/// constraint index (`None` for opaque constraints, which have no lowered
/// expression to score).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Constraint index → score.
    pub scores: Vec<Option<CheckScore>>,
}

impl CostModel {
    /// Score every expression constraint of a lowered plan.
    ///
    /// The plan's steps are walked once, maintaining a per-slot interval
    /// environment: range binds contribute the hull of their bound
    /// intervals, value-list binds their min/max, defines the interval of
    /// their expression, and opaque steps ⊤. Each check is then scored
    /// against the environment at its own position, i.e. with exactly the
    /// slots it can read bound.
    pub fn of(lp: &LoweredPlan) -> CostModel {
        let n = lp.plan.space().constraints().len();
        let mut scores: Vec<Option<CheckScore>> = vec![None; n];
        let mut env = vec![Interval::TOP; lp.n_slots as usize];
        for step in &lp.steps {
            if let LStep::Check { constraint, body: LBody::Expr(e) } = step {
                scores[*constraint] = Some(CheckScore {
                    cost: e.op_count(),
                    kill_prior: p_true(e, &env),
                });
            }
            env_step(step, &mut env);
        }
        CostModel { scores }
    }
}

/// Advance the per-slot interval environment across one lowered step: range
/// binds write the hull of the bound intervals, value-list binds their
/// min/max, defines the interval of their expression, and opaque steps ⊤.
fn env_step(step: &LStep, env: &mut [Interval]) {
    match step {
        LStep::Bind { slot, domain, .. } => {
            env[*slot as usize] = match domain {
                LIter::Range { start, stop, step } => {
                    let sa = interval_of(start, env).iv;
                    let so = interval_of(stop, env).iv;
                    // A constant-sign stride bounds executed iterations on
                    // the start side: `start ..< stop` ascending never goes
                    // below `start`, descending (exclusive stop) never
                    // above it. `range_value_hull` must stay conservative
                    // for unknown strides; empty ranges never run their
                    // body, so clamping `hi >= lo` is safe.
                    match step.as_const() {
                        Some(k) if k > 0 => Interval {
                            lo: sa.lo,
                            hi: so.hi.saturating_sub(1).max(sa.lo),
                        },
                        Some(k) if k < 0 => Interval {
                            lo: so.lo.saturating_add(1).min(sa.hi),
                            hi: sa.hi,
                        },
                        _ => range_value_hull(sa, so),
                    }
                }
                LIter::Values(v) => Interval {
                    lo: v.iter().copied().min().unwrap_or(0),
                    hi: v.iter().copied().max().unwrap_or(0),
                },
                LIter::Opaque { .. } => Interval::TOP,
            };
        }
        LStep::Define { slot, body, .. } => {
            env[*slot as usize] = match body {
                LBody::Expr(e) => interval_of(e, env).iv,
                LBody::Opaque => Interval::TOP,
            };
        }
        LStep::Check { .. } | LStep::Visit => {}
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

/// Interval widths past this are treated as "unknown" rather than as a
/// genuine uniform distribution — deriving a near-certain probability from a
/// ⊤-ish operand would be false confidence.
const HUGE_WIDTH: f64 = (1u64 << 32) as f64;

/// Estimated probability that `e` evaluates nonzero (i.e. *rejects*, since
/// lowered constraint bodies are rejection conditions) when each slot is
/// drawn uniformly from its interval in `env`.
///
/// Logical structure is followed exactly (`and` → product, assuming
/// independence; `or` → inclusion–exclusion; `not` → complement);
/// comparisons get a geometric overlap estimate; anything else degrades to
/// 1 / 0 / 0.5 by whether its interval excludes 0, is exactly `[0,0]`, or
/// straddles.
fn p_true(e: &IntExpr, env: &[Interval]) -> f64 {
    let p = match e {
        IntExpr::Bin(IntBinOp::And, a, b) => p_true(a, env) * p_true(b, env),
        IntExpr::Bin(IntBinOp::Or, a, b) => {
            let (pa, pb) = (p_true(a, env), p_true(b, env));
            pa + pb - pa * pb
        }
        IntExpr::Not(a) => 1.0 - p_true(a, env),
        IntExpr::Bin(
            op @ (IntBinOp::Lt | IntBinOp::Le | IntBinOp::Gt | IntBinOp::Ge),
            a,
            b,
        ) => {
            let (ia, ib) = (interval_of(a, env).iv, interval_of(b, env).iv);
            match op {
                IntBinOp::Lt => p_less(ia, ib, 0),
                IntBinOp::Le => p_less(ia, ib, 1),
                IntBinOp::Gt => p_less(ib, ia, 0),
                IntBinOp::Ge => p_less(ib, ia, 1),
                _ => unreachable!("matched comparison"),
            }
        }
        IntExpr::Bin(IntBinOp::Eq, a, b) => {
            p_eq(interval_of(a, env).iv, interval_of(b, env).iv)
        }
        IntExpr::Bin(IntBinOp::Ne, a, b) => {
            1.0 - p_eq(interval_of(a, env).iv, interval_of(b, env).iv)
        }
        other => {
            let iv = interval_of(other, env).iv;
            if !iv.contains(0) {
                1.0
            } else if iv == Interval::point(0) {
                0.0
            } else {
                0.5
            }
        }
    };
    p.clamp(0.0, 1.0)
}

/// `P(x < y + slack)` for `x` uniform over `a` and `y` uniform over `b`
/// (independent), via the continuous relaxation `x ~ U[lo, hi+1)`.
/// Statically decided comparisons return exactly 0 or 1; otherwise operands
/// wider than [`HUGE_WIDTH`] yield the uninformative 0.5.
fn p_less(a: Interval, b: Interval, slack: i64) -> f64 {
    // Exact decidedness first, in i128 so ⊤ bounds cannot overflow.
    let (al, ah) = (a.lo as i128, a.hi as i128);
    let (bl, bh) = (b.lo as i128 + slack as i128, b.hi as i128 + slack as i128);
    if ah < bl {
        return 1.0;
    }
    if al > bh {
        return 0.0;
    }
    let (a0, a1) = (al as f64, (ah + 1) as f64);
    let (b0, b1) = (bl as f64, (bh + 1) as f64);
    if a1 - a0 > HUGE_WIDTH || b1 - b0 > HUGE_WIDTH {
        return 0.5;
    }
    // P = (1 / |a|) ∫ over x in [a0, a1] of P(y + slack > x) dx, where the
    // integrand is 1 below b0, 0 above b1, and linear in between.
    let full = (a1.min(b0) - a0).max(0.0);
    let x0 = a0.max(b0);
    let x1 = a1.min(b1);
    let ramp = if x1 > x0 {
        ((b1 - x0).powi(2) - (b1 - x1).powi(2)) / (2.0 * (b1 - b0))
    } else {
        0.0
    };
    ((full + ramp) / (a1 - a0)).clamp(0.0, 1.0)
}

/// `P(x == y)` for independent uniforms over `a` and `b`: the overlap count
/// divided by the product of the widths (0.5 when an operand is huge —
/// "unknown", not "almost never").
fn p_eq(a: Interval, b: Interval) -> f64 {
    let lo = a.lo.max(b.lo) as i128;
    let hi = a.hi.min(b.hi) as i128;
    if hi < lo {
        return 0.0;
    }
    if a.is_point() && b.is_point() {
        return 1.0;
    }
    let wa = (a.hi as i128 - a.lo as i128 + 1) as f64;
    let wb = (b.hi as i128 - b.lo as i128 + 1) as f64;
    if wa > HUGE_WIDTH || wb > HUGE_WIDTH {
        return 0.5;
    }
    (((hi - lo + 1) as f64) / (wa * wb)).clamp(0.0, 1.0)
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
    /// order. At most 64, so engines can track execution in one bitmask.
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
pub fn check_regions(lp: &LoweredPlan) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    let mut run: Vec<usize> = Vec::new(); // step indices of the current run
    let mut in_loop = false;
    let mut env = vec![Interval::TOP; lp.n_slots as usize];
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
    for (i, step) in lp.steps.iter().enumerate() {
        let joins = in_loop
            && match step {
                LStep::Check { body: LBody::Expr(e), .. } => infallible_in(e, &env),
                LStep::Define { body: LBody::Expr(e), .. } => {
                    // One bitmask tracks define execution in the engines.
                    run.iter()
                        .filter(|&&j| matches!(lp.steps[j], LStep::Define { .. }))
                        .count()
                        < 64
                        && infallible_in(e, &env)
                }
                _ => false,
            };
        env_step(step, &mut env);
        if joins {
            run.push(i);
            continue;
        }
        flush(&mut run, lp);
        if matches!(step, LStep::Bind { .. }) {
            in_loop = true;
        }
    }
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

/// The reorder-safe check groups — each region's checks as step-index
/// groups (each `Vec` holds ≥ 2 ascending indices into `lp.steps`). The
/// check-only view of [`check_regions`], used by telemetry and tests.
pub fn check_groups(lp: &LoweredPlan) -> Vec<Vec<usize>> {
    check_regions(lp).into_iter().map(|r| r.checks).collect()
}

/// Loop level of a group: the number of `Bind` steps before its first check,
/// minus one (level 0 = directly under the outermost loop — the same scale
/// as the constraint DAG levels reported in telemetry).
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
/// discipline [`check_regions`] proves safe. Used by [`static_schedule`],
/// by the compiled engine to freeze its calibrated order, and by the
/// permutation property tests.
///
/// # Panics
/// If `order` is not a permutation of `region.checks`.
pub fn apply_order(lp: &mut LoweredPlan, region: &Region, order: &[usize]) {
    assert_eq!(region.checks.len(), order.len(), "order must permute the checks");
    let mut check = order.to_vec();
    check.sort_unstable();
    assert_eq!(check, region.checks, "order must permute the checks");
    let mut emitted = vec![false; region.defines.len()];
    let mut steps: Vec<LStep> = Vec::with_capacity(region.end - region.start);
    for &c in order {
        let k = region.checks.iter().position(|&i| i == c).expect("member");
        for &d in &region.deps[k] {
            if !emitted[d] {
                emitted[d] = true;
                steps.push(lp.steps[region.defines[d]].clone());
            }
        }
        steps.push(lp.steps[c].clone());
    }
    for (d, &di) in region.defines.iter().enumerate() {
        if !emitted[d] {
            steps.push(lp.steps[di].clone());
        }
    }
    debug_assert_eq!(steps.len(), region.end - region.start);
    lp.steps[region.start..region.end].clone_from_slice(&steps);
}

/// A check's scheduling cost within its region: `check_cost` (its own op
/// count) plus the op counts of every define in its closure — the price of
/// running region check `k`'s unit first on a fresh point. The unit of
/// both [`static_schedule`] and the compiled engine's adaptive calibration.
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

/// Reorder every reorder-safe region of `lp` by ascending
/// expected-cost-to-kill — cheapest-deadliest unit first, where a unit's
/// cost includes its define closure — and return the cost model used. Ties
/// keep the declared order, so the transformation is deterministic.
///
/// Because the order is rewritten in the lowered plan itself, every
/// downstream consumer (the threaded-code engine, the register VM, and the
/// C/Rust source generators) emits the scheduled order with no further
/// cooperation: a kill in the emitted order skips the remaining units'
/// defines via the loop `continue`, with no dispatch at all.
pub fn static_schedule(lp: &mut LoweredPlan) -> CostModel {
    let model = CostModel::of(lp);
    for region in check_regions(lp) {
        let mut order: Vec<(f64, usize)> = region
            .checks
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let key = match &lp.steps[i] {
                    LStep::Check { constraint, .. } => model.scores[*constraint]
                        .map(|s| {
                            let cost = unit_cost(lp, &region, k, s.cost);
                            CheckScore { cost, ..s }.expected_cost_to_kill()
                        })
                        .unwrap_or(f64::INFINITY),
                    _ => f64::INFINITY,
                };
                (key, i)
            })
            .collect();
        order.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1))
        });
        let order: Vec<usize> = order.into_iter().map(|(_, i)| i).collect();
        apply_order(lp, &region, &order);
    }
    model
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

    /// Two same-level constraints: `never` (kill prior ~0) is declared
    /// before `always` (kill prior 1); the static schedule must swap them.
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
    fn static_schedule_puts_deadly_checks_first() {
        let mut lp = lower(&swap_space());
        assert_eq!(check_names(&lp), ["never", "always"]);
        let model = static_schedule(&mut lp);
        assert_eq!(check_names(&lp), ["always", "never"]);
        let never = model.scores[0].unwrap();
        let always = model.scores[1].unwrap();
        assert!(never.kill_prior < 0.05, "ab <= 100 can never exceed 1000");
        assert!((always.kill_prior - 1.0).abs() < 1e-9, "ab >= 0 always rejects");
        assert!(always.expected_cost_to_kill() < never.expected_cost_to_kill());
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
        let groups = check_groups(&lp);
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
        let groups = check_groups(&lp);
        assert_eq!(groups.len(), 1, "expected one group, got {groups:?}");
        assert_eq!(groups[0].len(), 3);
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
        for group in check_groups(&lp) {
            assert!(group.iter().all(|&i| i > first_bind));
        }
    }

    #[test]
    fn kill_priors_track_geometry() {
        // a in [1,10]: P(a > 8) = 2/10 discretely; the continuous
        // relaxation lands near it (a prior needs ranking power, not
        // calibration, so we only bracket it).
        let space = Space::builder("geom")
            .range("a", 1, 11)
            .range("b", 1, 11)
            .constraint("high", ConstraintClass::Soft, var("a").gt(8))
            .constraint("any", ConstraintClass::Soft, var("b").ge(1))
            .build()
            .unwrap();
        let model = CostModel::of(&lower(&space));
        let high = model.scores[0].unwrap();
        assert!(
            high.kill_prior > 0.1 && high.kill_prior < 0.45,
            "got {}",
            high.kill_prior
        );
        let any = model.scores[1].unwrap();
        assert!((any.kill_prior - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probability_helpers_are_sane() {
        let iv = |lo, hi| Interval { lo, hi };
        assert_eq!(p_less(iv(0, 4), iv(10, 20), 0), 1.0);
        assert_eq!(p_less(iv(10, 20), iv(0, 4), 0), 0.0);
        // Symmetric overlap: P(x < y) + P(y < x) + P(x == y) = 1.
        let (a, b) = (iv(0, 9), iv(0, 9));
        let total = p_less(a, b, 0) + p_less(b, a, 0) + p_eq(a, b);
        assert!((total - 1.0).abs() < 0.11, "got {total}");
        // Unknown-width operands stay uninformative.
        assert_eq!(p_less(Interval::TOP, Interval::TOP, 0), 0.5);
        assert_eq!(p_eq(Interval::TOP, iv(0, 1)), 0.5);
        assert_eq!(p_eq(iv(0, 4), iv(10, 12)), 0.0);
    }

    #[test]
    fn apply_order_permutes_and_ranks_follow() {
        let mut lp = lower(&swap_space());
        let regions = check_regions(&lp);
        assert_eq!(regions.len(), 1);
        let region = regions[0].clone();
        let reversed: Vec<usize> = region.checks.iter().rev().copied().collect();
        let before = check_ranks(&lp);
        apply_order(&mut lp, &region, &reversed);
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
        let regions = check_regions(&lp);
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
        let again = check_regions(&lp);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].checks.len(), 2);
    }
}
