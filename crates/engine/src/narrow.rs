//! Loop narrowing, engine side: *solve* a loop instead of enumerating it.
//!
//! [`beast_core::analyze::narrow`] finds the loops whose first body op is a
//! reject-unless-equal check `a·x + k ≢ 0 (mod 2⁶⁴)` in the loop slot `x`.
//! For such a loop the compiled engine evaluates `a` and `k` once at loop
//! entry, and — when the solution can be decided without wrap-around —
//! computes the at most one value of the realized range that passes the
//! check, credits the check's [`PruneStats`] row in closed form, and runs
//! the rest of the body for that value alone. Anything it cannot prove
//! falls through to the enumerating path, which is always correct. The solve
//! arithmetic and its no-wrap proof obligation are
//! [`beast_core::analyze::narrow::solve_affine`], shared with the exact
//! counter.

use beast_core::analyze::narrow::{narrowable_loops, solve_affine, Solved};
use beast_core::ir::LoweredPlan;

use crate::postfix::Postfix;
use crate::stats::{BlockStats, PruneStats};

/// One narrowable loop of a compiled program (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct LoopSolve {
    /// Constraint index of the solved first check.
    constraint: u32,
    /// The check's bit in the block pruner's elision mask (0 when it has
    /// none): a check the guard elided is statically true over the subtree
    /// — nothing to solve — and is credited through the elision counters.
    elide_mask: u64,
    /// Multiplier of the loop slot, invariant for the duration of the loop.
    coeff: Postfix,
    /// Slot-independent remainder, likewise invariant.
    offset: Postfix,
}

/// The per-loop narrowing table of a plan in its final step order, indexed
/// by loop id. The outermost loop never narrows: the parallel driver feeds
/// it chunk by chunk, and the narrowing counters — like guards — must not
/// depend on the chunk grid.
pub(crate) fn build_table(lp: &LoweredPlan) -> Vec<Option<LoopSolve>> {
    narrowable_loops(lp)
        .into_iter()
        .enumerate()
        .map(|(l, n)| {
            let n = n.filter(|_| l > 0)?;
            Some(LoopSolve {
                constraint: n.constraint as u32,
                elide_mask: if n.constraint < 64 { 1u64 << n.constraint } else { 0 },
                coeff: Postfix::compile(&n.check.coeff),
                offset: Postfix::compile(&n.check.offset),
            })
        })
        .collect()
}

impl LoopSolve {
    /// Solve one entry of the loop over `range(start, …, step)` realized to
    /// `len ≥ 1` values. `None` — enumerate instead — when the first check
    /// is currently elided (`elide`), when `a` or `k` fails to evaluate
    /// (the enumerating path reproduces the error at the first point, with
    /// its fault handling), when `a = 0`, or when the no-wrap obligation
    /// cannot be discharged.
    #[inline]
    pub(crate) fn solve(
        &self,
        elide: u64,
        slots: &[i64],
        stack: &mut Vec<i64>,
        (start, step, len): (i64, i64, u64),
    ) -> Option<Solved> {
        if elide & self.elide_mask != 0 {
            return None;
        }
        let a = self.coeff.eval(slots, stack).ok()?;
        let k = self.offset.eval(slots, stack).ok()?;
        solve_affine(a, k, start, step, len)
    }

    /// Credit a solved entry exactly as `len` scalar evaluations of the
    /// check would have: all evaluated, all but the hit rejected.
    #[inline]
    pub(crate) fn credit(
        &self,
        stats: &mut PruneStats,
        blocks: &mut BlockStats,
        len: u64,
        solved: &Solved,
    ) {
        let c = self.constraint as usize;
        stats.evaluated[c] += len;
        stats.pruned[c] += len - u64::from(solved.hit.is_some());
        blocks.loops_solved += 1;
        blocks.points_solved += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_outermost_loop_never_narrows() {
        use beast_core::constraint::ConstraintClass;
        use beast_core::expr::var;
        use beast_core::plan::{Plan, PlanOptions};
        use beast_core::space::Space;
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
        let recognised: Vec<bool> = narrowable_loops(&lp).iter().map(Option::is_some).collect();
        assert_eq!(recognised, [true, true]);
        let table: Vec<bool> = build_table(&lp).iter().map(Option::is_some).collect();
        assert_eq!(table, [false, true]);
    }
}
