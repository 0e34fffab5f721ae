//! Loop narrowing, engine side: *solve* a loop instead of enumerating it.
//!
//! [`beast_core::analyze::narrow`] finds the loops whose first body op is a
//! reject-unless-equal check `a·x + k ≢ 0 (mod 2⁶⁴)` in the loop slot `x`.
//! For such a loop the compiled engine evaluates `a` and `k` once at loop
//! entry, and — when the solution can be decided without wrap-around —
//! computes the at most one value of the realized range that passes the
//! check, credits the check's [`PruneStats`] row in closed form, and runs
//! the rest of the body for that value alone. Anything it cannot prove
//! falls through to the enumerating path, which is always correct.
//!
//! # The no-wrap proof obligation
//!
//! The check compares in ring arithmetic; the solver divides in ℤ. The two
//! agree whenever `a·x + k`, computed exactly, stays inside `i64` for every
//! `x` of the realized range: a value in `[i64::MIN, i64::MAX]` is `≡ 0
//! (mod 2⁶⁴)` only if it *is* 0. The form is monotone in `x`, so checking
//! the two endpoints (in `i128`, where `|a·x + k| < 2¹²⁷` cannot overflow)
//! covers the range. A wrapped or wrapping candidate is never guessed at.

use beast_core::analyze::narrow::narrowable_loops;
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

/// What [`LoopSolve::solve`] proved about one loop entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Solved {
    /// The one value of the realized range that passes the check, if any.
    pub(crate) hit: Option<i64>,
    /// The last value of the realized range — what the loop slot holds
    /// once the enumerating loop has run dry.
    pub(crate) last: i64,
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

/// The solve arithmetic: which `x` of `start, start + step, …` (`len ≥ 1`
/// values, as realized by the engine's range semantics) satisfies
/// `a·x + k ≡ 0 (mod 2⁶⁴)`? `None` when that cannot be decided exactly.
pub(crate) fn solve_affine(a: i64, k: i64, start: i64, step: i64, len: u64) -> Option<Solved> {
    if a == 0 || step == 0 || len == 0 {
        return None;
    }
    let (a, k, first, step) = (a as i128, k as i128, start as i128, step as i128);
    // A realized range's last value lies strictly before its `i64` stop.
    let last = first + step * (len as i128 - 1);
    let in_i64 = |v: i128| (i64::MIN as i128..=i64::MAX as i128).contains(&v);
    if !in_i64(a * first + k) || !in_i64(a * last + k) {
        return None;
    }
    let on_range = |x: i128| {
        (first.min(last)..=first.max(last)).contains(&x) && (x - first) % step == 0
    };
    let hit = (k % a == 0).then(|| -k / a).filter(|&x| on_range(x));
    Some(Solved { hit: hit.map(|x| x as i64), last: last as i64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth by enumeration under the check's own (wrapping)
    /// semantics.
    fn brute(a: i64, k: i64, start: i64, step: i64, len: u64) -> Vec<i64> {
        (0..len as i128)
            .map(|i| (start as i128 + i * step as i128) as i64)
            .filter(|&x| a.wrapping_mul(x).wrapping_add(k) == 0)
            .collect()
    }

    fn hit(a: i64, k: i64, start: i64, step: i64, len: u64) -> Option<Option<i64>> {
        solve_affine(a, k, start, step, len).map(|s| s.hit)
    }

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

    #[test]
    fn finds_the_hit_at_either_end_in_the_middle_or_not_at_all() {
        // 3x - 12 = 0 over 1..=8.
        assert_eq!(hit(3, -12, 1, 1, 8), Some(Some(4)));
        // First and last value.
        assert_eq!(hit(1, -1, 1, 1, 8), Some(Some(1)));
        assert_eq!(hit(1, -8, 1, 1, 8), Some(Some(8)));
        // Just outside either end.
        assert_eq!(hit(1, 0, 1, 1, 8), Some(None));
        assert_eq!(hit(1, -9, 1, 1, 8), Some(None));
        // Not divisible.
        assert_eq!(hit(3, -13, 1, 1, 8), Some(None));
        // Off stride: 6 is inside [1, 9] but the range yields 1, 3, 5, 7, 9.
        assert_eq!(hit(1, -6, 1, 2, 5), Some(None));
        assert_eq!(hit(1, -7, 1, 2, 5), Some(Some(7)));
        // Negative step (8, 6, 4, 2) and negative coefficient.
        assert_eq!(hit(-2, 8, 8, -2, 4), Some(Some(4)));
        assert_eq!(hit(-2, 6, 8, -2, 4), Some(None));
        assert_eq!(solve_affine(1, 0, 8, -2, 4).unwrap().last, 2);
        // Singleton range.
        assert_eq!(hit(5, -35, 7, 3, 1), Some(Some(7)));
    }

    #[test]
    fn declines_what_it_cannot_prove() {
        // a = 0: the check does not depend on x.
        assert_eq!(solve_affine(0, 0, 1, 1, 8), None);
        assert_eq!(solve_affine(1, 0, 1, 1, 0), None);
        // a·last overflows.
        assert_eq!(solve_affine(i64::MAX, 0, 1, 1, 2), None);
        assert_eq!(solve_affine(i64::MIN, 0, -1, -1, 2), None);
        // a·x fits but adding k leaves i64.
        assert_eq!(solve_affine(1, i64::MAX, 1, 1, 4), None);
        assert_eq!(solve_affine(-1, i64::MIN, 1, 1, 4), None);
        // Extremes that do fit are solved: MIN·1 + 0, x ∈ {0, 1}.
        assert_eq!(hit(i64::MIN, 0, 0, 1, 2), Some(Some(0)));
        assert_eq!(hit(1, i64::MIN, 0, 1, 2), Some(None));
        assert_eq!(hit(-1, i64::MAX, i64::MAX - 1, 1, 2), Some(Some(i64::MAX)));
    }

    /// Whenever the solver answers, it answers what enumeration under
    /// wrapping arithmetic answers — including on wrap-adjacent inputs.
    #[test]
    fn agrees_with_enumeration_on_a_seeded_grid() {
        let interesting = [
            i64::MIN,
            i64::MIN + 1,
            -(1 << 62),
            -1000,
            -7,
            -3,
            -1,
            0,
            1,
            2,
            5,
            12,
            1 << 31,
            1 << 62,
            i64::MAX - 1,
            i64::MAX,
        ];
        let mut answered = 0u32;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |n: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % n
        };
        for _ in 0..20_000 {
            let a = interesting[pick(interesting.len())];
            let start: i64 = [-20, -3, 0, 1, 4, i64::MAX - 40, i64::MIN + 40][pick(7)];
            let step: i64 = [1, 2, 3, 7, -1, -2, -5][pick(7)];
            let len = 1 + pick(12) as u64;
            // Keep the realized range inside i64, as a real range is.
            if (start as i128 + step as i128 * (len as i128 - 1)) as i64 as i128
                != start as i128 + step as i128 * (len as i128 - 1)
            {
                continue;
            }
            // Half the time aim k at a value of the range so hits occur.
            let k = if pick(2) == 0 {
                let x = start.wrapping_add(step.wrapping_mul(pick(len as usize + 1) as i64));
                a.wrapping_mul(x).wrapping_neg()
            } else {
                interesting[pick(interesting.len())]
            };
            if let Some(s) = solve_affine(a, k, start, step, len) {
                answered += 1;
                let want = brute(a, k, start, step, len);
                assert_eq!(
                    s.hit.into_iter().collect::<Vec<_>>(),
                    want,
                    "a={a} k={k} start={start} step={step} len={len}"
                );
                assert_eq!(
                    s.last as i128,
                    start as i128 + step as i128 * (len as i128 - 1)
                );
            }
        }
        assert!(answered > 5_000, "grid too conservative: {answered}");
    }
}
