//! Suffix footprints: which outer slots the rest of a plan reads.
//!
//! The plan is one loop nest, so everything after a step is that step's
//! subtree. Its *footprint* is the set of slots the subtree reads before
//! writing them — the only outer values its outcome can depend on:
//!
//! ```text
//! fp[i] = reads(step i) ∪ (fp[i + 1] \ writes(step i))
//! ```
//!
//! The level plan ([`super::levels`]) reads its unread, replayable and free
//! levels off the table, and [`super::count::Counter`] keys its memo on the
//! footprint values; `unique_key_levels` tells it where a key can never
//! repeat, so no memo is kept there.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::interval::{interval_of, Interval};
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};

use super::levels::LevelPlan;
use super::steps::AbsSteps;

/// Per step `i`: the sorted slots the plan suffix starting at step `i`
/// reads from outside it. A step's own reads happen before its write, so a
/// bind whose bounds read its own (stale) slot keeps that slot in its
/// footprint. Opaque steps contribute their declared dependencies (constant
/// dependencies vanish at lowering and carry no slot).
///
/// With `with_checks` off, check reads are left out: the footprint of the
/// *unconstrained* tuple space, in which checks never run.
pub(crate) fn suffix_footprints(lp: &LoweredPlan, with_checks: bool) -> Vec<Arc<[u32]>> {
    let space = lp.plan.space();
    let slot_of: HashMap<&str, u32> =
        lp.slot_names.iter().enumerate().map(|(i, n)| (&**n, i as u32)).collect();
    let mut fp: BTreeSet<u32> = BTreeSet::new();
    let mut deps = BTreeSet::new();
    let read_deps = |deps: &BTreeSet<Arc<str>>, fp: &mut BTreeSet<u32>| {
        fp.extend(deps.iter().filter_map(|n| slot_of.get(&**n)));
    };
    let read_expr = |e: &IntExpr, fp: &mut BTreeSet<u32>| {
        e.for_each_slot(&mut |s| {
            fp.insert(s);
        });
    };
    let mut footprints: Vec<Arc<[u32]>> = vec![Arc::from(&[] as &[u32]); lp.steps.len()];
    for (i, step) in lp.steps.iter().enumerate().rev() {
        match step {
            LStep::Bind { slot, domain, iter, .. } => {
                fp.remove(slot);
                match domain {
                    LIter::Range { start, stop, step } => {
                        for e in [start, stop, step] {
                            read_expr(e, &mut fp);
                        }
                    }
                    LIter::Values(_) => {}
                    LIter::Opaque { .. } => {
                        deps.clear();
                        space.iters()[*iter].kind.collect_deps(&mut deps);
                        read_deps(&deps, &mut fp);
                    }
                }
            }
            LStep::Define { slot, body, derived } => {
                fp.remove(slot);
                match body {
                    LBody::Expr(e) => read_expr(e, &mut fp),
                    LBody::Opaque => {
                        deps.clear();
                        space.deriveds()[*derived].kind.collect_deps(&mut deps);
                        read_deps(&deps, &mut fp);
                    }
                }
            }
            LStep::Check { .. } if !with_checks => {}
            LStep::Check { body, constraint } => match body {
                LBody::Expr(e) => read_expr(e, &mut fp),
                LBody::Opaque => {
                    deps.clear();
                    space.constraints()[*constraint].kind.collect_deps(&mut deps);
                    read_deps(&deps, &mut fp);
                }
            },
            LStep::Visit => {}
        }
        footprints[i] = fp.iter().copied().collect::<Vec<u32>>().into();
    }
    footprints
}

/// Per level of `levels` of a counter keyed on `footprints`: can no
/// two visits of the level present the same footprint key? Such a
/// *unique-key* level never hits its memo, so the counter keeps none.
///
/// `free` and `solved` mark the counter's free levels and the levels that
/// solve their opening check (a parent that solves its child has a solved
/// child); neither kind is a candidate. For a candidate `L`, walk up
/// through free levels to the nearest ancestor `P`:
///
/// * none — `L` is entered once per count: unique;
/// * `P` is solved — its entries are recomputed per visit: not unique;
/// * otherwise unique iff the values of `key(P)` and `slot(P)` are
///   recoverable from `key(L)`: every slot of `key(P) ∪ {slot(P)}` is in
///   the determined-slot closure of `key(L)` (`determined`), and none of
///   `key(P)` is written between `P`'s bind and `L`'s.
///
/// Why that suffices, by induction from the outermost level: `P`'s fill
/// runs once per distinct `key(P)` — memoised, or itself unique-key — and
/// enters `L` at most once per value of `P` (a free level recurses once per
/// visit), so `L` sees each `(key(P), value(P))` at most once, and that
/// pair is a function of `key(L)`. Plans whose slots are not written once,
/// each before its reads, keep every memo. The exact-division test reads
/// the per-slot hulls of the static walk over `abs`, `lp`'s step program.
pub(crate) fn unique_key_levels(
    lp: &LoweredPlan,
    abs: &AbsSteps,
    levels: &[LevelPlan],
    footprints: &[Arc<[u32]>],
    free: &[bool],
    solved: &[bool],
) -> Vec<bool> {
    if !single_assignment(lp) {
        return vec![false; levels.len()];
    }
    let ivs = abs.walk(false, |_, _, _| {}).iv;
    (0..levels.len())
        .map(|l| {
            if free[l] || solved[l] {
                return false;
            }
            let Some(p) = (0..l).rev().find(|&p| !free[p]) else { return true };
            if solved[p] {
                return false;
            }
            let (l_step, p_step, p_slot) = (levels[l].step, levels[p].step, levels[p].slot);
            let key_p = &footprints[p_step];
            let rewritten = lp.steps[p_step..l_step]
                .iter()
                .any(|s| s.written_slot().is_some_and(|w| key_p.binary_search(&w).is_ok()));
            let d = determined(lp, l_step, &footprints[l_step], &ivs);
            !rewritten && key_p.iter().chain([&p_slot]).all(|&s| d[s as usize])
        })
        .collect()
}

/// Every slot is written by at most one step, and every expression define
/// reads only slots written before it (or never): the shape under which a
/// define's relation holds at every later step.
fn single_assignment(lp: &LoweredPlan) -> bool {
    let n = lp.n_slots as usize;
    let mut writer = vec![None; n];
    for (i, s) in lp.steps.iter().enumerate() {
        if let Some(w) = s.written_slot() {
            if writer[w as usize].replace(i).is_some() {
                return false;
            }
        }
    }
    lp.steps.iter().enumerate().all(|(i, s)| match s {
        LStep::Define { body: LBody::Expr(e), .. } => {
            let mut ok = true;
            e.for_each_slot(&mut |r| ok &= writer[r as usize].is_none_or(|w| w < i));
            ok
        }
        _ => true,
    })
}

/// The determined-slot closure of `key` at step `upto`: the slots whose
/// values the key's values fix, through the expression defines written
/// before `upto`, iterated to a fixpoint. Forward, a define whose reads are
/// all determined determines its slot. Backward, a determined define
/// determines what [`invert`] can recover of its body.
fn determined(lp: &LoweredPlan, upto: usize, key: &[u32], ivs: &[Interval]) -> Vec<bool> {
    let mut d = vec![false; lp.n_slots as usize];
    for &s in key {
        d[s as usize] = true;
    }
    loop {
        let mut grew = false;
        for step in &lp.steps[..upto] {
            let LStep::Define { slot, body: LBody::Expr(e), .. } = step else { continue };
            let s = *slot as usize;
            if !d[s] && known(e, &d) {
                d[s] = true;
                grew = true;
            }
            if d[s] {
                grew |= invert(e, &mut d, ivs);
            }
        }
        if !grew {
            return d;
        }
    }
}

/// Every slot `e` reads is determined.
fn known(e: &IntExpr, d: &[bool]) -> bool {
    let mut ok = true;
    e.for_each_slot(&mut |s| ok &= d[s as usize]);
    ok
}

/// Given that `e`'s value is determined, determine what it pins down:
/// a bare slot; the operand of `-x`; the other operand of `a + b` and
/// `a − b` (wrapping, so bijective in each); and the other factor of
/// `a · b` when the known factor's interval excludes 0 and the product
/// cannot wrap, so the division is exact. Returns whether `d` grew.
fn invert(e: &IntExpr, d: &mut [bool], ivs: &[Interval]) -> bool {
    match e {
        IntExpr::Slot(s) => !std::mem::replace(&mut d[*s as usize], true),
        IntExpr::Neg(a) => invert(a, d, ivs),
        IntExpr::Bin(IntBinOp::Add | IntBinOp::Sub, a, b) => {
            if known(a, d) {
                invert(b, d, ivs)
            } else if known(b, d) {
                invert(a, d, ivs)
            } else {
                false
            }
        }
        IntExpr::Bin(IntBinOp::Mul, a, b) if !interval_of(e, ivs).widened => {
            let nonzero = |x: &IntExpr| !interval_of(x, ivs).iv.contains(0);
            if known(a, d) && nonzero(a) {
                invert(b, d, ivs)
            } else if known(b, d) && nonzero(b) {
                invert(a, d, ivs)
            } else {
                false
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::levels::{levels, LevelTable};
    use crate::constraint::ConstraintClass;
    use crate::expr::var;
    use crate::plan::{LoopOrder, Plan, PlanOptions};
    use crate::space::{Space, SpaceBuilder};
    use crate::value::Value;

    fn lowered_in(b: SpaceBuilder, order: &[&str]) -> LoweredPlan {
        let space = b.build().unwrap();
        let order = LoopOrder::Explicit(order.iter().map(|s| s.to_string()).collect());
        let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// Footprints by the definition, computed forwards per suffix: a slot is
    /// in `fp[i]` iff some step `j ≥ i` reads it with no write in `i..j`.
    fn by_definition(lp: &LoweredPlan, with_checks: bool) -> Vec<Vec<u32>> {
        (0..lp.steps.len())
            .map(|i| {
                let mut written = BTreeSet::new();
                let mut fp = BTreeSet::new();
                for step in &lp.steps[i..] {
                    let mut read = |s: u32| {
                        if !written.contains(&s) {
                            fp.insert(s);
                        }
                    };
                    match step {
                        LStep::Bind { slot, domain, .. } => {
                            if let LIter::Range { start, stop, step } = domain {
                                for e in [start, stop, step] {
                                    e.for_each_slot(&mut read);
                                }
                            }
                            written.insert(*slot);
                        }
                        LStep::Define { slot, body: LBody::Expr(e), .. } => {
                            e.for_each_slot(&mut read);
                            written.insert(*slot);
                        }
                        LStep::Check { body: LBody::Expr(e), .. } if with_checks => {
                            e.for_each_slot(&mut read);
                        }
                        _ => {}
                    }
                }
                fp.into_iter().collect()
            })
            .collect()
    }

    fn nest() -> LoweredPlan {
        // a { u { b(a) { d = a + b; check d; v { c(b) { check c, a } } } } }
        lowered_in(
            Space::builder("fp")
                .range("a", 1, 5)
                .range("u", 0, 3)
                .range("b", var("a"), 9)
                .derived("d", var("a") + var("b"))
                .constraint("dd", ConstraintClass::Hard, var("d").gt(9))
                .range("v", 0, 2)
                .range("c", 0, var("b"))
                .constraint("ca", ConstraintClass::Soft, (var("c") % 2).eq(var("a") % 2)),
            &["a", "u", "b", "v", "c"],
        )
    }

    #[test]
    fn footprints_match_the_definition_with_and_without_checks() {
        let lp = nest();
        for with_checks in [true, false] {
            let got: Vec<Vec<u32>> =
                suffix_footprints(&lp, with_checks).iter().map(|fp| fp.to_vec()).collect();
            assert_eq!(got, by_definition(&lp, with_checks), "with_checks = {with_checks}");
        }
        // Nothing is read from outside the whole plan, and the innermost
        // suffix (`Visit`) reads nothing at all.
        let fps = suffix_footprints(&lp, true);
        assert!(fps[0].is_empty() && fps[lp.steps.len() - 1].is_empty());
        // Dropping the checks drops `a` from below `c`'s bind but keeps `b`
        // (a bind bound) above it.
        let slot = |n: &str| lp.slot_names.iter().position(|s| &**s == n).unwrap() as u32;
        let c_bind = lp
            .steps
            .iter()
            .position(|s| matches!(s, LStep::Bind { slot: s, .. } if *s == slot("c")))
            .unwrap();
        assert_eq!(&*fps[c_bind], &[slot("a"), slot("b")]);
        assert_eq!(&*suffix_footprints(&lp, false)[c_bind], &[slot("b")]);
    }

    /// `a { b { t = f(a, b) [u = g(t, b)]; c(0 .. key) { check (c + b) % 2 } } }`
    /// with `c`'s bound reading `key` (`t` or `u`): `c`'s footprint key is
    /// `{b, key}`, its parent `b`'s is `{a}`. `c` is unique-key exactly
    /// when `a` is recoverable from `b` and the key.
    fn unique_with(defines: impl FnOnce(SpaceBuilder) -> SpaceBuilder, key: &str) -> Vec<bool> {
        unique_over(1, crate::expr::lit(9), defines, key)
    }

    fn unique_over(
        b_start: i64,
        a_stop: crate::expr::E,
        defines: impl FnOnce(SpaceBuilder) -> SpaceBuilder,
        key: &str,
    ) -> Vec<bool> {
        let space = Space::builder("uk").range("a", 1, a_stop).range("b", b_start, 4);
        let lp = lowered_in(
            defines(space)
                .range("c", 0, var(key))
                .constraint("cb", ConstraintClass::Soft, ((var("c") + var("b")) % 2).eq(0)),
            &["a", "b", "c"],
        );
        let table = levels(&lp);
        let none = vec![false; lp.n_loops()];
        unique_key_levels(&lp, &AbsSteps::new(&lp), &table.levels, &table.footprints, &none, &none)
    }

    #[test]
    fn unique_keys_invert_wrapping_sums_differences_and_negations() {
        let t = |e: crate::expr::E| move |b: SpaceBuilder| b.derived("t", e);
        for e in [var("a") + var("b"), var("b") - var("a"), -var("a") + 5, var("a") * 3] {
            // `a` is visited once; `b`'s key `{a}` is its parent's value.
            assert_eq!(unique_with(t(e.clone()), "t"), [true, true, true], "{e:?}");
        }
        // Forward then backward: `u` gives `t = u − b`, then `a = t / 3`.
        let chained = |b: SpaceBuilder| {
            b.derived("t", var("a") * 3).derived("u", var("t") + var("b"))
        };
        assert_eq!(unique_with(chained, "u"), [true, true, true]);
        // Nothing below `b` reads `a`: `b`'s empty key repeats for every
        // `a`, while `c`'s key `{b, t}` holds all of `b`'s.
        assert_eq!(unique_with(t(var("b") * 2), "t"), [true, false, true]);
    }

    #[test]
    fn unique_keys_invert_a_product_only_by_a_nonzero_factor_without_wrap() {
        let t = || |b: SpaceBuilder| b.derived("t", var("a") * var("b"));
        assert_eq!(unique_over(1, crate::expr::lit(9), t(), "t"), [true, true, true]);
        // `b` may be 0: `t = 0` forgets `a`.
        assert_eq!(unique_over(0, crate::expr::lit(9), t(), "t"), [true, true, false]);
        // `a · b` may wrap: the division is not exact.
        let huge = crate::expr::lit(i64::MAX);
        assert_eq!(unique_over(1, huge, t(), "t"), [true, true, false]);
    }

    #[test]
    fn unique_keys_never_invert_division_remainder_or_opaque_defines() {
        for e in [var("a") / var("b"), var("a") % var("b"), var("b") / var("a")] {
            let t = move |b: SpaceBuilder| b.derived("t", e.clone());
            assert_eq!(unique_with(t, "t"), [true, true, false]);
        }
        let opaque = |b: SpaceBuilder| {
            b.derived_fn("t", &["a", "b"], |env| {
                Ok(Value::Int(env.require_int("a")? + env.require_int("b")?))
            })
        };
        assert_eq!(unique_with(opaque, "t"), [true, true, false]);
    }

    /// Free levels are walked through; a solved parent or a solved or free
    /// candidate is never unique-key.
    #[test]
    fn unique_keys_look_through_free_levels_and_stop_at_solved_ones() {
        let lp = lowered_in(
            Space::builder("uk_free")
                .range("a", 1, 5)
                .range("u", 0, 2)
                .range("b", 0, var("a"))
                .constraint("ab", ConstraintClass::Soft, ((var("a") + var("b")) % 2).eq(0)),
            &["a", "u", "b"],
        );
        let LevelTable { levels, footprints: fps } = levels(&lp);
        let abs = AbsSteps::new(&lp);
        let unique = |free: &[bool], solved: &[bool]| {
            unique_key_levels(&lp, &abs, &levels, &fps, free, solved)
        };
        let (free, none) = (vec![false, true, false], vec![false; 3]);
        assert_eq!(unique(&free, &none), [true, false, true]);
        let solved_u = vec![false, true, false];
        assert_eq!(unique(&none, &solved_u), [true, false, false]);
        // Without the free level, `b`'s key `{a}` misses `u`'s value.
        assert_eq!(unique(&none, &none), [true, true, false]);
    }
}
