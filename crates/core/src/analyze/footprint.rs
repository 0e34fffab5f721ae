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
//! Two consumers read the one table. [`super::count::Counter`] keys its memo
//! on the footprint values and collapses a level whose slot escapes the
//! footprint below it to one recursion × domain size. The compiled engine
//! asks [`replayable_loops`] for the same fact per loop and, where it holds,
//! evaluates the loop body once and *replays* its survivors for the
//! remaining values (`beast_engine`'s `replay` module).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::ir::{IntExpr, LBody, LIter, LStep, LoweredPlan};

/// Per step `i`: the sorted slots the plan suffix starting at step `i`
/// reads from outside it. A step's own reads happen before its write, so a
/// bind whose bounds read its own (stale) slot keeps that slot in its
/// footprint. Opaque steps contribute their declared dependencies (constant
/// dependencies vanish at lowering and carry no slot).
///
/// With `with_checks` off, check reads are left out: the footprint of the
/// *unconstrained* tuple space, in which checks never run.
pub fn suffix_footprints(lp: &LoweredPlan, with_checks: bool) -> Vec<Arc<[u32]>> {
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

/// Per loop of the plan (in bind order): may an engine evaluate the loop's
/// body once and replay the survivors for every other value?
///
/// Loop `l ≥ 1` qualifies when its slot escapes the footprint below its
/// bind — no later bind bound, define body or check body reads it — and no
/// later step is opaque: a closure reads through a by-name view of *every*
/// slot, which its declared dependencies do not bound. The outermost loop
/// never qualifies: the parallel driver deals it chunk by chunk, and replay
/// counters, like guards and narrowing, must not follow the chunk grid.
pub fn replayable_loops(lp: &LoweredPlan) -> Vec<bool> {
    let footprints = suffix_footprints(lp, true);
    // The plan is one nest: "nothing opaque below this bind" means the last
    // opaque step, if any, is the bind itself or above it.
    let last_opaque = lp.steps.iter().rposition(LStep::is_opaque);
    lp.steps
        .iter()
        .enumerate()
        .filter_map(|(i, step)| match step {
            LStep::Bind { slot, .. } => Some((i, *slot)),
            _ => None,
        })
        .enumerate()
        .map(|(l, (i, slot))| {
            // A `Visit` always follows the last bind, so `i + 1` exists.
            l > 0
                && last_opaque.is_none_or(|o| o <= i)
                && footprints[i + 1].binary_search(&slot).is_err()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn replayable_names(lp: &LoweredPlan) -> Vec<&str> {
        let names: Vec<&str> = lp
            .steps
            .iter()
            .filter_map(|s| match s {
                LStep::Bind { slot, .. } => Some(&*lp.slot_names[*slot as usize]),
                _ => None,
            })
            .collect();
        let table = replayable_loops(lp);
        assert_eq!(table.len(), lp.n_loops());
        names.into_iter().zip(table).filter_map(|(n, r)| r.then_some(n)).collect()
    }

    #[test]
    fn unread_inner_loops_replay_and_read_ones_do_not() {
        // `u` and `v` are read by nothing. `a` is loop 0; `b` is read by a
        // define and a bind bound; `c` only by a check.
        assert_eq!(replayable_names(&nest()), ["u", "v"]);

        // Read only by a later bind bound: not replayable. The innermost
        // loop's body is `Visit` alone: replayable.
        let lp = lowered_in(
            Space::builder("bound_only")
                .range("o", 0, 3)
                .range("n", 1, 4)
                .range("w", 0, var("n")),
            &["o", "n", "w"],
        );
        assert_eq!(replayable_names(&lp), ["w"]);

        // Loop 0 never qualifies, read or not.
        let lp = lowered_in(Space::builder("outer").range("o", 0, 3).range("p", 0, 3), &["o", "p"]);
        assert_eq!(replayable_names(&lp), ["p"]);
    }

    #[test]
    fn anything_opaque_below_a_loop_declines_it() {
        let base = || Space::builder("opq").range("o", 0, 3).range("u", 0, 2).range("x", 0, 4);
        // An opaque define, constraint or iterator below `u` — even one that
        // declares no dependency on `u` — could read it by name.
        let define = lowered_in(
            base().derived_fn("f", &["x"], |env| Ok(Value::Int(env.require_int("x")? + 1))),
            &["o", "u", "x"],
        );
        let check = lowered_in(
            base().constraint_fn("k", ConstraintClass::Soft, &["x"], |env| {
                Ok(env.require_int("x")? > 2)
            }),
            &["o", "u", "x"],
        );
        let iter = lowered_in(
            base().deferred_iter("z", &["x"], |env| {
                let x = env.require_int("x")?;
                Ok(crate::iterator::Realized::Range { start: 0, stop: x, step: 1 })
            }),
            &["o", "u", "x", "z"],
        );
        for lp in [&define, &check] {
            assert!(lp.has_opaque_steps());
            assert!(replayable_names(lp).is_empty(), "{:?}", lp.steps);
        }
        // An opaque domain is realized before its own loop's first value
        // runs, so `z` itself — innermost, read by nothing — still replays.
        assert_eq!(replayable_names(&iter), ["z"]);
        // The same opaque iterator *above* the unread loops does not: it
        // ran before they were entered. Its own loop is read by nothing
        // below it either.
        let above = lowered_in(
            Space::builder("opq_above")
                .range("o", 0, 3)
                .deferred_iter("z", &["o"], |env| {
                    let o = env.require_int("o")?;
                    Ok(crate::iterator::Realized::Range { start: 0, stop: o + 1, step: 1 })
                })
                .range("u", 0, 2)
                .range("x", 0, 4),
            &["o", "z", "u", "x"],
        );
        assert_eq!(replayable_names(&above), ["z", "u", "x"]);
    }
}
