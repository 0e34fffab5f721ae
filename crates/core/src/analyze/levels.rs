//! The level plan: what every consumer needs to know about each loop level
//! of a lowered plan, derived in one pass.
//!
//! The compiled engine (narrowing and replay tables, guard placement,
//! points-skipped estimates), the exact counter (solved, child-solving,
//! free and uniform levels, memo keys) and the emitted C (`b_narrow`) all
//! read their per-level facts from one [`LevelPlan`] record per `Bind`
//! step, computed by [`levels`] over the plan in its final step order.
//! Each fact has one recogniser here; the shapes themselves live in
//! [`super::narrow`] and [`super::footprint`].
//!
//! Consumers add only the rules that belong to them: the engine and the
//! emitted C never narrow loop 0 (the parallel driver deals it chunk by
//! chunk, and counters must not follow the chunk grid), and a tuple-mode
//! counter, whose checks never run, solves nothing, frees nothing and reads
//! its uniform levels off check-free footprints.

use std::ops::Range;
use std::sync::Arc;

use crate::ir::{IntExpr, LBody, LIter, LStep, LoweredPlan};

use super::footprint::suffix_footprints;
use super::narrow::{affine_in, equality_check, Affine, ChildSolve, Narrowing};

/// One loop level of a lowered plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelPlan {
    /// Index of the level's `Bind` step.
    pub step: usize,
    /// The slot it binds.
    pub slot: u32,
    /// The level's run: its defines and checks, up to the next bind or the
    /// visit.
    pub run: Range<usize>,
    /// The level's domain is a lowered range and its run opens with a
    /// reject-unless-equal check affine in its slot, every other read of
    /// which is written before the bind, so `coeff` and `offset` are
    /// invariant over the loop. Loop 0 included. A check behind a define
    /// does not qualify: the engine would have to replay the define for
    /// every value it no longer visits.
    pub narrowing: Option<Narrowing>,
    /// The very next step binds a narrowing level whose coefficient is
    /// affine in this level's slot, and that level's offset and bounds are
    /// invariant over this level's values: this level can solve its child.
    pub child_solve: Option<ChildSolve>,
    /// No later step reads the slot: it is outside the checked suffix
    /// footprint at `step + 1`.
    pub unread_below: bool,
    /// The engine may evaluate the body once and replay its survivors for
    /// every other value: unread below, nothing opaque below (a closure
    /// reads through a by-name view of every slot, which its declared
    /// dependencies do not bound), and not loop 0 (the parallel driver
    /// deals it chunk by chunk, and replay counters must not follow the
    /// chunk grid).
    pub replayable: bool,
    /// A survivor-mode counter keeps no memo here: unread below, an empty
    /// run, and a range or static-list domain.
    pub free: bool,
    /// Points below one value of the level: the product of the statically
    /// known inner domain lengths, a dependent, opaque or zero-step domain
    /// counting as 1 (saturating).
    pub fanout_below: u64,
}

/// The level plan of a lowered plan, with the checked suffix footprints it
/// was read from.
#[derive(Debug, Clone)]
pub struct LevelTable {
    /// One record per `Bind` step, outermost first.
    pub levels: Vec<LevelPlan>,
    /// Per step: the sorted slots the suffix starting there reads from
    /// outside it, checks included (`footprint::suffix_footprints`).
    pub footprints: Vec<Arc<[u32]>>,
}

/// Derive the level plan of `lp` in one pass over its steps (plus one
/// backward pass for the fanouts).
pub fn levels(lp: &LoweredPlan) -> LevelTable {
    let footprints = suffix_footprints(lp, true);
    // The plan is one nest: "nothing opaque below this bind" means the last
    // opaque step, if any, is the bind itself or above it.
    let last_opaque = lp.steps.iter().rposition(LStep::is_opaque);
    // Per slot: the first step that writes it, so "written before step p"
    // is `first_write[r] < p`.
    let mut first_write = vec![usize::MAX; lp.n_slots as usize];
    let mut levels: Vec<LevelPlan> = Vec::new();
    for (i, step) in lp.steps.iter().enumerate() {
        if let LStep::Bind { slot, domain, .. } = step {
            let before = |e: &IntExpr, p: usize, except: Option<u32>| {
                let mut ok = true;
                e.for_each_slot(&mut |r| ok &= Some(r) == except || first_write[r as usize] < p);
                ok
            };
            let narrowing = match (domain, lp.steps.get(i + 1)) {
                (LIter::Range { .. }, Some(LStep::Check { constraint, body: LBody::Expr(e) })) => {
                    equality_check(e, *slot)
                        .filter(|_| before(e, i, Some(*slot)))
                        .map(|check| Narrowing { constraint: *constraint, check })
                }
                _ => None,
            };
            if let (Some(parent), Some(n), LIter::Range { start, stop, step }) =
                (levels.last_mut(), &narrowing, domain)
            {
                if parent.step + 1 == i {
                    parent.child_solve = child_solve(parent, n, [start, stop, step], &before);
                }
            }
            let len = lp.steps[i + 1..]
                .iter()
                .position(|s| matches!(s, LStep::Bind { .. } | LStep::Visit))
                .expect("a plan ends with its visit");
            // A `Visit` always follows the last bind, so `i + 1` exists.
            let unread_below = footprints[i + 1].binary_search(slot).is_err();
            levels.push(LevelPlan {
                step: i,
                slot: *slot,
                run: i + 1..i + 1 + len,
                narrowing,
                child_solve: None,
                unread_below,
                replayable: !levels.is_empty()
                    && unread_below
                    && last_opaque.is_none_or(|o| o <= i),
                free: unread_below && len == 0 && !domain.is_opaque(),
                fanout_below: 1,
            });
        }
        if let Some(w) = step.written_slot() {
            first_write[w as usize] = first_write[w as usize].min(i);
        }
    }
    let mut below = 1u64;
    for level in levels.iter_mut().rev() {
        level.fanout_below = below;
        let LStep::Bind { domain, .. } = &lp.steps[level.step] else { unreachable!("a bind") };
        below = below.saturating_mul(domain.static_len().unwrap_or(1));
    }
    LevelTable { levels, footprints }
}

/// The [`ChildSolve`] of `parent` over the child narrowing `n` with range
/// bounds `bounds`: the child's coefficient is `c · x + d` in the parent's
/// slot `x` and actually reads it, and `c`, `d`, the child's offset and its
/// bounds read only slots written before the parent's bind.
fn child_solve(
    parent: &LevelPlan,
    n: &Narrowing,
    bounds: [&IntExpr; 3],
    before: &impl Fn(&IntExpr, usize, Option<u32>) -> bool,
) -> Option<ChildSolve> {
    let Affine { coeff: Some(c), offset } = affine_in(&n.check.coeff, parent.slot)? else {
        return None;
    };
    let d = offset.unwrap_or(IntExpr::Const(0));
    let invariant =
        [&c, &d, &n.check.offset].into_iter().chain(bounds).all(|e| before(e, parent.step, None));
    invariant.then_some(ChildSolve { c, d })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::{lit, var, E};
    use crate::plan::{LoopOrder, Plan, PlanOptions};
    use crate::space::{Space, SpaceBuilder};
    use crate::value::Value;

    fn lowered(space: &Arc<Space>) -> LoweredPlan {
        LoweredPlan::new(&Plan::new(space, PlanOptions::default()).unwrap()).unwrap()
    }

    fn lowered_in(b: SpaceBuilder, order: &[&str]) -> LoweredPlan {
        let space = b.build().unwrap();
        let order = LoopOrder::Explicit(order.iter().map(|s| s.to_string()).collect());
        let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// The names of the levels `field` marks, in nest order.
    fn marked(lp: &LoweredPlan, field: impl Fn(&LevelPlan) -> bool) -> Vec<&str> {
        let table = levels(lp);
        assert_eq!(table.levels.len(), lp.n_loops());
        table
            .levels
            .iter()
            .filter(|l| field(l))
            .map(|l| &*lp.slot_names[l.slot as usize])
            .collect()
    }

    fn slot(lp: &LoweredPlan, name: &str) -> u32 {
        lp.slot_names.iter().position(|n| &**n == name).unwrap() as u32
    }

    /// `a { u { b(a) { d = a + b; check d; v { c(b) { check c, a } } } } }`
    fn nest() -> LoweredPlan {
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
    fn steps_slots_and_runs_follow_the_nest() {
        let lp = nest();
        let table = levels(&lp);
        let binds: Vec<(usize, u32)> = lp
            .steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                LStep::Bind { slot, .. } => Some((i, *slot)),
                _ => None,
            })
            .collect();
        let got: Vec<(usize, u32)> = table.levels.iter().map(|l| (l.step, l.slot)).collect();
        assert_eq!(got, binds);
        // `b` runs its define and check; `a`, `u` and `v` bind straight on;
        // `c`'s run is its check, up to the visit.
        let runs: Vec<usize> = table.levels.iter().map(|l| l.run.len()).collect();
        assert_eq!(runs, [0, 0, 2, 0, 1], "{:?}", lp.steps);
        for l in &table.levels {
            assert!(lp.steps[l.run.clone()]
                .iter()
                .all(|s| matches!(s, LStep::Define { .. } | LStep::Check { .. })));
            assert!(matches!(lp.steps[l.run.end], LStep::Bind { .. } | LStep::Visit));
        }
        assert_eq!(table.footprints.len(), lp.steps.len());
    }

    #[test]
    fn narrowing_requires_a_range_whose_body_opens_with_the_check() {
        // y's loop opens with `x * y != t`; z's loop computes a define
        // first, so its equality check must not narrow; w iterates a list.
        let space = Space::builder("narrow")
            .range("x", 1, 9)
            .range("y", 1, 9)
            .range("z", 1, 9)
            .list("w", [1i64, 2, 3])
            .constant("t", 12)
            .derived("zz", var("z") + var("y"))
            .constraint("xy", ConstraintClass::Hard, (var("x") * var("y")).ne(var("t")))
            .constraint("zzt", ConstraintClass::Hard, (var("zz") * lit(2)).ne(var("t")))
            .constraint("wx", ConstraintClass::Hard, var("w").ne(var("x")))
            .build()
            .unwrap();
        let lp = lowered(&space);
        let names: Vec<Option<&str>> = levels(&lp)
            .levels
            .iter()
            .map(|l| {
                let n = l.narrowing.as_ref()?;
                Some(&*lp.plan.space().constraints()[n.constraint].name)
            })
            .collect();
        assert_eq!(names, [None, Some("xy"), None, None], "{:?}", lp.steps);

        // The same check behind a define no longer opens the body.
        let mut behind = lp.clone();
        let bind_y = behind
            .steps
            .iter()
            .position(|s| matches!(s, LStep::Bind { depth: 1, .. }))
            .unwrap();
        let define = behind
            .steps
            .iter()
            .find(|s| matches!(s, LStep::Define { .. }))
            .cloned()
            .unwrap();
        behind.steps.insert(bind_y + 1, define);
        assert!(levels(&behind).levels.iter().all(|l| l.narrowing.is_none()));

        // Loop 0 is recognised too: the counter solves it, and only the
        // engine and the emitted C leave it to the chunk grid.
        let space = Space::builder("narrow_outer")
            .range("x", 1, 9)
            .constraint("x4", ConstraintClass::Hard, var("x").ne(4))
            .range("y", 1, var("x") + 9)
            .constraint("yx", ConstraintClass::Hard, (var("y") * 2).ne(var("x") + 2))
            .build()
            .unwrap();
        let lp = lowered(&space);
        assert_eq!(marked(&lp, |l| l.narrowing.is_some()), ["x", "y"]);
    }

    /// The child solves of the nest `o`, `m`, `n` whose first check on `n`
    /// is `check`, with `n` ranging over `1..stop`.
    fn child_solves_of(check: E, stop: E) -> Vec<Option<ChildSolve>> {
        let space = Space::builder("child")
            .constant("t", 12)
            .range("o", 1, 4)
            .range("m", 1, 9)
            .range("n", 1, stop)
            .constraint("mn", ConstraintClass::Hard, check)
            .build()
            .unwrap();
        levels(&lowered(&space)).levels.into_iter().map(|l| l.child_solve).collect()
    }

    fn all_child_solves_refused(lp: &LoweredPlan) -> bool {
        levels(lp).levels.iter().all(|l| l.child_solve.is_none())
    }

    #[test]
    fn child_solves_recognise_a_coefficient_affine_in_the_parent() {
        // m·n != t: the coefficient is m itself, c = 1 and d = 0.
        let solves = child_solves_of((var("m") * var("n")).ne(var("t")), lit(9));
        let c = |k: i64| IntExpr::Const(k);
        assert_eq!(solves, [None, Some(ChildSolve { c: c(1), d: c(0) }), None]);
        // (o + 2·m)·n != t - o: d and the offset read only the grandparent.
        let e = ((var("o") + var("m") * 2) * var("n")).ne(var("t") - var("o"));
        let space = Space::builder("child_o")
            .constant("t", 12)
            .range("o", 1, 4)
            .range("m", 1, 9)
            .range("n", var("o"), 9)
            .constraint("mn", ConstraintClass::Hard, e)
            .build()
            .unwrap();
        let lp = lowered(&space);
        let table = levels(&lp).levels;
        let solve = table[1].child_solve.clone().expect("recognised");
        // c·m + d is the child's coefficient, in wrapping arithmetic, at
        // every m the probe reaches.
        let coeff = &table[2].narrowing.as_ref().unwrap().check.coeff;
        let (o, m) = (slot(&lp, "o") as usize, slot(&lp, "m") as usize);
        let mut slots = vec![0i64; lp.n_slots as usize];
        for (ov, mv) in [(1, 1), (3, -7), (2, i64::MAX), (1, i64::MIN)] {
            slots[o] = ov;
            slots[m] = mv;
            let (cv, dv) = (solve.c.eval(&slots).unwrap(), solve.d.eval(&slots).unwrap());
            assert_eq!(cv.wrapping_mul(mv).wrapping_add(dv), coeff.eval(&slots).unwrap());
        }
    }

    #[test]
    fn child_solves_refuse_what_one_entry_evaluation_cannot_serve() {
        // n's bounds read m.
        let solves = child_solves_of((var("m") * var("n")).ne(var("t")), var("m") + 1);
        assert_eq!(solves[1], None);
        // The offset reads m.
        let solves = child_solves_of((var("m") * var("n")).ne(var("m") + 12), lit(9));
        assert_eq!(solves[1], None);
        // The coefficient does not read m.
        let solves = child_solves_of((var("n") * 3).ne(var("t")), lit(9));
        assert_eq!(solves[1], None);
        // m only reaches the coefficient through `m * m`.
        let solves = child_solves_of((var("m") * var("m") * var("n")).ne(var("t")), lit(9));
        assert_eq!(solves[1], None);

        // A define between the two binds.
        let space = Space::builder("child_define")
            .constant("t", 12)
            .range("m", 1, 9)
            .range("n", 1, 9)
            .derived("mm", var("m") * 2)
            .constraint("mn", ConstraintClass::Hard, (var("mm") * var("n")).ne(var("t")))
            .build()
            .unwrap();
        let lp = lowered(&space);
        assert!(matches!(lp.steps[1], LStep::Define { .. }), "{:?}", lp.steps);
        assert!(all_child_solves_refused(&lp));
        // A recognised pair with a define spliced in between is refused.
        let space = Space::builder("child_splice")
            .constant("t", 12)
            .range("m", 1, 9)
            .range("n", 1, 9)
            .derived("nn", var("n") + 1)
            .constraint("mn", ConstraintClass::Hard, (var("m") * var("n")).ne(var("t")))
            .constraint("nn_big", ConstraintClass::Hard, var("nn").gt(5))
            .build()
            .unwrap();
        let mut lp = lowered(&space);
        assert!(levels(&lp).levels[0].child_solve.is_some(), "{:?}", lp.steps);
        let define = lp.steps.iter().find(|s| matches!(s, LStep::Define { .. })).cloned();
        lp.steps.insert(1, define.unwrap());
        assert!(all_child_solves_refused(&lp));
    }

    #[test]
    fn unread_below_sees_binds_defines_and_checks() {
        // `u` and `v` are read by nothing; `a` by a define and a check, `b`
        // by a define and a bind bound, `c` by a check alone.
        assert_eq!(marked(&nest(), |l| l.unread_below), ["u", "v"]);
        // The innermost loop, whose body is the visit alone, is unread.
        let lp = lowered_in(
            Space::builder("bound_only")
                .range("o", 0, 3)
                .range("n", 1, 4)
                .range("w", 0, var("n")),
            &["o", "n", "w"],
        );
        assert_eq!(marked(&lp, |l| l.unread_below), ["o", "w"]);
    }

    #[test]
    fn unread_inner_loops_replay_and_read_ones_do_not() {
        assert_eq!(marked(&nest(), |l| l.replayable), ["u", "v"]);

        // Read only by a later bind bound: not replayable. The innermost
        // loop's body is `Visit` alone: replayable.
        let lp = lowered_in(
            Space::builder("bound_only")
                .range("o", 0, 3)
                .range("n", 1, 4)
                .range("w", 0, var("n")),
            &["o", "n", "w"],
        );
        assert_eq!(marked(&lp, |l| l.replayable), ["w"]);

        // Loop 0 never qualifies, read or not.
        let lp = lowered_in(Space::builder("outer").range("o", 0, 3).range("p", 0, 3), &["o", "p"]);
        assert_eq!(marked(&lp, |l| l.replayable), ["p"]);
    }

    #[test]
    fn anything_opaque_below_a_loop_declines_replay() {
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
            assert!(marked(lp, |l| l.replayable).is_empty(), "{:?}", lp.steps);
        }
        // An opaque domain is realized before its own loop's first value
        // runs, so `z` itself — innermost, read by nothing — still replays.
        assert_eq!(marked(&iter, |l| l.replayable), ["z"]);
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
        assert_eq!(marked(&above, |l| l.replayable), ["z", "u", "x"]);
    }

    #[test]
    fn free_levels_are_unread_with_an_empty_run_over_a_static_domain() {
        // `u` and `v`: unread, bound straight on, over ranges.
        assert_eq!(marked(&nest(), |l| l.free), ["u", "v"]);
        let lp = lowered_in(
            Space::builder("free")
                .range("o", 0, 3)
                .list("u", [4i64, 5])
                .deferred_iter("z", &["o"], |env| {
                    let o = env.require_int("o")?;
                    Ok(crate::iterator::Realized::Range { start: 0, stop: o + 1, step: 1 })
                }),
            &["o", "u", "z"],
        );
        // `z` is unread but opaque: not free.
        assert_eq!(marked(&lp, |l| l.unread_below), ["u", "z"]);
        assert_eq!(marked(&lp, |l| l.free), ["u"]);
        // A step spliced into `u`'s run (one that does not read `u`) makes
        // it unread but not free.
        let mut nest = nest();
        let u = levels(&nest).levels[1].step;
        let check = nest.steps.iter().find(|s| matches!(s, LStep::Check { .. })).cloned();
        nest.steps.insert(u + 1, check.unwrap());
        assert_eq!(marked(&nest, |l| l.unread_below), ["u", "v"]);
        assert_eq!(marked(&nest, |l| l.free), ["v"]);
    }

    #[test]
    fn fanout_below_multiplies_the_static_inner_lengths() {
        let fanouts = |lp: &LoweredPlan| -> Vec<u64> {
            levels(lp).levels.iter().map(|l| l.fanout_below).collect()
        };
        // 4 values of b × 3 of c below each a; a dependent domain counts 1.
        let lp = lowered_in(
            Space::builder("fanout")
                .range("a", 0, 10)
                .range("b", 0, 4)
                .list("c", [1i64, 2, 3])
                .range("d", 0, var("a")),
            &["a", "b", "c", "d"],
        );
        assert_eq!(fanouts(&lp), [12, 3, 1, 1]);
        // Lengths are exact past `i64`: a span of `i64::MAX + 2`, and one
        // value under a stride of `i64::MIN`.
        let lp = lowered_in(
            Space::builder("wide")
                .range("a", 0, 2)
                .range_step("c", 0, -10, i64::MIN)
                .range("b", -2, i64::MAX),
            &["a", "c", "b"],
        );
        assert_eq!(fanouts(&lp), [i64::MAX as u64 + 2, i64::MAX as u64 + 2, 1]);
        // The product saturates.
        let lp = lowered_in(
            Space::builder("huge").range("a", 0, 2).range("b", 0, 3).range("c", i64::MIN, i64::MAX),
            &["a", "b", "c"],
        );
        assert_eq!(fanouts(&lp), [u64::MAX, u64::MAX, 1]);
    }
}
