//! Loop narrowing: recognise loops whose first body step is a
//! *reject-unless-equal* check that is affine in the loop variable.
//!
//! The paper hoists every constraint to the earliest loop level but still
//! enumerates that level. A check of the shape `A·x + C != B` (`x` the loop
//! variable; `A`, `B`, `C` fixed for the duration of the loop) passes for at
//! most one `x`, so an engine can *solve* for that value instead of testing
//! every one — the domain-pruning move of Willemsen & van Nieuwpoort's
//! search-space construction. GEMM's reshape constraints
//! (`dim_m_a * dim_n_a != threads_per_block`) are the motivating case.
//!
//! Everything here is a pure function of the lowered plan. Lowered
//! arithmetic wraps, i.e. it is ring arithmetic modulo 2⁶⁴, and in a ring
//! affine forms compose exactly: [`affine_in`] rewrites an expression as
//! `coeff · slot + offset` (mod 2⁶⁴) with loop-invariant `coeff`/`offset`
//! sub-expressions, and [`equality_check`] normalises both sides of a
//! `!=` / `!(… == …)` predicate into one such form compared against zero.
//! Whether the congruence has a solution in a *realized* range — and
//! whether it can be decided without wrap-around — is a run-time question
//! answered by the engine (`beast_engine::narrow`).

use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};

/// `coeff · slot + offset` under wrapping (mod 2⁶⁴) arithmetic. `None`
/// stands for a literal zero, so the common shapes carry no synthetic
/// `0 + …` / `1 * …` nodes. Neither part reads the slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Multiplier of the slot (`None` = the expression does not read it).
    pub coeff: Option<IntExpr>,
    /// Slot-independent addend.
    pub offset: Option<IntExpr>,
}

/// A reject-unless-equal predicate in normal form: the check rejects iff
/// `coeff · slot + offset ≢ 0 (mod 2⁶⁴)`. Neither expression reads the slot,
/// and every slot-free operand of the original predicate is evaluated by at
/// least one of them — so when both evaluate without error, the original
/// predicate evaluates without error for every value of the slot.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualityCheck {
    /// Multiplier of the loop slot.
    pub coeff: IntExpr,
    /// Slot-independent remainder (right-hand side moved over).
    pub offset: IntExpr,
}

/// A loop that can be narrowed: its first body step is constraint
/// `constraint`, an [`EqualityCheck`] in the loop's own slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Narrowing {
    /// Constraint index of the solved check (its `PruneStats` row).
    pub constraint: usize,
    /// The check in normal form.
    pub check: EqualityCheck,
}

fn bin(op: IntBinOp, a: IntExpr, b: IntExpr) -> IntExpr {
    IntExpr::Bin(op, Box::new(a), Box::new(b))
}

/// `a ± b` over zero-as-`None` operands.
fn combine(op: IntBinOp, a: Option<IntExpr>, b: Option<IntExpr>) -> Option<IntExpr> {
    match (a, b) {
        (a, None) => a,
        (None, Some(b)) if op == IntBinOp::Sub => Some(IntExpr::Neg(Box::new(b))),
        (None, b) => b,
        (Some(a), Some(b)) => Some(bin(op, a, b)),
    }
}

/// `a · k` for a slot-free factor `k`, dropping a literal-one multiplicand.
fn scale(a: Option<IntExpr>, k: &IntExpr) -> Option<IntExpr> {
    a.map(|a| match a {
        IntExpr::Const(1) => k.clone(),
        a => bin(IntBinOp::Mul, a, k.clone()),
    })
}

/// Decompose `e` as an affine form in `slot`, or `None` when `e` reads the
/// slot through anything but `+`, `-`, unary `-` and multiplication by a
/// slot-free factor. A slot-free `e` is returned whole as the offset.
pub fn affine_in(e: &IntExpr, slot: u32) -> Option<Affine> {
    let whole = || Affine { coeff: None, offset: Some(e.clone()) };
    Some(match e {
        IntExpr::Slot(s) if *s == slot => {
            Affine { coeff: Some(IntExpr::Const(1)), offset: None }
        }
        IntExpr::Neg(a) => match affine_in(a, slot)? {
            Affine { coeff: None, .. } => whole(),
            a => Affine {
                coeff: combine(IntBinOp::Sub, None, a.coeff),
                offset: combine(IntBinOp::Sub, None, a.offset),
            },
        },
        IntExpr::Bin(op @ (IntBinOp::Add | IntBinOp::Sub), l, r) => {
            match (affine_in(l, slot)?, affine_in(r, slot)?) {
                (Affine { coeff: None, .. }, Affine { coeff: None, .. }) => whole(),
                (l, r) => Affine {
                    coeff: combine(*op, l.coeff, r.coeff),
                    offset: combine(*op, l.offset, r.offset),
                },
            }
        }
        IntExpr::Bin(IntBinOp::Mul, l, r) => {
            match (affine_in(l, slot)?, affine_in(r, slot)?) {
                (Affine { coeff: None, .. }, Affine { coeff: None, .. }) => whole(),
                (v, Affine { coeff: None, .. }) => {
                    Affine { coeff: scale(v.coeff, r), offset: scale(v.offset, r) }
                }
                (Affine { coeff: None, .. }, v) => {
                    Affine { coeff: scale(v.coeff, l), offset: scale(v.offset, l) }
                }
                // slot × slot: quadratic.
                _ => return None,
            }
        }
        _ => {
            let mut reads_slot = false;
            e.for_each_slot(&mut |s| reads_slot |= s == slot);
            if reads_slot {
                return None;
            }
            whole()
        }
    })
}

/// Recognise a reject-unless-equal predicate in `slot`: `l != r` or
/// `!(l == r)` with both sides affine in the slot and the slot actually
/// read. (`true` means *reject*, so such a check passes for at most one
/// slot value per setting of the other slots.)
pub fn equality_check(e: &IntExpr, slot: u32) -> Option<EqualityCheck> {
    let (l, r) = match e {
        IntExpr::Bin(IntBinOp::Ne, l, r) => (l, r),
        IntExpr::Not(inner) => match &**inner {
            IntExpr::Bin(IntBinOp::Eq, l, r) => (l, r),
            _ => return None,
        },
        _ => return None,
    };
    let (l, r) = (affine_in(l, slot)?, affine_in(r, slot)?);
    Some(EqualityCheck {
        coeff: combine(IntBinOp::Sub, l.coeff, r.coeff)?,
        offset: combine(IntBinOp::Sub, l.offset, r.offset).unwrap_or(IntExpr::Const(0)),
    })
}

/// Per loop of the plan (in bind order): the narrowing it admits, if any.
///
/// A loop qualifies when its domain is a lowered range, the step right
/// after its bind is an expression check, that check is an
/// [`equality_check`] in the loop's slot, and every other slot the check
/// reads is written before the bind — so `coeff` and `offset` are
/// invariant for the duration of the loop. A check preceded by a define
/// (or anything else) does not qualify: the engine would have to replay
/// that step for every value it no longer enumerates.
pub fn narrowable_loops(lp: &LoweredPlan) -> Vec<Option<Narrowing>> {
    let mut written = vec![false; lp.n_slots as usize];
    let mut out = Vec::new();
    for (i, step) in lp.steps.iter().enumerate() {
        match step {
            LStep::Bind { slot, domain, .. } => {
                let narrowing = match (domain, lp.steps.get(i + 1)) {
                    (
                        LIter::Range { .. },
                        Some(LStep::Check { constraint, body: LBody::Expr(e) }),
                    ) => {
                        let mut invariant = true;
                        e.for_each_slot(&mut |r| invariant &= r == *slot || written[r as usize]);
                        equality_check(e, *slot)
                            .filter(|_| invariant)
                            .map(|check| Narrowing { constraint: *constraint, check })
                    }
                    _ => None,
                };
                out.push(narrowing);
                written[*slot as usize] = true;
            }
            LStep::Define { slot, .. } => written[*slot as usize] = true,
            LStep::Check { .. } | LStep::Visit => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::{lit, var};
    use crate::plan::{Plan, PlanOptions};
    use crate::space::Space;

    fn slot(s: u32) -> IntExpr {
        IntExpr::Slot(s)
    }
    fn c(k: i64) -> IntExpr {
        IntExpr::Const(k)
    }
    fn ne(a: IntExpr, b: IntExpr) -> IntExpr {
        bin(IntBinOp::Ne, a, b)
    }
    fn mul(a: IntExpr, b: IntExpr) -> IntExpr {
        bin(IntBinOp::Mul, a, b)
    }
    fn add(a: IntExpr, b: IntExpr) -> IntExpr {
        bin(IntBinOp::Add, a, b)
    }

    /// The normal form must agree with the predicate it was derived from,
    /// under wrapping arithmetic, for every probed slot value.
    fn assert_equivalent(e: &IntExpr, x_slot: u32, others: &[i64]) {
        let eq = equality_check(e, x_slot).expect("recognised");
        let mut slots = others.to_vec();
        for x in [i64::MIN, -7, -1, 0, 1, 2, 3, 6, 12, 1 << 40, i64::MAX] {
            slots[x_slot as usize] = x;
            let a = eq.coeff.eval(&slots).unwrap();
            let k = eq.offset.eval(&slots).unwrap();
            let normal = a.wrapping_mul(x).wrapping_add(k) != 0;
            assert_eq!(e.eval(&slots).unwrap() != 0, normal, "{e} at x = {x}");
        }
    }

    #[test]
    fn recognises_the_issue_shapes_and_their_spellings() {
        // x is slot 0; slots 1..=3 are loop-invariant.
        let others = [0, 3, 12, -5];
        let shapes = [
            ne(mul(slot(1), slot(0)), slot(2)),               // A*x != B
            ne(mul(slot(0), slot(1)), slot(2)),               // x*A != B
            ne(slot(2), mul(slot(0), slot(1))),               // B != x*A
            ne(slot(0), slot(2)),                             // x != B
            ne(add(slot(0), slot(3)), slot(2)),               // x + C != B
            ne(add(slot(3), slot(0)), slot(2)),               // C + x != B
            ne(add(mul(slot(1), slot(0)), slot(3)), slot(2)), // A*x + C != B
            ne(add(slot(3), mul(slot(0), slot(1))), slot(2)), // C + x*A != B
            IntExpr::Not(Box::new(bin(IntBinOp::Eq, mul(slot(1), slot(0)), slot(2)))),
            // Nested affine forms compose: (x - C) * A != -(B) + x.
            ne(
                mul(bin(IntBinOp::Sub, slot(0), slot(3)), slot(1)),
                add(IntExpr::Neg(Box::new(slot(2))), slot(0)),
            ),
            // Extreme constants stay exact in the ring.
            ne(mul(slot(0), c(i64::MIN)), c(i64::MAX)),
        ];
        for e in &shapes {
            assert_equivalent(e, 0, &others);
        }
        // The motivating shape keeps its operands unwrapped.
        let eq = equality_check(&shapes[0], 0).unwrap();
        assert_eq!(eq.coeff, slot(1));
        assert_eq!(eq.offset, IntExpr::Neg(Box::new(slot(2))));
        let eq = equality_check(&shapes[3], 0).unwrap();
        assert_eq!(eq.coeff, c(1));
    }

    #[test]
    fn rejects_everything_else() {
        let rem = bin(IntBinOp::Rem, slot(0), c(4));
        let rejected = [
            bin(IntBinOp::Eq, slot(0), slot(1)),       // rejects the one hit instead
            bin(IntBinOp::Lt, slot(0), slot(1)),       // not an equality
            ne(slot(1), slot(2)),                      // does not read x
            ne(mul(slot(0), slot(0)), slot(1)),        // quadratic
            ne(rem.clone(), c(0)),                     // x under %
            ne(mul(rem, slot(1)), slot(2)),            // x under % under *
            ne(bin(IntBinOp::Div, slot(0), c(2)), slot(1)),
            ne(IntExpr::Abs(Box::new(slot(0))), slot(1)),
            ne(
                IntExpr::Ternary(Box::new(slot(0)), Box::new(c(1)), Box::new(c(2))),
                slot(1),
            ),
            IntExpr::Not(Box::new(ne(slot(0), slot(1)))), // !(x != B) == (x == B)
            slot(0),
        ];
        for e in &rejected {
            assert_eq!(equality_check(e, 0), None, "{e}");
        }
        // x - x cancels syntactically only at run time: still recognised
        // (the engine sees coeff = 0 and enumerates).
        let e = ne(bin(IntBinOp::Sub, slot(0), slot(0)), slot(1));
        let eq = equality_check(&e, 0).unwrap();
        assert_eq!(eq.coeff.eval(&[9, 9]).unwrap(), 0);
    }

    #[test]
    fn a_slot_free_expression_is_its_own_offset() {
        let e = bin(IntBinOp::Div, slot(1), slot(2));
        assert_eq!(
            affine_in(&e, 0),
            Some(Affine { coeff: None, offset: Some(e.clone()) })
        );
        // …also below an affine operator, so a fallible operand is still
        // evaluated (and can still fail) through the normal form.
        let eq = equality_check(&ne(mul(slot(0), e.clone()), slot(3)), 0).unwrap();
        assert_eq!(eq.coeff, e);
        assert!(eq.coeff.eval(&[1, 1, 0, 0]).is_err());
    }

    fn lowered(space: &std::sync::Arc<Space>) -> LoweredPlan {
        LoweredPlan::new(&Plan::new(space, PlanOptions::default()).unwrap()).unwrap()
    }

    #[test]
    fn plan_level_recognition_requires_the_check_to_open_the_body() {
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
        let loops = narrowable_loops(&lp);
        assert_eq!(loops.len(), lp.n_loops());
        let names: Vec<Option<&str>> = loops
            .iter()
            .map(|n| {
                n.as_ref().map(|n| &*lp.plan.space().constraints()[n.constraint].name)
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
        assert!(narrowable_loops(&behind).iter().all(Option::is_none));
    }
}
