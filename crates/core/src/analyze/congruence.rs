//! The congruence (modular-arithmetic) abstract domain `x ≡ r (mod m)` and
//! its reduced product with the interval domain of [`crate::interval`].
//!
//! Intervals answer *magnitude* questions; they are blind to divisibility.
//! The GEMM space's correctness constraints are almost all divisibility
//! facts (`blk_m % (dim_m_a * dim_vec) == 0`, `(dim_m_a * dim_n_a) !=
//! threads_per_block`, …), and a stepped range like
//! `range(dim_m, 1025, dim_m)` carries an exact residue fact — every value
//! is `≡ 0 (mod dim_m)` — that the interval hull throws away. This domain
//! keeps it: an abstract value [`Congruence`] is either an exact point
//! (`m == 0`) or the arithmetic progression `{x : x ≡ r (mod m)}` with
//! `0 <= r < m`; `m == 1` is ⊤ (every integer).
//!
//! # Soundness under wrapping arithmetic
//!
//! The lowered IR evaluates with C semantics: `i64` wrapping add/sub/mul,
//! truncating division. Congruence transfer functions reason about the
//! *mathematical* value, which agrees with the wrapped value only while no
//! intermediate leaves the `i64` range. The interval analysis proves
//! exactly that: its [`IntervalOutcome::widened`] flag is set precisely
//! when a wrap is reachable. The reduced product therefore **drops the
//! congruence to ⊤ whenever the paired interval outcome is widened** — see
//! [`reduce`] — which makes every residue fact that survives a proof about
//! the runtime value. Point arithmetic (`m == 0`) instead mirrors the
//! evaluator's wrapping ops exactly, so points are always exact.

use crate::expr::Builtin;
use crate::interval::{Interval, IntervalOutcome, IvProg, IvScratch};
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep};

/// An element of the congruence domain: the set `{x : x ≡ r (mod m)}`.
///
/// Invariants: `m >= 0`; `m == 0` means the exact point `r` (any `i64`);
/// `m >= 1` means the full progression with `0 <= r < m`. `m == 1` is the
/// top element (all integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congruence {
    /// The modulus (`0` for an exact point, `1` for ⊤).
    pub m: i64,
    /// The representative: the exact value when `m == 0`, else the residue
    /// in `[0, m)`.
    pub r: i64,
}

/// `gcd` over `i128` magnitudes (total: `gcd(0, 0) == 0`). Operands that
/// fit a machine word — nearly all of them — stay off the 128-bit division
/// libcalls.
fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    // A point operand (modulus 0) makes most calls `gcd(0, x)`, and a ⊤
    // one (modulus 1) `gcd(1, x)`.
    if a == 0 || b == 0 {
        return (a | b) as i128;
    }
    if a == 1 || b == 1 {
        return 1;
    }
    if let (Ok(mut x), Ok(mut y)) = (u64::try_from(a), u64::try_from(b)) {
        while y != 0 {
            (x, y) = (y, x % y);
        }
        return i128::from(x);
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a as i128
}

/// Build `(m, r mod m)` from `i128` parts, giving up (⊤) when the modulus
/// does not fit `i64`.
fn make(m: i128, r: i128) -> Congruence {
    debug_assert!(m >= 1);
    if m == 1 || m > i64::MAX as i128 {
        return Congruence::top();
    }
    let r = match i64::try_from(r) {
        Ok(r) if (0..m as i64).contains(&r) => r,
        Ok(r) => r.rem_euclid(m as i64),
        Err(_) => r.rem_euclid(m) as i64,
    };
    Congruence { m: m as i64, r }
}

impl Congruence {
    /// The top element: every integer (`x ≡ 0 (mod 1)`).
    pub fn top() -> Congruence {
        Congruence { m: 1, r: 0 }
    }

    /// An exact point.
    pub fn point(v: i64) -> Congruence {
        Congruence { m: 0, r: v }
    }

    /// Is this the top element?
    pub fn is_top(&self) -> bool {
        self.m == 1
    }

    /// The exact value, when this is a point.
    pub fn as_point(&self) -> Option<i64> {
        (self.m == 0).then_some(self.r)
    }

    /// Does the progression contain `v`?
    pub fn contains(&self, v: i64) -> bool {
        if self.m == 0 {
            v == self.r
        } else {
            (v as i128 - self.r as i128).rem_euclid(self.m as i128) == 0
        }
    }

    /// Every member is provably nonzero: a nonzero point, or a progression
    /// whose residue is nonzero (`0 < r < m` excludes all multiples of
    /// `m`, in particular 0).
    pub fn always_nonzero(&self) -> bool {
        self.r != 0
    }

    /// The content `gcd(m, |r|)`: every member is a multiple of it.
    fn content(&self) -> i128 {
        gcd_i128(self.m as i128, self.r as i128)
    }

    /// Least upper bound: the smallest progression containing both.
    pub fn join(self, other: Congruence) -> Congruence {
        let diff = self.r as i128 - other.r as i128;
        let g = gcd_i128(gcd_i128(self.m as i128, other.m as i128), diff);
        if g == 0 {
            // Both are the same point.
            self
        } else {
            make(g, self.r as i128)
        }
    }

    /// Can the two abstract values provably never be equal? True when the
    /// residues differ modulo `gcd` of the moduli (for points, modulo the
    /// other's modulus; for two points, plain disequality).
    pub fn never_equal(self, other: Congruence) -> bool {
        let g = gcd_i128(self.m as i128, other.m as i128);
        let diff = self.r as i128 - other.r as i128;
        match (g, i64::try_from(diff)) {
            (0, _) => diff != 0,
            // `g` is a gcd of two moduli, so it fits `i64` too.
            (g, Ok(d)) => d.rem_euclid(g as i64) != 0,
            (g, Err(_)) => diff.rem_euclid(g) != 0,
        }
    }
}

/// Abstract negation.
impl std::ops::Neg for Congruence {
    type Output = Congruence;

    fn neg(self) -> Congruence {
        if self.m == 0 {
            Congruence::point(self.r.wrapping_neg())
        } else {
            make(self.m as i128, -(self.r as i128))
        }
    }
}

/// Abstract addition.
impl std::ops::Add for Congruence {
    type Output = Congruence;

    fn add(self, other: Congruence) -> Congruence {
        let g = gcd_i128(self.m as i128, other.m as i128);
        if g == 0 {
            Congruence::point(self.r.wrapping_add(other.r))
        } else {
            make(g, self.r as i128 + other.r as i128)
        }
    }
}

/// Abstract subtraction.
impl std::ops::Sub for Congruence {
    type Output = Congruence;

    fn sub(self, other: Congruence) -> Congruence {
        let g = gcd_i128(self.m as i128, other.m as i128);
        if g == 0 {
            Congruence::point(self.r.wrapping_sub(other.r))
        } else {
            make(g, self.r as i128 - other.r as i128)
        }
    }
}

/// Abstract multiplication (Granger's transfer): `x·y ≡ r₁·r₂` modulo
/// `gcd(m₁m₂, m₁r₂, m₂r₁)`. A point times a progression keeps the
/// divisibility fact — `point(c) · ⊤ = (|c|, 0)` — which is the transfer
/// that lets stepped ranges prove `% == 0` constraints.
impl std::ops::Mul for Congruence {
    type Output = Congruence;

    fn mul(self, other: Congruence) -> Congruence {
        let (m1, r1) = (self.m as i128, self.r as i128);
        let (m2, r2) = (other.m as i128, other.r as i128);
        let g = gcd_i128(m1 * m2, gcd_i128(m1 * r2, m2 * r1));
        if g == 0 {
            Congruence::point(self.r.wrapping_mul(other.r))
        } else {
            make(g, r1 * r2)
        }
    }
}

/// Abstract truncating/floor division (exact transfer only): when the
/// divisor is a known point `d` that divides both the modulus and the
/// residue, every member divides exactly and `(m, r) / d = (m/|d|, r/d)`;
/// anything else is ⊤ (truncation breaks residues).
impl std::ops::Div for Congruence {
    type Output = Congruence;

    fn div(self, other: Congruence) -> Congruence {
        let Some(d) = other.as_point() else { return Congruence::top() };
        if d == 0 {
            // Runtime error; the interval side already reports unclean.
            return Congruence::top();
        }
        if self.m == 0 {
            return Congruence::point(self.r.wrapping_div(d));
        }
        let da = d.unsigned_abs();
        if da > i64::MAX as u64 {
            return Congruence::top();
        }
        let da = da as i64;
        if self.m % da == 0 && self.r % da == 0 {
            make((self.m / da) as i128, (self.r / d) as i128)
        } else {
            Congruence::top()
        }
    }
}

/// Abstract C remainder: from `x % d = x - (x/d)·d` and `content(d) | d`,
/// the result is congruent to `x` modulo `gcd(m₁, content(d))`.
impl std::ops::Rem for Congruence {
    type Output = Congruence;

    fn rem(self, other: Congruence) -> Congruence {
        if let (Some(x), Some(d)) = (self.as_point(), other.as_point()) {
            if d == 0 {
                return Congruence::top();
            }
            return Congruence::point(x.wrapping_rem(d));
        }
        let g = gcd_i128(self.m as i128, other.content());
        if g == 0 {
            // `self` is a point and the divisor has content 0, i.e. is the
            // point 0: runtime error.
            Congruence::top()
        } else {
            make(g, self.r as i128)
        }
    }
}

/// Congruence of a `range(start, .., step)` bind: with the step a multiple
/// of `content(step)` and the start `≡ r (mod m)`, every yielded value is
/// `≡ r (mod gcd(content(step), m))`. Exact for realized loops (point
/// start/step), still useful for abstract ones.
pub fn cg_of_bind(start: Congruence, step: Congruence) -> Congruence {
    let g = gcd_i128(step.content(), start.m as i128);
    if g == 0 {
        // Point start with a (degenerate) zero point step.
        start
    } else {
        make(g, start.r as i128)
    }
}

/// Congruence hull of an explicit value list (⊤ for an empty list — an
/// empty domain never binds).
pub fn cg_of_values(values: &[i64]) -> Congruence {
    let mut it = values.iter();
    let Some(&first) = it.next() else { return Congruence::top() };
    it.fold(Congruence::point(first), |acc, &v| acc.join(Congruence::point(v)))
}

/// The reduction of the interval×congruence product: an exact interval
/// point forces the congruence to that point, and a widened interval
/// (reachable `i64` wrap — modular reasoning invalid) forces ⊤. Never
/// touches the interval half, so interval verdicts are bit-identical with
/// the congruence domain on or off.
pub fn reduce(iv: &IntervalOutcome, cg: Congruence) -> Congruence {
    reduce_with(iv, || cg)
}

/// [`reduce`] with the congruence computed only where the reduction keeps
/// it: a point or widened interval decides the result on its own, so the
/// product evaluator skips the congruence transfer there.
#[inline]
pub(crate) fn reduce_with(iv: &IntervalOutcome, cg: impl FnOnce() -> Congruence) -> Congruence {
    if iv.iv.is_point() {
        Congruence::point(iv.iv.lo)
    } else if iv.widened {
        Congruence::top()
    } else {
        cg()
    }
}

/// Three-valued truth of a product value under `!= 0` semantics, combining
/// both halves: the interval decides by sign/zero exclusion, the
/// congruence by residue (`always_nonzero`) or exact zero.
fn truth(iv: &IntervalOutcome, cg: Congruence) -> Option<bool> {
    if !iv.iv.contains(0) || cg.always_nonzero() {
        Some(true)
    } else if iv.iv == Interval::point(0) || cg.as_point() == Some(0) {
        Some(false)
    } else {
        None
    }
}

/// One product-domain value: the interval outcome plus the congruence.
pub type Product = (IntervalOutcome, Congruence);

/// Evaluate an interval program over the product domain.
///
/// The interval half is [`IvProg::eval`]'s, bit for bit; the congruence
/// half runs in lockstep through the transfers below and is reduced against
/// the interval after every instruction ([`reduce`]), so it is computed
/// only where the reduction keeps it. `scratch` is caller-owned registers.
pub fn eval_product(
    prog: &IvProg,
    iv_env: &[Interval],
    cg_env: &[Congruence],
    scratch: &mut IvScratch,
) -> Product {
    prog.run::<true>(iv_env, cg_env, scratch)
}

/// Congruence of `!a`: a point once either half decides `a`'s truth.
#[inline]
pub(crate) fn cg_not(a: &IntervalOutcome, a_cg: Congruence) -> Congruence {
    match truth(a, a_cg) {
        Some(t) => Congruence::point(i64::from(!t)),
        None => Congruence::top(),
    }
}

/// Congruence of `a op b` (operands already reduced).
#[inline]
pub(crate) fn cg_bin(
    op: IntBinOp,
    a: &IntervalOutcome,
    a_cg: Congruence,
    b: &IntervalOutcome,
    b_cg: Congruence,
) -> Congruence {
    match op {
        IntBinOp::Add => a_cg + b_cg,
        IntBinOp::Sub => a_cg - b_cg,
        IntBinOp::Mul => a_cg * b_cg,
        IntBinOp::Div | IntBinOp::FloorDiv => a_cg / b_cg,
        IntBinOp::Rem => a_cg % b_cg,
        IntBinOp::Eq if a_cg.never_equal(b_cg) => Congruence::point(0),
        IntBinOp::Ne if a_cg.never_equal(b_cg) => Congruence::point(1),
        IntBinOp::And => match (truth(a, a_cg), truth(b, b_cg)) {
            (Some(false), _) | (_, Some(false)) => Congruence::point(0),
            (Some(true), Some(true)) => Congruence::point(1),
            _ => Congruence::top(),
        },
        IntBinOp::Or => match (truth(a, a_cg), truth(b, b_cg)) {
            (Some(true), _) | (Some(false), Some(true)) => Congruence::point(1),
            (Some(false), Some(false)) => Congruence::point(0),
            _ => Congruence::top(),
        },
        IntBinOp::Eq | IntBinOp::Ne | IntBinOp::Lt | IntBinOp::Le | IntBinOp::Gt | IntBinOp::Ge => {
            Congruence::top()
        }
    }
}

/// Congruence of a builtin call.
#[inline]
pub(crate) fn cg_call2(bi: Builtin, a_cg: Congruence, b_cg: Congruence) -> Congruence {
    match bi {
        // min/max pick one of the two values.
        Builtin::Min | Builtin::Max => a_cg.join(b_cg),
        // round_up(a, b) = floor((a+b-1)/b)·b: a multiple of b, hence of
        // b's content.
        Builtin::RoundUp => {
            let c = b_cg.content();
            if c >= 1 {
                make(c, 0)
            } else {
                Congruence::top()
            }
        }
        Builtin::DivCeil | Builtin::Gcd | Builtin::Abs => Congruence::top(),
    }
}

/// Congruence of `c ? t : f`: the live branch's once `c` is decided.
#[inline]
pub(crate) fn cg_ternary(
    c: &IntervalOutcome,
    c_cg: Congruence,
    t_cg: Congruence,
    f_cg: Congruence,
) -> Congruence {
    match truth(c, c_cg) {
        Some(true) => t_cg,
        Some(false) => f_cg,
        None => t_cg.join(f_cg),
    }
}

/// Is a check's verdict over the product always the interval half's own?
/// True when the predicate's top operator is `<`, `<=`, `>`, `>=`, or
/// `&&` / `||` / `!` over such predicates: the product's transfer answers
/// ⊤ for a comparison, so after the reduction its congruence is a point
/// exactly when its interval is one, and the logical operators' congruence
/// decides exactly where their interval does. Such a check gains nothing
/// from the congruence half.
pub fn interval_decides(e: &IntExpr) -> bool {
    match e {
        IntExpr::Bin(IntBinOp::Lt | IntBinOp::Le | IntBinOp::Gt | IntBinOp::Ge, ..) => true,
        IntExpr::Bin(IntBinOp::And | IntBinOp::Or, a, b) => {
            interval_decides(a) && interval_decides(b)
        }
        IntExpr::Not(a) => interval_decides(a),
        _ => false,
    }
}

/// The congruence slice of a straight window of plan steps, evaluated in
/// order over the product: per step, whether its congruence half can reach
/// a verdict. Roots are the checks congruence can decide (every check but
/// the [`interval_decides`] ones); the slice follows their reads backwards
/// through defines and range binds (a bind's congruence reads its start and
/// step, never its stop). A step outside the slice may run interval-only and
/// leave ⊤ for its slot: nothing in the slice reads it. `n_slots` sizes the
/// slot table.
pub fn product_slice(steps: &[LStep], n_slots: usize) -> Vec<bool> {
    let mut needed = vec![false; n_slots];
    let mut slice = vec![false; steps.len()];
    for (k, step) in steps.iter().enumerate().rev() {
        let (kept, reads) = match step {
            LStep::Check { body: LBody::Expr(e), .. } => (!interval_decides(e), [Some(e), None]),
            LStep::Check { body: LBody::Opaque, .. } => (true, [None, None]),
            LStep::Define { slot, body: LBody::Expr(e), .. } => {
                (needed[*slot as usize], [Some(e), None])
            }
            LStep::Bind { slot, domain: LIter::Range { start, step, .. }, .. } => {
                (needed[*slot as usize], [Some(start), Some(step)])
            }
            LStep::Define { slot, .. } | LStep::Bind { slot, .. } => {
                (needed[*slot as usize], [None, None])
            }
            LStep::Visit => (false, [None, None]),
        };
        if kept {
            for e in reads.into_iter().flatten() {
                e.for_each_slot(&mut |s| needed[s as usize] = true);
            }
        }
        slice[k] = kept;
    }
    slice
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_and_progressions() {
        let p = Congruence::point(7);
        assert_eq!(p.as_point(), Some(7));
        assert!(p.contains(7) && !p.contains(8));
        assert!(p.always_nonzero());

        let t = Congruence::top();
        assert!(t.is_top() && t.contains(-5) && !t.always_nonzero());

        let c = Congruence { m: 4, r: 2 };
        assert!(c.contains(2) && c.contains(-2) && c.contains(6) && !c.contains(3));
        assert!(c.always_nonzero());
    }

    #[test]
    fn join_finds_common_progression() {
        let a = Congruence::point(3).join(Congruence::point(11));
        assert_eq!(a, Congruence { m: 8, r: 3 });
        let b = a.join(Congruence::point(5));
        assert_eq!(b, Congruence { m: 2, r: 1 });
        assert_eq!(Congruence::point(4).join(Congruence::point(4)).as_point(), Some(4));
    }

    #[test]
    fn mul_keeps_divisibility_against_top() {
        // c * unknown ≡ 0 (mod c): the stepped-range workhorse.
        let out = Congruence::point(24) * Congruence::top();
        assert_eq!(out, Congruence { m: 24, r: 0 });
        // (4k) * (6j + 3) = 24kj + 12k ≡ 0 (mod 12).
        let out = Congruence { m: 4, r: 0 } * Congruence { m: 6, r: 3 };
        assert_eq!(out, Congruence { m: 12, r: 0 });
    }

    #[test]
    fn exact_division_divides_the_progression() {
        let c = Congruence { m: 24, r: 0 };
        assert_eq!(c / Congruence::point(8), Congruence { m: 3, r: 0 });
        // Non-dividing divisor gives up.
        assert!((c / Congruence::point(5)).is_top());
        // Unknown divisor gives up.
        assert!((c / Congruence { m: 2, r: 0 }).is_top());
    }

    #[test]
    fn rem_keeps_common_content() {
        // (12k + 3) % (6j) ≡ 3 (mod 6): both sides share content 6.
        let out = Congruence { m: 12, r: 3 } % Congruence { m: 6, r: 0 };
        assert_eq!(out, Congruence { m: 6, r: 3 });
        assert!(out.always_nonzero());
    }

    #[test]
    fn never_equal_by_residue() {
        // x ≡ 0 (mod 24) can never equal the point 100 (100 % 24 != 0).
        assert!(Congruence { m: 24, r: 0 }.never_equal(Congruence::point(100)));
        assert!(!Congruence { m: 24, r: 0 }.never_equal(Congruence::point(96)));
        // x ≡ 1 (mod 4) vs y ≡ 3 (mod 4): gcd 4, residues differ.
        assert!(Congruence { m: 4, r: 1 }.never_equal(Congruence { m: 4, r: 3 }));
        // x ≡ 1 (mod 4) vs y ≡ 1 (mod 6): 1 ≡ 1 (mod 2) — may be equal.
        assert!(!Congruence { m: 4, r: 1 }.never_equal(Congruence { m: 6, r: 1 }));
    }

    #[test]
    fn bind_congruence_from_start_and_step() {
        // range(c, stop, c): every value ≡ 0 (mod c).
        let out = cg_of_bind(Congruence::point(16), Congruence::point(16));
        assert_eq!(out, Congruence { m: 16, r: 0 });
        // range(1, stop, 4): 1, 5, 9, …
        let out = cg_of_bind(Congruence::point(1), Congruence::point(4));
        assert_eq!(out, Congruence { m: 4, r: 1 });
        // Abstract step that is a multiple of 8.
        let out = cg_of_bind(Congruence::point(0), Congruence { m: 8, r: 0 });
        assert_eq!(out, Congruence { m: 8, r: 0 });
    }

    #[test]
    fn values_hull() {
        assert_eq!(cg_of_values(&[6, 18, 30]), Congruence { m: 12, r: 6 });
        assert_eq!(cg_of_values(&[5]).as_point(), Some(5));
        assert!(cg_of_values(&[]).is_top());
    }

    /// The slice keeps the `%` and `==` checks with what they read — a
    /// range bind through its start and step, never its stop — and drops
    /// the comparisons, `&&` / `!` over comparisons, and the defines only
    /// they read.
    #[test]
    fn the_slice_keeps_divisibility_and_equality_and_drops_comparisons() {
        use crate::constraint::ConstraintClass;
        use crate::expr::var;
        use crate::ir::LoweredPlan;
        use crate::plan::{Plan, PlanOptions};
        use crate::space::Space;

        let space = Space::builder("slice")
            .range("a", 0, 10)
            .derived("t", var("a") * 3)
            .derived("u", var("t") + 1)
            .constraint("u_big", ConstraintClass::Hard, var("u").gt(5))
            .derived("v", var("a") + 2)
            .constraint("v_rem", ConstraintClass::Hard, (var("v") % 4).ne(0))
            .derived("w", var("t") - var("a"))
            .constraint("w_and", ConstraintClass::Soft, var("w").lt(2).and(var("u").ge(9).not()))
            .derived("s", var("a") + 1)
            .range_step("b", var("a"), var("u"), var("s"))
            .constraint("b_eq", ConstraintClass::Soft, var("b").eq(7))
            .build()
            .unwrap();
        let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
        let label = |step: &LStep| match step {
            LStep::Check { constraint, .. } => space.constraints()[*constraint].name.to_string(),
            LStep::Visit => "visit".to_string(),
            _ => lp.slot_names[step.written_slot().unwrap() as usize].to_string(),
        };
        let slice = product_slice(&lp.steps, lp.n_slots as usize);
        let mut kept: Vec<String> =
            lp.steps.iter().zip(&slice).filter(|(_, &k)| k).map(|(s, _)| label(s)).collect();
        kept.sort();
        assert_eq!(kept, ["a", "b", "b_eq", "s", "v", "v_rem"], "{:?}", lp.steps);
        // One window of comparisons alone: nothing to evaluate over the product.
        let u_big = lp.steps.iter().position(|s| label(s) == "u_big").unwrap();
        assert_eq!(product_slice(&lp.steps[u_big - 1..=u_big], lp.n_slots as usize), [false; 2]);
    }
}
