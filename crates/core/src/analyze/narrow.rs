//! Loop narrowing: the shapes of a loop whose first body step is a
//! *reject-unless-equal* check that is affine in the loop variable, and the
//! one solve every consumer runs.
//!
//! The paper hoists every constraint to the earliest loop level but still
//! enumerates that level. A check of the shape `A·x + C != B` (`x` the loop
//! variable; `A`, `B`, `C` fixed for the duration of the loop) passes for at
//! most one `x`, so an engine can *solve* for that value instead of testing
//! every one — the domain-pruning move of Willemsen & van Nieuwpoort's
//! search-space construction. GEMM's reshape constraints
//! (`dim_m_a * dim_n_a != threads_per_block`) are the motivating case.
//!
//! Lowered arithmetic wraps, i.e. it is ring arithmetic modulo 2⁶⁴, and in
//! a ring affine forms compose exactly: `affine_in` rewrites an expression
//! as `coeff · slot + offset` (mod 2⁶⁴) with loop-invariant `coeff`/`offset`
//! sub-expressions, and `equality_check` normalises both sides of a
//! `!=` / `!(… == …)` predicate into one such form compared against zero.
//! Which loops qualify — a [`Narrowing`], and a parent that can solve its
//! child ([`ChildSolve`]) — is a fact of the level plan
//! ([`super::levels`]). Whether the congruence has a solution in a
//! *realized* range — and whether it can be decided without wrap-around —
//! is a run-time question answered by [`Solve`], the point programs of `a`
//! and `k` plus `solve_affine`, which the compiled engine and the exact
//! counter ([`super::count`]) share; the native worker runs it as emitted C.
//! A parent that solves its child evaluates one [`ChildEntry`] per entry
//! (through [`ChildProgs`]): the counter solves the child per parent value
//! with it, and the engine steps the parent only over its
//! [`ChildEntry::candidates`].
//!
//! # The no-wrap proof obligation
//!
//! The check compares in ring arithmetic; the solver divides in ℤ. The two
//! agree whenever `a·x + k`, computed exactly, stays inside `i64` for every
//! `x` of the realized range: a value in `[i64::MIN, i64::MAX]` is `≡ 0
//! (mod 2⁶⁴)` only if it *is* 0. The form is monotone in `x`, so checking
//! the two endpoints (in `i128`, where `|a·x + k| < 2¹²⁷` cannot overflow)
//! covers the range. A wrapped or wrapping candidate is never guessed at.

use crate::ir::{IntBinOp, IntExpr};
use crate::pointprog::PointProg;

/// `coeff · slot + offset` under wrapping (mod 2⁶⁴) arithmetic. `None`
/// stands for a literal zero, so the common shapes carry no synthetic
/// `0 + …` / `1 * …` nodes. Neither part reads the slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Affine {
    /// Multiplier of the slot (`None` = the expression does not read it).
    pub(crate) coeff: Option<IntExpr>,
    /// Slot-independent addend.
    pub(crate) offset: Option<IntExpr>,
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

/// A loop that can be narrowed: its domain is a lowered range and its first
/// body step is constraint `constraint`, an [`EqualityCheck`] in the loop's
/// own slot whose other reads are all written before the bind.
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
pub(crate) fn affine_in(e: &IntExpr, slot: u32) -> Option<Affine> {
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
pub(crate) fn equality_check(e: &IntExpr, slot: u32) -> Option<EqualityCheck> {
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

/// A loop that can run its child's solve itself: the very next step binds a
/// [`Narrowing`] loop whose coefficient is `c · x + d` in this loop's slot
/// `x`. Neither part reads `x`, and neither do the child's offset and range
/// bounds, so one evaluation per entry of the parent serves every `x`; the
/// child's coefficient at `x` is `c·x + d` in wrapping arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildSolve {
    /// Multiplier of the parent's slot in the child's coefficient.
    pub c: IntExpr,
    /// The parent-slot-free rest of the child's coefficient.
    pub d: IntExpr,
}

/// What the solve proved about one entry of a narrowable loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solved {
    /// The one value of the realized range that passes the check, if any.
    pub hit: Option<i64>,
    /// The last value of the realized range — what the loop slot holds
    /// once an enumerating loop has run dry.
    pub last: i64,
}

/// The solve arithmetic: which `x` of `start, start + step, …` (`len ≥ 1`
/// values, as realized by the range semantics) satisfies
/// `a·x + k ≡ 0 (mod 2⁶⁴)`? `None` when that cannot be decided exactly
/// (`a = 0`, an empty or zero-step range, or the no-wrap obligation of the
/// module docs failing).
///
/// Solved in `i64` with checked operations; only when one of them
/// overflows does the `i128` reference ([`solve_affine_wide`]) decide, so
/// the common case stays off the 128-bit division libcalls.
#[inline]
pub(crate) fn solve_affine(a: i64, k: i64, start: i64, step: i64, len: u64) -> Option<Solved> {
    if a == 0 || step == 0 || len == 0 {
        return None;
    }
    let narrow = || {
        let last = step.checked_mul(i64::try_from(len - 1).ok()?)?.checked_add(start)?;
        a.checked_mul(start)?.checked_add(k)?;
        a.checked_mul(last)?.checked_add(k)?;
        // `x` lies between `start` and `last`, so `x - start` cannot
        // overflow once the bounds test passed.
        let on_range = |x: i64| {
            (start.min(last)..=start.max(last)).contains(&x)
                && (step.unsigned_abs() == 1 || (x - start) % step == 0)
        };
        // `a` divides `k` iff the truncated quotient multiplies back.
        let q = k.checked_div(a)?;
        let hit = if q.wrapping_mul(a) == k {
            Some(q.checked_neg()?).filter(|&x| on_range(x))
        } else {
            None
        };
        Some(Solved { hit, last })
    };
    narrow().or_else(|| solve_affine_wide(a, k, start, step, len))
}

/// [`solve_affine`] in `i128`, for operands whose products or quotients
/// leave `i64` (`a`, `step` and `len` already known nonzero).
#[cold]
#[inline(never)]
fn solve_affine_wide(a: i64, k: i64, start: i64, step: i64, len: u64) -> Option<Solved> {
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

/// A [`Narrowing`] compiled for evaluation: the point programs of `a` and
/// `k`, solved over a realized range by `solve_affine`. The one solve the
/// compiled engine and the exact counter run.
#[derive(Debug, Clone)]
pub struct Solve {
    /// Constraint index of the solved check (its `PruneStats` row).
    pub constraint: usize,
    a: PointProg,
    k: PointProg,
}

impl Solve {
    /// Compile `n`'s coefficient and offset.
    pub fn new(n: &Narrowing) -> Solve {
        Solve {
            constraint: n.constraint,
            a: PointProg::compile(&n.check.coeff),
            k: PointProg::compile(&n.check.offset),
        }
    }

    /// Solve one entry of the loop over `start, start + step, …` (`len`
    /// values) under `slots`. `None` — enumerate instead — when `a` or `k`
    /// fails to evaluate (the enumerating path reproduces the error where it
    /// arises), when `a = 0`, or when the no-wrap obligation cannot be
    /// discharged.
    #[inline]
    pub fn solve(&self, slots: &[i64], start: i64, step: i64, len: u64) -> Option<Solved> {
        let a = self.a.eval(slots).ok()?;
        let k = self.k.eval(slots).ok()?;
        solve_affine(a, k, start, step, len)
    }

    /// `k` alone under `slots`, for a parent that supplies `a` itself
    /// ([`ChildSolve`]).
    pub fn offset(&self, slots: &[i64]) -> Option<i64> {
        self.k.eval(slots).ok()
    }
}

/// A [`ChildSolve`] compiled for evaluation: the point programs of `c` and
/// `d`, evaluated once per entry of the parent into a [`ChildEntry`].
#[derive(Debug, Clone)]
pub struct ChildProgs {
    c: PointProg,
    d: PointProg,
}

impl ChildProgs {
    /// Compile `s`'s multiplier and rest.
    pub fn new(s: &ChildSolve) -> ChildProgs {
        ChildProgs { c: PointProg::compile(&s.c), d: PointProg::compile(&s.d) }
    }

    /// The child solve for the parent entry `slots` opens, over the child's
    /// realized range `start, start + step, …` (`len` values), with `child`
    /// the child's own [`Solve`] (for its offset `k`). `None` — every value
    /// takes the child's own path — when `c`, `d` or `k` fails to evaluate.
    pub fn entry(
        &self,
        child: &Solve,
        slots: &[i64],
        start: i64,
        step: i64,
        len: u64,
    ) -> Option<ChildEntry> {
        Some(ChildEntry {
            c: self.c.eval(slots).ok()?,
            d: self.d.eval(slots).ok()?,
            k: child.offset(slots)?,
            start,
            step,
            len,
        })
    }
}

/// A child solve evaluated for one entry of its parent: the child's
/// realized range, its offset `k` and its coefficient `c·x + d` at parent
/// value `x`, all independent of `x`. The exact counter solves the child
/// per parent value ([`ChildEntry::solve`]); the compiled engine steps the
/// parent only over [`ChildEntry::candidates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildEntry {
    /// Multiplier of the parent's value in the child's coefficient.
    pub c: i64,
    /// The rest of the child's coefficient.
    pub d: i64,
    /// The child's offset.
    pub k: i64,
    /// First value of the child's realized range.
    pub start: i64,
    /// Its step.
    pub step: i64,
    /// Its length.
    pub len: u64,
}

impl ChildEntry {
    /// The child's solve under parent value `x` (`None`: enumerate
    /// instead): `solve_affine` of the coefficient `c·x + d` in wrapping
    /// arithmetic, exactly what the child's own [`Solve`] computes.
    #[inline]
    pub fn solve(&self, x: i64) -> Option<Solved> {
        let a = self.c.wrapping_mul(x).wrapping_add(self.d);
        solve_affine(a, self.k, self.start, self.step, self.len)
    }

    /// Whether the parent must visit `x`: the child's solve under `x` hits
    /// or cannot be decided. Every other value is a solved entry with no
    /// hit, which a caller can credit without visiting it.
    #[inline]
    pub fn is_candidate(&self, x: i64) -> bool {
        !matches!(self.solve(x), Some(Solved { hit: None, .. }))
    }

    /// The last value of the child's range (`len ≥ 1`): what the child's
    /// slot holds once a solved entry without a hit has run.
    pub fn last(&self) -> i64 {
        self.start.wrapping_add(self.step.wrapping_mul(self.len.wrapping_sub(1) as i64))
    }

    /// Write into `out` the candidates ([`ChildEntry::is_candidate`]) among
    /// the parent's values `start, start + step, …` (`len ≥ 1` values of a
    /// realized range), in that order, and return `true`. Returns `false`
    /// — visit every value — when `k = 0` (every nonzero coefficient might
    /// hit), when the child's range is empty (no entry is solved), or when
    /// the no-wrap obligation of the module docs cannot be shown for every
    /// parent value at once.
    ///
    /// Once it holds, a value is passed over exactly when its coefficient
    /// `a` is nonzero and either does not divide `k` or solves to a value
    /// off the child's range. So when `|k|` is small against the parent's
    /// range — or its divisors are already in `divisors`, which keeps the
    /// last `|k|`'s — the candidates are read off the divisors `±q` of `|k|`
    /// inside the coefficient's range (`x = (±q − d) / c`), plus the value
    /// whose coefficient is 0; otherwise every value is tested.
    pub fn candidates(
        &self,
        start: i64,
        step: i64,
        len: u64,
        divisors: &mut Divisors,
        out: &mut Vec<i64>,
    ) -> bool {
        out.clear();
        if self.k == 0 || self.len == 0 || len == 0 {
            return false;
        }
        let Some((a_lo, a_hi)) = self.coefficient_range(start, step, len) else {
            return false;
        };
        let m = self.k.unsigned_abs();
        if self.c == 0 || (divisors.of != m && m.isqrt() > len) {
            let mut x = start;
            for _ in 0..len {
                if self.is_candidate(x) {
                    out.push(x);
                }
                x = x.wrapping_add(step);
            }
            return true;
        }
        let last = start.wrapping_add(step.wrapping_mul((len - 1) as i64));
        let (lo, hi) = (start.min(last), start.max(last));
        let stride = step.unsigned_abs();
        let on_range = |x: &i64| {
            (lo..=hi).contains(x) && (stride == 1 || x.abs_diff(start).is_multiple_of(stride))
        };
        let reach = a_lo.unsigned_abs().max(a_hi.unsigned_abs());
        for &q in divisors.of(m) {
            if q > reach {
                break;
            }
            // `q = 2⁶³` has no positive twin in `i64`.
            for a in i64::try_from(q).ok().into_iter().chain([0i64.wrapping_sub_unsigned(q)]) {
                if (a_lo..=a_hi).contains(&a) {
                    let x = self.parent_value(a).filter(on_range);
                    out.extend(x.filter(|&x| self.is_candidate(x)));
                }
            }
        }
        // A zero coefficient: the child enumerates.
        if (a_lo..=a_hi).contains(&0) {
            out.extend(self.parent_value(0).filter(on_range));
        }
        if step > 0 {
            out.sort_unstable();
        } else {
            out.sort_unstable_by(|x, y| y.cmp(x));
        }
        true
    }

    /// The `x` with `c·x + d = a` (`c ≠ 0`), when it is an integer in
    /// `i64`: in `i64` unless `a − d` or the quotient leaves it.
    fn parent_value(&self, a: i64) -> Option<i64> {
        match (a.checked_sub(self.d), self.c) {
            (Some(num), 1) => Some(num),
            (Some(num), c) if !(num == i64::MIN && c == -1) => (num % c == 0).then(|| num / c),
            _ => {
                let (num, c) = (a as i128 - self.d as i128, self.c as i128);
                (num % c == 0).then(|| num / c).and_then(|x| i64::try_from(x).ok())
            }
        }
    }

    /// The range `[lo, hi]` the coefficient `c·x + d` spans over the
    /// parent's values, when every one of them discharges the no-wrap
    /// obligation: the coefficient stays inside `i64`, and so does `a·s + k`
    /// at both ends `s` of the child's range. Both are affine in `x`, so
    /// the parent's endpoints decide, in `i128`, where they cannot overflow.
    fn coefficient_range(&self, start: i64, step: i64, len: u64) -> Option<(i64, i64)> {
        let last = start as i128 + step as i128 * (len as i128 - 1);
        let child_last = self.start as i128 + self.step as i128 * (self.len as i128 - 1);
        let mut ends = [0i64; 2];
        for (end, x) in ends.iter_mut().zip([start as i128, last]) {
            let a = i64::try_from(self.c as i128 * x + self.d as i128).ok()?;
            for s in [self.start as i128, child_last] {
                i64::try_from(a as i128 * s + self.k as i128).ok()?;
            }
            *end = a;
        }
        Some((ends[0].min(ends[1]), ends[0].max(ends[1])))
    }
}

/// The divisors of the last `m` asked for, ascending: a parent keeps one per
/// loop frame, so an offset that repeats across entries is factored once.
#[derive(Debug, Clone, Default)]
pub struct Divisors {
    of: u64,
    list: Vec<u64>,
}

impl Divisors {
    /// The divisors of `m ≥ 1`, by trial division up to `√m` unless `m`
    /// was the last one asked for.
    pub fn of(&mut self, m: u64) -> &[u64] {
        if self.of != m {
            self.list.clear();
            let mut large = Vec::new();
            let mut q = 1;
            while q <= m / q {
                if m.is_multiple_of(q) {
                    self.list.push(q);
                    if q != m / q {
                        large.push(m / q);
                    }
                }
                q += 1;
            }
            self.list.extend(large.into_iter().rev());
            self.of = m;
        }
        &self.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::range_len;

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

    /// The `i64` path answers exactly what the `i128` reference does —
    /// overflowing products, `i64::MIN / -1`, zero and negative strides,
    /// empty and `i64`-wide ranges — on edge values and 200,000 seeded
    /// operand sets.
    #[test]
    fn solve_affine_matches_the_wide_reference() {
        let edges = [
            0,
            1,
            -1,
            2,
            -2,
            3,
            7,
            -64,
            1 << 31,
            1 << 62,
            i64::MAX,
            i64::MAX - 1,
            i64::MIN,
            i64::MIN + 1,
            i64::MAX / 3,
            i64::MIN / 2,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pick = |small: i64| {
            let r = next();
            match r % 4 {
                0 => edges[(r >> 8) as usize % edges.len()],
                1 => ((r >> 8) as i64 % (2 * small + 1)) - small,
                2 => (r >> (r % 64)) as i64,
                _ => edges[(r >> 8) as usize % edges.len()].wrapping_add((r >> 40) as i64 % 5 - 2),
            }
        };
        let (mut hits, mut decided) = (0u32, 0u32);
        for n in 0..200_000u32 {
            let (a, k, start, step) = (pick(40), pick(400), pick(100), pick(6));
            // A realized range's length, as the engine and the counter
            // pass it: short, or up to the edge of `i64`.
            let stop = match n % 2 {
                0 => start.wrapping_add(pick(30)),
                _ => pick(1_000),
            };
            let len = range_len(start, stop, step);
            let got = solve_affine(a, k, start, step, len);
            let want = (a != 0 && step != 0 && len != 0)
                .then(|| solve_affine_wide(a, k, start, step, len))
                .flatten();
            assert_eq!(got, want, "a={a} k={k} start={start} step={step} len={len}");
            decided += u32::from(got.is_some());
            hits += u32::from(got.is_some_and(|s| s.hit.is_some()));
        }
        assert!(decided > 20_000 && hits > 500, "{decided} decided, {hits} hits");
    }

    #[test]
    fn the_gemm_shape_steps_over_the_divisors_of_the_offset() {
        // dim_m_a · dim_n_a != 1024, dim_n_a in 1..=64, dim_m_a in 1..=256.
        let entry = ChildEntry { c: 1, d: 0, k: -1024, start: 1, step: 1, len: 64 };
        let (mut divisors, mut out) = (Divisors::default(), Vec::new());
        assert!(entry.candidates(1, 1, 256, &mut divisors, &mut out));
        assert_eq!(out, [16, 32, 64, 128, 256]);
        assert_eq!(divisors.of(1024).len(), 11);
        // Descending, over a stride, and with a zero coefficient inside:
        // a = x - 8 over 32, 28, …, 0.
        let entry = ChildEntry { c: 1, d: -8, k: -48, start: 1, step: 1, len: 64 };
        assert!(entry.candidates(32, -4, 9, &mut divisors, &mut out));
        assert_eq!(out, [32, 24, 20, 16, 12, 8]);
        // Declined: k = 0, an empty child, and a coefficient that wraps.
        for entry in [
            ChildEntry { k: 0, ..entry },
            ChildEntry { len: 0, ..entry },
            ChildEntry { c: i64::MAX, ..entry },
        ] {
            assert!(!entry.candidates(32, -4, 9, &mut divisors, &mut out), "{entry:?}");
        }
    }

    /// The candidate walk keeps exactly the parent values whose per-value
    /// solve hits or declines — by divisors, by testing each value, with a
    /// cached and a fresh divisor list — and declines only where it must:
    /// `k = 0`, an empty child, or a no-wrap obligation it cannot show for
    /// every parent value.
    #[test]
    fn candidates_are_exactly_the_values_the_per_value_solve_visits() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pick = |xs: &[i64]| xs[next() as usize % xs.len()];
        let (mut divisors, mut out) = (Divisors::default(), Vec::new());
        let (mut kept, mut walked, mut declined, mut candidates) = (0u32, 0u32, 0u32, 0u32);
        for _ in 0..100_000 {
            let c = pick(&[1, 1, 2, -1, -3, 0, 5, 1 << 40, i64::MAX, i64::MIN]);
            let d = pick(&[0, 0, 1, -2, 7, -12, 1 << 62, i64::MIN]);
            let k = pick(&[-12, -24, 36, 60, 0, -7, 1, i64::MIN, i64::MAX, -1 << 40, -720]);
            let child = ChildEntry {
                c,
                d,
                k,
                start: pick(&[-6, -1, 0, 1, 3, i64::MIN + 5]),
                step: pick(&[1, 1, 2, 3, -1, -2]),
                len: pick(&[0, 1, 2, 5, 13, 40]) as u64,
            };
            // Keep the child's range inside `i64`, as a realized one is.
            let span = child.step as i128 * (child.len as i128 - 1).max(0);
            if i64::try_from(child.start as i128 + span).is_err() {
                continue;
            }
            let (start, step) =
                (pick(&[-9, -3, 0, 1, 2, i64::MAX - 20]), pick(&[1, 1, 2, 3, -1, -2]));
            let len = pick(&[1, 2, 7, 20, 64]) as u64;
            if i64::try_from(start as i128 + step as i128 * (len as i128 - 1)).is_err() {
                continue;
            }
            let values = (0..len as i64).map(|i| start + step * i);
            let want: Vec<i64> = values.filter(|&x| child.is_candidate(x)).collect();
            let cached = divisors.of == k.unsigned_abs();
            if child.candidates(start, step, len, &mut divisors, &mut out) {
                assert_eq!(out, want, "{child:?} over {start}, {step}, {len}");
                kept += 1;
                walked += u32::from(c != 0 && (cached || k.unsigned_abs().isqrt() <= len));
                candidates += out.len() as u32;
            } else {
                assert!(
                    k == 0 || child.len == 0 || child.coefficient_range(start, step, len).is_none(),
                    "{child:?} declined over {start}, {step}, {len}"
                );
                declined += 1;
            }
        }
        let counts =
            format!("{kept} kept ({walked} walked, {candidates} candidates), {declined} declined");
        assert!(
            kept > 20_000 && walked > 10_000 && candidates > 10_000 && declined > 10_000,
            "{counts}"
        );
    }
}
