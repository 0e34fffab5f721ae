//! Static interval (bounds) analysis over the lowered integer IR.
//!
//! The paper's hoisted constraints prune *point by point*: even when a
//! constraint's verdict is already decided for every value a loop can take,
//! the engine still enumerates the loop and re-evaluates the check at each
//! point. Interval analysis lifts the same expressions from points to
//! *domains*: given a conservative `[lo, hi]` range per slot, it computes a
//! range that is guaranteed to contain every value the expression can
//! evaluate to (constraint-propagation in the sense of Willemsen et al.,
//! "Efficient Construction of Large Search Spaces for Auto-Tuning"). The
//! compiled engine uses the verdicts for *block pruning*: a constraint whose
//! interval excludes 0 rejects the whole subtree; one whose interval is
//! exactly `[0, 0]` can never reject and its per-point check is elided.
//!
//! Soundness contract: for every slot assignment consistent with the
//! environment, if [`IntExpr::eval`] returns `Ok(v)` then `v` lies inside
//! the computed interval; and if the analysis reports the expression
//! *clean*, evaluation cannot return an error (division by zero, or the
//! `i64::MIN // -1` overflow of floor division and its builtins). Wrapping
//! arithmetic is handled by widening to [`Interval::TOP`] whenever a bound
//! computation could leave the `i64` range; `/`, `%`, `min`, `max` and
//! opaque bodies are approximated conservatively, never exactly wrongly.

use crate::analyze::congruence::{cg_bin, cg_call2, cg_not, cg_ternary, reduce_with, Congruence};
use crate::expr::Builtin;
use crate::ir::{IntBinOp, IntExpr};

/// An inclusive integer interval `[lo, hi]`.
///
/// The analysis never produces an empty interval: expressions always
/// evaluate to *some* value, so `lo <= hi` is an invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value the expression can take.
    pub lo: i64,
    /// Largest value the expression can take.
    pub hi: i64,
}

/// Result of analyzing one expression: its value interval plus whether
/// evaluation is guaranteed not to fail for any point in the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalOutcome {
    /// Conservative bounds on the expression's value.
    pub iv: Interval,
    /// True when evaluation cannot return an error (division by zero,
    /// floor-division overflow) for any consistent point.
    pub clean: bool,
    /// True when some arithmetic step *provably* could leave the `i64`
    /// range for a point in the environment, so the runtime value wraps and
    /// the interval had to widen to [`Interval::TOP`]. Distinguishes
    /// "proven wide" from merely "unknown" (e.g. a TOP slot or a
    /// conservative division bound, which stay `widened: false`): the
    /// analyzer reports widened-but-clean expressions as overflow risks,
    /// and the congruence domain must drop residue facts exactly here —
    /// modular reasoning is only valid while no wrap occurs.
    pub widened: bool,
}

impl IntervalOutcome {
    pub(crate) fn new(iv: Interval, clean: bool) -> IntervalOutcome {
        IntervalOutcome { iv, clean, widened: false }
    }

    fn top(clean: bool) -> IntervalOutcome {
        IntervalOutcome { iv: Interval::TOP, clean, widened: false }
    }

    /// OR `w` into the widened flag (builder-style, used by the transfer
    /// functions to propagate operand wraps and record new widening sites).
    fn widen_if(self, w: bool) -> IntervalOutcome {
        IntervalOutcome { widened: self.widened || w, ..self }
    }
}

impl Interval {
    /// The whole `i64` range: the "don't know" element.
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The boolean range `[0, 1]`.
    pub const BOOL: Interval = Interval { lo: 0, hi: 1 };

    /// An interval holding exactly one value.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// An interval from unordered endpoints.
    pub fn new(a: i64, b: i64) -> Interval {
        Interval { lo: a.min(b), hi: a.max(b) }
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Is this interval a single point?
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Smallest interval containing both operands.
    pub fn hull(&self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Largest absolute value in the interval (as `u64`, so `i64::MIN` is
    /// representable).
    fn max_abs(&self) -> u64 {
        self.lo.unsigned_abs().max(self.hi.unsigned_abs())
    }

    /// Clamp an `i128` pair down to an `i64` interval; `None` when the exact
    /// result range leaves `i64` (wrapping could then land anywhere).
    fn from_i128(lo: i128, hi: i128) -> Option<Interval> {
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            None
        } else {
            Some(Interval { lo: lo as i64, hi: hi as i64 })
        }
    }
}

/// Truth-value classification of an interval under `!= 0` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    /// `0 ∉ [lo, hi]`: every value is truthy.
    AlwaysTrue,
    /// `[lo, hi] == [0, 0]`: every value is falsy.
    AlwaysFalse,
    /// Contains zero and at least one nonzero value.
    Unknown,
}

fn truth(iv: Interval) -> Truth {
    if !iv.contains(0) {
        Truth::AlwaysTrue
    } else if iv.lo == 0 && iv.hi == 0 {
        Truth::AlwaysFalse
    } else {
        Truth::Unknown
    }
}

/// Compute a sound interval for `e` given per-slot intervals `env`
/// (indexed by slot id, like the slot array passed to [`IntExpr::eval`]).
///
/// This is the recursive reference evaluator; the hot paths use the
/// register-form [`IvProg`], which produces identical outcomes.
pub fn interval_of(e: &IntExpr, env: &[Interval]) -> IntervalOutcome {
    match e {
        IntExpr::Const(c) => IntervalOutcome::new(Interval::point(*c), true),
        IntExpr::Slot(s) => IntervalOutcome::new(env[*s as usize], true),
        IntExpr::Neg(a) => iv_neg(interval_of(a, env)),
        IntExpr::Not(a) => iv_not(interval_of(a, env)),
        IntExpr::Abs(a) => iv_abs(interval_of(a, env)),
        IntExpr::Ternary(c, t, f) => {
            iv_ternary(interval_of(c, env), interval_of(t, env), interval_of(f, env))
        }
        IntExpr::Bin(op, a, b) => iv_bin(*op, interval_of(a, env), interval_of(b, env)),
        IntExpr::Call2(bi, a, b) => iv_call2(*bi, interval_of(a, env), interval_of(b, env)),
    }
}

/// Interval negation.
pub fn iv_neg(a: IntervalOutcome) -> IntervalOutcome {
    let lo = -(a.iv.hi as i128);
    let hi = -(a.iv.lo as i128);
    match Interval::from_i128(lo, hi) {
        Some(iv) => IntervalOutcome::new(iv, a.clean).widen_if(a.widened),
        None => IntervalOutcome::top(a.clean).widen_if(true),
    }
}

/// Interval logical negation under `!= 0` truth semantics.
pub fn iv_not(a: IntervalOutcome) -> IntervalOutcome {
    let iv = match truth(a.iv) {
        Truth::AlwaysTrue => Interval::point(0),
        Truth::AlwaysFalse => Interval::point(1),
        Truth::Unknown => Interval::BOOL,
    };
    IntervalOutcome::new(iv, a.clean).widen_if(a.widened)
}

/// Interval absolute value.
pub fn iv_abs(a: IntervalOutcome) -> IntervalOutcome {
    // `wrapping_abs(i64::MIN)` stays negative: widen to TOP.
    if a.iv.lo == i64::MIN {
        return IntervalOutcome::top(a.clean).widen_if(true);
    }
    let iv = if a.iv.lo >= 0 {
        a.iv
    } else if a.iv.hi <= 0 {
        Interval { lo: -a.iv.hi, hi: -a.iv.lo }
    } else {
        Interval { lo: 0, hi: (-a.iv.lo).max(a.iv.hi) }
    };
    IntervalOutcome::new(iv, a.clean).widen_if(a.widened)
}

/// Interval ternary. All three operand outcomes are taken *strictly* (the
/// caller evaluates every branch), but the combine reproduces the lazy
/// evaluator's cleanliness exactly: a decided condition discards the dead
/// branch's cleanliness, as point evaluation never runs it.
pub fn iv_ternary(c: IntervalOutcome, t: IntervalOutcome, f: IntervalOutcome) -> IntervalOutcome {
    match truth(c.iv) {
        Truth::AlwaysTrue => {
            IntervalOutcome::new(t.iv, c.clean && t.clean).widen_if(c.widened || t.widened)
        }
        Truth::AlwaysFalse => {
            IntervalOutcome::new(f.iv, c.clean && f.clean).widen_if(c.widened || f.widened)
        }
        Truth::Unknown => IntervalOutcome::new(t.iv.hull(f.iv), c.clean && t.clean && f.clean)
            .widen_if(c.widened || t.widened || f.widened),
    }
}

/// Interval binary operator. Strict in both operands; for the
/// short-circuit operators the combine mirrors lazy point evaluation: when
/// the left operand decides the result, the right operand's cleanliness is
/// discarded (it would never run), so outcomes match [`interval_of`] and
/// the recursive walk bit for bit.
pub fn iv_bin(op: IntBinOp, a: IntervalOutcome, b: IntervalOutcome) -> IntervalOutcome {
    if matches!(op, IntBinOp::And | IntBinOp::Or) {
        let ta = truth(a.iv);
        return match (op, ta) {
            (IntBinOp::And, Truth::AlwaysFalse) => {
                IntervalOutcome::new(Interval::point(0), a.clean).widen_if(a.widened)
            }
            (IntBinOp::Or, Truth::AlwaysTrue) => {
                IntervalOutcome::new(Interval::point(1), a.clean).widen_if(a.widened)
            }
            _ => {
                let tb = truth(b.iv);
                let iv = match (op, ta, tb) {
                    (IntBinOp::And, Truth::AlwaysTrue, Truth::AlwaysTrue) => Interval::point(1),
                    (IntBinOp::And, _, Truth::AlwaysFalse) => Interval::point(0),
                    (IntBinOp::Or, Truth::AlwaysFalse, Truth::AlwaysTrue) => Interval::point(1),
                    (IntBinOp::Or, Truth::AlwaysFalse, Truth::AlwaysFalse) => Interval::point(0),
                    _ => Interval::BOOL,
                };
                // When `a` is undecided, `b` may or may not be evaluated; its
                // failures can only be ruled out if `b` itself is clean.
                IntervalOutcome::new(iv, a.clean && b.clean).widen_if(a.widened || b.widened)
            }
        };
    }

    let clean = a.clean && b.clean;
    let wide = a.widened || b.widened;
    let (al, ah) = (a.iv.lo as i128, a.iv.hi as i128);
    let (bl, bh) = (b.iv.lo as i128, b.iv.hi as i128);
    match op {
        IntBinOp::Add => match Interval::from_i128(al + bl, ah + bh) {
            Some(iv) => IntervalOutcome::new(iv, clean).widen_if(wide),
            None => IntervalOutcome::top(clean).widen_if(true),
        },
        IntBinOp::Sub => match Interval::from_i128(al - bh, ah - bl) {
            Some(iv) => IntervalOutcome::new(iv, clean).widen_if(wide),
            None => IntervalOutcome::top(clean).widen_if(true),
        },
        IntBinOp::Mul => {
            let products = [al * bl, al * bh, ah * bl, ah * bh];
            let lo = products.iter().copied().min().expect("nonempty");
            let hi = products.iter().copied().max().expect("nonempty");
            match Interval::from_i128(lo, hi) {
                Some(iv) => IntervalOutcome::new(iv, clean).widen_if(wide),
                None => IntervalOutcome::top(clean).widen_if(true),
            }
        }
        IntBinOp::Div => {
            if b.iv.contains(0) {
                // Division by zero is reachable: no verdict, may fail.
                return IntervalOutcome::top(false).widen_if(wide);
            }
            if b.iv.is_point() {
                // Trunc division is monotone in the dividend for a fixed
                // divisor, so the endpoints bound it (checked in i128:
                // `i64::MIN / -1` wraps).
                let d = b.iv.lo as i128;
                let c0 = trunc_div(al, d);
                let c1 = trunc_div(ah, d);
                match Interval::from_i128(c0.min(c1), c0.max(c1)) {
                    Some(iv) => IntervalOutcome::new(iv, clean).widen_if(wide),
                    None => IntervalOutcome::top(clean).widen_if(true),
                }
            } else if a.iv.lo == i64::MIN && b.iv.contains(-1) {
                // `i64::MIN / -1` wraps back to `i64::MIN`, outside the
                // symmetric bound below: proven possibly-wide.
                IntervalOutcome::top(clean).widen_if(true)
            } else {
                // |a / b| <= |a| for |b| >= 1: conservative symmetric bound.
                let m = a.iv.max_abs().min(i64::MAX as u64) as i64;
                IntervalOutcome::new(Interval { lo: -m, hi: m }, clean).widen_if(wide)
            }
        }
        IntBinOp::FloorDiv => {
            if b.iv.contains(0) {
                return IntervalOutcome::top(false).widen_if(wide);
            }
            if a.iv.lo == i64::MIN && b.iv.contains(-1) {
                // floor(i64::MIN / -1) = 2^63 leaves the i64 range: an
                // `Overflow` error at run time.
                return IntervalOutcome::top(false).widen_if(true);
            }
            // |floor(a / b)| <= |a| + 1 for |b| >= 1.
            let m = (a.iv.max_abs().min(i64::MAX as u64 - 1) + 1) as i64;
            IntervalOutcome::new(Interval { lo: -m, hi: m }, clean).widen_if(wide)
        }
        IntBinOp::Rem => {
            if b.iv.contains(0) {
                return IntervalOutcome::top(false).widen_if(wide);
            }
            // C remainder: |a % b| <= min(|a|, |b| - 1), sign follows `a`.
            let m = a.iv.max_abs().min(b.iv.max_abs() - 1).min(i64::MAX as u64) as i64;
            let lo = if a.iv.lo >= 0 { 0 } else { -m };
            let hi = if a.iv.hi <= 0 { 0 } else { m };
            IntervalOutcome::new(Interval { lo, hi }, clean).widen_if(wide)
        }
        IntBinOp::Lt => IntervalOutcome::new(cmp_interval(ah < bl, al >= bh), clean).widen_if(wide),
        IntBinOp::Le => IntervalOutcome::new(cmp_interval(ah <= bl, al > bh), clean).widen_if(wide),
        IntBinOp::Gt => IntervalOutcome::new(cmp_interval(al > bh, ah <= bl), clean).widen_if(wide),
        IntBinOp::Ge => IntervalOutcome::new(cmp_interval(al >= bh, ah < bl), clean).widen_if(wide),
        IntBinOp::Eq => {
            let iv = if a.iv.is_point() && b.iv.is_point() && a.iv.lo == b.iv.lo {
                Interval::point(1)
            } else if a.iv.hi < b.iv.lo || b.iv.hi < a.iv.lo {
                Interval::point(0)
            } else {
                Interval::BOOL
            };
            IntervalOutcome::new(iv, clean).widen_if(wide)
        }
        IntBinOp::Ne => {
            let iv = if a.iv.is_point() && b.iv.is_point() && a.iv.lo == b.iv.lo {
                Interval::point(0)
            } else if a.iv.hi < b.iv.lo || b.iv.hi < a.iv.lo {
                Interval::point(1)
            } else {
                Interval::BOOL
            };
            IntervalOutcome::new(iv, clean).widen_if(wide)
        }
        IntBinOp::And | IntBinOp::Or => unreachable!("handled above"),
    }
}

/// `[1,1]` when provably true, `[0,0]` when provably false, else `[0,1]`.
fn cmp_interval(always: bool, never: bool) -> Interval {
    if always {
        Interval::point(1)
    } else if never {
        Interval::point(0)
    } else {
        Interval::BOOL
    }
}

/// Trunc-toward-zero division in `i128` (both operands come from `i64`, so
/// this never overflows).
fn trunc_div(a: i128, b: i128) -> i128 {
    a / b
}

/// Interval builtin call (strict; builtins have no short-circuit forms).
pub fn iv_call2(bi: Builtin, a: IntervalOutcome, b: IntervalOutcome) -> IntervalOutcome {
    let clean = a.clean && b.clean;
    let wide = a.widened || b.widened;
    match bi {
        // min/max map endpoints monotonically; this is exact, which is
        // "conservative" in the only direction that matters (never narrower
        // than the truth).
        Builtin::Min => IntervalOutcome::new(
            Interval { lo: a.iv.lo.min(b.iv.lo), hi: a.iv.hi.min(b.iv.hi) },
            clean,
        )
        .widen_if(wide),
        Builtin::Max => IntervalOutcome::new(
            Interval { lo: a.iv.lo.max(b.iv.lo), hi: a.iv.hi.max(b.iv.hi) },
            clean,
        )
        .widen_if(wide),
        Builtin::DivCeil | Builtin::RoundUp => {
            if b.iv.contains(0) {
                return IntervalOutcome::top(false).widen_if(wide);
            }
            // Evaluation floor-divides the wrapping `a + b - 1`; the bounds
            // below need it in range, so give up (conservatively unclean)
            // when it may wrap. In range, `floor_div` still fails at
            // `i64::MIN / -1`.
            let pre_lo = a.iv.lo as i128 + b.iv.lo as i128 - 1;
            let pre_hi = a.iv.hi as i128 + b.iv.hi as i128 - 1;
            if Interval::from_i128(pre_lo.min(pre_hi), pre_lo.max(pre_hi)).is_none() {
                return IntervalOutcome::top(false).widen_if(true);
            }
            if pre_lo.min(pre_hi) == i64::MIN as i128 && b.iv.contains(-1) {
                return IntervalOutcome::top(false).widen_if(wide);
            }
            match bi {
                Builtin::DivCeil => {
                    // |ceil(a / b)| <= |a| + 1 for |b| >= 1.
                    let m = (a.iv.max_abs().min(i64::MAX as u64 - 1) + 1) as i64;
                    IntervalOutcome::new(Interval { lo: -m, hi: m }, clean).widen_if(wide)
                }
                _ => {
                    // round_up(a, b) = ceil(a / b) * b: |result| <= |a| + |b|.
                    let m = a.iv.max_abs() as u128 + b.iv.max_abs() as u128;
                    match Interval::from_i128(-(m as i128), m as i128) {
                        Some(iv) => IntervalOutcome::new(iv, clean).widen_if(wide),
                        None => IntervalOutcome::top(clean).widen_if(true),
                    }
                }
            }
        }
        Builtin::Gcd => {
            // gcd(i64::MIN, 0) is 2^63, which wraps negative on the cast
            // back to i64; rule the pathological operand out, then
            // 0 <= gcd(a, b) <= max(|a|, |b|).
            if a.iv.lo == i64::MIN || b.iv.lo == i64::MIN {
                return IntervalOutcome::top(clean).widen_if(true);
            }
            let m = a.iv.max_abs().max(b.iv.max_abs()) as i64;
            IntervalOutcome::new(Interval { lo: 0, hi: m }, clean).widen_if(wide)
        }
        Builtin::Abs => IntervalOutcome::top(clean).widen_if(wide),
    }
}

/// Sound hull of the values a `range(start, stop, step)` iterator can
/// yield, given intervals for its (already slot-resolved) bounds. Python
/// range semantics: ascending for positive step (`start <= x < stop`),
/// descending for negative (`stop < x <= start`), empty for zero. The hull
/// of both orientations is simply the hull of the two bound intervals.
pub fn range_value_hull(start: Interval, stop: Interval) -> Interval {
    start.hull(stop)
}

/// An operand of a register instruction (see [`IvProg`]). Leaves are read
/// where they live, never copied into a register first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvArg {
    /// A literal: the clean point interval `[c, c]`.
    Const(i64),
    /// The slot's environment interval (clean, not widened).
    Slot(u32),
    /// The register an earlier instruction of the same program wrote.
    Reg(u32),
}

/// What a register instruction computes (see [`IvOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvKind {
    /// Arithmetic negation of `args[0]`.
    Neg,
    /// Logical negation (`!= 0` semantics) of `args[0]`.
    Not,
    /// Absolute value of `args[0]`.
    Abs,
    /// `args[0] op args[1]`.
    Bin(IntBinOp),
    /// The builtin applied to `args[0]`, `args[1]`.
    Call2(Builtin),
    /// `args[0] ? args[1] : args[2]`.
    Ternary,
}

/// One instruction of a register-form interval program: fixed operands,
/// result written to one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvOp {
    /// What it computes.
    pub kind: IvKind,
    /// The register it writes.
    pub dst: u32,
    /// Its operands; those `kind` does not read are `Const(0)`.
    pub args: [IvArg; 3],
}

/// Caller-owned registers for [`IvProg::eval`] and
/// [`crate::analyze::eval_product`]: plain interval-endpoint and congruence
/// arrays, grown to the largest program evaluated and then reused, so
/// repeated evaluation never allocates.
#[derive(Debug, Clone, Default)]
pub struct IvScratch {
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// `CLEAN | WIDENED` bits of each register's outcome.
    flags: Vec<u8>,
    /// Congruence modulus and representative (product evaluation only).
    m: Vec<i64>,
    r: Vec<i64>,
}

const CLEAN: u8 = 1;
const WIDENED: u8 = 2;

impl IvScratch {
    #[inline]
    fn fit(&mut self, regs: usize, cg: bool) {
        if self.lo.len() < regs || (cg && self.m.len() < regs) {
            self.grow(regs);
        }
    }

    #[cold]
    fn grow(&mut self, regs: usize) {
        for v in [&mut self.lo, &mut self.hi, &mut self.m, &mut self.r] {
            v.resize(v.len().max(regs), 0);
        }
        self.flags.resize(self.flags.len().max(regs), 0);
    }

    #[inline]
    fn iv(&self, a: IvArg, env: &[Interval]) -> IntervalOutcome {
        match a {
            IvArg::Const(c) => IntervalOutcome::new(Interval::point(c), true),
            IvArg::Slot(s) => IntervalOutcome::new(env[s as usize], true),
            IvArg::Reg(r) => {
                let (r, f) = (r as usize, self.flags[r as usize]);
                IntervalOutcome {
                    iv: Interval { lo: self.lo[r], hi: self.hi[r] },
                    clean: f & CLEAN != 0,
                    widened: f & WIDENED != 0,
                }
            }
        }
    }

    /// The operand's congruence, reduced against its interval like every
    /// product value (a slot whose interval is a point is that point).
    #[inline]
    fn cg(&self, a: IvArg, iv_env: &[Interval], cg_env: &[Congruence]) -> Congruence {
        match a {
            IvArg::Const(c) => Congruence::point(c),
            IvArg::Slot(s) => {
                let iv = iv_env[s as usize];
                if iv.is_point() {
                    Congruence::point(iv.lo)
                } else {
                    cg_env[s as usize]
                }
            }
            IvArg::Reg(r) => Congruence { m: self.m[r as usize], r: self.r[r as usize] },
        }
    }

    #[inline]
    fn set(&mut self, dst: u32, o: IntervalOutcome) {
        let d = dst as usize;
        self.lo[d] = o.iv.lo;
        self.hi[d] = o.iv.hi;
        self.flags[d] = if o.clean { CLEAN } else { 0 } | if o.widened { WIDENED } else { 0 };
    }

    #[inline]
    fn set_cg(&mut self, dst: u32, cg: Congruence) {
        self.m[dst as usize] = cg.m;
        self.r[dst as usize] = cg.r;
    }
}

/// [`iv_neg`] with the endpoints negated in `i64`; the reference transfer
/// runs only when one of them overflows.
#[inline]
fn neg_fast(a: IntervalOutcome) -> IntervalOutcome {
    match (a.iv.hi.checked_neg(), a.iv.lo.checked_neg()) {
        (Some(lo), Some(hi)) => IntervalOutcome { iv: Interval { lo, hi }, ..a },
        _ => iv_neg(a),
    }
}

/// [`iv_bin`] with `+`, `-`, `*` and division by a nonzero point computed
/// in `i64` with checked ops. When every endpoint fits, it equals the
/// reference's `i128` endpoint (trunc division included); when one
/// overflows, the reference transfer — `i128` and widening — runs instead.
/// Every other operator is the reference.
#[inline]
fn bin_fast(op: IntBinOp, a: IntervalOutcome, b: IntervalOutcome) -> IntervalOutcome {
    let (x, y) = (a.iv, b.iv);
    let hull = |p: [Option<i64>; 4]| match p {
        [Some(p), Some(q), Some(r), Some(s)] => {
            Some((p.min(q).min(r).min(s), p.max(q).max(r).max(s)))
        }
        _ => None,
    };
    let ends = match op {
        IntBinOp::Add => x.lo.checked_add(y.lo).zip(x.hi.checked_add(y.hi)),
        IntBinOp::Sub => x.lo.checked_sub(y.hi).zip(x.hi.checked_sub(y.lo)),
        IntBinOp::Mul => hull([
            x.lo.checked_mul(y.lo),
            x.lo.checked_mul(y.hi),
            x.hi.checked_mul(y.lo),
            x.hi.checked_mul(y.hi),
        ]),
        IntBinOp::Div if y.is_point() && y.lo != 0 => {
            let (p, q) = (x.lo.checked_div(y.lo), x.hi.checked_div(y.lo));
            p.zip(q).map(|(p, q)| (p.min(q), p.max(q)))
        }
        _ => None,
    };
    match ends {
        Some((lo, hi)) => IntervalOutcome {
            iv: Interval { lo, hi },
            clean: a.clean && b.clean,
            widened: a.widened || b.widened,
        },
        None => iv_bin(op, a, b),
    }
}

/// A register-form compilation of an [`IntExpr`] for abstract evaluation:
/// the interval guards of `beast_engine`'s compiled engine, the counter's
/// abstract pre-pass and the analyzer all run it.
///
/// Instructions read their operands in place — a leaf slot or constant is
/// an operand of its parent, not a push — and write one register each.
/// Registers are allocated like stack depths, so their count (the deepest
/// nesting) is known at compile time and [`IvScratch`] is plain arrays
/// sized once. There are no jumps: interval analysis must look at *both*
/// branches of undecided conditionals anyway, so every operator is strict
/// and the short-circuit/branch semantics live in the combine functions
/// ([`iv_bin`], [`iv_ternary`]), which discard a dead operand's cleanliness
/// exactly like the lazy point evaluator.
///
/// Outcomes are identical to the recursive reference [`interval_of`]: the
/// same transfer functions, with `i64` fast paths for `-x`, `+`, `-`, `*`
/// and division by a point that fall back to them on overflow. Under the
/// product (`eval_product`) the congruence transfer runs only where
/// [`crate::analyze::reduce`] keeps it: not when the interval result is a
/// point or widened.
#[derive(Debug, Clone)]
pub struct IvProg {
    ops: Vec<IvOp>,
    /// Where the expression's value is read: `Reg(0)`, or the leaf itself
    /// when the expression is a bare slot or constant (no instructions).
    root: IvArg,
    /// Registers the program writes.
    regs: u32,
}

impl IvProg {
    /// Compile `e` post-order into register form.
    pub fn compile(e: &IntExpr) -> IvProg {
        /// The register a following sibling operand may use.
        fn after(d: u32, a: IvArg) -> u32 {
            d + u32::from(matches!(a, IvArg::Reg(_)))
        }
        /// Emit `e`'s instructions with `d` as the lowest free register;
        /// returns the operand its parent reads.
        fn go(e: &IntExpr, d: u32, ops: &mut Vec<IvOp>, regs: &mut u32) -> IvArg {
            const NONE: IvArg = IvArg::Const(0);
            let (kind, args) = match e {
                IntExpr::Const(c) => return IvArg::Const(*c),
                IntExpr::Slot(s) => return IvArg::Slot(*s),
                IntExpr::Neg(a) => (IvKind::Neg, [go(a, d, ops, regs), NONE, NONE]),
                IntExpr::Not(a) => (IvKind::Not, [go(a, d, ops, regs), NONE, NONE]),
                IntExpr::Abs(a) => (IvKind::Abs, [go(a, d, ops, regs), NONE, NONE]),
                IntExpr::Bin(op, a, b) => {
                    let a = go(a, d, ops, regs);
                    (IvKind::Bin(*op), [a, go(b, after(d, a), ops, regs), NONE])
                }
                IntExpr::Call2(bi, a, b) => {
                    let a = go(a, d, ops, regs);
                    (IvKind::Call2(*bi), [a, go(b, after(d, a), ops, regs), NONE])
                }
                IntExpr::Ternary(c, t, f) => {
                    let c = go(c, d, ops, regs);
                    let t = go(t, after(d, c), ops, regs);
                    (IvKind::Ternary, [c, t, go(f, after(after(d, c), t), ops, regs)])
                }
            };
            *regs = (*regs).max(d + 1);
            ops.push(IvOp { kind, dst: d, args });
            IvArg::Reg(d)
        }
        let (mut ops, mut regs) = (Vec::new(), 0);
        let root = go(e, 0, &mut ops, &mut regs);
        IvProg { ops, root, regs }
    }

    /// The instruction sequence.
    pub fn ops(&self) -> &[IvOp] {
        &self.ops
    }

    /// The slots the program reads.
    pub fn read_slots(&self) -> impl Iterator<Item = u32> + '_ {
        let args = self.ops.iter().flat_map(|op| op.args);
        args.chain([self.root]).filter_map(|a| match a {
            IvArg::Slot(s) => Some(s),
            _ => None,
        })
    }

    /// Evaluate against per-slot intervals.
    pub fn eval(&self, env: &[Interval], scratch: &mut IvScratch) -> IntervalOutcome {
        self.run::<false>(env, &[], scratch).0
    }

    /// The evaluator: the interval half always, the congruence half of the
    /// reduced product when `CG` (the congruence returned is ⊤ otherwise).
    #[inline]
    pub(crate) fn run<const CG: bool>(
        &self,
        iv_env: &[Interval],
        cg_env: &[Congruence],
        s: &mut IvScratch,
    ) -> (IntervalOutcome, Congruence) {
        s.fit(self.regs as usize, CG);
        for op in &self.ops {
            let (dst, [a, b, c]) = (op.dst, op.args);
            match op.kind {
                IvKind::Neg => {
                    let o = neg_fast(s.iv(a, iv_env));
                    if CG {
                        let cg = reduce_with(&o, || -s.cg(a, iv_env, cg_env));
                        s.set_cg(dst, cg);
                    }
                    s.set(dst, o);
                }
                IvKind::Not => {
                    let ao = s.iv(a, iv_env);
                    let o = iv_not(ao);
                    if CG {
                        let cg = reduce_with(&o, || cg_not(&ao, s.cg(a, iv_env, cg_env)));
                        s.set_cg(dst, cg);
                    }
                    s.set(dst, o);
                }
                IvKind::Abs => {
                    let o = iv_abs(s.iv(a, iv_env));
                    if CG {
                        let cg = reduce_with(&o, || {
                            let x = s.cg(a, iv_env, cg_env);
                            x.join(-x)
                        });
                        s.set_cg(dst, cg);
                    }
                    s.set(dst, o);
                }
                IvKind::Bin(op) => {
                    let (ao, bo) = (s.iv(a, iv_env), s.iv(b, iv_env));
                    let o = bin_fast(op, ao, bo);
                    if CG {
                        let cg = reduce_with(&o, || {
                            cg_bin(op, &ao, s.cg(a, iv_env, cg_env), &bo, s.cg(b, iv_env, cg_env))
                        });
                        s.set_cg(dst, cg);
                    }
                    s.set(dst, o);
                }
                IvKind::Call2(bi) => {
                    let o = iv_call2(bi, s.iv(a, iv_env), s.iv(b, iv_env));
                    if CG {
                        let cg = reduce_with(&o, || {
                            cg_call2(bi, s.cg(a, iv_env, cg_env), s.cg(b, iv_env, cg_env))
                        });
                        s.set_cg(dst, cg);
                    }
                    s.set(dst, o);
                }
                IvKind::Ternary => {
                    // Operands in source order: condition, then, else.
                    let (co, to, fo) = (s.iv(a, iv_env), s.iv(b, iv_env), s.iv(c, iv_env));
                    let o = iv_ternary(co, to, fo);
                    if CG {
                        let cg = reduce_with(&o, || {
                            let pick = |x| s.cg(x, iv_env, cg_env);
                            cg_ternary(&co, pick(a), pick(b), pick(c))
                        });
                        s.set_cg(dst, cg);
                    }
                    s.set(dst, o);
                }
            }
        }
        let cg = if CG { s.cg(self.root, iv_env, cg_env) } else { Congruence::top() };
        (s.iv(self.root, iv_env), cg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IntExpr as E;

    fn slot(i: u32) -> E {
        E::Slot(i)
    }

    fn bin(op: IntBinOp, a: E, b: E) -> E {
        E::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn add_mul_exact_on_small_ranges() {
        let env = [Interval { lo: 1, hi: 4 }, Interval { lo: -2, hi: 3 }];
        let e = bin(IntBinOp::Add, slot(0), slot(1));
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval { lo: -1, hi: 7 });
        assert!(out.clean);

        let e = bin(IntBinOp::Mul, slot(0), slot(1));
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval { lo: -8, hi: 12 });
        assert!(out.clean);
    }

    #[test]
    fn overflow_widens_to_top() {
        let env = [Interval { lo: i64::MAX - 1, hi: i64::MAX }];
        let e = bin(IntBinOp::Add, slot(0), E::Const(10));
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval::TOP);
        assert!(out.clean, "wrapping add is not an eval failure");
        assert!(out.widened, "a proven wrap must set the widened flag");
    }

    #[test]
    fn widened_distinguishes_wraps_from_unknowns() {
        // A TOP slot is unknown, not widened.
        let env = [Interval::TOP, Interval { lo: 0, hi: 5 }];
        let out = interval_of(&slot(0), &env);
        assert!(!out.widened);

        // Division by a maybe-zero divisor is unclean but not widened.
        let out = interval_of(&bin(IntBinOp::Div, E::Const(10), slot(1)), &env);
        assert!(!out.clean);
        assert!(!out.widened);

        // A wrap propagates through later exact arithmetic.
        let env = [Interval { lo: 1, hi: i64::MAX }];
        let e = bin(
            IntBinOp::Sub,
            bin(IntBinOp::Mul, slot(0), slot(0)),
            E::Const(1),
        );
        let out = interval_of(&e, &env);
        assert!(out.widened, "wrap in the product must survive the subtraction");

        // A decided short-circuit discards the dead side's widening, just
        // like its cleanliness.
        let env = [Interval::point(0), Interval { lo: 1, hi: i64::MAX }];
        let e = bin(
            IntBinOp::And,
            slot(0),
            bin(IntBinOp::Mul, slot(1), slot(1)),
        );
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval::point(0));
        assert!(!out.widened, "dead RHS never evaluates, so it never wraps");
    }

    #[test]
    fn division_by_possible_zero_is_unclean() {
        let env = [Interval { lo: 0, hi: 5 }];
        let e = bin(IntBinOp::Div, E::Const(10), slot(0));
        let out = interval_of(&e, &env);
        assert!(!out.clean);

        let env = [Interval { lo: 1, hi: 5 }];
        let out = interval_of(&e, &env);
        assert!(out.clean);
        assert!(out.iv.contains(2) && out.iv.contains(10));
    }

    #[test]
    fn comparisons_decide_on_disjoint_ranges() {
        let env = [Interval { lo: 1, hi: 4 }, Interval { lo: 10, hi: 20 }];
        let lt = interval_of(&bin(IntBinOp::Lt, slot(0), slot(1)), &env);
        assert_eq!(lt.iv, Interval::point(1));
        let gt = interval_of(&bin(IntBinOp::Gt, slot(0), slot(1)), &env);
        assert_eq!(gt.iv, Interval::point(0));
        let eq = interval_of(&bin(IntBinOp::Eq, slot(0), slot(1)), &env);
        assert_eq!(eq.iv, Interval::point(0));
    }

    #[test]
    fn short_circuit_and_skips_unclean_rhs() {
        // a == 0 short-circuits: the unclean RHS never runs.
        let env = [Interval::point(0), Interval { lo: 0, hi: 3 }];
        let e = bin(
            IntBinOp::And,
            slot(0),
            bin(IntBinOp::Div, E::Const(1), slot(1)),
        );
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval::point(0));
        assert!(out.clean);
    }

    #[test]
    fn rem_bounds_follow_divisor_magnitude() {
        let env = [Interval { lo: 0, hi: 1000 }, Interval { lo: 8, hi: 8 }];
        let e = bin(IntBinOp::Rem, slot(0), slot(1));
        let out = interval_of(&e, &env);
        assert!(out.clean);
        assert_eq!(out.iv, Interval { lo: 0, hi: 7 });
    }

    #[test]
    fn min_max_are_exact() {
        let env = [Interval { lo: 2, hi: 9 }, Interval { lo: 5, hi: 6 }];
        let e = E::Call2(Builtin::Min, Box::new(slot(0)), Box::new(slot(1)));
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval { lo: 2, hi: 6 });
        let e = E::Call2(Builtin::Max, Box::new(slot(0)), Box::new(slot(1)));
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval { lo: 5, hi: 9 });
    }

    #[test]
    fn flattened_program_matches_recursive_walk() {
        let env = [
            Interval { lo: 0, hi: 7 },
            Interval { lo: -3, hi: 3 },
            Interval::point(4),
        ];
        let exprs = [
            bin(IntBinOp::Add, slot(0), bin(IntBinOp::Mul, slot(1), slot(2))),
            bin(IntBinOp::Div, E::Const(100), slot(1)), // possible /0: unclean
            bin(
                IntBinOp::And,
                bin(IntBinOp::Lt, slot(0), E::Const(0)), // always false: short-circuit
                bin(IntBinOp::Div, E::Const(1), slot(1)),
            ),
            E::Ternary(
                Box::new(bin(IntBinOp::Ge, slot(2), E::Const(4))), // always true
                Box::new(slot(0)),
                Box::new(bin(IntBinOp::Rem, slot(0), slot(1))),
            ),
            E::Call2(
                Builtin::DivCeil,
                Box::new(E::Abs(Box::new(slot(1)))),
                Box::new(slot(2)),
            ),
        ];
        let mut scratch = IvScratch::default();
        for e in &exprs {
            let walk = interval_of(e, &env);
            let flat = IvProg::compile(e).eval(&env, &mut scratch);
            assert_eq!(walk, flat, "flat/walk divergence on {e:?}");
        }
    }

    #[test]
    fn ternary_hulls_unknown_branches() {
        let env = [Interval { lo: 0, hi: 1 }];
        let e = E::Ternary(
            Box::new(slot(0)),
            Box::new(E::Const(100)),
            Box::new(E::Const(-3)),
        );
        let out = interval_of(&e, &env);
        assert_eq!(out.iv, Interval { lo: -3, hi: 100 });
    }
}
