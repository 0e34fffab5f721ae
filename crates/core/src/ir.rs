//! Lowered integer IR — the analog of the paper's *generated C code*.
//!
//! The paper's translator converts the declarative Python description into
//! standard C operating on plain `int` variables. This module performs the
//! equivalent lowering: constants (including string-valued settings such as
//! `precision = "double"`, Fig. 10) are folded away at lowering time, every
//! remaining variable becomes a dense *slot* in a flat `i64` array, and all
//! expressions become [`IntExpr`] trees with C arithmetic semantics.
//!
//! The compiled evaluation backend and the bytecode VM execute the lowered
//! plan; the source-code generators print it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{EvalError, SpaceError};
use crate::expr::{BinOp, Builtin, Expr, UnOp};
use crate::iterator::{range_len, IterKind};
use crate::plan::{Plan, Step};
use crate::space::Space;
use crate::value::Value;

/// Binary operators on lowered integers. Comparisons and logic produce 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntBinOp {
    /// Wrapping addition (C semantics).
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Trunc-toward-zero division; checks for zero divisor.
    Div,
    /// Floor division; checks for zero divisor.
    FloorDiv,
    /// C remainder; checks for zero divisor.
    Rem,
    /// `<` producing 0/1.
    Lt,
    /// `<=` producing 0/1.
    Le,
    /// `>` producing 0/1.
    Gt,
    /// `>=` producing 0/1.
    Ge,
    /// `==` producing 0/1.
    Eq,
    /// `!=` producing 0/1.
    Ne,
    /// Short-circuiting logical and producing 0/1.
    And,
    /// Short-circuiting logical or producing 0/1.
    Or,
}

/// A lowered integer expression over slots.
#[derive(Debug, Clone, PartialEq)]
pub enum IntExpr {
    /// Literal.
    Const(i64),
    /// Slot read.
    Slot(u32),
    /// Binary operation.
    Bin(IntBinOp, Box<IntExpr>, Box<IntExpr>),
    /// Arithmetic negation.
    Neg(Box<IntExpr>),
    /// Logical not producing 0/1.
    Not(Box<IntExpr>),
    /// Conditional.
    Ternary(Box<IntExpr>, Box<IntExpr>, Box<IntExpr>),
    /// Two-argument builtin (min/max/div_ceil/gcd/round_up).
    Call2(Builtin, Box<IntExpr>, Box<IntExpr>),
    /// Absolute value.
    Abs(Box<IntExpr>),
}

/// Euclidean floor division (`div_euclid`: the remainder is never
/// negative). `DivisionByZero` for a zero divisor and `Overflow` for
/// `i64::MIN / -1`, whose quotient 2⁶³ has no `i64` — the error the walker's
/// checked `Value::floor_div` and generated C's `b_floordiv` raise there.
#[inline]
pub fn floor_div(a: i64, b: i64) -> Result<i64, EvalError> {
    if b == 0 {
        return Err(EvalError::DivisionByZero);
    }
    a.checked_div_euclid(b).ok_or(EvalError::Overflow)
}

/// `div_ceil(a, b)` = `floor_div(a + b - 1, b)`, the inner sum wrapping like
/// C's `b_add` / `b_sub`.
#[inline]
pub fn div_ceil(a: i64, b: i64) -> Result<i64, EvalError> {
    floor_div(a.wrapping_add(b).wrapping_sub(1), b)
}

/// `round_up(a, b)` = `div_ceil(a, b) · b`, the product wrapping like C's
/// `b_mul`.
#[inline]
pub fn round_up(a: i64, b: i64) -> Result<i64, EvalError> {
    Ok(div_ceil(a, b)?.wrapping_mul(b))
}

/// `a op b` on already-evaluated operands, with the lowered IR's C
/// semantics: `+ - *` wrap, `/` and `%` truncate (wrapping at
/// `i64::MIN / -1`), `//` is [`floor_div`], comparisons and logic yield
/// 0/1. The one definition of every operator, shared by [`IntExpr::eval`],
/// the point programs and the VM; for `&&` / `||` it is the strict combine
/// — short-circuiting is the caller's business.
#[inline(always)]
pub fn eval_bin(op: IntBinOp, x: i64, y: i64) -> Result<i64, EvalError> {
    Ok(match op {
        IntBinOp::Add => x.wrapping_add(y),
        IntBinOp::Sub => x.wrapping_sub(y),
        IntBinOp::Mul => x.wrapping_mul(y),
        IntBinOp::Div => {
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            x.wrapping_div(y)
        }
        IntBinOp::FloorDiv => return floor_div(x, y),
        IntBinOp::Rem => {
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            x.wrapping_rem(y)
        }
        IntBinOp::Lt => i64::from(x < y),
        IntBinOp::Le => i64::from(x <= y),
        IntBinOp::Gt => i64::from(x > y),
        IntBinOp::Ge => i64::from(x >= y),
        IntBinOp::Eq => i64::from(x == y),
        IntBinOp::Ne => i64::from(x != y),
        IntBinOp::And => i64::from(x != 0 && y != 0),
        IntBinOp::Or => i64::from(x != 0 || y != 0),
    })
}

/// A two-argument builtin on already-evaluated operands (see [`eval_bin`]).
#[inline(always)]
pub fn eval_call2(f: Builtin, x: i64, y: i64) -> Result<i64, EvalError> {
    Ok(match f {
        Builtin::Min => x.min(y),
        Builtin::Max => x.max(y),
        Builtin::DivCeil => return div_ceil(x, y),
        Builtin::Gcd => {
            let (mut a, mut b) = (x.unsigned_abs(), y.unsigned_abs());
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a as i64
        }
        Builtin::RoundUp => return round_up(x, y),
        Builtin::Abs => unreachable!("Abs is unary"),
    })
}

impl IntExpr {
    /// Evaluate against a slot array. Arithmetic wraps like C; a zero
    /// divisor and `i64::MIN // -1` are checked errors.
    ///
    /// The recursive reference evaluator: the engine, the counter and the
    /// samplers run the register-form [`crate::pointprog::PointProg`] and
    /// [`crate::pointprog::RunProg`], which produce identical outcomes.
    pub fn eval(&self, slots: &[i64]) -> Result<i64, EvalError> {
        match self {
            IntExpr::Const(c) => Ok(*c),
            IntExpr::Slot(s) => Ok(slots[*s as usize]),
            IntExpr::Neg(a) => Ok(a.eval(slots)?.wrapping_neg()),
            IntExpr::Not(a) => Ok(i64::from(a.eval(slots)? == 0)),
            IntExpr::Ternary(c, t, f) => {
                if c.eval(slots)? != 0 {
                    t.eval(slots)
                } else {
                    f.eval(slots)
                }
            }
            IntExpr::Abs(a) => Ok(a.eval(slots)?.wrapping_abs()),
            // Short-circuit: the right operand runs only when it decides.
            IntExpr::Bin(IntBinOp::And, a, b) => {
                Ok(if a.eval(slots)? == 0 { 0 } else { i64::from(b.eval(slots)? != 0) })
            }
            IntExpr::Bin(IntBinOp::Or, a, b) => {
                Ok(if a.eval(slots)? != 0 { 1 } else { i64::from(b.eval(slots)? != 0) })
            }
            IntExpr::Bin(op, a, b) => eval_bin(*op, a.eval(slots)?, b.eval(slots)?),
            IntExpr::Call2(f, x, y) => eval_call2(*f, x.eval(slots)?, y.eval(slots)?),
        }
    }

    /// If the expression is a constant, its value.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            IntExpr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Apply `f` to every slot the expression reads, in operand order (a
    /// slot read twice is reported twice). The one slot walker: scheduling,
    /// narrowing, footprints and the linter all read slots through it.
    pub fn for_each_slot(&self, f: &mut impl FnMut(u32)) {
        match self {
            IntExpr::Const(_) => {}
            IntExpr::Slot(s) => f(*s),
            IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => a.for_each_slot(f),
            IntExpr::Bin(_, a, b) | IntExpr::Call2(_, a, b) => {
                a.for_each_slot(f);
                b.for_each_slot(f);
            }
            IntExpr::Ternary(c, t, x) => {
                c.for_each_slot(f);
                t.for_each_slot(f);
                x.for_each_slot(f);
            }
        }
    }

    /// Number of IR nodes — the cost unit of the constraint scheduler
    /// (`crate::schedule`) and of the compiled engine's adaptive
    /// calibration: every operator and every leaf operand it reads.
    pub fn op_count(&self) -> u32 {
        match self {
            IntExpr::Const(_) | IntExpr::Slot(_) => 1,
            IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => 1 + a.op_count(),
            IntExpr::Bin(_, a, b) | IntExpr::Call2(_, a, b) => {
                1 + a.op_count() + b.op_count()
            }
            IntExpr::Ternary(c, t, f) => 1 + c.op_count() + t.op_count() + f.op_count(),
        }
    }

    /// True if evaluation can never fail for *any* slot values: no
    /// division/remainder by a possibly-zero divisor, no floor division
    /// that can reach `i64::MIN // -1`, and no `div_ceil`/`round_up` (whose
    /// inner floor division can reach either).
    ///
    /// Only infallible checks may be reordered by the constraint scheduler —
    /// a rejection by a reordered check must not mask (or unmask) an
    /// evaluation error another check in the same run would have raised.
    pub fn infallible(&self) -> bool {
        match self {
            IntExpr::Const(_) | IntExpr::Slot(_) => true,
            IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => a.infallible(),
            IntExpr::Bin(IntBinOp::Div | IntBinOp::Rem, a, b) => {
                a.infallible() && matches!(b.as_const(), Some(k) if k != 0)
            }
            // `i64::MIN // -1` is an `Overflow` error.
            IntExpr::Bin(IntBinOp::FloorDiv, a, b) => {
                a.infallible() && matches!(b.as_const(), Some(k) if k != 0 && k != -1)
            }
            IntExpr::Bin(_, a, b) => a.infallible() && b.infallible(),
            IntExpr::Call2(Builtin::Min | Builtin::Max | Builtin::Gcd, a, b) => {
                a.infallible() && b.infallible()
            }
            IntExpr::Call2(_, _, _) => false,
            IntExpr::Ternary(c, t, f) => {
                c.infallible() && t.infallible() && f.infallible()
            }
        }
    }

    /// Peephole simplification: constant folding, identity elimination,
    /// branch selection on constant conditions. Applied bottom-up.
    pub fn simplify(self) -> IntExpr {
        match self {
            IntExpr::Const(_) | IntExpr::Slot(_) => self,
            IntExpr::Neg(a) => {
                let a = a.simplify();
                match a.as_const() {
                    Some(c) => IntExpr::Const(c.wrapping_neg()),
                    None => IntExpr::Neg(Box::new(a)),
                }
            }
            IntExpr::Not(a) => {
                let a = a.simplify();
                match a.as_const() {
                    Some(c) => IntExpr::Const(i64::from(c == 0)),
                    None => IntExpr::Not(Box::new(a)),
                }
            }
            IntExpr::Abs(a) => {
                let a = a.simplify();
                match a.as_const() {
                    Some(c) => IntExpr::Const(c.wrapping_abs()),
                    None => IntExpr::Abs(Box::new(a)),
                }
            }
            IntExpr::Ternary(c, t, f) => {
                let c = c.simplify();
                match c.as_const() {
                    Some(v) if v != 0 => t.simplify(),
                    Some(_) => f.simplify(),
                    None => IntExpr::Ternary(
                        Box::new(c),
                        Box::new(t.simplify()),
                        Box::new(f.simplify()),
                    ),
                }
            }
            IntExpr::Call2(b, x, y) => {
                let x = x.simplify();
                let y = y.simplify();
                if let (Some(_), Some(_)) = (x.as_const(), y.as_const()) {
                    let e = IntExpr::Call2(b, Box::new(x.clone()), Box::new(y.clone()));
                    if let Ok(v) = e.eval(&[]) {
                        return IntExpr::Const(v);
                    }
                    return e;
                }
                IntExpr::Call2(b, Box::new(x), Box::new(y))
            }
            IntExpr::Bin(op, a, b) => {
                let a = a.simplify();
                let b = b.simplify();
                if let (Some(_), Some(_)) = (a.as_const(), b.as_const()) {
                    let e = IntExpr::Bin(op, Box::new(a.clone()), Box::new(b.clone()));
                    if let Ok(v) = e.eval(&[]) {
                        return IntExpr::Const(v);
                    }
                    return e;
                }
                // Identities.
                match (op, a.as_const(), b.as_const()) {
                    (IntBinOp::Add, Some(0), _) => return b,
                    (IntBinOp::Add, _, Some(0)) => return a,
                    (IntBinOp::Sub, _, Some(0)) => return a,
                    (IntBinOp::Mul, Some(1), _) => return b,
                    (IntBinOp::Mul, _, Some(1)) => return a,
                    (IntBinOp::Mul, Some(0), _) | (IntBinOp::Mul, _, Some(0)) => {
                        return IntExpr::Const(0)
                    }
                    (IntBinOp::Div, _, Some(1)) | (IntBinOp::FloorDiv, _, Some(1)) => {
                        return a
                    }
                    (IntBinOp::And, Some(0), _) => return IntExpr::Const(0),
                    (IntBinOp::And, Some(_), _) => {
                        return IntExpr::Bin(
                            IntBinOp::Ne,
                            Box::new(b),
                            Box::new(IntExpr::Const(0)),
                        )
                        .simplify()
                    }
                    (IntBinOp::Or, Some(0), _) => {
                        return IntExpr::Bin(
                            IntBinOp::Ne,
                            Box::new(b),
                            Box::new(IntExpr::Const(0)),
                        )
                        .simplify()
                    }
                    (IntBinOp::Or, Some(_), _) => return IntExpr::Const(1),
                    _ => {}
                }
                IntExpr::Bin(op, Box::new(a), Box::new(b))
            }
        }
    }

    /// Render in C syntax with slot names substituted (used by codegen).
    pub fn render_c(&self, names: &[Arc<str>]) -> String {
        match self {
            IntExpr::Const(c) => c.to_string(),
            IntExpr::Slot(s) => names[*s as usize].to_string(),
            IntExpr::Neg(a) => format!("(-{})", a.render_c(names)),
            IntExpr::Not(a) => format!("(!{})", a.render_c(names)),
            IntExpr::Ternary(c, t, f) => format!(
                "({} ? {} : {})",
                c.render_c(names),
                t.render_c(names),
                f.render_c(names)
            ),
            IntExpr::Abs(a) => format!("labs({})", a.render_c(names)),
            IntExpr::Call2(b, x, y) => format!(
                "{}({}, {})",
                b.name(),
                x.render_c(names),
                y.render_c(names)
            ),
            IntExpr::Bin(op, a, b) => {
                let tok = match op {
                    IntBinOp::Add => "+",
                    IntBinOp::Sub => "-",
                    IntBinOp::Mul => "*",
                    IntBinOp::Div | IntBinOp::FloorDiv => "/",
                    IntBinOp::Rem => "%",
                    IntBinOp::Lt => "<",
                    IntBinOp::Le => "<=",
                    IntBinOp::Gt => ">",
                    IntBinOp::Ge => ">=",
                    IntBinOp::Eq => "==",
                    IntBinOp::Ne => "!=",
                    IntBinOp::And => "&&",
                    IntBinOp::Or => "||",
                };
                format!("({} {} {})", a.render_c(names), tok, b.render_c(names))
            }
        }
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn max_slot(e: &IntExpr) -> u32 {
            match e {
                IntExpr::Const(_) => 0,
                IntExpr::Slot(s) => *s + 1,
                IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => max_slot(a),
                IntExpr::Bin(_, a, b) | IntExpr::Call2(_, a, b) => {
                    max_slot(a).max(max_slot(b))
                }
                IntExpr::Ternary(c, t, x) => {
                    max_slot(c).max(max_slot(t)).max(max_slot(x))
                }
            }
        }
        // Display with anonymous slot names.
        let names: Vec<Arc<str>> = (0..max_slot(self))
            .map(|i| Arc::from(format!("s{i}").as_str()))
            .collect();
        f.write_str(&self.render_c(&names))
    }
}

/// A lowered iterator domain.
#[derive(Debug, Clone)]
pub enum LIter {
    /// Range with lowered bound expressions.
    Range {
        /// Inclusive start.
        start: IntExpr,
        /// Exclusive stop.
        stop: IntExpr,
        /// Stride.
        step: IntExpr,
    },
    /// Explicit integer values.
    Values(Vec<i64>),
    /// Deferred/closure iterator realized through the space definition at
    /// index `iter` (opaque to source generators).
    Opaque {
        /// Iterator index in the space.
        iter: usize,
    },
}

impl LIter {
    /// True if the domain cannot be expressed in generated source.
    pub fn is_opaque(&self) -> bool {
        matches!(self, LIter::Opaque { .. })
    }

    /// The domain's length when no loop has to run to know it: a static
    /// list, or a range whose bounds lowered to constants and whose step is
    /// not zero.
    pub fn static_len(&self) -> Option<u64> {
        match self {
            LIter::Values(v) => Some(v.len() as u64),
            LIter::Range { start, stop, step } => {
                let step = step.as_const().filter(|&s| s != 0)?;
                Some(range_len(start.as_const()?, stop.as_const()?, step))
            }
            LIter::Opaque { .. } => None,
        }
    }
}

/// A lowered computation body: expression or opaque closure reference.
#[derive(Debug, Clone)]
pub enum LBody {
    /// Lowered expression.
    Expr(IntExpr),
    /// Opaque closure: evaluate through the space definition.
    Opaque,
}

/// A lowered plan step.
#[derive(Debug, Clone)]
pub enum LStep {
    /// Open a loop over iterator `iter`, binding slot `slot`.
    Bind {
        /// Iterator index in the space.
        iter: usize,
        /// Destination slot.
        slot: u32,
        /// Loop depth.
        depth: usize,
        /// Lowered domain.
        domain: LIter,
    },
    /// Compute derived variable `derived` into `slot`.
    Define {
        /// Derived index in the space.
        derived: usize,
        /// Destination slot.
        slot: u32,
        /// Lowered body.
        body: LBody,
    },
    /// Evaluate constraint `constraint`; nonzero ⇒ prune.
    Check {
        /// Constraint index in the space.
        constraint: usize,
        /// Lowered predicate.
        body: LBody,
    },
    /// Survivor reached.
    Visit,
}

impl LStep {
    /// True if the step calls back into an opaque Rust closure: an opaque
    /// domain, define body or check body.
    pub fn is_opaque(&self) -> bool {
        match self {
            LStep::Bind { domain, .. } => domain.is_opaque(),
            LStep::Define { body, .. } | LStep::Check { body, .. } => {
                matches!(body, LBody::Opaque)
            }
            LStep::Visit => false,
        }
    }

    /// The slot a bind or define writes.
    pub fn written_slot(&self) -> Option<u32> {
        match self {
            LStep::Bind { slot, .. } | LStep::Define { slot, .. } => Some(*slot),
            LStep::Check { .. } | LStep::Visit => None,
        }
    }
}

/// A plan lowered to slots and integer expressions.
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    /// The source plan.
    pub plan: Plan,
    /// Lowered steps, parallel in order to `plan.steps()`.
    pub steps: Vec<LStep>,
    /// Number of slots (iterators + derived variables).
    pub n_slots: u32,
    /// Slot index → variable name.
    pub slot_names: Vec<Arc<str>>,
}

impl LoweredPlan {
    /// Lower a plan: fold constants, assign slots, lower all expressions.
    pub fn new(plan: &Plan) -> Result<LoweredPlan, SpaceError> {
        let space = plan.space();
        let mut ctx = LowerCtx::new(space);

        let mut steps = Vec::with_capacity(plan.steps().len());
        for step in plan.steps() {
            match *step {
                Step::Bind { iter, depth } => {
                    let def = &space.iters()[iter];
                    let slot = ctx.slot(&def.name);
                    let domain = match &def.kind {
                        IterKind::Range { start, stop, step } => LIter::Range {
                            start: ctx.lower(start)?.simplify(),
                            stop: ctx.lower(stop)?.simplify(),
                            step: ctx.lower(step)?.simplify(),
                        },
                        IterKind::List(values) => {
                            let ints: Result<Vec<i64>, EvalError> =
                                values.iter().map(Value::as_int).collect();
                            match ints {
                                Ok(v) => LIter::Values(v),
                                Err(_) => {
                                    return Err(SpaceError::Lowering(format!(
                                        "iterator `{}` lists non-integer values",
                                        def.name
                                    )))
                                }
                            }
                        }
                        _ => LIter::Opaque { iter },
                    };
                    steps.push(LStep::Bind { iter, slot, depth, domain });
                }
                Step::Define { derived } => {
                    let def = &space.deriveds()[derived];
                    let slot = ctx.slot(&def.name);
                    let body = match &def.kind {
                        crate::derived::DerivedKind::Expr(e) => {
                            LBody::Expr(ctx.lower(e)?.simplify())
                        }
                        crate::derived::DerivedKind::Deferred { .. } => LBody::Opaque,
                    };
                    steps.push(LStep::Define { derived, slot, body });
                }
                Step::Check { constraint } => {
                    let def = &space.constraints()[constraint];
                    let body = match &def.kind {
                        crate::constraint::ConstraintKind::Expr(e) => {
                            LBody::Expr(ctx.lower(e)?.simplify())
                        }
                        crate::constraint::ConstraintKind::Deferred { .. } => LBody::Opaque,
                    };
                    steps.push(LStep::Check { constraint, body });
                }
                Step::Visit => steps.push(LStep::Visit),
            }
        }

        Ok(LoweredPlan {
            plan: plan.clone(),
            steps,
            n_slots: ctx.slot_names.len() as u32,
            slot_names: ctx.slot_names,
        })
    }

    /// Number of loops (`Bind` steps) in the plan.
    pub fn n_loops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, LStep::Bind { .. }))
            .count()
    }

    /// Statically-known iteration count of the loop nest *below* one value
    /// of the outermost (level-0) loop: the product of the lengths of every
    /// inner loop domain whose bounds lowered to constants.
    ///
    /// Returns `None` as soon as any inner domain depends on an outer
    /// variable or is opaque — exactly the case in which per-outer-value
    /// subtree cost is non-uniform and a parallel driver should prefer
    /// fine-grained level-0 chunks. The multithreaded engine uses this to
    /// size its work-stealing chunks; see
    /// `beast_engine::parallel::run_parallel_report`.
    pub fn static_fanout_below_outer(&self) -> Option<u128> {
        let mut domains = self.steps.iter().filter_map(|s| match s {
            LStep::Bind { domain, .. } => Some(domain),
            _ => None,
        });
        // The outermost loop itself is the chunked dimension.
        domains.next();
        domains.try_fold(1u128, |fanout, d| Some(fanout.saturating_mul(d.static_len()? as u128)))
    }

    /// True if any step requires calling back into an opaque Rust closure.
    pub fn has_opaque_steps(&self) -> bool {
        self.steps.iter().any(LStep::is_opaque)
    }
}

/// Lowering context: constant table + slot assignment.
struct LowerCtx {
    consts: HashMap<Arc<str>, Value>,
    slots: HashMap<Arc<str>, u32>,
    slot_names: Vec<Arc<str>>,
}

impl LowerCtx {
    fn new(space: &Space) -> LowerCtx {
        let consts: HashMap<Arc<str>, Value> =
            space.consts().iter().cloned().collect();
        let mut ctx =
            LowerCtx { consts, slots: HashMap::new(), slot_names: Vec::new() };
        // Pre-assign slots in a stable order: iterators then deriveds.
        for d in space.iters() {
            ctx.slot(&d.name);
        }
        for d in space.deriveds() {
            ctx.slot(&d.name);
        }
        ctx
    }

    fn slot(&mut self, name: &Arc<str>) -> u32 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slots.insert(name.clone(), s);
        self.slot_names.push(name.clone());
        s
    }

    /// Evaluate an expression statically using only the constant table.
    fn static_eval(&self, e: &Expr) -> Option<Value> {
        match e {
            Expr::Const(v) => Some(v.clone()),
            Expr::Var(n) => self.consts.get(n).cloned(),
            Expr::Unary(op, a) => {
                let v = self.static_eval(a)?;
                match op {
                    UnOp::Neg => v.neg().ok(),
                    UnOp::Not => Some(Value::Bool(!v.truthy())),
                }
            }
            Expr::Binary(op, a, b) => {
                // Reuse the dynamic evaluator over an empty env by
                // substituting resolved children; easiest is to evaluate both
                // and apply. Short-circuit folds only if the left side folds.
                let va = self.static_eval(a)?;
                match op {
                    BinOp::And if !va.truthy() => return Some(Value::Bool(false)),
                    BinOp::Or if va.truthy() => return Some(Value::Bool(true)),
                    _ => {}
                }
                let vb = self.static_eval(b)?;
                match op {
                    BinOp::Add => va.add(&vb).ok(),
                    BinOp::Sub => va.sub(&vb).ok(),
                    BinOp::Mul => va.mul(&vb).ok(),
                    BinOp::Div => va.div(&vb).ok(),
                    BinOp::FloorDiv => va.floor_div(&vb).ok(),
                    BinOp::Rem => va.rem(&vb).ok(),
                    BinOp::Eq => Some(Value::Bool(va.value_eq(&vb))),
                    BinOp::Ne => Some(Value::Bool(!va.value_eq(&vb))),
                    BinOp::Lt => va.compare(&vb).ok().map(|o| Value::Bool(o.is_lt())),
                    BinOp::Le => va.compare(&vb).ok().map(|o| Value::Bool(o.is_le())),
                    BinOp::Gt => va.compare(&vb).ok().map(|o| Value::Bool(o.is_gt())),
                    BinOp::Ge => va.compare(&vb).ok().map(|o| Value::Bool(o.is_ge())),
                    BinOp::And => Some(Value::Bool(vb.truthy())),
                    BinOp::Or => Some(Value::Bool(vb.truthy())),
                }
            }
            Expr::Ternary { cond, then, otherwise } => {
                if self.static_eval(cond)?.truthy() {
                    self.static_eval(then)
                } else {
                    self.static_eval(otherwise)
                }
            }
            Expr::Call(_, _) => {
                // Builtins over static args: evaluate via the generic path.
                use crate::expr::NoBindings;
                if e.deps().iter().all(|n| self.consts.contains_key(n)) {
                    // Substitute constants by evaluating with a const view.
                    struct V<'a>(&'a HashMap<Arc<str>, Value>);
                    impl crate::expr::Bindings for V<'_> {
                        fn get(&self, name: &str) -> Option<Value> {
                            self.0.get(name).cloned()
                        }
                    }
                    if self.consts.is_empty() {
                        e.eval(&NoBindings).ok()
                    } else {
                        e.eval(&V(&self.consts)).ok()
                    }
                } else {
                    None
                }
            }
        }
    }

    fn value_to_int(v: &Value) -> Result<i64, SpaceError> {
        v.as_int().map_err(|_| {
            SpaceError::Lowering(format!(
                "value {v} of type {} does not lower to an integer",
                v.type_name()
            ))
        })
    }

    fn lower(&mut self, e: &Expr) -> Result<IntExpr, SpaceError> {
        // Try full static folding first — this is where string settings
        // disappear: `precision == "double"` folds to a boolean constant.
        if let Some(v) = self.static_eval(e) {
            return Ok(IntExpr::Const(Self::value_to_int(&v)?));
        }
        match e {
            Expr::Const(v) => Ok(IntExpr::Const(Self::value_to_int(v)?)),
            Expr::Var(n) => {
                if let Some(v) = self.consts.get(n) {
                    let v = v.clone();
                    return Ok(IntExpr::Const(Self::value_to_int(&v)?));
                }
                if self.slots.contains_key(n) {
                    Ok(IntExpr::Slot(self.slot(&n.clone())))
                } else {
                    Err(SpaceError::Lowering(format!("unknown variable `{n}`")))
                }
            }
            Expr::Unary(op, a) => {
                let a = self.lower(a)?;
                Ok(match op {
                    UnOp::Neg => IntExpr::Neg(Box::new(a)),
                    UnOp::Not => IntExpr::Not(Box::new(a)),
                })
            }
            Expr::Binary(op, a, b) => {
                let iop = match op {
                    BinOp::Add => IntBinOp::Add,
                    BinOp::Sub => IntBinOp::Sub,
                    BinOp::Mul => IntBinOp::Mul,
                    BinOp::Div => IntBinOp::Div,
                    BinOp::FloorDiv => IntBinOp::FloorDiv,
                    BinOp::Rem => IntBinOp::Rem,
                    BinOp::Lt => IntBinOp::Lt,
                    BinOp::Le => IntBinOp::Le,
                    BinOp::Gt => IntBinOp::Gt,
                    BinOp::Ge => IntBinOp::Ge,
                    BinOp::Eq => IntBinOp::Eq,
                    BinOp::Ne => IntBinOp::Ne,
                    BinOp::And => IntBinOp::And,
                    BinOp::Or => IntBinOp::Or,
                };
                Ok(IntExpr::Bin(
                    iop,
                    Box::new(self.lower(a)?),
                    Box::new(self.lower(b)?),
                ))
            }
            Expr::Ternary { cond, then, otherwise } => {
                // Fold on a static condition even when branches are dynamic —
                // this is how per-precision branches in the GEMM space become
                // straight-line code.
                if let Some(c) = self.static_eval(cond) {
                    return if c.truthy() {
                        self.lower(then)
                    } else {
                        self.lower(otherwise)
                    };
                }
                Ok(IntExpr::Ternary(
                    Box::new(self.lower(cond)?),
                    Box::new(self.lower(then)?),
                    Box::new(self.lower(otherwise)?),
                ))
            }
            Expr::Call(b, args) => match b {
                Builtin::Abs => Ok(IntExpr::Abs(Box::new(self.lower(&args[0])?))),
                _ => Ok(IntExpr::Call2(
                    *b,
                    Box::new(self.lower(&args[0])?),
                    Box::new(self.lower(&args[1])?),
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::{ternary, var};
    use crate::plan::PlanOptions;

    fn lower_space() -> LoweredPlan {
        let s = Space::builder("lowering")
            .constant("precision", "double")
            .constant("cap", 64)
            .range("dim_m", 1, 9)
            .range_step("blk_m", var("dim_m"), 33, var("dim_m"))
            .derived(
                "regs",
                ternary(var("precision").eq("double"), var("blk_m") * 2, var("blk_m")),
            )
            .constraint("over", ConstraintClass::Hard, var("regs").gt(var("cap")))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    #[test]
    fn string_settings_fold_away() {
        let lp = lower_space();
        assert!(!lp.has_opaque_steps());
        // The `regs` define must have folded the ternary to blk_m * 2.
        let body = lp
            .steps
            .iter()
            .find_map(|s| match s {
                LStep::Define { body: LBody::Expr(e), .. } => Some(e.clone()),
                _ => None,
            })
            .unwrap();
        let blk_m_slot = lp.slot_names.iter().position(|n| &**n == "blk_m").unwrap() as u32;
        assert_eq!(
            body,
            IntExpr::Bin(
                IntBinOp::Mul,
                Box::new(IntExpr::Slot(blk_m_slot)),
                Box::new(IntExpr::Const(2))
            )
        );
    }

    #[test]
    fn const_vars_fold_to_literals() {
        let lp = lower_space();
        let check = lp
            .steps
            .iter()
            .find_map(|s| match s {
                LStep::Check { body: LBody::Expr(e), .. } => Some(e.clone()),
                _ => None,
            })
            .unwrap();
        // cap folded to 64.
        match check {
            IntExpr::Bin(IntBinOp::Gt, _, b) => assert_eq!(*b, IntExpr::Const(64)),
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn int_expr_eval_matches_semantics() {
        let e = IntExpr::Bin(
            IntBinOp::Add,
            Box::new(IntExpr::Slot(0)),
            Box::new(IntExpr::Const(5)),
        );
        assert_eq!(e.eval(&[37]).unwrap(), 42);
        let d = IntExpr::Bin(
            IntBinOp::Div,
            Box::new(IntExpr::Const(-7)),
            Box::new(IntExpr::Const(2)),
        );
        assert_eq!(d.eval(&[]).unwrap(), -3); // trunc toward zero
        let fd = IntExpr::Bin(
            IntBinOp::FloorDiv,
            Box::new(IntExpr::Const(-7)),
            Box::new(IntExpr::Const(2)),
        );
        assert_eq!(fd.eval(&[]).unwrap(), -4);
    }

    #[test]
    fn division_by_zero_checked() {
        let e = IntExpr::Bin(
            IntBinOp::Rem,
            Box::new(IntExpr::Const(1)),
            Box::new(IntExpr::Const(0)),
        );
        assert_eq!(e.eval(&[]), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn short_circuit_in_ir() {
        // slot0 != 0 && 10 % slot0 == 0 — must not trap when slot0 == 0.
        let e = IntExpr::Bin(
            IntBinOp::And,
            Box::new(IntExpr::Bin(
                IntBinOp::Ne,
                Box::new(IntExpr::Slot(0)),
                Box::new(IntExpr::Const(0)),
            )),
            Box::new(IntExpr::Bin(
                IntBinOp::Eq,
                Box::new(IntExpr::Bin(
                    IntBinOp::Rem,
                    Box::new(IntExpr::Const(10)),
                    Box::new(IntExpr::Slot(0)),
                )),
                Box::new(IntExpr::Const(0)),
            )),
        );
        assert_eq!(e.eval(&[0]).unwrap(), 0);
        assert_eq!(e.eval(&[5]).unwrap(), 1);
        assert_eq!(e.eval(&[3]).unwrap(), 0);
    }

    #[test]
    fn simplify_identities() {
        let x = IntExpr::Slot(0);
        let e = IntExpr::Bin(
            IntBinOp::Add,
            Box::new(x.clone()),
            Box::new(IntExpr::Const(0)),
        );
        assert_eq!(e.simplify(), x);
        let e = IntExpr::Bin(
            IntBinOp::Mul,
            Box::new(IntExpr::Const(0)),
            Box::new(IntExpr::Slot(3)),
        );
        assert_eq!(e.simplify(), IntExpr::Const(0));
        let e = IntExpr::Ternary(
            Box::new(IntExpr::Const(1)),
            Box::new(IntExpr::Slot(1)),
            Box::new(IntExpr::Slot(2)),
        );
        assert_eq!(e.simplify(), IntExpr::Slot(1));
    }

    #[test]
    fn simplify_constant_folds() {
        let e = IntExpr::Bin(
            IntBinOp::Mul,
            Box::new(IntExpr::Const(6)),
            Box::new(IntExpr::Const(7)),
        );
        assert_eq!(e.simplify(), IntExpr::Const(42));
        // Division by zero does NOT fold (kept for runtime error).
        let e = IntExpr::Bin(
            IntBinOp::Div,
            Box::new(IntExpr::Const(1)),
            Box::new(IntExpr::Const(0)),
        );
        assert!(matches!(e.simplify(), IntExpr::Bin(..)));
    }

    #[test]
    fn render_c_shape() {
        let lp = lower_space();
        let check = lp
            .steps
            .iter()
            .find_map(|s| match s {
                LStep::Check { body: LBody::Expr(e), .. } => Some(e.clone()),
                _ => None,
            })
            .unwrap();
        let rendered = check.render_c(&lp.slot_names);
        assert_eq!(rendered, "(regs > 64)");
    }

    #[test]
    fn opaque_steps_detected() {
        let s = Space::builder("opaque")
            .range("a", 0, 4)
            .deferred_iter("b", &["a"], |env| {
                Ok(crate::iterator::Realized::Range {
                    start: 0,
                    stop: env.require_int("a")?,
                    step: 1,
                })
            })
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        assert!(lp.has_opaque_steps());
    }

    #[test]
    fn static_fanout_counts_constant_inner_loops() {
        let s = Space::builder("fanout")
            .range("a", 0, 10)
            .range("b", 0, 4)
            .list("c", [1i64, 2, 3])
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        assert_eq!(lp.n_loops(), 3);
        // 4 values of b × 3 values of c below each value of a.
        assert_eq!(lp.static_fanout_below_outer(), Some(12));
    }

    #[test]
    fn static_fanout_unknown_for_dependent_inner_loops() {
        let s = Space::builder("skewed")
            .range("a", 1, 10)
            .range_step("b", var("a"), 20, var("a"))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        assert_eq!(lp.static_fanout_below_outer(), None);
    }

    #[test]
    fn non_integer_list_fails_lowering() {
        let s = Space::builder("bad")
            .list("mode", ["fast", "slow"])
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        assert!(matches!(
            LoweredPlan::new(&plan),
            Err(SpaceError::Lowering(_))
        ));
    }
}
