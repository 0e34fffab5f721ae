//! Postfix-compiled expressions: the compiled backend's answer to
//! pointer-chasing tree evaluation.
//!
//! The lowered IR ([`IntExpr`]) is a boxed tree; evaluating it recursively
//! costs a cache miss and a `Result` frame per node. For the compiled
//! engine — the stand-in for the paper's generated C — expressions are
//! instead flattened once into a dense postfix program evaluated over a
//! reusable stack, preserving exact semantics including the short-circuit
//! guards (`&&`/`||`/ternary never evaluate their dead operand).

use beast_core::error::EvalError;
use beast_core::expr::Builtin;
use beast_core::ir::{IntBinOp, IntExpr};

/// One postfix operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfOp {
    /// Push a literal.
    Const(i64),
    /// Push a slot value.
    Slot(u32),
    /// Pop b, pop a, push `a op b` (arithmetic/comparison, non-lazy).
    Bin(IntBinOp),
    /// Negate the top.
    Neg,
    /// Logical-not the top (0/1).
    Not,
    /// Absolute value of the top.
    Abs,
    /// Pop b, pop a, push `builtin(a, b)`.
    Call2(Builtin),
    /// Replace the top with `top != 0`.
    NormalizeBool,
    /// Pop the top.
    Pop,
    /// Skip the next `0` operations unconditionally.
    Jmp(u32),
    /// If the top is zero, skip the next ops (keeping the zero as the
    /// result) — the `&&` guard.
    JmpIfZeroKeep(u32),
    /// If the top is nonzero, skip the next ops (keeping it) — the `||`
    /// guard (top is pre-normalized to 1).
    JmpIfNonZeroKeep(u32),
    /// Pop the top; if it was zero, skip the next ops — the ternary guard.
    JmpIfZeroPop(u32),
}

/// A compiled postfix program.
#[derive(Debug, Clone, PartialEq)]
pub struct Postfix {
    ops: Vec<PfOp>,
    max_stack: usize,
}

impl Postfix {
    /// Flatten an [`IntExpr`] tree and run the peephole optimizer.
    pub fn compile(e: &IntExpr) -> Postfix {
        let mut ops = Vec::new();
        emit(e, &mut ops);
        while let Some(better) = peephole_pass(&ops) {
            ops = better;
        }
        let max_stack = stack_bound(&ops);
        Postfix { ops, max_stack }
    }

    /// Flatten without the peephole pass (diagnostics: lets tests and
    /// benchmarks measure how many ops the optimizer removes).
    pub fn compile_unoptimized(e: &IntExpr) -> Postfix {
        let mut ops = Vec::new();
        emit(e, &mut ops);
        let max_stack = stack_bound(&ops);
        Postfix { ops, max_stack }
    }

    /// Number of operations (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program (never produced by `compile`).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Worst-case stack depth.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Evaluate against a slot array, reusing `stack` as scratch.
    #[inline]
    pub fn eval(&self, slots: &[i64], stack: &mut Vec<i64>) -> Result<i64, EvalError> {
        stack.clear();
        stack.reserve(self.max_stack);
        let ops = &self.ops[..];
        let mut pc = 0usize;
        while pc < ops.len() {
            match ops[pc] {
                PfOp::Const(k) => stack.push(k),
                PfOp::Slot(s) => stack.push(slots[s as usize]),
                PfOp::Bin(op) => {
                    let b = stack.pop().expect("operand");
                    let a = stack.last_mut().expect("operand");
                    *a = match op {
                        IntBinOp::Add => a.wrapping_add(b),
                        IntBinOp::Sub => a.wrapping_sub(b),
                        IntBinOp::Mul => a.wrapping_mul(b),
                        IntBinOp::Div => {
                            if b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            a.wrapping_div(b)
                        }
                        IntBinOp::FloorDiv => {
                            if b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            a.div_euclid(b)
                        }
                        IntBinOp::Rem => {
                            if b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            a.wrapping_rem(b)
                        }
                        IntBinOp::Lt => i64::from(*a < b),
                        IntBinOp::Le => i64::from(*a <= b),
                        IntBinOp::Gt => i64::from(*a > b),
                        IntBinOp::Ge => i64::from(*a >= b),
                        IntBinOp::Eq => i64::from(*a == b),
                        IntBinOp::Ne => i64::from(*a != b),
                        IntBinOp::And | IntBinOp::Or => {
                            unreachable!("lazy ops compile to jumps")
                        }
                    };
                }
                PfOp::Neg => {
                    let a = stack.last_mut().expect("operand");
                    *a = a.wrapping_neg();
                }
                PfOp::Not => {
                    let a = stack.last_mut().expect("operand");
                    *a = i64::from(*a == 0);
                }
                PfOp::Abs => {
                    let a = stack.last_mut().expect("operand");
                    *a = a.wrapping_abs();
                }
                PfOp::Call2(f) => {
                    let b = stack.pop().expect("operand");
                    let a = stack.last_mut().expect("operand");
                    *a = match f {
                        Builtin::Min => (*a).min(b),
                        Builtin::Max => (*a).max(b),
                        Builtin::DivCeil => {
                            if b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            (*a + b - 1).div_euclid(b)
                        }
                        Builtin::Gcd => {
                            let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
                            while y != 0 {
                                let t = x % y;
                                x = y;
                                y = t;
                            }
                            x as i64
                        }
                        Builtin::RoundUp => {
                            if b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            (*a + b - 1).div_euclid(b) * b
                        }
                        Builtin::Abs => unreachable!("unary"),
                    };
                }
                PfOp::NormalizeBool => {
                    let a = stack.last_mut().expect("operand");
                    *a = i64::from(*a != 0);
                }
                PfOp::Pop => {
                    stack.pop();
                }
                PfOp::Jmp(skip) => pc += skip as usize,
                PfOp::JmpIfZeroKeep(skip) => {
                    if *stack.last().expect("cond") == 0 {
                        pc += skip as usize;
                    }
                }
                PfOp::JmpIfNonZeroKeep(skip) => {
                    if *stack.last().expect("cond") != 0 {
                        pc += skip as usize;
                    }
                }
                PfOp::JmpIfZeroPop(skip) => {
                    if stack.pop().expect("cond") == 0 {
                        pc += skip as usize;
                    }
                }
            }
            pc += 1;
        }
        debug_assert_eq!(stack.len(), 1, "program must leave exactly one value");
        Ok(stack.pop().expect("result"))
    }
}

fn emit(e: &IntExpr, ops: &mut Vec<PfOp>) {
    match e {
        IntExpr::Const(k) => ops.push(PfOp::Const(*k)),
        IntExpr::Slot(s) => ops.push(PfOp::Slot(*s)),
        IntExpr::Neg(a) => {
            emit(a, ops);
            ops.push(PfOp::Neg);
        }
        IntExpr::Not(a) => {
            emit(a, ops);
            ops.push(PfOp::Not);
        }
        IntExpr::Abs(a) => {
            emit(a, ops);
            ops.push(PfOp::Abs);
        }
        IntExpr::Call2(f, a, b) => {
            emit(a, ops);
            emit(b, ops);
            ops.push(PfOp::Call2(*f));
        }
        IntExpr::Ternary(c, t, f) => {
            emit(c, ops);
            let guard = ops.len();
            ops.push(PfOp::JmpIfZeroPop(0));
            emit(t, ops);
            let jend = ops.len();
            ops.push(PfOp::Jmp(0));
            let else_start = ops.len();
            ops[guard] = PfOp::JmpIfZeroPop((else_start - guard - 1) as u32);
            emit(f, ops);
            let end = ops.len();
            ops[jend] = PfOp::Jmp((end - jend - 1) as u32);
        }
        IntExpr::Bin(op, a, b) => match op {
            IntBinOp::And => {
                emit(a, ops);
                let guard = ops.len();
                ops.push(PfOp::JmpIfZeroKeep(0));
                ops.push(PfOp::Pop);
                emit(b, ops);
                ops.push(PfOp::NormalizeBool);
                let end = ops.len();
                ops[guard] = PfOp::JmpIfZeroKeep((end - guard - 1) as u32);
            }
            IntBinOp::Or => {
                emit(a, ops);
                ops.push(PfOp::NormalizeBool);
                let guard = ops.len();
                ops.push(PfOp::JmpIfNonZeroKeep(0));
                ops.push(PfOp::Pop);
                emit(b, ops);
                ops.push(PfOp::NormalizeBool);
                let end = ops.len();
                ops[guard] = PfOp::JmpIfNonZeroKeep((end - guard - 1) as u32);
            }
            _ => {
                emit(a, ops);
                emit(b, ops);
                ops.push(PfOp::Bin(*op));
            }
        },
    }
}

/// One peephole rewrite pass; `None` when nothing changed (fixpoint).
///
/// Patterns, applied only where no jump lands mid-pattern so control flow
/// cannot observe the difference:
/// - `Const a, Const b, Bin op` → `Const (a op b)` (and the `Call2`
///   analog), skipped when evaluation would error or panic so runtime
///   error semantics are preserved bit for bit;
/// - `Const a, <unary>` → folded constant;
/// - `NormalizeBool` directly after an op that already produces 0/1
///   (comparisons, `Not`, another `NormalizeBool`) → removed — the common
///   case in `&&`-chains of comparisons like the GEMM constraints;
/// - `Jmp 0` → removed (arises when earlier folds shrink a branch).
///
/// Jump offsets are recomputed through an old-index → new-index map, so
/// removals inside a skipped region shorten the jump rather than break it.
fn peephole_pass(ops: &[PfOp]) -> Option<Vec<PfOp>> {
    /// What happens to the op at one old index.
    #[derive(Clone, Copy, PartialEq)]
    enum Act {
        Keep,
        Drop,
        Replace(PfOp),
    }

    let n = ops.len();
    let mut is_target = vec![false; n + 1];
    for (i, op) in ops.iter().enumerate() {
        if let PfOp::Jmp(s)
        | PfOp::JmpIfZeroKeep(s)
        | PfOp::JmpIfNonZeroKeep(s)
        | PfOp::JmpIfZeroPop(s) = op
        {
            is_target[i + 1 + *s as usize] = true;
        }
    }

    let mut acts = vec![Act::Keep; n];
    let mut changed = false;
    let mut i = 0usize;
    while i < n {
        // A no-op jump does nothing even if something jumps *to* it.
        if let PfOp::Jmp(0) = ops[i] {
            acts[i] = Act::Drop;
            changed = true;
            i += 1;
            continue;
        }
        if let PfOp::Const(a) = ops[i] {
            // Const Const Bin / Call2.
            if i + 2 < n && !is_target[i + 1] && !is_target[i + 2] {
                if let PfOp::Const(b) = ops[i + 1] {
                    let folded = match ops[i + 2] {
                        PfOp::Bin(op) => fold_bin(op, a, b),
                        PfOp::Call2(f) => fold_call2(f, a, b),
                        _ => None,
                    };
                    if let Some(r) = folded {
                        acts[i] = Act::Replace(PfOp::Const(r));
                        acts[i + 1] = Act::Drop;
                        acts[i + 2] = Act::Drop;
                        changed = true;
                        i += 3;
                        continue;
                    }
                }
            }
            // Const <unary>.
            if i + 1 < n && !is_target[i + 1] {
                let r = match ops[i + 1] {
                    PfOp::Neg => Some(a.wrapping_neg()),
                    PfOp::Not => Some(i64::from(a == 0)),
                    PfOp::Abs => Some(a.wrapping_abs()),
                    PfOp::NormalizeBool => Some(i64::from(a != 0)),
                    _ => None,
                };
                if let Some(r) = r {
                    acts[i] = Act::Replace(PfOp::Const(r));
                    acts[i + 1] = Act::Drop;
                    changed = true;
                    i += 2;
                    continue;
                }
            }
        }
        // NormalizeBool after a 0/1-producing op reached only by
        // fall-through.
        if matches!(ops[i], PfOp::NormalizeBool) && i > 0 && !is_target[i] {
            let boolish = matches!(
                ops[i - 1],
                PfOp::Bin(
                    IntBinOp::Lt
                        | IntBinOp::Le
                        | IntBinOp::Gt
                        | IntBinOp::Ge
                        | IntBinOp::Eq
                        | IntBinOp::Ne
                ) | PfOp::Not
                    | PfOp::NormalizeBool
            );
            if boolish && acts[i - 1] == Act::Keep {
                acts[i] = Act::Drop;
                changed = true;
                i += 1;
                continue;
            }
        }
        i += 1;
    }
    if !changed {
        return None;
    }

    // Old index → new index (monotone; index n maps to the new length).
    let mut map = vec![0usize; n + 1];
    let mut pos = 0usize;
    for i in 0..n {
        map[i] = pos;
        if acts[i] != Act::Drop {
            pos += 1;
        }
    }
    map[n] = pos;

    let retarget = |i: usize, s: u32| (map[i + 1 + s as usize] - map[i] - 1) as u32;
    let mut out = Vec::with_capacity(pos);
    for i in 0..n {
        match acts[i] {
            Act::Drop => {}
            Act::Replace(op) => out.push(op),
            Act::Keep => out.push(match ops[i] {
                PfOp::Jmp(s) => PfOp::Jmp(retarget(i, s)),
                PfOp::JmpIfZeroKeep(s) => PfOp::JmpIfZeroKeep(retarget(i, s)),
                PfOp::JmpIfNonZeroKeep(s) => PfOp::JmpIfNonZeroKeep(retarget(i, s)),
                PfOp::JmpIfZeroPop(s) => PfOp::JmpIfZeroPop(retarget(i, s)),
                op => op,
            }),
        }
    }
    Some(out)
}

/// Fold a strict binary op over constants, mirroring [`Postfix::eval`]
/// exactly; `None` when evaluation would error or panic at runtime.
fn fold_bin(op: IntBinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        IntBinOp::Add => a.wrapping_add(b),
        IntBinOp::Sub => a.wrapping_sub(b),
        IntBinOp::Mul => a.wrapping_mul(b),
        IntBinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        IntBinOp::FloorDiv => a.checked_div_euclid(b)?,
        IntBinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        IntBinOp::Lt => i64::from(a < b),
        IntBinOp::Le => i64::from(a <= b),
        IntBinOp::Gt => i64::from(a > b),
        IntBinOp::Ge => i64::from(a >= b),
        IntBinOp::Eq => i64::from(a == b),
        IntBinOp::Ne => i64::from(a != b),
        IntBinOp::And | IntBinOp::Or => return None,
    })
}

/// Fold a builtin call over constants; `None` when runtime evaluation
/// would error (zero divisor) or panic (intermediate overflow).
fn fold_call2(f: Builtin, a: i64, b: i64) -> Option<i64> {
    Some(match f {
        Builtin::Min => a.min(b),
        Builtin::Max => a.max(b),
        Builtin::DivCeil => {
            if b == 0 {
                return None;
            }
            a.checked_add(b)?.checked_sub(1)?.checked_div_euclid(b)?
        }
        Builtin::Gcd => {
            let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
            while y != 0 {
                let t = x % y;
                x = y;
                y = t;
            }
            x as i64
        }
        Builtin::RoundUp => {
            if b == 0 {
                return None;
            }
            a.checked_add(b)?
                .checked_sub(1)?
                .checked_div_euclid(b)?
                .checked_mul(b)?
        }
        Builtin::Abs => return None,
    })
}

/// Conservative worst-case stack depth: simulate pushes/pops linearly
/// (jumps only skip forward, so the linear bound dominates every path).
fn stack_bound(ops: &[PfOp]) -> usize {
    let mut depth: isize = 0;
    let mut max: isize = 0;
    for op in ops {
        match op {
            PfOp::Const(_) | PfOp::Slot(_) => depth += 1,
            PfOp::Bin(_) | PfOp::Call2(_) | PfOp::Pop | PfOp::JmpIfZeroPop(_) => depth -= 1,
            _ => {}
        }
        max = max.max(depth);
    }
    max.max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::ir::IntExpr as E;

    fn b(op: IntBinOp, a: E, b2: E) -> E {
        E::Bin(op, Box::new(a), Box::new(b2))
    }

    fn eval(e: &E, slots: &[i64]) -> Result<i64, EvalError> {
        let pf = Postfix::compile(e);
        let mut stack = Vec::new();
        let got = pf.eval(slots, &mut stack);
        // Cross-check against the tree evaluator on every test.
        let expect = e.eval(slots);
        assert_eq!(got, expect, "postfix vs tree for {e:?}");
        got
    }

    #[test]
    fn arithmetic_and_slots() {
        let e = b(
            IntBinOp::Add,
            b(IntBinOp::Mul, E::Slot(0), E::Const(3)),
            E::Slot(1),
        );
        assert_eq!(eval(&e, &[5, 2]).unwrap(), 17);
    }

    #[test]
    fn comparisons_produce_bits() {
        let e = b(IntBinOp::Lt, E::Slot(0), E::Const(10));
        assert_eq!(eval(&e, &[3]).unwrap(), 1);
        assert_eq!(eval(&e, &[30]).unwrap(), 0);
    }

    #[test]
    fn short_circuit_and_guards_division() {
        // x != 0 && 12 % x == 0
        let e = b(
            IntBinOp::And,
            b(IntBinOp::Ne, E::Slot(0), E::Const(0)),
            b(
                IntBinOp::Eq,
                b(IntBinOp::Rem, E::Const(12), E::Slot(0)),
                E::Const(0),
            ),
        );
        assert_eq!(eval(&e, &[0]).unwrap(), 0); // no division by zero
        assert_eq!(eval(&e, &[4]).unwrap(), 1);
        assert_eq!(eval(&e, &[5]).unwrap(), 0);
    }

    #[test]
    fn short_circuit_or() {
        // x == 0 || 12 / x > 2
        let e = b(
            IntBinOp::Or,
            b(IntBinOp::Eq, E::Slot(0), E::Const(0)),
            b(
                IntBinOp::Gt,
                b(IntBinOp::Div, E::Const(12), E::Slot(0)),
                E::Const(2),
            ),
        );
        assert_eq!(eval(&e, &[0]).unwrap(), 1);
        assert_eq!(eval(&e, &[3]).unwrap(), 1);
        assert_eq!(eval(&e, &[6]).unwrap(), 0);
    }

    #[test]
    fn ternary_lazy_branches() {
        // x > 0 ? 100 / x : -1
        let e = E::Ternary(
            Box::new(b(IntBinOp::Gt, E::Slot(0), E::Const(0))),
            Box::new(b(IntBinOp::Div, E::Const(100), E::Slot(0))),
            Box::new(E::Const(-1)),
        );
        assert_eq!(eval(&e, &[4]).unwrap(), 25);
        assert_eq!(eval(&e, &[0]).unwrap(), -1); // dead division skipped
    }

    #[test]
    fn nested_ternaries() {
        let inner = E::Ternary(
            Box::new(E::Slot(1)),
            Box::new(E::Const(10)),
            Box::new(E::Const(20)),
        );
        let e = E::Ternary(Box::new(E::Slot(0)), Box::new(inner), Box::new(E::Const(30)));
        assert_eq!(eval(&e, &[1, 1]).unwrap(), 10);
        assert_eq!(eval(&e, &[1, 0]).unwrap(), 20);
        assert_eq!(eval(&e, &[0, 1]).unwrap(), 30);
    }

    #[test]
    fn builtins_and_unaries() {
        let e = E::Call2(
            Builtin::Min,
            Box::new(E::Abs(Box::new(E::Neg(Box::new(E::Slot(0)))))),
            Box::new(E::Const(7)),
        );
        assert_eq!(eval(&e, &[-12]).unwrap(), 7);
        assert_eq!(eval(&e, &[3]).unwrap(), 3);
        let g = E::Call2(Builtin::Gcd, Box::new(E::Const(18)), Box::new(E::Const(12)));
        assert_eq!(eval(&g, &[]).unwrap(), 6);
        let n = E::Not(Box::new(E::Slot(0)));
        assert_eq!(eval(&n, &[0]).unwrap(), 1);
        assert_eq!(eval(&n, &[5]).unwrap(), 0);
    }

    #[test]
    fn division_errors_propagate() {
        let e = b(IntBinOp::Div, E::Const(1), E::Slot(0));
        assert_eq!(eval(&e, &[0]), Err(EvalError::DivisionByZero));
        let e = b(IntBinOp::FloorDiv, E::Const(1), E::Slot(0));
        assert_eq!(eval(&e, &[0]), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn peephole_folds_constant_subtrees() {
        // (2 * 3) + x: the constant product folds into one push.
        let e = b(
            IntBinOp::Add,
            b(IntBinOp::Mul, E::Const(2), E::Const(3)),
            E::Slot(0),
        );
        let raw = Postfix::compile_unoptimized(&e);
        let opt = Postfix::compile(&e);
        assert!(opt.len() < raw.len(), "{} !< {}", opt.len(), raw.len());
        let mut stack = Vec::new();
        assert_eq!(opt.eval(&[10], &mut stack).unwrap(), 16);
        // Cascading folds: ((1 + 2) + 3) + 4 collapses to a single Const.
        let mut chain = E::Const(1);
        for k in 2..5 {
            chain = b(IntBinOp::Add, chain, E::Const(k));
        }
        let opt = Postfix::compile(&chain);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.eval(&[], &mut stack).unwrap(), 10);
    }

    #[test]
    fn peephole_never_folds_runtime_errors_away() {
        // 1 / 0 must still error at eval time, not disappear at compile
        // time or panic the compiler.
        let e = b(IntBinOp::Div, E::Const(1), E::Const(0));
        let opt = Postfix::compile(&e);
        let mut stack = Vec::new();
        assert_eq!(opt.eval(&[], &mut stack), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn peephole_drops_redundant_normalize_bool() {
        // (x < 3) && (x > 0): both comparison results are already 0/1, so
        // the &&'s NormalizeBool ops are dead weight.
        let e = b(
            IntBinOp::And,
            b(IntBinOp::Lt, E::Slot(0), E::Const(3)),
            b(IntBinOp::Gt, E::Slot(0), E::Const(0)),
        );
        let raw = Postfix::compile_unoptimized(&e);
        let opt = Postfix::compile(&e);
        assert!(opt.len() < raw.len(), "{} !< {}", opt.len(), raw.len());
        let mut stack = Vec::new();
        for x in -2..6 {
            assert_eq!(opt.eval(&[x], &mut stack), e.eval(&[x]), "x={x}");
        }
    }

    #[test]
    fn peephole_preserves_jump_targets() {
        // A constant condition inside a ternary: folds must retarget the
        // branch jumps, and the dead branch must stay dead.
        let e = E::Ternary(
            Box::new(b(IntBinOp::Gt, E::Slot(0), E::Const(0))),
            Box::new(b(IntBinOp::Add, b(IntBinOp::Mul, E::Const(2), E::Const(5)), E::Slot(0))),
            Box::new(b(IntBinOp::Div, E::Const(1), E::Slot(0))),
        );
        let opt = Postfix::compile(&e);
        let mut stack = Vec::new();
        assert_eq!(opt.eval(&[4], &mut stack).unwrap(), 14);
        assert_eq!(opt.eval(&[0], &mut stack), Err(EvalError::DivisionByZero));
        assert_eq!(opt.eval(&[-1], &mut stack).unwrap(), -1);
    }

    #[test]
    fn peephole_agrees_with_tree_eval_on_guarded_forms() {
        // The existing short-circuit tests go through `compile`; this one
        // additionally diffs optimized vs unoptimized op-for-op results.
        let e = b(
            IntBinOp::And,
            b(IntBinOp::Ne, E::Slot(0), E::Const(0)),
            b(
                IntBinOp::Eq,
                b(IntBinOp::Rem, E::Const(12), E::Slot(0)),
                E::Const(0),
            ),
        );
        let raw = Postfix::compile_unoptimized(&e);
        let opt = Postfix::compile(&e);
        let mut stack = Vec::new();
        for x in -13..14 {
            assert_eq!(
                raw.eval(&[x], &mut stack),
                opt.eval(&[x], &mut stack),
                "x={x}"
            );
        }
    }

    #[test]
    fn stack_bound_is_respected() {
        // Deep right-leaning tree: (1 + (2 + (3 + ...))). Compiled without
        // the peephole pass, which would otherwise fold it to one Const.
        let mut e = E::Const(0);
        for i in 1..20 {
            e = b(IntBinOp::Add, E::Const(i), e);
        }
        let pf = Postfix::compile_unoptimized(&e);
        assert!(pf.max_stack() >= 2);
        let mut stack = Vec::new();
        assert_eq!(pf.eval(&[], &mut stack).unwrap(), (1..20).sum::<i64>());
        assert!(stack.capacity() >= pf.max_stack());
    }
}
