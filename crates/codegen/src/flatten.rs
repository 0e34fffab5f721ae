//! Expression flattening: control flow out of expressions, into statements.
//!
//! Ternaries and short-circuiting `&&`/`||` carry *guard semantics* — the
//! untaken branch must not be evaluated (`x != 0 && y % x == 0` must never
//! divide by zero). Languages differ in how (and whether) their expression
//! syntax can express that lazily, so the generator normalizes first: every
//! lazy construct becomes an `if` statement assigning a fresh temporary, and
//! what remains ([`PExpr`]) is pure, eager, and renderable verbatim in any
//! backend.

use beast_core::expr::Builtin;
use beast_core::ir::{IntBinOp, IntExpr};

/// Pure arithmetic operators (no control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// Trunc-toward-zero division.
    Div,
    /// Floor division.
    FloorDiv,
    /// C remainder.
    Rem,
}

/// Comparison operators, producing 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A pure (eager, side-effect-free) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// Integer literal.
    Const(i64),
    /// Variable reference (slot variable or generated temporary).
    Var(String),
    /// Arithmetic.
    Arith(ArithOp, Box<PExpr>, Box<PExpr>),
    /// Comparison producing 0/1.
    Cmp(CmpOp, Box<PExpr>, Box<PExpr>),
    /// Arithmetic negation.
    Neg(Box<PExpr>),
    /// Logical not producing 0/1.
    Not(Box<PExpr>),
    /// Absolute value.
    Abs(Box<PExpr>),
    /// Two-argument builtin (min/max/div_ceil/gcd/round_up).
    Call(Builtin, Box<PExpr>, Box<PExpr>),
}

/// A flattened statement.
#[derive(Debug, Clone, PartialEq)]
pub enum FStmt {
    /// Declare a temporary (backends that require declarations render it;
    /// others ignore it). Always followed eventually by an [`FStmt::Assign`].
    Declare {
        /// Temporary name.
        var: String,
    },
    /// Assign a pure expression to a variable.
    Assign {
        /// Target name.
        var: String,
        /// Pure value.
        value: PExpr,
    },
    /// Conditional: `cond != 0` selects the branch.
    If {
        /// The (pure) condition, tested against zero.
        cond: PExpr,
        /// Taken when nonzero.
        then: Vec<FStmt>,
        /// Taken when zero.
        otherwise: Vec<FStmt>,
    },
}

/// Generates fresh temporary names (`_t0`, `_t1`, ...).
#[derive(Debug)]
pub struct TempGen {
    prefix: &'static str,
    counter: usize,
}

impl Default for TempGen {
    fn default() -> Self {
        TempGen::with_prefix("_t")
    }
}

impl TempGen {
    /// A generator in its own namespace (`<prefix>0`, `<prefix>1`, ...), for
    /// temporaries that must not renumber the default `_t` sequence.
    pub fn with_prefix(prefix: &'static str) -> Self {
        TempGen { prefix, counter: 0 }
    }

    /// A fresh temporary name.
    pub fn fresh(&mut self) -> String {
        let name = format!("{}{}", self.prefix, self.counter);
        self.counter += 1;
        name
    }
}

/// Flatten `e`: emit any needed statements into `out` and return the pure
/// expression for the final value. `names` maps slots to variable names.
pub fn flatten(
    e: &IntExpr,
    names: &[std::sync::Arc<str>],
    gen: &mut TempGen,
    out: &mut Vec<FStmt>,
) -> PExpr {
    match e {
        IntExpr::Const(c) => PExpr::Const(*c),
        IntExpr::Slot(s) => PExpr::Var(names[*s as usize].to_string()),
        IntExpr::Neg(a) => PExpr::Neg(Box::new(flatten(a, names, gen, out))),
        IntExpr::Not(a) => PExpr::Not(Box::new(flatten(a, names, gen, out))),
        IntExpr::Abs(a) => PExpr::Abs(Box::new(flatten(a, names, gen, out))),
        IntExpr::Call2(b, x, y) => PExpr::Call(
            *b,
            Box::new(flatten(x, names, gen, out)),
            Box::new(flatten(y, names, gen, out)),
        ),
        IntExpr::Ternary(c, t, f) => {
            let cond = flatten(c, names, gen, out);
            let tmp = gen.fresh();
            out.push(FStmt::Declare { var: tmp.clone() });
            let mut then = Vec::new();
            let tv = flatten(t, names, gen, &mut then);
            then.push(FStmt::Assign { var: tmp.clone(), value: tv });
            let mut otherwise = Vec::new();
            let fv = flatten(f, names, gen, &mut otherwise);
            otherwise.push(FStmt::Assign { var: tmp.clone(), value: fv });
            out.push(FStmt::If { cond, then, otherwise });
            PExpr::Var(tmp)
        }
        IntExpr::Bin(op, a, b) => match op {
            IntBinOp::And => {
                let av = flatten(a, names, gen, out);
                let tmp = gen.fresh();
                out.push(FStmt::Declare { var: tmp.clone() });
                let mut then = Vec::new();
                let bv = flatten(b, names, gen, &mut then);
                then.push(FStmt::Assign {
                    var: tmp.clone(),
                    value: PExpr::Cmp(CmpOp::Ne, Box::new(bv), Box::new(PExpr::Const(0))),
                });
                let otherwise =
                    vec![FStmt::Assign { var: tmp.clone(), value: PExpr::Const(0) }];
                out.push(FStmt::If { cond: av, then, otherwise });
                PExpr::Var(tmp)
            }
            IntBinOp::Or => {
                let av = flatten(a, names, gen, out);
                let tmp = gen.fresh();
                out.push(FStmt::Declare { var: tmp.clone() });
                let mut otherwise = Vec::new();
                let bv = flatten(b, names, gen, &mut otherwise);
                otherwise.push(FStmt::Assign {
                    var: tmp.clone(),
                    value: PExpr::Cmp(CmpOp::Ne, Box::new(bv), Box::new(PExpr::Const(0))),
                });
                let then = vec![FStmt::Assign { var: tmp.clone(), value: PExpr::Const(1) }];
                out.push(FStmt::If { cond: av, then, otherwise });
                PExpr::Var(tmp)
            }
            _ => {
                let av = flatten(a, names, gen, out);
                let bv = flatten(b, names, gen, out);
                let (a, b) = (Box::new(av), Box::new(bv));
                match op {
                    IntBinOp::Add => PExpr::Arith(ArithOp::Add, a, b),
                    IntBinOp::Sub => PExpr::Arith(ArithOp::Sub, a, b),
                    IntBinOp::Mul => PExpr::Arith(ArithOp::Mul, a, b),
                    IntBinOp::Div => PExpr::Arith(ArithOp::Div, a, b),
                    IntBinOp::FloorDiv => PExpr::Arith(ArithOp::FloorDiv, a, b),
                    IntBinOp::Rem => PExpr::Arith(ArithOp::Rem, a, b),
                    IntBinOp::Lt => PExpr::Cmp(CmpOp::Lt, a, b),
                    IntBinOp::Le => PExpr::Cmp(CmpOp::Le, a, b),
                    IntBinOp::Gt => PExpr::Cmp(CmpOp::Gt, a, b),
                    IntBinOp::Ge => PExpr::Cmp(CmpOp::Ge, a, b),
                    IntBinOp::Eq => PExpr::Cmp(CmpOp::Eq, a, b),
                    IntBinOp::Ne => PExpr::Cmp(CmpOp::Ne, a, b),
                    IntBinOp::And | IntBinOp::Or => unreachable!("handled above"),
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn names() -> Vec<Arc<str>> {
        vec![Arc::from("x"), Arc::from("y")]
    }

    #[test]
    fn pure_expressions_stay_inline() {
        let e = IntExpr::Bin(
            IntBinOp::Mul,
            Box::new(IntExpr::Slot(0)),
            Box::new(IntExpr::Const(3)),
        );
        let mut gen = TempGen::default();
        let mut out = Vec::new();
        let p = flatten(&e, &names(), &mut gen, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            p,
            PExpr::Arith(
                ArithOp::Mul,
                Box::new(PExpr::Var("x".into())),
                Box::new(PExpr::Const(3))
            )
        );
    }

    #[test]
    fn and_becomes_guarded_if() {
        // x != 0 && (y % x) == 0
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
                    Box::new(IntExpr::Slot(1)),
                    Box::new(IntExpr::Slot(0)),
                )),
                Box::new(IntExpr::Const(0)),
            )),
        );
        let mut gen = TempGen::default();
        let mut out = Vec::new();
        let p = flatten(&e, &names(), &mut gen, &mut out);
        assert_eq!(p, PExpr::Var("_t0".into()));
        // Declare then If; the remainder operation lives inside `then` only.
        assert!(matches!(out[0], FStmt::Declare { .. }));
        match &out[1] {
            FStmt::If { then, otherwise, .. } => {
                assert_eq!(otherwise.len(), 1);
                let then_str = format!("{then:?}");
                assert!(then_str.contains("Rem"), "division must be guarded");
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn ternary_becomes_if() {
        let e = IntExpr::Ternary(
            Box::new(IntExpr::Slot(0)),
            Box::new(IntExpr::Const(1)),
            Box::new(IntExpr::Const(2)),
        );
        let mut gen = TempGen::default();
        let mut out = Vec::new();
        let p = flatten(&e, &names(), &mut gen, &mut out);
        assert_eq!(p, PExpr::Var("_t0".into()));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nested_lazies_generate_distinct_temps() {
        // (x && y) || x
        let and = IntExpr::Bin(
            IntBinOp::And,
            Box::new(IntExpr::Slot(0)),
            Box::new(IntExpr::Slot(1)),
        );
        let e = IntExpr::Bin(IntBinOp::Or, Box::new(and), Box::new(IntExpr::Slot(0)));
        let mut gen = TempGen::default();
        let mut out = Vec::new();
        let p = flatten(&e, &names(), &mut gen, &mut out);
        assert_eq!(p, PExpr::Var("_t1".into()));
        assert!(out.len() >= 3);
    }
}
