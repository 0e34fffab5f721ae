//! Expression AST for iterator bounds, derived variables and constraints.
//!
//! This is the Rust analog of the paper's *expression* forms (Section V and
//! VIII): Python expressions over iterator variables with overloaded
//! arithmetic, relational and logical operators plus overloaded builtins such
//! as `min`. Here the overloading lives on the [`E`] wrapper type, which
//! builds an [`Expr`] tree; dependencies are extracted automatically from the
//! tree exactly as the paper's translator reads them off the Python AST.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::EvalError;
use crate::value::Value;

/// Read-only view of the currently bound variables.
///
/// All evaluation backends (hash-map walker, bytecode VM, compiled slots)
/// provide this view so that deferred iterators and constraints — opaque Rust
/// closures, the analog of the paper's `@iterator`/`@condition` functions —
/// can run against any of them.
pub trait Bindings {
    /// Look up a variable by name; `None` if it is not bound yet.
    fn get(&self, name: &str) -> Option<Value>;

    /// Look up a variable, erroring like Python's `NameError` if unbound.
    fn require(&self, name: &str) -> Result<Value, EvalError> {
        self.get(name).ok_or_else(|| EvalError::Unbound(name.to_string()))
    }

    /// Look up a variable and coerce it to an integer.
    fn require_int(&self, name: &str) -> Result<i64, EvalError> {
        self.require(name)?.as_int()
    }
}

/// An empty binding set (useful for evaluating constant expressions).
pub struct NoBindings;

impl Bindings for NoBindings {
    fn get(&self, _name: &str) -> Option<Value> {
        None
    }
}

impl Bindings for std::collections::HashMap<Arc<str>, Value> {
    fn get(&self, name: &str) -> Option<Value> {
        std::collections::HashMap::get(self, name).cloned()
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b` with C trunc-toward-zero semantics on integers.
    Div,
    /// `a // b`, Python floor division.
    FloorDiv,
    /// `a % b` with C remainder semantics.
    Rem,
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// Short-circuiting logical and.
    And,
    /// Short-circuiting logical or.
    Or,
}

impl BinOp {
    /// True for the six relational operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// The operator token in C-like syntax (used by code generators).
    pub fn c_token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div | BinOp::FloorDiv => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Overloaded builtin functions (the paper overloads Python's `min`, `max`
/// and friends for iterator expressions; Section VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Absolute value.
    Abs,
    /// `ceil(a / b)` for positive integers.
    DivCeil,
    /// Greatest common divisor.
    Gcd,
    /// Round `a` up to the next multiple of `b`.
    RoundUp,
}

impl Builtin {
    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Abs => 1,
            _ => 2,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Abs => "abs",
            Builtin::DivCeil => "div_ceil",
            Builtin::Gcd => "gcd",
            Builtin::RoundUp => "round_up",
        }
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// A variable reference by name; resolved against the active bindings at
    /// evaluation time, or against slots after lowering.
    Var(Arc<str>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation. `And`/`Or` short-circuit.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `if cond { then } else { other }` — the paper notes Python's ternary
    /// cannot be overloaded and supports it specially; we make it a node.
    Ternary {
        /// The condition.
        cond: Box<Expr>,
        /// Value if the condition is truthy.
        then: Box<Expr>,
        /// Value otherwise.
        otherwise: Box<Expr>,
    },
    /// A builtin call.
    Call(Builtin, Vec<Expr>),
}

impl Expr {
    /// Evaluate the expression against the given bindings.
    pub fn eval(&self, env: &dyn Bindings) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(name) => env.require(name),
            Expr::Unary(op, a) => {
                let v = a.eval(env)?;
                match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logical operators first: the paper calls out
                // short-circuiting as an important pruning optimization
                // (Section VIII-A).
                match op {
                    BinOp::And => {
                        let va = a.eval(env)?;
                        if !va.truthy() {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(b.eval(env)?.truthy()));
                    }
                    BinOp::Or => {
                        let va = a.eval(env)?;
                        if va.truthy() {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(b.eval(env)?.truthy()));
                    }
                    _ => {}
                }
                let va = a.eval(env)?;
                let vb = b.eval(env)?;
                match op {
                    BinOp::Add => va.add(&vb),
                    BinOp::Sub => va.sub(&vb),
                    BinOp::Mul => va.mul(&vb),
                    BinOp::Div => va.div(&vb),
                    BinOp::FloorDiv => va.floor_div(&vb),
                    BinOp::Rem => va.rem(&vb),
                    BinOp::Eq => Ok(Value::Bool(va.value_eq(&vb))),
                    BinOp::Ne => Ok(Value::Bool(!va.value_eq(&vb))),
                    BinOp::Lt => Ok(Value::Bool(va.compare(&vb)?.is_lt())),
                    BinOp::Le => Ok(Value::Bool(va.compare(&vb)?.is_le())),
                    BinOp::Gt => Ok(Value::Bool(va.compare(&vb)?.is_gt())),
                    BinOp::Ge => Ok(Value::Bool(va.compare(&vb)?.is_ge())),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            Expr::Ternary { cond, then, otherwise } => {
                if cond.eval(env)?.truthy() {
                    then.eval(env)
                } else {
                    otherwise.eval(env)
                }
            }
            Expr::Call(b, args) => {
                debug_assert_eq!(args.len(), b.arity());
                match b {
                    Builtin::Abs => {
                        let v = args[0].eval(env)?;
                        match v {
                            Value::Float(f) => Ok(Value::Float(f.abs())),
                            other => other
                                .as_int()?
                                .checked_abs()
                                .map(Value::Int)
                                .ok_or(EvalError::Overflow),
                        }
                    }
                    Builtin::Min | Builtin::Max => {
                        let a = args[0].eval(env)?;
                        let b2 = args[1].eval(env)?;
                        let ord = a.compare(&b2)?;
                        let take_a = match b {
                            Builtin::Min => ord.is_le(),
                            _ => ord.is_ge(),
                        };
                        Ok(if take_a { a } else { b2 })
                    }
                    Builtin::DivCeil => {
                        let a = args[0].eval(env)?.as_int()?;
                        let d = args[1].eval(env)?.as_int()?;
                        Ok(Value::Int(crate::ir::div_ceil(a, d)?))
                    }
                    Builtin::Gcd => {
                        let mut a = args[0].eval(env)?.as_int()?.unsigned_abs();
                        let mut b2 = args[1].eval(env)?.as_int()?.unsigned_abs();
                        while b2 != 0 {
                            let t = a % b2;
                            a = b2;
                            b2 = t;
                        }
                        Ok(Value::Int(a as i64))
                    }
                    Builtin::RoundUp => {
                        let a = args[0].eval(env)?.as_int()?;
                        let m = args[1].eval(env)?.as_int()?;
                        Ok(Value::Int(crate::ir::round_up(a, m)?))
                    }
                }
            }
        }
    }

    /// Collect the free variable names this expression references.
    pub fn collect_deps(&self, out: &mut BTreeSet<Arc<str>>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(name) => {
                out.insert(Arc::clone(name));
            }
            Expr::Unary(_, a) => a.collect_deps(out),
            Expr::Binary(_, a, b) => {
                a.collect_deps(out);
                b.collect_deps(out);
            }
            Expr::Ternary { cond, then, otherwise } => {
                cond.collect_deps(out);
                then.collect_deps(out);
                otherwise.collect_deps(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_deps(out);
                }
            }
        }
    }

    /// The set of free variables, as a fresh set.
    pub fn deps(&self) -> BTreeSet<Arc<str>> {
        let mut s = BTreeSet::new();
        self.collect_deps(&mut s);
        s
    }

    /// Number of nodes in the tree (used by planners as a cost hint).
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Unary(_, a) => 1 + a.size(),
            Expr::Binary(_, a, b) => 1 + a.size() + b.size(),
            Expr::Ternary { cond, then, otherwise } => {
                1 + cond.size() + then.size() + otherwise.size()
            }
            Expr::Call(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(n) => write!(f, "{n}"),
            Expr::Unary(UnOp::Neg, a) => write!(f, "(-{a})"),
            Expr::Unary(UnOp::Not, a) => write!(f, "(!{a})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.c_token()),
            Expr::Ternary { cond, then, otherwise } => {
                write!(f, "({cond} ? {then} : {otherwise})")
            }
            Expr::Call(b, args) => {
                write!(f, "{}(", b.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ergonomic builder: the `E` wrapper with operator overloading.
// ---------------------------------------------------------------------------

/// Expression builder with overloaded operators, the Rust stand-in for the
/// paper's overloaded Python operators on iterator objects.
///
/// ```
/// use beast_core::expr::{var, lit, E};
/// let threads: E = var("dim_m") * var("dim_n");
/// let over = threads.clone().gt(lit(1024));
/// assert_eq!(over.expr().deps().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct E(pub Expr);

/// Build a variable reference.
pub fn var(name: &str) -> E {
    E(Expr::Var(Arc::from(name)))
}

/// Build a literal.
pub fn lit(v: impl Into<Value>) -> E {
    E(Expr::Const(v.into()))
}

/// Ternary expression `if cond then a else b`.
pub fn ternary(cond: E, then: E, otherwise: E) -> E {
    E(Expr::Ternary {
        cond: Box::new(cond.0),
        then: Box::new(then.0),
        otherwise: Box::new(otherwise.0),
    })
}

/// Two-argument minimum, mirroring the paper's overloaded `min` builtin.
pub fn min2(a: impl Into<E>, b: impl Into<E>) -> E {
    E(Expr::Call(Builtin::Min, vec![a.into().0, b.into().0]))
}

/// Two-argument maximum.
pub fn max2(a: impl Into<E>, b: impl Into<E>) -> E {
    E(Expr::Call(Builtin::Max, vec![a.into().0, b.into().0]))
}

impl E {
    /// Unwrap into the raw [`Expr`].
    pub fn into_expr(self) -> Expr {
        self.0
    }

    /// Borrow the raw [`Expr`].
    pub fn expr(&self) -> &Expr {
        &self.0
    }

    fn bin(op: BinOp, a: E, b: E) -> E {
        E(Expr::Binary(op, Box::new(a.0), Box::new(b.0)))
    }

    /// `self < rhs`
    pub fn lt(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Lt, self, rhs.into())
    }

    /// `self <= rhs`
    pub fn le(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Le, self, rhs.into())
    }

    /// `self > rhs`
    pub fn gt(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Gt, self, rhs.into())
    }

    /// `self >= rhs`
    pub fn ge(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Ge, self, rhs.into())
    }

    /// `self == rhs`
    pub fn eq(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Eq, self, rhs.into())
    }

    /// `self != rhs`
    pub fn ne(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Ne, self, rhs.into())
    }

    /// Short-circuiting `self && rhs`.
    pub fn and(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::And, self, rhs.into())
    }

    /// Short-circuiting `self || rhs`.
    pub fn or(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Or, self, rhs.into())
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> E {
        E(Expr::Unary(UnOp::Not, Box::new(self.0)))
    }

    /// Python floor division `self // rhs`.
    pub fn floor_div(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::FloorDiv, self, rhs.into())
    }

    /// Remainder `self % rhs` (also available via the `%` operator).
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, rhs: impl Into<E>) -> E {
        E::bin(BinOp::Rem, self, rhs.into())
    }
}

impl From<Expr> for E {
    fn from(e: Expr) -> Self {
        E(e)
    }
}

impl From<i64> for E {
    fn from(i: i64) -> Self {
        lit(i)
    }
}

impl From<i32> for E {
    fn from(i: i32) -> Self {
        lit(i64::from(i))
    }
}

impl From<&str> for E {
    fn from(s: &str) -> Self {
        lit(s)
    }
}

impl From<bool> for E {
    fn from(b: bool) -> Self {
        lit(b)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: Into<E>> std::ops::$trait<R> for E {
            type Output = E;
            fn $method(self, rhs: R) -> E {
                E::bin($op, self, rhs.into())
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Rem);

impl std::ops::Neg for E {
    type Output = E;
    fn neg(self) -> E {
        E(Expr::Unary(UnOp::Neg, Box::new(self.0)))
    }
}

/// A `Copy` reference to a variable by name, so that the [`crate::space!`]
/// macro can introduce each declared name as a reusable binding (an `E` would
/// be moved on first use). Participates in the same operator overloading as
/// [`E`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarRef(pub &'static str);

impl VarRef {
    /// Convert to an expression.
    pub fn e(self) -> E {
        var(self.0)
    }

    /// `self < rhs`
    pub fn lt(self, rhs: impl Into<E>) -> E {
        self.e().lt(rhs)
    }

    /// `self <= rhs`
    pub fn le(self, rhs: impl Into<E>) -> E {
        self.e().le(rhs)
    }

    /// `self > rhs`
    pub fn gt(self, rhs: impl Into<E>) -> E {
        self.e().gt(rhs)
    }

    /// `self >= rhs`
    pub fn ge(self, rhs: impl Into<E>) -> E {
        self.e().ge(rhs)
    }

    /// `self == rhs`
    pub fn eq(self, rhs: impl Into<E>) -> E {
        self.e().eq(rhs)
    }

    /// `self != rhs`
    pub fn ne(self, rhs: impl Into<E>) -> E {
        self.e().ne(rhs)
    }

    /// Short-circuiting and.
    pub fn and(self, rhs: impl Into<E>) -> E {
        self.e().and(rhs)
    }

    /// Short-circuiting or.
    pub fn or(self, rhs: impl Into<E>) -> E {
        self.e().or(rhs)
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> E {
        self.e().not()
    }

    /// Python floor division.
    pub fn floor_div(self, rhs: impl Into<E>) -> E {
        self.e().floor_div(rhs)
    }
}

impl From<VarRef> for E {
    fn from(v: VarRef) -> E {
        v.e()
    }
}

macro_rules! impl_varref_binop {
    ($trait:ident, $method:ident) => {
        impl<R: Into<E>> std::ops::$trait<R> for VarRef {
            type Output = E;
            fn $method(self, rhs: R) -> E {
                std::ops::$trait::$method(self.e(), rhs)
            }
        }
    };
}

impl_varref_binop!(Add, add);
impl_varref_binop!(Sub, sub);
impl_varref_binop!(Mul, mul);
impl_varref_binop!(Div, div);
impl_varref_binop!(Rem, rem);

impl std::ops::Neg for VarRef {
    type Output = E;
    fn neg(self) -> E {
        -self.e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env(pairs: &[(&str, i64)]) -> HashMap<Arc<str>, Value> {
        pairs
            .iter()
            .map(|(k, v)| (Arc::<str>::from(*k), Value::Int(*v)))
            .collect()
    }

    #[test]
    fn arithmetic_builder_and_eval() {
        let e = (var("a") * 3 + var("b")) / 2;
        let env = env(&[("a", 5), ("b", 1)]);
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Int(8));
    }

    #[test]
    fn unbound_variable_errors_like_nameerror() {
        let e = var("missing") + 1;
        assert_eq!(
            e.expr().eval(&NoBindings),
            Err(EvalError::Unbound("missing".into()))
        );
    }

    #[test]
    fn comparisons_and_logic() {
        let env = env(&[("x", 4)]);
        let e = var("x").gt(2).and(var("x").lt(10));
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Bool(true));
        let e = var("x").gt(5).or(var("x").eq(4));
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // `x != 0 && 10 % x == 0` must not divide by zero when x == 0.
        let env = env(&[("x", 0)]);
        let e = var("x").ne(0).and((lit(10) % var("x")).eq(0));
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Bool(false));
        // Or-side short circuit.
        let e = var("x").eq(0).or((lit(10) % var("x")).eq(0));
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn ternary_selects_branch() {
        let env = env(&[("trans_a", 0), ("blk_m", 32), ("blk_k", 8)]);
        let e = ternary(var("trans_a").ne(0), var("blk_m"), var("blk_k"));
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Int(8));
    }

    #[test]
    fn builtins() {
        let env = env(&[("a", 7), ("b", 3)]);
        assert_eq!(
            min2(var("a"), var("b")).expr().eval(&env).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            max2(var("a"), var("b")).expr().eval(&env).unwrap(),
            Value::Int(7)
        );
        let dc = E(Expr::Call(Builtin::DivCeil, vec![var("a").0, var("b").0]));
        assert_eq!(dc.expr().eval(&env).unwrap(), Value::Int(3));
        let g = E(Expr::Call(Builtin::Gcd, vec![lit(12).0, lit(18).0]));
        assert_eq!(g.expr().eval(&NoBindings).unwrap(), Value::Int(6));
        let r = E(Expr::Call(Builtin::RoundUp, vec![lit(33).0, lit(32).0]));
        assert_eq!(r.expr().eval(&NoBindings).unwrap(), Value::Int(64));
    }

    #[test]
    fn dependency_extraction() {
        let e = (var("dim_m") * var("dim_n")).gt(var("max_threads"));
        let deps = e.expr().deps();
        let names: Vec<&str> = deps.iter().map(|s| &**s).collect();
        assert_eq!(names, vec!["dim_m", "dim_n", "max_threads"]);
    }

    #[test]
    fn string_settings_in_expressions() {
        let mut env: HashMap<Arc<str>, Value> = HashMap::new();
        env.insert(Arc::from("precision"), Value::from("double"));
        let e = var("precision").eq("double");
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Bool(true));
        let e = var("precision").eq("single");
        assert_eq!(e.expr().eval(&env).unwrap(), Value::Bool(false));
    }

    #[test]
    fn display_round_trip_shape() {
        let e = (var("a") + 1) * var("b");
        assert_eq!(e.expr().to_string(), "((a + 1) * b)");
        let t = ternary(var("c").ne(0), lit(1), lit(2));
        assert_eq!(t.expr().to_string(), "((c != 0) ? 1 : 2)");
    }

    #[test]
    fn size_counts_nodes() {
        let e = (var("a") + 1) * var("b");
        assert_eq!(e.expr().size(), 5);
    }
}
