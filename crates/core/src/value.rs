//! Runtime values flowing through search-space expressions.
//!
//! The BEAST language of the paper is embedded in Python, where iterator and
//! constraint expressions operate on integers, booleans and the occasional
//! string-valued setting (`precision = "double"`). This module provides the
//! equivalent dynamically-typed value for the interpreted evaluation paths;
//! the compiled paths lower everything to `i64` (see [`crate::ir`]).

use std::fmt;
use std::sync::Arc;

use crate::error::EvalError;

/// A dynamically-typed value.
///
/// Integers are the workhorse: every tuning parameter in the paper's spaces
/// is an integer. Booleans appear as constraint results and as 0/1 switches,
/// floats support derived performance estimates, and strings support settings
/// such as `precision` and `arithmetic` (Fig. 10 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed 64-bit integer.
    Int(i64),
    /// A boolean (constraint results; also usable as a 0/1 parameter).
    Bool(bool),
    /// A double-precision float (derived performance estimates).
    Float(f64),
    /// An immutable string (settings such as `"double"`, `"real"`).
    Str(Arc<str>),
}

impl Value {
    /// Human-readable name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    /// Numeric coercion used by arithmetic: booleans count as 0/1 just as in
    /// Python, the paper's host language.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(EvalError::type_error("int", other.type_name())),
        }
    }

    /// Coerce to a float; ints and booleans widen.
    pub fn as_float(&self) -> Result<f64, EvalError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::Bool(b) => Ok(f64::from(u8::from(*b))),
            other => Err(EvalError::type_error("float", other.type_name())),
        }
    }

    /// Truthiness, following Python semantics for the supported types.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(i) => *i != 0,
            Value::Bool(b) => *b,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// True if either operand is a float, in which case arithmetic promotes.
    fn is_float(&self) -> bool {
        matches!(self, Value::Float(_))
    }

    /// Checked addition with int/float promotion.
    pub fn add(&self, rhs: &Value) -> Result<Value, EvalError> {
        if self.is_float() || rhs.is_float() {
            return Ok(Value::Float(self.as_float()? + rhs.as_float()?));
        }
        self.as_int()?
            .checked_add(rhs.as_int()?)
            .map(Value::Int)
            .ok_or(EvalError::Overflow)
    }

    /// Checked subtraction with int/float promotion.
    pub fn sub(&self, rhs: &Value) -> Result<Value, EvalError> {
        if self.is_float() || rhs.is_float() {
            return Ok(Value::Float(self.as_float()? - rhs.as_float()?));
        }
        self.as_int()?
            .checked_sub(rhs.as_int()?)
            .map(Value::Int)
            .ok_or(EvalError::Overflow)
    }

    /// Checked multiplication with int/float promotion.
    pub fn mul(&self, rhs: &Value) -> Result<Value, EvalError> {
        if self.is_float() || rhs.is_float() {
            return Ok(Value::Float(self.as_float()? * rhs.as_float()?));
        }
        self.as_int()?
            .checked_mul(rhs.as_int()?)
            .map(Value::Int)
            .ok_or(EvalError::Overflow)
    }

    /// Integer division truncating toward zero (C semantics, matching the
    /// generated-C backend of the paper); floats divide exactly.
    ///
    /// All divisions in the paper's spaces have nonnegative operands, for
    /// which trunc and floor division agree; [`Value::floor_div`] is provided
    /// for explicit Python-style semantics.
    pub fn div(&self, rhs: &Value) -> Result<Value, EvalError> {
        if self.is_float() || rhs.is_float() {
            let d = rhs.as_float()?;
            if d == 0.0 {
                return Err(EvalError::DivisionByZero);
            }
            return Ok(Value::Float(self.as_float()? / d));
        }
        let d = rhs.as_int()?;
        if d == 0 {
            return Err(EvalError::DivisionByZero);
        }
        self.as_int()?
            .checked_div(d)
            .map(Value::Int)
            .ok_or(EvalError::Overflow)
    }

    /// Python-style floor division.
    pub fn floor_div(&self, rhs: &Value) -> Result<Value, EvalError> {
        let d = rhs.as_int()?;
        if d == 0 {
            return Err(EvalError::DivisionByZero);
        }
        let n = self.as_int()?;
        let q = n.checked_div(d).ok_or(EvalError::Overflow)?;
        let r = n % d;
        Ok(Value::Int(if r != 0 && (r < 0) != (d < 0) { q - 1 } else { q }))
    }

    /// Remainder with C semantics (sign of the dividend).
    pub fn rem(&self, rhs: &Value) -> Result<Value, EvalError> {
        let d = rhs.as_int()?;
        if d == 0 {
            return Err(EvalError::DivisionByZero);
        }
        let n = self.as_int()?;
        n.checked_rem(d).map(Value::Int).ok_or(EvalError::Overflow)
    }

    /// Unary negation.
    pub fn neg(&self) -> Result<Value, EvalError> {
        match self {
            Value::Float(f) => Ok(Value::Float(-f)),
            other => other
                .as_int()?
                .checked_neg()
                .map(Value::Int)
                .ok_or(EvalError::Overflow),
        }
    }

    /// Three-way comparison; errors on mixed string/number comparisons.
    pub fn compare(&self, rhs: &Value) -> Result<std::cmp::Ordering, EvalError> {
        match (self, rhs) {
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Str(_), other) | (other, Value::Str(_)) => {
                Err(EvalError::type_error("comparable values", other.type_name()))
            }
            (a, b) if a.is_float() || b.is_float() => {
                let (x, y) = (a.as_float()?, b.as_float()?);
                x.partial_cmp(&y).ok_or(EvalError::NanComparison)
            }
            (a, b) => Ok(a.as_int()?.cmp(&b.as_int()?)),
        }
    }

    /// Equality usable across types: strings compare to strings, numbers to
    /// numbers; a string never equals a number (result `false`, not an error),
    /// matching Python's `==`.
    pub fn value_eq(&self, rhs: &Value) -> bool {
        match (self, rhs) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Str(_), _) | (_, Value::Str(_)) => false,
            // Exact for ints, like `compare`: widening to f64 would equate
            // integers beyond 2^53 that differ.
            (a, b) if !a.is_float() && !b.is_float() => a.as_int().ok() == b.as_int().ok(),
            (a, b) => match (a.as_float(), b.as_float()) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        let a = Value::Int(7);
        let b = Value::Int(3);
        assert_eq!(a.add(&b).unwrap(), Value::Int(10));
        assert_eq!(a.sub(&b).unwrap(), Value::Int(4));
        assert_eq!(a.mul(&b).unwrap(), Value::Int(21));
        assert_eq!(a.div(&b).unwrap(), Value::Int(2));
        assert_eq!(a.rem(&b).unwrap(), Value::Int(1));
    }

    #[test]
    fn bool_coerces_to_int() {
        assert_eq!(Value::Bool(true).add(&Value::Int(1)).unwrap(), Value::Int(2));
        assert_eq!(Value::Bool(false).as_int().unwrap(), 0);
    }

    #[test]
    fn float_promotion() {
        let v = Value::Int(1).add(&Value::Float(0.5)).unwrap();
        assert_eq!(v, Value::Float(1.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(matches!(
            Value::Int(1).div(&Value::Int(0)),
            Err(EvalError::DivisionByZero)
        ));
        assert!(matches!(
            Value::Int(1).rem(&Value::Int(0)),
            Err(EvalError::DivisionByZero)
        ));
    }

    #[test]
    fn overflow_is_an_error() {
        assert!(matches!(
            Value::Int(i64::MAX).add(&Value::Int(1)),
            Err(EvalError::Overflow)
        ));
        assert!(matches!(
            Value::Int(i64::MIN).neg(),
            Err(EvalError::Overflow)
        ));
    }

    #[test]
    fn trunc_vs_floor_division() {
        // Nonnegative operands: agree (the case in all paper spaces).
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).floor_div(&Value::Int(2)).unwrap(), Value::Int(3));
        // Negative dividend: trunc toward zero vs floor.
        assert_eq!(Value::Int(-7).div(&Value::Int(2)).unwrap(), Value::Int(-3));
        assert_eq!(Value::Int(-7).floor_div(&Value::Int(2)).unwrap(), Value::Int(-4));
    }

    #[test]
    fn string_equality_and_errors() {
        let s = Value::from("double");
        assert!(s.value_eq(&Value::from("double")));
        assert!(!s.value_eq(&Value::from("single")));
        assert!(!s.value_eq(&Value::Int(1)));
        assert!(s.as_int().is_err());
        assert!(s.compare(&Value::Int(1)).is_err());
    }

    #[test]
    fn integer_equality_is_exact_beyond_f64_precision() {
        let a = Value::Int(i64::MAX - 4);
        assert!(!a.value_eq(&Value::Int(i64::MAX - 5)));
        assert!(a.value_eq(&Value::Int(i64::MAX - 4)));
        assert!(Value::Bool(true).value_eq(&Value::Int(1)));
        assert!(Value::Int(2).value_eq(&Value::Float(2.0)));
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)).unwrap(),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            Value::from("a").compare(&Value::from("b")).unwrap(),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(3).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::from("x").truthy());
        assert!(!Value::from("").truthy());
        assert!(!Value::Float(0.0).truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::from("d").to_string(), "\"d\"");
    }
}
