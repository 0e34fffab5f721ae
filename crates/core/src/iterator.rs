//! Parameter iterators: the three classes of the BEAST language (Section V)
//! plus the iterator algebra of Section VIII.
//!
//! * **Expression iterators** — `range(start, stop, step)` where the bounds
//!   are [`Expr`]s over previously bound iterators, explicit value lists, and
//!   singletons. Dependencies are extracted automatically from the bound
//!   expressions.
//! * **Deferred iterators** — opaque functions of other iterators that return
//!   a realized domain; they may use arbitrary control flow (`if/elif/else`)
//!   and can be defined in any order. Dependencies are declared, mirroring
//!   how the paper reads them off the Python function's parameter list.
//! * **Closure iterators** — generator-style functions that yield a stream of
//!   values and may hold internal state (the paper's prime and Fibonacci
//!   examples, Figs. 3 and 6).
//!
//! The set-algebra combinators (union, intersection, difference, concat)
//! correspond to the paper's "iterator algebra".

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::EvalError;
use crate::expr::{Bindings, Expr, E};
use crate::value::Value;

/// Python-range length of `start..stop` by `step`, exact over all of `i64`
/// (0 for an empty range or a zero step). The one definition shared by
/// [`Realized::len`], the static fanouts of the lowered plan and the
/// compiled engine's `Op::Enter`.
#[inline]
pub fn range_len(start: i64, stop: i64, step: i64) -> u64 {
    // The span lies in `1..2^64`, so it is exact in `u64` and the division
    // needs no 128-bit libcall on the engine's per-entry path.
    let span = if step > 0 && start < stop {
        stop.wrapping_sub(start) as u64
    } else if step < 0 && start > stop {
        start.wrapping_sub(stop) as u64
    } else {
        return 0;
    };
    (span - 1) / step.unsigned_abs() + 1
}

/// A realized (concrete) iteration domain, produced once all dependencies of
/// an iterator are bound.
#[derive(Debug, Clone, PartialEq)]
pub enum Realized {
    /// Half-open integer range `start..stop` advancing by `step` (which may
    /// be negative, like Python's `range`). `step == 0` is a domain error.
    Range {
        /// Inclusive start.
        start: i64,
        /// Exclusive stop.
        stop: i64,
        /// Stride; negative counts down.
        step: i64,
    },
    /// An explicit list of values.
    Values(Vec<Value>),
}

impl Realized {
    /// Realized empty domain.
    pub fn empty() -> Realized {
        Realized::Values(Vec::new())
    }

    /// Number of points in the domain.
    pub fn len(&self) -> usize {
        match self {
            Realized::Range { start, stop, step } => range_len(*start, *stop, *step) as usize,
            Realized::Values(v) => v.len(),
        }
    }

    /// True if the domain has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th value of the domain (`None` past the end). O(1) for
    /// ranges.
    pub fn nth_value(&self, idx: usize) -> Option<Value> {
        match self {
            Realized::Range { start, step, .. } => {
                if idx < self.len() {
                    Some(Value::Int(
                        start.wrapping_add((idx as i64).wrapping_mul(*step)),
                    ))
                } else {
                    None
                }
            }
            Realized::Values(v) => v.get(idx).cloned(),
        }
    }

    /// Membership test for an integer value. O(1) for ranges.
    pub fn contains_int(&self, v: i64) -> bool {
        match self {
            Realized::Range { start, stop, step } => {
                if *step == 0 {
                    return false;
                }
                let in_range = if *step > 0 {
                    *start <= v && v < *stop
                } else {
                    *stop < v && v <= *start
                };
                in_range && (v - start) % step == 0
            }
            Realized::Values(values) => {
                values.iter().any(|x| matches!(x, Value::Int(i) if *i == v))
            }
        }
    }

    /// Position of an integer value within the domain, if present.
    pub fn position_of(&self, v: i64) -> Option<usize> {
        match self {
            Realized::Range { start, step, .. } => {
                if self.contains_int(v) {
                    Some(((v - start) / step) as usize)
                } else {
                    None
                }
            }
            Realized::Values(values) => values
                .iter()
                .position(|x| matches!(x, Value::Int(i) if *i == v)),
        }
    }

    /// Iterate the domain's values in order.
    pub fn iter(&self) -> RealizedIter<'_> {
        match self {
            Realized::Range { start, stop, step } => RealizedIter::Range {
                next: *start,
                stop: *stop,
                step: *step,
                done: *step == 0,
            },
            Realized::Values(v) => RealizedIter::Values(v.iter()),
        }
    }

    /// Materialize into a vector (models Python 2's `range()` list).
    pub fn to_values(&self) -> Vec<Value> {
        self.iter().collect()
    }

    /// Set union (sorted, deduplicated); values must be integers.
    pub fn union(&self, other: &Realized) -> Result<Realized, EvalError> {
        let mut set: BTreeSet<i64> = BTreeSet::new();
        for v in self.iter().chain(other.iter()) {
            set.insert(v.as_int()?);
        }
        Ok(Realized::Values(set.into_iter().map(Value::Int).collect()))
    }

    /// Set intersection (sorted); values must be integers.
    pub fn intersect(&self, other: &Realized) -> Result<Realized, EvalError> {
        let a: BTreeSet<i64> = self.iter().map(|v| v.as_int()).collect::<Result<_, _>>()?;
        let b: BTreeSet<i64> = other.iter().map(|v| v.as_int()).collect::<Result<_, _>>()?;
        Ok(Realized::Values(
            a.intersection(&b).map(|&i| Value::Int(i)).collect(),
        ))
    }

    /// Set difference `self \ other` (sorted); values must be integers.
    pub fn difference(&self, other: &Realized) -> Result<Realized, EvalError> {
        let a: BTreeSet<i64> = self.iter().map(|v| v.as_int()).collect::<Result<_, _>>()?;
        let b: BTreeSet<i64> = other.iter().map(|v| v.as_int()).collect::<Result<_, _>>()?;
        Ok(Realized::Values(
            a.difference(&b).map(|&i| Value::Int(i)).collect(),
        ))
    }

    /// Concatenation preserving order and duplicates.
    pub fn concat(&self, other: &Realized) -> Realized {
        let mut v = self.to_values();
        v.extend(other.iter());
        Realized::Values(v)
    }
}

/// Iterator over a [`Realized`] domain.
pub enum RealizedIter<'a> {
    /// Range cursor.
    Range {
        /// Next value to yield.
        next: i64,
        /// Exclusive stop.
        stop: i64,
        /// Stride.
        step: i64,
        /// Exhausted flag.
        done: bool,
    },
    /// Slice cursor.
    Values(std::slice::Iter<'a, Value>),
}

impl Iterator for RealizedIter<'_> {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        match self {
            RealizedIter::Range { next, stop, step, done } => {
                if *done {
                    return None;
                }
                let in_range = if *step > 0 { *next < *stop } else { *next > *stop };
                if !in_range {
                    *done = true;
                    return None;
                }
                let v = *next;
                match next.checked_add(*step) {
                    Some(n) => *next = n,
                    None => *done = true,
                }
                Some(Value::Int(v))
            }
            RealizedIter::Values(it) => it.next().cloned(),
        }
    }
}

/// Signature of a deferred iterator body: given the bound variables, produce
/// the realized domain.
pub type DeferredFn = dyn Fn(&dyn Bindings) -> Result<Realized, EvalError> + Send + Sync;

/// Signature of a closure (generator) iterator body: given the bound
/// variables, produce a fresh stream of values. The stream may hold internal
/// state, like the paper's prime generator.
pub type ClosureFn =
    dyn Fn(&dyn Bindings) -> Box<dyn Iterator<Item = Value> + Send> + Send + Sync;

/// The definition of one search-space dimension.
#[derive(Clone)]
pub enum IterKind {
    /// `range(start, stop, step)` with expression bounds.
    Range {
        /// Inclusive start expression.
        start: Expr,
        /// Exclusive stop expression.
        stop: Expr,
        /// Stride expression.
        step: Expr,
    },
    /// An explicit list of constant values.
    List(Vec<Value>),
    /// A deferred iterator (opaque function with declared dependencies).
    Deferred {
        /// Declared dependencies (the analog of the Python parameter list).
        deps: Vec<Arc<str>>,
        /// The body.
        f: Arc<DeferredFn>,
    },
    /// A generator-based closure iterator with internal state.
    Closure {
        /// Declared dependencies.
        deps: Vec<Arc<str>>,
        /// The body; called once per realization, yielding the stream.
        f: Arc<ClosureFn>,
    },
    /// Set union of two iterators.
    Union(Box<IterKind>, Box<IterKind>),
    /// Set intersection of two iterators.
    Intersect(Box<IterKind>, Box<IterKind>),
    /// Set difference of two iterators.
    Difference(Box<IterKind>, Box<IterKind>),
    /// Order-preserving concatenation of two iterators.
    Concat(Box<IterKind>, Box<IterKind>),
}

impl fmt::Debug for IterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IterKind::Range { start, stop, step } => {
                write!(f, "range({start}, {stop}, {step})")
            }
            IterKind::List(v) => write!(f, "list({} values)", v.len()),
            IterKind::Deferred { deps, .. } => write!(f, "deferred(deps={deps:?})"),
            IterKind::Closure { deps, .. } => write!(f, "closure(deps={deps:?})"),
            IterKind::Union(a, b) => write!(f, "union({a:?}, {b:?})"),
            IterKind::Intersect(a, b) => write!(f, "intersect({a:?}, {b:?})"),
            IterKind::Difference(a, b) => write!(f, "difference({a:?}, {b:?})"),
            IterKind::Concat(a, b) => write!(f, "concat({a:?}, {b:?})"),
        }
    }
}

impl IterKind {
    /// Collect dependency names: automatic for expression forms, declared for
    /// deferred/closure forms.
    pub fn collect_deps(&self, out: &mut BTreeSet<Arc<str>>) {
        match self {
            IterKind::Range { start, stop, step } => {
                start.collect_deps(out);
                stop.collect_deps(out);
                step.collect_deps(out);
            }
            IterKind::List(_) => {}
            IterKind::Deferred { deps, .. } | IterKind::Closure { deps, .. } => {
                out.extend(deps.iter().cloned());
            }
            IterKind::Union(a, b)
            | IterKind::Intersect(a, b)
            | IterKind::Difference(a, b)
            | IterKind::Concat(a, b) => {
                a.collect_deps(out);
                b.collect_deps(out);
            }
        }
    }

    /// Realize the domain given the currently bound variables.
    ///
    /// Closure iterators are drained into a value list here;
    /// engines realize each closure realization eagerly.
    pub fn realize(&self, env: &dyn Bindings) -> Result<Realized, EvalError> {
        match self {
            IterKind::Range { start, stop, step } => Ok(Realized::Range {
                start: start.eval(env)?.as_int()?,
                stop: stop.eval(env)?.as_int()?,
                step: step.eval(env)?.as_int()?,
            }),
            IterKind::List(v) => Ok(Realized::Values(v.clone())),
            IterKind::Deferred { f, .. } => f(env),
            IterKind::Closure { f, .. } => Ok(Realized::Values(f(env).collect())),
            IterKind::Union(a, b) => a.realize(env)?.union(&b.realize(env)?),
            IterKind::Intersect(a, b) => a.realize(env)?.intersect(&b.realize(env)?),
            IterKind::Difference(a, b) => a.realize(env)?.difference(&b.realize(env)?),
            IterKind::Concat(a, b) => Ok(a.realize(env)?.concat(&b.realize(env)?)),
        }
    }

    /// True if the kind contains an opaque Rust closure anywhere — such
    /// spaces cannot be translated by the source-code generators.
    pub fn is_opaque(&self) -> bool {
        match self {
            IterKind::Range { .. } | IterKind::List(_) => false,
            IterKind::Deferred { .. } | IterKind::Closure { .. } => true,
            IterKind::Union(a, b)
            | IterKind::Intersect(a, b)
            | IterKind::Difference(a, b)
            | IterKind::Concat(a, b) => a.is_opaque() || b.is_opaque(),
        }
    }
}

/// Convenience constructors mirroring the paper's surface syntax.
///
/// `range(a, b)` and `range_step(a, b, s)` build expression iterators; the
/// one-argument Python form `range(n)` is [`build::range0`].
pub mod build {
    use super::*;

    /// `range(start, stop)` with unit step.
    pub fn range(start: impl Into<E>, stop: impl Into<E>) -> IterKind {
        range_step(start, stop, 1)
    }

    /// `range(stop)` starting at zero, Python's one-argument form.
    pub fn range0(stop: impl Into<E>) -> IterKind {
        range_step(0, stop, 1)
    }

    /// `range(start, stop, step)`.
    pub fn range_step(
        start: impl Into<E>,
        stop: impl Into<E>,
        step: impl Into<E>,
    ) -> IterKind {
        IterKind::Range {
            start: start.into().into_expr(),
            stop: stop.into().into_expr(),
            step: step.into().into_expr(),
        }
    }

    /// An explicit list of values (the paper's `Iterator([1, 1, 2, 3, ...])`).
    pub fn list<V: Into<Value>>(values: impl IntoIterator<Item = V>) -> IterKind {
        IterKind::List(values.into_iter().map(Into::into).collect())
    }

    /// A deferred iterator with declared dependencies.
    pub fn deferred<F>(deps: &[&str], f: F) -> IterKind
    where
        F: Fn(&dyn Bindings) -> Result<Realized, EvalError> + Send + Sync + 'static,
    {
        IterKind::Deferred {
            deps: deps.iter().map(|s| Arc::from(*s)).collect(),
            f: Arc::new(f),
        }
    }

    /// A closure (generator) iterator with declared dependencies.
    pub fn closure<F, I>(deps: &[&str], f: F) -> IterKind
    where
        F: Fn(&dyn Bindings) -> I + Send + Sync + 'static,
        I: Iterator<Item = Value> + Send + 'static,
    {
        IterKind::Closure {
            deps: deps.iter().map(|s| Arc::from(*s)).collect(),
            f: Arc::new(move |env| Box::new(f(env))),
        }
    }

    /// Set union of two iterators.
    pub fn union(a: IterKind, b: IterKind) -> IterKind {
        IterKind::Union(Box::new(a), Box::new(b))
    }

    /// Set intersection of two iterators.
    pub fn intersect(a: IterKind, b: IterKind) -> IterKind {
        IterKind::Intersect(Box::new(a), Box::new(b))
    }

    /// Set difference of two iterators.
    pub fn difference(a: IterKind, b: IterKind) -> IterKind {
        IterKind::Difference(Box::new(a), Box::new(b))
    }

    /// Concatenation of two iterators.
    pub fn concat(a: IterKind, b: IterKind) -> IterKind {
        IterKind::Concat(Box::new(a), Box::new(b))
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::expr::{var, NoBindings};
    use std::collections::HashMap;

    fn env(pairs: &[(&str, i64)]) -> HashMap<Arc<str>, Value> {
        pairs
            .iter()
            .map(|(k, v)| (Arc::<str>::from(*k), Value::Int(*v)))
            .collect()
    }

    #[test]
    fn realized_range_len_and_iter() {
        let r = Realized::Range { start: 1, stop: 10, step: 3 };
        assert_eq!(r.len(), 3);
        let vals: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 4, 7]);
    }

    #[test]
    fn realized_negative_step() {
        // The paper's blk_n_a example: range(x, 0, -1).
        let r = Realized::Range { start: 4, stop: 0, step: -1 };
        assert_eq!(r.len(), 4);
        let vals: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![4, 3, 2, 1]);
    }

    #[test]
    fn realized_empty_cases() {
        assert!(Realized::Range { start: 5, stop: 5, step: 1 }.is_empty());
        assert!(Realized::Range { start: 5, stop: 1, step: 1 }.is_empty());
        assert!(Realized::Range { start: 1, stop: 5, step: -1 }.is_empty());
        assert!(Realized::Range { start: 1, stop: 5, step: 0 }.is_empty());
        assert!(Realized::empty().is_empty());
    }

    #[test]
    fn dependent_range_realization() {
        // blk_m = range(dim_m, 33, dim_m) — Fig. 4 of the paper.
        let it = range_step(var("dim_m"), 33, var("dim_m"));
        let env = env(&[("dim_m", 8)]);
        let r = it.realize(&env).unwrap();
        let vals: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![8, 16, 24, 32]);
        let deps = {
            let mut s = BTreeSet::new();
            it.collect_deps(&mut s);
            s
        };
        assert_eq!(deps.len(), 1);
        assert!(deps.contains("dim_m"));
    }

    #[test]
    fn deferred_iterator_with_branching() {
        // Fig. 5: direction depends on trans_a.
        let it = deferred(&["trans_a", "blk_m", "blk_k"], |env| {
            let x = if env.require_int("trans_a")? != 0 {
                env.require_int("blk_m")?
            } else {
                env.require_int("blk_k")?
            };
            Ok(Realized::Range { start: x, stop: 0, step: -1 })
        });
        let r = it.realize(&env(&[("trans_a", 0), ("blk_m", 9), ("blk_k", 3)])).unwrap();
        assert_eq!(r.len(), 3);
        assert!(it.is_opaque());
    }

    #[test]
    fn closure_iterator_primes() {
        // Fig. 3: primes up to MAX via a stateful generator.
        let it = closure(&["max"], |env| {
            let max = env.require_int("max").unwrap_or(0);
            let mut old_primes: Vec<i64> = Vec::new();
            let mut n = 1i64;
            std::iter::from_fn(move || loop {
                n += 1;
                if n > max {
                    return None;
                }
                if old_primes.iter().all(|p| n % p != 0) {
                    old_primes.push(n);
                    return Some(Value::Int(n));
                }
            })
        });
        let r = it.realize(&env(&[("max", 20)])).unwrap();
        let vals: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![2, 3, 5, 7, 11, 13, 17, 19]);
    }

    #[test]
    fn closure_iterator_fibonacci() {
        // Fig. 6: Fibonacci numbers up to and including MAX.
        let it = closure(&["max"], |env| {
            let max = env.require_int("max").unwrap_or(0);
            let (mut k, mut n) = (1i64, 1i64);
            std::iter::from_fn(move || {
                if n > max {
                    return None;
                }
                let out = n;
                let next = n + k;
                k = n;
                n = next;
                Some(Value::Int(out))
            })
        });
        let vals: Vec<i64> = it
            .realize(&env(&[("max", 13)]))
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        // Fig. 6 initializes k = n = 1, so the sequence has a single leading 1.
        assert_eq!(vals, vec![1, 2, 3, 5, 8, 13]);
    }

    #[test]
    fn iterator_algebra() {
        let a = list([1i64, 2, 3, 4]);
        let b = range(3, 7); // 3,4,5,6
        let u = union(a.clone(), b.clone()).realize(&NoBindings).unwrap();
        assert_eq!(u.len(), 6);
        let i = intersect(a.clone(), b.clone()).realize(&NoBindings).unwrap();
        let vals: Vec<i64> = i.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![3, 4]);
        let d = difference(a.clone(), b.clone()).realize(&NoBindings).unwrap();
        let vals: Vec<i64> = d.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);
        let c = concat(a, b).realize(&NoBindings).unwrap();
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn range0_matches_python() {
        let r = range0(4).realize(&NoBindings).unwrap();
        let vals: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nth_value_and_membership() {
        let r = Realized::Range { start: 1, stop: 20, step: 3 }; // 1,4,7,10,13,16,19
        assert_eq!(r.nth_value(0), Some(Value::Int(1)));
        assert_eq!(r.nth_value(3), Some(Value::Int(10)));
        assert_eq!(r.nth_value(7), None);
        assert!(r.contains_int(13));
        assert!(!r.contains_int(14));
        assert!(!r.contains_int(22));
        assert_eq!(r.position_of(16), Some(5));
        assert_eq!(r.position_of(2), None);

        let down = Realized::Range { start: 9, stop: 0, step: -3 }; // 9,6,3
        assert!(down.contains_int(6));
        assert!(!down.contains_int(0));
        assert_eq!(down.position_of(3), Some(2));
        assert_eq!(down.nth_value(2), Some(Value::Int(3)));

        let vals = Realized::Values(vec![Value::Int(5), Value::Int(2)]);
        assert!(vals.contains_int(2));
        assert_eq!(vals.position_of(5), Some(0));
        assert_eq!(vals.nth_value(1), Some(Value::Int(2)));
    }

    #[test]
    fn huge_range_len_does_not_overflow() {
        let r = Realized::Range { start: i64::MIN / 2, stop: i64::MAX / 2, step: 1 };
        assert_eq!(r.len(), i64::MAX as usize);
        assert_eq!(range_len(0, 10, 3), 4);
        assert_eq!(range_len(10, 0, -3), 4);
        assert_eq!(range_len(5, 5, 1), 0);
        assert_eq!(range_len(5, 0, 1), 0);
        // Spans and strides past `i64` are exact too.
        assert_eq!(range_len(i64::MIN, i64::MAX, 1), u64::MAX);
        assert_eq!(range_len(-2, i64::MAX, 1), i64::MAX as u64 + 2);
        assert_eq!(range_len(i64::MAX, i64::MIN, -1), u64::MAX);
        assert_eq!(range_len(0, -10, i64::MIN), 1);
        assert_eq!(range_len(i64::MIN, i64::MAX, i64::MAX), 3);
        assert_eq!(range_len(0, 1, 0), 0);
    }
}
