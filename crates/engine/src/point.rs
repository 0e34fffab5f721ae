//! Surviving points of a search-space sweep.

use std::fmt;
use std::sync::Arc;

use beast_core::expr::Bindings;
use beast_core::value::Value;

/// An owned surviving point: the values of every iterator and derived
/// variable at a tuple that passed all pruning constraints.
///
/// A point whose values are all integers — every point the compiled engine,
/// the VM and the samplers produce — is one flat `i64` row in slot order,
/// one allocation of `8 × len` bytes beside the shared name table. Only a
/// walker point that carries a non-integer value (from a `derived_fn` or an
/// opaque iterator) keeps the general [`Value`] form. [`Point::new`] picks
/// the form, so two points with equal values are equal however they were
/// built.
#[derive(Clone, PartialEq)]
pub struct Point {
    names: Arc<[Arc<str>]>,
    repr: Repr,
}

/// The two storage forms of a [`Point`]. A `Values` row always holds at
/// least one non-`Int` value — all-integer values are stored as `Ints` —
/// so the two forms never hold equal values and the derived `==` is
/// value equality.
#[derive(Clone, PartialEq)]
enum Repr {
    Ints(Box<[i64]>),
    Values(Box<[Value]>),
}

impl Point {
    /// Construct from parallel name/value lists; all-integer values are
    /// stored as one `i64` row.
    pub fn new(names: Arc<[Arc<str>]>, values: Vec<Value>) -> Point {
        debug_assert_eq!(names.len(), values.len());
        let repr = if values.iter().all(|v| matches!(v, Value::Int(_))) {
            Repr::Ints(values.iter().map(|v| v.as_int().expect("an Int")).collect())
        } else {
            Repr::Values(values.into_boxed_slice())
        };
        Point { names, repr }
    }

    /// Construct from an integer row in slot order. A `Vec` whose capacity
    /// equals its length (such as `vec![0; n]`) becomes the row without
    /// copying.
    pub fn from_ints(names: Arc<[Arc<str>]>, row: impl Into<Box<[i64]>>) -> Point {
        let row = row.into();
        debug_assert_eq!(names.len(), row.len());
        Point { names, repr: Repr::Ints(row) }
    }

    /// Variable names, in slot order (iterators first, then derived).
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// True if this point's name table is `names` itself (not merely an
    /// equal copy), so slot `i` of `names` is value `i` of this point.
    pub fn shares_names(&self, names: &Arc<[Arc<str>]>) -> bool {
        Arc::ptr_eq(&self.names, names)
    }

    /// Variable values, parallel to [`Point::names`].
    pub fn values(&self) -> Values<'_> {
        match &self.repr {
            Repr::Ints(row) => Values::Ints(row),
            Repr::Values(values) => Values::Any(values),
        }
    }

    /// The integer row in slot order; `None` for a point that carries a
    /// non-integer value.
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.repr {
            Repr::Ints(row) => Some(row),
            Repr::Values(_) => None,
        }
    }

    /// Look up a variable by name.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.names.iter().position(|n| &**n == name).map(|i| self.values().at(i))
    }

    /// Look up an integer variable by name; panics with a clear message if
    /// missing or non-integer (points produced by the engines are integral).
    pub fn get_int(&self, name: &str) -> i64 {
        self.get(name)
            .unwrap_or_else(|| panic!("point has no variable `{name}`"))
            .as_int()
            .unwrap_or_else(|_| panic!("variable `{name}` is not an integer"))
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the point has no variables (never produced by the engines).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Point")
            .field("names", &self.names)
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.names.iter().zip(self.values().iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, "}}")
    }
}

impl Bindings for Point {
    fn get(&self, name: &str) -> Option<Value> {
        Point::get(self, name)
    }
}

/// A borrowed view of a [`Point`]'s values, read as [`Value`]s whichever
/// form the point is stored in. `Debug` and `==` behave as for `[Value]`.
#[derive(Clone, Copy)]
pub enum Values<'a> {
    /// An integer row.
    Ints(&'a [i64]),
    /// General values (at least one is not an integer).
    Any(&'a [Value]),
}

impl<'a> Values<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Values::Ints(row) => row.len(),
            Values::Any(values) => values.len(),
        }
    }

    /// True if there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn at(&self, i: usize) -> Value {
        match self {
            Values::Ints(row) => Value::Int(row[i]),
            Values::Any(values) => values[i].clone(),
        }
    }

    /// The values in slot order.
    pub fn iter(self) -> impl Iterator<Item = Value> + 'a {
        (0..self.len()).map(move |i| self.at(i))
    }
}

impl PartialEq for Values<'_> {
    fn eq(&self, other: &Values<'_>) -> bool {
        match (self, other) {
            (Values::Ints(a), Values::Ints(b)) => a == b,
            (Values::Any(a), Values::Any(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl fmt::Debug for Values<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A borrowed view of the current point, handed to visitors without
/// allocating. Backends expose either a flat slot array (VM / compiled) or a
/// generic binding environment (walker).
pub enum PointRef<'a> {
    /// Slot-array form.
    Slots {
        /// Variable names in slot order.
        names: &'a [Arc<str>],
        /// Slot values.
        slots: &'a [i64],
    },
    /// Generic environment form.
    Env {
        /// Variable names.
        names: &'a [Arc<str>],
        /// The environment to read them from.
        env: &'a dyn Bindings,
    },
}

impl PointRef<'_> {
    /// Variable names.
    pub fn names(&self) -> &[Arc<str>] {
        match self {
            PointRef::Slots { names, .. } | PointRef::Env { names, .. } => names,
        }
    }

    /// Value of variable `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            PointRef::Slots { slots, .. } => Value::Int(slots[i]),
            PointRef::Env { names, env } => env
                .get(&names[i])
                .expect("visited point must have all variables bound"),
        }
    }

    /// Look up a variable by name.
    pub fn get(&self, name: &str) -> Option<Value> {
        match self {
            PointRef::Slots { names, slots } => names
                .iter()
                .position(|n| &**n == name)
                .map(|i| Value::Int(slots[i])),
            PointRef::Env { env, .. } => env.get(name),
        }
    }

    /// Materialize into an owned [`Point`]: a slot view copies its slot
    /// slice into the point's row.
    pub fn to_point(&self, names: &Arc<[Arc<str>]>) -> Point {
        match self {
            PointRef::Slots { names: view, slots } => {
                Point::from_ints(Arc::clone(names), &slots[..view.len()])
            }
            PointRef::Env { names: view, .. } => {
                Point::new(Arc::clone(names), (0..view.len()).map(|i| self.value(i)).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Arc<[Arc<str>]> {
        Arc::from(vec![Arc::<str>::from("a"), Arc::<str>::from("b")].into_boxed_slice())
    }

    #[test]
    fn point_lookup_and_display() {
        let p = Point::new(names(), vec![Value::Int(3), Value::Int(7)]);
        assert_eq!(p.get_int("a"), 3);
        assert_eq!(p.get("b"), Some(Value::Int(7)));
        assert_eq!(p.get("c"), None);
        assert_eq!(p.to_string(), "{a=3, b=7}");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn point_is_bindings() {
        let p = Point::new(names(), vec![Value::Int(3), Value::Int(7)]);
        assert_eq!(Bindings::get(&p, "a"), Some(Value::Int(3)));
    }

    #[test]
    fn slot_view_roundtrip() {
        let ns = names();
        let slots = [10i64, 20];
        let view = PointRef::Slots { names: &ns, slots: &slots };
        assert_eq!(view.get("b"), Some(Value::Int(20)));
        let p = view.to_point(&ns);
        assert_eq!(p.get_int("a"), 10);
    }

    #[test]
    fn row_and_value_built_points_are_one_point() {
        let row = Point::from_ints(names(), vec![3, 7]);
        let built = Point::new(names(), vec![Value::Int(3), Value::Int(7)]);
        assert_eq!(row, built);
        assert_eq!(row.values(), built.values());
        assert_eq!(format!("{row:?}"), format!("{built:?}"));
        assert_eq!(row.to_string(), built.to_string());
        // The view prints and compares as the `[Value]` it stands for.
        let values = [Value::Int(3), Value::Int(7)];
        assert_eq!(format!("{:?}", row.values()), format!("{:?}", &values[..]));
        assert_eq!(row.values(), Values::Any(&values));
        assert_ne!(row, Point::from_ints(names(), vec![3, 8]));
        for p in [&row, &built] {
            assert_eq!(p.ints(), Some(&[3, 7][..]));
            for (name, &x) in p.names().iter().zip(p.ints().unwrap()) {
                assert_eq!(p.get(name), Some(Value::Int(x)));
                assert_eq!(p.get_int(name), x);
            }
        }
    }

    #[test]
    fn an_integral_point_is_one_row_allocation() {
        assert!(std::mem::size_of::<Point>() <= 40);
        let row = vec![0i64; 29];
        let addr = row.as_ptr();
        let names: Arc<[Arc<str>]> = (0..29).map(|i| Arc::from(format!("v{i}"))).collect();
        let p = Point::from_ints(names, row);
        // The slot buffer became the row: no copy, no second allocation.
        assert_eq!(p.ints().unwrap().as_ptr(), addr);
        assert_eq!(std::mem::size_of_val(p.ints().unwrap()), 8 * 29);
    }

    #[test]
    fn non_integer_walker_point_keeps_its_values() {
        let values = vec![Value::Int(3), Value::Str(Arc::from("double"))];
        let p = Point::new(names(), values.clone());
        assert_eq!(p.ints(), None);
        assert_eq!(p.values(), Values::Any(&values));
        assert_eq!(p.values().iter().collect::<Vec<_>>(), values);
        assert_eq!(p.get("b"), Some(Value::Str(Arc::from("double"))));
        assert_eq!(p.get_int("a"), 3);
        assert_eq!(p.to_string(), r#"{a=3, b="double"}"#);
        // A boolean is not an integer: it keeps its type too.
        let flag = Point::new(names(), vec![Value::Int(1), Value::Bool(true)]);
        assert_eq!(flag.get("b"), Some(Value::Bool(true)));
        assert_ne!(flag, Point::from_ints(names(), vec![1, 1]));
    }

    #[test]
    #[should_panic(expected = "has no variable")]
    fn get_int_panics_on_missing() {
        let p = Point::new(names(), vec![Value::Int(1), Value::Int(2)]);
        p.get_int("zzz");
    }
}
