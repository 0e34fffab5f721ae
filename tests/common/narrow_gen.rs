//! The seeded space generator of the loop-narrowing suites: shared by
//! `tests/narrowing.rs` (compiled engine vs VM / walker),
//! `tests/cross_backend.rs` (narrowed native C worker vs the same oracles)
//! and `tests/replay.rs` (its `y` loop is read by nothing whenever `dy` is
//! absent), which include this file by path. `replay_gen.rs` draws from the
//! same [`Lcg`]. [`generate_parent`] draws the parent-coefficient shapes
//! `tests/counting.rs` runs the exact counter's in-parent solve on. The
//! core and engine crates include both files in their unit tests too, where
//! `beast::prelude` names the core crate's prelude: the differential tests
//! that turn a counter or guard optimisation off through a `#[cfg(test)]`
//! hook run on these spaces.

use std::sync::Arc;

use beast::prelude::*;

/// Seeded generator (the vendored `rand` shim would do; a local LCG keeps
/// the seeds stable across shim changes).
pub struct Lcg(pub u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    pub fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }
    pub fn of<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

/// What the generator built, for per-variant assertions.
pub struct Generated {
    pub space: Arc<Space>,
    /// The equality check cannot narrow by construction (list domain, or
    /// the check reads `x` only through a derived variable).
    pub must_enumerate: bool,
}

/// One random space around a solvable first check:
///
/// ```text
/// o in 1..=o_len
///   x in range_step(start [+ o], stop [+ o], step)   | list(...)
///     check  <shape>(A, x, C) != B        B aimed at first/last/mid/off-stride/outside
///     [check (x + o) % 3 == 0]
///     d = 3x + o
///     y in 0 .. 1 + |x| % 2
///       [check (d + y) % 3 == 0]
/// ```
pub fn generate(seed: u64) -> Generated {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5);
    let o = || var("o");
    let x = || var("x");

    let o_len = 1 + rng.below(3) as i64;
    let start = rng.of(&[-9i64, -2, -1, 0, 1, 3]);
    let step = rng.of(&[1i64, 1, 1, 2, 3, -1, -2, -4]);
    let len = rng.below(12) as i64; // 0 ⇒ empty range
    let dependent = rng.below(3) == 0;
    let as_list = rng.below(8) == 0;
    // Any stop strictly inside the last stride realizes the same values.
    let slack = if len > 0 { rng.below(step.unsigned_abs() as usize) as i64 } else { 0 };
    let stop = start + step * len - step.signum() * slack;
    let shift = |k: i64| if dependent && !as_list { lit(k) + o() } else { lit(k) };

    // Coefficient and addend pools: small, zero, negative, run-time zero
    // (`o - 2`), and wrap-provoking.
    let a = rng.of(&[
        lit(1),
        lit(2),
        lit(3),
        lit(-1),
        lit(-3),
        lit(7),
        lit(0),
        o(),
        o() - 2,
        lit(i64::MAX),
        lit(i64::MIN),
        lit(1i64 << 62),
        o() * lit(1i64 << 61),
    ]);
    let c = rng.of(&[lit(0), lit(5), lit(-11), o(), lit(i64::MAX)]);

    // Aim the right-hand side at a chosen loop value.
    let strides = match rng.below(7) {
        0 => 0,                           // first
        1 => len - 1,                     // last
        2 => rng.below(len.max(1) as usize) as i64, // somewhere inside
        3 => -1,                          // one before the first
        4 => len,                         // one past the last
        5 => 1000,                        // far outside
        _ => rng.below(len.max(1) as usize) as i64,
    };
    let off_stride = i64::from(step.abs() > 1 && rng.below(5) == 0);
    let t = shift(start + step * strides + off_stride);

    let shape = rng.below(9);
    let mut b = Space::builder(&format!("narrow_{seed}")).range("o", 1, 1 + o_len);
    b = if as_list {
        b.list("x", (0..len).map(|i| start + step * i))
    } else {
        b.range_step("x", shift(start), shift(stop), step)
    };
    let first = match shape {
        0 => (a.clone() * x()).ne(a * t),
        1 => (x() * a.clone()).ne(a * t),
        2 => x().ne(t),
        3 => (x() + c.clone()).ne(t + c),
        4 => (a.clone() * x() + c.clone()).ne(a * t + c),
        5 => (a.clone() * x() + c.clone()).eq(a * t + c).not(),
        6 => (a.clone() * t + c.clone()).ne(c + x() * a),
        7 => (x() - c.clone()).ne(t - c),
        _ => {
            // The check reads x only through a define, which therefore
            // precedes it in the body: must enumerate.
            b = b.derived("xx", x() + 1);
            (var("xx") * a.clone()).ne(a * (t + 1))
        }
    };
    b = b.constraint("first", ConstraintClass::Correctness, first);
    if rng.below(2) == 0 {
        b = b.constraint("mod3", ConstraintClass::Soft, ((x() + o()) % 3).eq(0));
    }
    b = b
        .derived("d", x() * 3 + o())
        .range("y", 0, lit(1) + (x() % 2 + 2) % 2 + 1);
    if rng.below(2) == 0 {
        b = b.constraint("dy", ConstraintClass::Soft, ((var("d") + var("y")) % 3).eq(0));
    }
    Generated { space: b.build().unwrap(), must_enumerate: as_list || shape == 8 }
}

/// What [`generate_parent`] built.
#[allow(dead_code)]
pub struct ParentGenerated {
    pub space: Arc<Space>,
    /// The exact counter solves `x` from `o`'s value loop: the recogniser
    /// must accept the pair exactly then.
    pub in_parent: bool,
}

/// One random space around a solvable child `x` whose coefficient is
/// affine in its parent `o`:
///
/// ```text
/// g in 0..g_len
///   o in o_start .. o_start + o_len
///     [oo = c·o + d]                 a define between the binds: refused
///     x in range_step(start, stop [+ o], step)        bounds over o: refused
///       check (c·o + d)·x != k       spelled four ways
///       d = 3x + o
///       y in 0 .. 1 + |x| % 2
///         [check (d + y) % 3 == 0]
/// ```
///
/// `c·o + d` is small, zero at one `o`, over the grandparent `g`, faulting
/// at `g = 1` (`c = 12 / (g - 1)`) or wrap-adjacent; `k` is a constant, a
/// multiple of `g` or faults at `g = 1`. `spelled` writes the check as
/// `… || 0`, which nothing narrows: the enumerating path's twin.
#[allow(dead_code)]
pub fn generate_parent(seed: u64, spelled: bool) -> ParentGenerated {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0C0C);
    let g = || var("g");
    let o = || var("o");
    let x = || var("x");

    let g_len = 1 + rng.below(3) as i64;
    let o_start = rng.of(&[-3i64, -1, 0, 1, 2]);
    let o_len = 1 + rng.below(8) as i64;
    let start = rng.of(&[-6i64, -1, 0, 1, 3]);
    let step = rng.of(&[1i64, 1, 2, 3, -1, -2]);
    let len = rng.below(14) as i64;
    let c0 = rng.of(&[1i64, 2, -1, 3, -2]);
    let zero_at = o_start + rng.below(o_len as usize) as i64;
    let (c, d) = match rng.below(6) {
        0 => (lit(c0), lit(rng.of(&[0i64, 1, -2, 5]))),
        1 => (lit(c0), lit(-c0 * zero_at)),
        2 => (g() + 1, lit(0) - g()),
        3 => (lit(12) / (g() - 1), lit(1)),
        4 => (lit(rng.of(&[1i64 << 62, i64::MAX / 3, i64::MIN / 2])), lit(rng.of(&[0i64, 1]))),
        _ => (lit(c0), g()),
    };
    let k = match rng.below(6) {
        0 => lit(12) / (g() - 1),
        1 => g() * 6,
        _ => lit(rng.of(&[0i64, 12, 24, -36, 7, 60])),
    };
    let bounds_read_o = rng.below(6) == 0;
    let define_between = rng.below(6) == 0;

    let mut b = Space::builder(&format!("parent_{seed}"))
        .range("g", 0, g_len)
        .range("o", o_start, o_start + o_len);
    let coeff = if rng.below(2) == 0 { c * o() + d } else { d + o() * c };
    let coeff = if define_between {
        b = b.derived("oo", coeff);
        var("oo")
    } else {
        coeff
    };
    let stop = lit(start + step * len);
    b = b.range_step("x", start, if bounds_read_o { stop + o() } else { stop }, step);
    let first = match rng.below(4) {
        0 => (coeff * x()).ne(k),
        1 => (x() * coeff).ne(k),
        2 => k.ne(coeff * x()),
        _ => (coeff * x() - k).ne(0),
    };
    b = b.constraint(
        "first",
        ConstraintClass::Correctness,
        if spelled { first.or(lit(0)) } else { first },
    );
    b = b.derived("d", x() * 3 + o()).range("y", 0, lit(1) + (x() % 2 + 2) % 2 + 1);
    if rng.below(2) == 0 {
        b = b.constraint("dy", ConstraintClass::Soft, ((var("d") + var("y")) % 3).eq(0));
    }
    ParentGenerated {
        space: b.build().unwrap(),
        in_parent: !spelled && !bounds_read_o && !define_between,
    }
}

/// One random space whose level 0 reads a preamble — the defines and
/// checks the planner places before the first loop, because they read only
/// constants:
///
/// ```text
/// n in 2..=7, k in {-2, 0, 1, 3}          constants; k = 0 on some seeds
/// p = n·c + k                             expression define
/// [q = 12 / k | n / (k - k)]              divides by a constant zero at k = 0 / always
/// r = opaque(n, k)                        closure: n + |k|, or n / k (faults at k = 0)
/// [check p > lim]                         rejects the whole space on some seeds
/// x in range_step(lo, hi, s)              bounds drawn from {0, k, p, q, r, 12 - r}
///   [check (x + r) % 3 == 0 | x < q]      a level-0 check reading the preamble
///   y in 0 .. 1 + (x % 2 + 2) % 2
///     [check (x + y + p) % 2 == 0]
/// ```
///
/// Domains stay small (at most a few dozen level-0 values).
#[allow(dead_code)]
pub fn generate_with_preamble(seed: u64) -> Arc<Space> {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x9A9A);
    let (n, k, r) = (|| var("n"), || var("k"), || var("r"));
    let (p, q, x) = (|| var("p"), || var("q"), || var("x"));

    let n_val = 2 + rng.below(6) as i64;
    let k_val = rng.of(&[-2i64, 0, 1, 3]);
    let mut b = Space::builder(&format!("preamble_{seed}"))
        .constant("n", n_val)
        .constant("k", k_val)
        .derived("p", n() * rng.of(&[1i64, 2, -1]) + k());
    let with_q = rng.below(3) > 0;
    if with_q {
        b = b.derived("q", if rng.below(4) == 0 { n() / (k() - k()) } else { lit(12) / k() });
    }
    let faulting_closure = rng.below(4) == 0;
    b = b.derived_fn("r", &["n", "k"], move |env| {
        let (n, k) = (env.require_int("n")?, env.require_int("k")?);
        if faulting_closure {
            if k == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Ok(Value::Int(n / k))
        } else {
            Ok(Value::Int(n + k.abs()))
        }
    });
    if rng.below(4) == 0 {
        let lim = rng.of(&[0i64, 4, 9, 100]);
        b = b.constraint("p_big", ConstraintClass::Hard, p().gt(lim));
    }
    let mut bounds = vec![lit(0), k(), p(), r(), lit(12) - r()];
    if with_q {
        bounds.push(q());
    }
    let lo = rng.of(&bounds[..2]);
    let hi = rng.of(&bounds);
    let step = rng.of(&[1i64, 1, 2, -1]);
    b = if step > 0 { b.range_step("x", lo, hi, step) } else { b.range_step("x", hi, lo, step) };
    match rng.below(3) {
        0 => b = b.constraint("xr", ConstraintClass::Soft, ((x() + r()) % 3).eq(0)),
        1 if with_q => b = b.constraint("xq", ConstraintClass::Soft, x().lt(q())),
        _ => {}
    }
    b = b.range("y", 0, lit(1) + (x() % 2 + 2) % 2);
    if rng.below(2) == 0 {
        b = b.constraint("xyp", ConstraintClass::Soft, ((x() + var("y") + p()) % 2).eq(0));
    }
    b.build().unwrap()
}
