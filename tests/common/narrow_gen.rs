//! The seeded space generator of the loop-narrowing suites: shared by
//! `tests/narrowing.rs` (compiled engine vs VM / walker),
//! `tests/cross_backend.rs` (narrowed native C worker vs the same oracles)
//! and `tests/replay.rs` (its `y` loop is read by nothing whenever `dy` is
//! absent), which include this file by path. `replay_gen.rs` draws from the
//! same [`Lcg`].

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
