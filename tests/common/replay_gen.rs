//! The seeded space generator of `tests/replay.rs`: loop nests with
//! iterators nothing reads sprinkled through them — the shape the compiled
//! engine replays instead of re-enumerating — next to every shape that
//! looks similar and must *not* replay. Included by path, beside
//! `narrow_gen.rs`, whose [`Lcg`] it draws from.

use std::sync::Arc;

use beast::prelude::*;

use super::narrow_gen::Lcg;

/// What the generator built, and what it expects of the recogniser.
pub struct Generated {
    pub space: Arc<Space>,
    /// The loop nest, outermost first (`LoopOrder::Explicit`).
    pub order: Vec<String>,
    /// The loops that must replay, in nest order: read by nothing, not
    /// outermost, nothing opaque below.
    pub replayable: Vec<String>,
    /// Every loop read by nothing, in nest order, but the opaque iterator:
    /// the exact counter's free levels wherever the level's run is empty.
    #[allow(dead_code)]
    pub unread: Vec<String>,
}

/// One loop of the skeleton every space shares (each optional but `o`, `x`
/// and `y`), with unread loops inserted at random gaps:
///
/// ```text
/// o in 1..=o_len                        loop 0 unless an unread loop lands above it
///   [p in 1..5]                         read by x's bound and its first check
///     x in 1..13/p+2 | 0..6
///       [check p * x != 12]             opens the body: x is narrowed
///       t = x * o ; check t > thr
///       y in 0..3 | 0..9                check (y + o) % 3 == 0 — a filter loop
///         [b in 1..3 ; z in 0..b+1]     b read only by a bind bound; z by nothing
///         [c in 0..3 ; check c == 1]    c read only by a check
///           [opaque define | constraint | iterator over y]
/// ```
pub fn generate(seed: u64) -> Generated {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A);
    let o = || var("o");
    let x = || var("x");
    let y = || var("y");

    // The skeleton, as (name, read-by-something) in nest order.
    let with_p = rng.below(2) == 0;
    let with_bz = rng.below(3) == 0;
    let with_c = rng.below(3) == 0;
    // 0 = none, 1 = define, 2 = constraint, 3 = iterator.
    let opaque = if rng.below(4) == 0 { 1 + rng.below(3) } else { 0 };
    let mut nest: Vec<(String, bool)> = vec![("o".into(), true)];
    if with_p {
        nest.push(("p".into(), true));
    }
    nest.push(("x".into(), true));
    nest.push(("y".into(), true));
    if with_bz {
        nest.push(("b".into(), true));
        nest.push(("z".into(), false));
    }
    if with_c {
        nest.push(("c".into(), true));
    }
    if opaque == 3 {
        nest.push(("q".into(), false));
    }

    // Unread loops at random gaps — gap 0 puts one *above* `o`, where it is
    // the outermost loop and must not replay. Adjacent runs happen by
    // collision; every fourth seed forces a run of two to four.
    let n_unread = 1 + rng.below(4);
    let run_at = seed.is_multiple_of(4).then(|| 1 + rng.below(nest.len()));
    let mut gaps: Vec<usize> = (0..n_unread)
        .map(|_| run_at.unwrap_or_else(|| rng.below(nest.len() + 1)))
        .collect();
    if run_at.is_some() && gaps.len() < 2 {
        gaps.push(gaps[0]);
    }
    gaps.sort_unstable();
    for (k, gap) in gaps.iter().enumerate().rev() {
        nest.insert(*gap, (format!("u{k}"), false));
    }
    let order: Vec<String> = nest.iter().map(|(n, _)| n.clone()).collect();
    let pos = |name: &str| order.iter().position(|n| n == name);

    // Declare everything. Declaration order only matters among the
    // constraints of one level (`px` must open x's body to narrow it).
    let mut b = Space::builder(&format!("replay_{seed}"));
    let o_len = 1 + rng.below(3) as i64;
    let mut long_used = false;
    for (name, _) in &nest {
        let below_o = pos(name) > pos("o");
        let below_x = pos(name) > pos("x");
        b = match name.as_str() {
            "o" => b.range("o", 1, 1 + o_len),
            "p" => b.range("p", 1, 5),
            "x" if with_p => b.range("x", 1, lit(13) / var("p") + 2),
            "x" => b.range("x", 0, 6),
            "y" => b.range("y", 0, rng.of(&[3i64, 9])),
            "b" => b.range("b", 1, 3),
            "z" => b.range("z", 0, var("b") + 1),
            "c" => b.range("c", 0, 3),
            "q" => b.deferred_iter("q", &["y"], |env| {
                let y = env.require_int("y")?;
                Ok(Realized::Range { start: 0, stop: 1 + y % 3, step: 1 })
            }),
            u => match rng.below(12) {
                0..=2 => b.range(u, 0, 2),
                3 => b.range(u, -1, 2),
                4 => b.list(u, [5i64, -2, 9]),
                5 => b.list(u, [7i64]),
                6 => b.range_step(u, 4, 0, -2),
                7 => b.range(u, 7, 8),
                8 => b.range(u, 3, 3),
                9 if below_o => b.range(u, o(), o() + 2),
                10 if below_o => b.range_step(u, o() + 1, o() - 2, -1),
                10 if below_x => b.range(u, 0, x() % 3),
                11 if !long_used => {
                    long_used = true;
                    b.range(u, 0, 8 + rng.below(4) as i64)
                }
                _ => b.range(u, 0, 2),
            },
        };
    }
    if with_p {
        b = b.constraint("px", ConstraintClass::Correctness, (var("p") * x()).ne(12));
    }
    b = b
        .derived("t", x() * o())
        .constraint("big", ConstraintClass::Hard, var("t").gt(rng.of(&[4i64, 9, 30])))
        .constraint("oy", ConstraintClass::Soft, ((y() + o()) % 3).eq(0));
    if with_c {
        b = b.constraint("cc", ConstraintClass::Soft, var("c").eq(1));
    }
    b = match opaque {
        1 => b.derived_fn("f", &["y"], |env| Ok(Value::Int(env.require_int("y")? * 2))),
        2 => b.constraint_fn("k", ConstraintClass::Soft, &["y"], |env| {
            Ok(env.require_int("y")? == 7)
        }),
        _ => b,
    };

    // An opaque define / constraint over `y` is hoisted into y's body, ahead
    // of the next bind: it sits *below* every loop down to `y` and above the
    // rest. An opaque iterator sits below every loop but itself.
    let opaque_below = |i: usize| match opaque {
        0 => false,
        1 | 2 => i <= pos("y").unwrap(),
        _ => i < pos("q").unwrap(),
    };
    let replayable = nest
        .iter()
        .enumerate()
        .filter(|(i, (_, read))| *i > 0 && !read && !opaque_below(*i))
        .map(|(_, (n, _))| n.clone())
        .collect();
    let unread =
        nest.iter().filter(|(n, read)| !read && n != "q").map(|(n, _)| n.clone()).collect();
    Generated { space: b.build().unwrap(), order, replayable, unread }
}
