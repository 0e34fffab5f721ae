//! Zero-rejection sampling via count-weighted descent.
//!
//! [`DirectSampler`] front-loads one exact counting pass
//! (`beast_core::analyze::count`) and then draws **exactly uniform**
//! survivors with no rejections at all: a single uniform index in
//! `[0, total)` decomposes level by level through the counter's cumulative
//! count tables — at each loop level the index selects the feasible value
//! whose cumulative-count bracket contains it and the remainder indexes
//! into that value's subtree. Every survivor corresponds to exactly one
//! index, so the draw is uniform over the *survivor set* (not merely
//! per-dimension given the prefix, the documented bias of the rejection
//! [`Sampler`](crate::Sampler)), and each sample costs O(depth × log
//! level-width).
//!
//! A draw is a pure walk of the linked tables: from [`Counter::root`], read
//! the level through a borrowed [`LevelView`], pick a value, write its slot
//! and follow the value's child link, until the leaf. Nothing is evaluated,
//! hashed or solved on the way — every value a link offers is one the count
//! proved to survive, so no check runs either. At the leaf the plan's
//! defines run once, in step order, to fill the derived slots
//! ([`Counter::fill_derived`]). A free level (no memo: its entry is its
//! domain, one count and one link) picks by a division, a solved level is a
//! one-value span whose value passes the index through unchanged.
//!
//! The trade: counting up front costs a budgeted analysis pass (milliseconds
//! on the paper's GEMM spaces, aborted with an error on spaces past the
//! budget), after which samples are effectively free — the regime an
//! autotuner lives in, where one space is sampled thousands of times.

use std::sync::Arc;

use beast_core::analyze::count::{Counter, LevelView};
use beast_core::error::EvalError;
use beast_core::ir::LoweredPlan;
use beast_engine::point::Point;
use rand::Rng;

use crate::sampler::{bind_slots, reference_int, SampleStats};

/// An exactly-uniform, zero-rejection sampler over the survivors of a
/// space, powered by the exact counting analysis.
pub struct DirectSampler<'a, R: Rng> {
    lp: &'a LoweredPlan,
    rng: R,
    names: Arc<[Arc<str>]>,
    counter: Counter<'a>,
    total: u128,
    /// The slot of every bind, in step order.
    bind_slots: Vec<u32>,
    /// The value file a draw writes its bind slots into, reused.
    file: Vec<i64>,
    /// Counters. `rejected` and `dead_ends` stay 0 by construction: the
    /// descent only ever picks values with a nonzero subtree count.
    pub stats: SampleStats,
}

impl<'a, R: Rng> DirectSampler<'a, R> {
    /// Count the space and build the sampler. Fails with an error when the
    /// counting budget is exhausted before the space is fully counted —
    /// the caller should fall back to the rejection sampler then.
    pub fn new(lp: &'a LoweredPlan, rng: R) -> Result<DirectSampler<'a, R>, EvalError> {
        let names: Arc<[Arc<str>]> = Arc::from(lp.slot_names.clone().into_boxed_slice());
        let mut counter = Counter::new(lp);
        let total = counter.total()?.ok_or_else(|| {
            EvalError::Custom(
                "direct sampler: counting budget exhausted before the space \
                 was fully counted"
                    .into(),
            )
        })?;
        Ok(DirectSampler {
            lp,
            rng,
            names,
            bind_slots: bind_slots(lp),
            file: counter.file(),
            counter,
            total,
            stats: SampleStats::default(),
        })
    }

    /// Variable names of produced points (slot order).
    pub fn names(&self) -> &Arc<[Arc<str>]> {
        &self.names
    }

    /// Exact number of survivors this sampler draws from.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Draw one exactly-uniform survivor; `Ok(None)` only when the space
    /// has no survivors at all.
    pub fn sample(&mut self) -> Result<Option<Point>, EvalError> {
        if self.total == 0 {
            return Ok(None);
        }
        let idx = uniform_u128(&mut self.rng, self.total);
        let p = self.point_at(idx)?;
        self.stats.accepted += 1;
        Ok(Some(p))
    }

    /// The `idx`-th survivor in loop order: the descent that
    /// [`DirectSampler::sample`] runs on a random index. Exposing it makes
    /// uniformity testable — distinct indices yield distinct points. An
    /// index outside `[0, total)` is an error.
    pub fn point_at(&mut self, mut idx: u128) -> Result<Point, EvalError> {
        if idx >= self.total {
            return Err(EvalError::Custom(format!(
                "direct sampler: index {idx} is out of range (the space has {} survivors)",
                self.total
            )));
        }
        let mut slots = self.fresh_file();
        let mut link = self.counter.root();
        while let Some(level) = self.counter.entry(link) {
            let (k, rem) = pick(&level, idx)?;
            slots[level.slot() as usize] = level.value_at(k);
            link = level.child(k);
            idx = rem;
        }
        self.point(slots)
    }

    /// Draw a random neighbor of a surviving point: one iterator dimension
    /// forced to a *different feasible* value, every other dimension keeping
    /// its reference value when still feasible and re-drawn count-weighted
    /// otherwise. Like every direct draw this cannot dead-end — `Ok(None)`
    /// means no differing neighbor exists along the attempted dimensions
    /// (e.g. single-value feasible domains).
    pub fn neighbor(
        &mut self,
        point: &Point,
        max_attempts: usize,
    ) -> Result<Option<Point>, EvalError> {
        if self.total == 0 {
            return Ok(None);
        }
        for _ in 0..max_attempts.max(1) {
            let mutate = self.bind_slots[self.rng.gen_range(0..self.bind_slots.len())];
            if let Some(p) = self.neighbor_walk(point, mutate)? {
                if p != *point {
                    return Ok(Some(p));
                }
            }
        }
        Ok(None)
    }

    /// One neighbor descent around `reference` mutating `mutate` slot.
    fn neighbor_walk(
        &mut self,
        reference: &Point,
        mutate: u32,
    ) -> Result<Option<Point>, EvalError> {
        let mut slots = self.fresh_file();
        let mut link = self.counter.root();
        while let Some(level) = self.counter.entry(link) {
            let slot = level.slot();
            let reference_value = reference_int(reference, &self.names, slot);
            let k = if slot == mutate {
                // Forced move: a different feasible value.
                let cur = reference_value.and_then(|c| level.position_of(c));
                if level.len() == usize::from(cur.is_some()) {
                    self.file = slots;
                    return Ok(None);
                }
                loop {
                    let k = self.rng.gen_range(0..level.len());
                    if cur.is_none_or(|c| level.value_at(k) != level.value_at(c)) {
                        break k;
                    }
                }
            } else if let Some(k) = reference_value.and_then(|c| level.position_of(c)) {
                // Keep the reference value while it stays feasible.
                k
            } else {
                // Invalidated by the mutation: count-weighted redraw so the
                // repaired suffix stays survivor-uniform.
                let r = uniform_u128(&mut self.rng, level.total());
                pick(&level, r)?.0
            };
            slots[slot as usize] = level.value_at(k);
            link = level.child(k);
        }
        self.point(slots).map(Some)
    }

    /// The reused value file, its slots zeroed as a fresh one's (a new one
    /// after a draw that failed without handing it back).
    fn fresh_file(&mut self) -> Vec<i64> {
        let mut file = std::mem::take(&mut self.file);
        if file.is_empty() {
            file = self.counter.file();
        }
        file[..self.lp.n_slots as usize].fill(0);
        file
    }

    /// The survivor whose bind slots a walk wrote into `file`, with its
    /// derived slots filled in; the file goes back for the next draw.
    fn point(&mut self, mut file: Vec<i64>) -> Result<Point, EvalError> {
        let filled = self.counter.fill_derived(&mut file);
        let point = filled
            .map(|()| Point::from_ints(Arc::clone(&self.names), &file[..self.lp.n_slots as usize]));
        self.file = file;
        point
    }
}

/// One weighted-descent step, with an index past the level's count — which
/// a consistent walk never produces — reported instead of indexed.
fn pick(entry: &LevelView<'_>, idx: u128) -> Result<(usize, u128), EvalError> {
    entry.pick(idx).ok_or_else(|| {
        EvalError::Custom(format!(
            "direct sampler: index {idx} past a level's {} survivors",
            entry.total()
        ))
    })
}

/// Uniform draw in `[0, bound)`. Bounds above `u64::MAX` combine two raw
/// draws; the resulting modulo bias is at most 2⁻⁶⁴ — unobservable, and
/// only reachable for spaces with more than 2⁶⁴ survivors.
fn uniform_u128<R: Rng>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    if bound <= u64::MAX as u128 {
        rng.gen_range(0..bound as u64) as u128
    } else {
        let raw = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
        raw % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lowered(space: &Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    fn mini() -> Arc<Space> {
        Space::builder("direct_mini")
            .constant("cap", 30)
            .range("a", 1, 9)
            .range_step("b", var("a"), 33, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap()
    }

    #[test]
    fn samples_satisfy_constraints_with_zero_rejections() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(1)).unwrap();
        for _ in 0..200 {
            let p = sampler.sample().unwrap().expect("space is non-empty");
            let (a, b, ab) = (p.get_int("a"), p.get_int("b"), p.get_int("ab"));
            assert_eq!(ab, a * b);
            assert!(ab <= 30);
            assert!(b % a == 0 && (1..33).contains(&b));
        }
        assert_eq!(sampler.stats.accepted, 200);
        assert_eq!(sampler.stats.rejected, 0);
        assert_eq!(sampler.stats.dead_ends, 0);
    }

    #[test]
    fn index_decomposition_is_a_bijection() {
        // Every index yields a distinct survivor: together with idx <
        // total this is exact uniformity of `sample`.
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(2)).unwrap();
        let total = sampler.total();
        assert!(total > 0);
        let mut seen = std::collections::BTreeSet::new();
        for idx in 0..total {
            let p = sampler.point_at(idx).unwrap();
            assert!(seen.insert((p.get_int("a"), p.get_int("b"))), "duplicate at {idx}");
        }
        assert_eq!(seen.len() as u128, total);
    }

    #[test]
    fn indices_past_the_total_are_errors_not_panics() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(2)).unwrap();
        let total = sampler.total();
        for idx in [total, total + 1, u128::MAX] {
            assert!(
                matches!(sampler.point_at(idx), Err(EvalError::Custom(_))),
                "point_at({idx}) of {total}"
            );
        }
        // The sampler is still usable afterwards.
        assert!(sampler.point_at(total - 1).is_ok());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let space = mini();
        let lp = lowered(&space);
        let a: Vec<_> = {
            let mut s = DirectSampler::new(&lp, StdRng::seed_from_u64(7)).unwrap();
            (0..20).map(|_| s.sample().unwrap().unwrap()).collect()
        };
        let b: Vec<_> = {
            let mut s = DirectSampler::new(&lp, StdRng::seed_from_u64(7)).unwrap();
            (0..20).map(|_| s.sample().unwrap().unwrap()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn neighbors_are_valid_and_different() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(9)).unwrap();
        let start = sampler.sample().unwrap().unwrap();
        for _ in 0..50 {
            let n = sampler.neighbor(&start, 100).unwrap().expect("neighbor exists");
            assert!(n.get_int("ab") <= 30);
            assert_ne!(
                (n.get_int("a"), n.get_int("b")),
                (start.get_int("a"), start.get_int("b")),
                "neighbor must differ"
            );
        }
    }

    #[test]
    fn needle_in_a_haystack_needs_one_draw() {
        // The space the rejection sampler needs ~1000 attempts for: the
        // counting pass collapses it to its single survivor.
        let space = Space::builder("direct_narrow")
            .range("x", 0, 1000)
            .constraint("only_42", ConstraintClass::Generic, var("x").ne(42))
            .build()
            .unwrap();
        let lp = lowered(&space);
        let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(sampler.total(), 1);
        let p = sampler.sample().unwrap().expect("42 exists");
        assert_eq!(p.get_int("x"), 42);
        assert_eq!(sampler.stats.rejected, 0);
    }

    #[test]
    fn empty_space_returns_none() {
        let space = Space::builder("direct_empty")
            .range("x", 0, 10)
            .constraint("none", ConstraintClass::Hard, var("x").ge(0))
            .build()
            .unwrap();
        let lp = lowered(&space);
        let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(sampler.total(), 0);
        assert!(sampler.sample().unwrap().is_none());
        let nobody = Point::new(Arc::from(Vec::new().into_boxed_slice()), Vec::new());
        assert!(sampler.neighbor(&nobody, 5).unwrap().is_none());
    }
}
