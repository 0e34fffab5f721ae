//! Sampling points from a pruned search space.
//!
//! The sampler walks the lowered plan in loop order: at each iterator it
//! realizes the domain *under the values chosen so far* (dependent ranges
//! work exactly as in exhaustive enumeration), picks one value uniformly,
//! computes derived variables, and applies every pruning constraint.
//! A rejected tuple is discarded and the walk restarts — rejection sampling,
//! which needs on the order of `1 / survival-rate` attempts per point and is
//! therefore paired with generous retry budgets for heavily pruned spaces.

use std::sync::Arc;

use beast_core::error::EvalError;
use beast_core::ir::{LStep, LoweredPlan};
use beast_core::iterator::Realized;
use beast_core::pointprog::{RunExit, RunSpec, StepProgs};
use beast_engine::point::Point;
use rand::Rng;

/// Outcome counters of a sampling session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Completed (constraint-satisfying) points produced.
    pub accepted: u64,
    /// Walks abandoned because a constraint rejected the partial tuple.
    pub rejected: u64,
    /// Walks abandoned because a realized domain was empty.
    pub dead_ends: u64,
}

/// A uniform-ish sampler over the surviving points of a space.
///
/// Uniformity caveat (documented, inherent to sequential sampling): values
/// are drawn uniformly *per dimension given the prefix*, so tuples under
/// prefixes with larger subtrees are not over-weighted the way exhaustive
/// subtree sizes would demand. For autotuning search this bias is harmless —
/// every surviving point has nonzero probability — and it is what makes
/// sampling O(depth) instead of O(space).
pub struct Sampler<'a, R: Rng> {
    lp: &'a LoweredPlan,
    /// The plan's expressions, compiled once to run programs.
    progs: StepProgs<'a>,
    rng: R,
    names: Arc<[Arc<str>]>,
    /// The slot of every bind, in step order: the dimensions a neighbor
    /// move may mutate.
    iter_slots: Vec<u32>,
    /// The value file and open loops of a walk, reused across walks.
    file: Vec<i64>,
    frames: Vec<Frame>,
    /// Counters.
    pub stats: SampleStats,
}

impl<'a, R: Rng> Sampler<'a, R> {
    /// Create a sampler over a lowered plan.
    pub fn new(lp: &'a LoweredPlan, rng: R) -> Sampler<'a, R> {
        let names: Arc<[Arc<str>]> = Arc::from(lp.slot_names.clone().into_boxed_slice());
        let progs = StepProgs::new(lp, RunSpec::CHECKED);
        Sampler {
            lp,
            file: progs.runs().file(),
            progs,
            rng,
            names,
            iter_slots: bind_slots(lp),
            frames: Vec::new(),
            stats: SampleStats::default(),
        }
    }

    /// Variable names of produced points (slot order).
    pub fn names(&self) -> &Arc<[Arc<str>]> {
        &self.names
    }

    /// Attempt one randomized walk with bounded backtracking;
    /// `Ok(None)` when the backtrack budget is exhausted without reaching a
    /// surviving point.
    ///
    /// Unlike naive rejection sampling (restart the whole walk on any
    /// constraint failure), a failed check backtracks to the most recent
    /// loop and retries other values there before giving up on the prefix —
    /// randomized depth-first search. Heavily pruned spaces such as the
    /// paper's GEMM problem have per-point survival rates around 1e-6 under
    /// independent sampling; backtracking recovers tractability while every
    /// produced point still satisfies every constraint.
    pub fn try_sample(&mut self) -> Result<Option<Point>, EvalError> {
        let outcome = self.walk(None)?;
        match &outcome {
            Some(_) => self.stats.accepted += 1,
            None => self.stats.rejected += 1,
        }
        Ok(outcome)
    }

    /// Sample one surviving point, retrying up to `max_attempts` walks.
    pub fn sample(&mut self, max_attempts: usize) -> Result<Option<Point>, EvalError> {
        for _ in 0..max_attempts.max(1) {
            if let Some(p) = self.try_sample()? {
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Draw a random neighbor of a surviving point: choose one iterator
    /// dimension, force it to a different value of its domain, keep other
    /// values where still valid, and let the backtracking walk repair the
    /// rest.
    pub fn neighbor(
        &mut self,
        point: &Point,
        max_attempts: usize,
    ) -> Result<Option<Point>, EvalError> {
        for _ in 0..max_attempts.max(1) {
            let pick = self.iter_slots[self.rng.gen_range(0..self.iter_slots.len())];
            if let Some(p) = self.walk(Some((pick, point)))? {
                // Guarantee the neighbor differs somewhere.
                if p != *point {
                    return Ok(Some(p));
                }
            }
        }
        Ok(None)
    }

    /// Core randomized-DFS walk. When `neighbor_of` is `Some((s, reference))`,
    /// the walk behaves as a neighborhood move around `reference`: slot `s`
    /// is forced to a value different from the reference, every other slot
    /// prefers its reference value (falling back to random when
    /// invalidated).
    fn walk(&mut self, neighbor_of: Option<(u32, &Point)>) -> Result<Option<Point>, EvalError> {
        let mut file = std::mem::take(&mut self.file);
        let mut frames = std::mem::take(&mut self.frames);
        let walked = self.walk_in(&mut file, &mut frames, neighbor_of);
        (self.file, self.frames) = (file, frames);
        walked
    }

    /// [`Sampler::walk`] over the reused value file and frame stack.
    fn walk_in(
        &mut self,
        slots: &mut [i64],
        frames: &mut Vec<Frame>,
        neighbor_of: Option<(u32, &Point)>,
    ) -> Result<Option<Point>, EvalError> {
        const TRIES_PER_LEVEL: usize = 6;
        const BACKTRACK_BUDGET: usize = 4096;

        let n = self.lp.n_slots as usize;
        // Every walk starts from zero slots, as a fresh buffer would: a
        // bind's bounds may read its own, not yet written slot.
        slots[..n].fill(0);
        frames.clear();
        let mut backtracks = BACKTRACK_BUDGET;
        let mut i = 0usize;
        let mutate_slot = neighbor_of.map(|(m, _)| m);

        loop {
            if let Some(run) = self.progs.runs().at(i) {
                match run.run(slots, 0).map_err(|f| f.error)? {
                    RunExit::Pass => i = run.end(),
                    RunExit::Reject(_) => {
                        if !backtrack(frames, slots, &mut i, &mut backtracks, &mut self.rng) {
                            return Ok(None);
                        }
                    }
                }
                continue;
            }
            // Past the runs: binds, opaque steps and the visit.
            match &self.lp.steps[i] {
                LStep::Bind { slot, .. } => {
                    let realized = self.progs.realize(i, slots)?;
                    let len = realized.len();
                    if len == 0 {
                        self.stats.dead_ends += 1;
                        if !backtrack(frames, slots, &mut i, &mut backtracks, &mut self.rng) {
                            return Ok(None);
                        }
                        continue;
                    }
                    let reference_value =
                        neighbor_of.and_then(|(_, r)| reference_int(r, &self.names, *slot));
                    let value = match (mutate_slot, reference_value) {
                        (Some(m), Some(cur)) if m == *slot => {
                            // Forced move: a different value of this domain.
                            if len == 1 {
                                return Ok(None);
                            }
                            loop {
                                let idx = self.rng.gen_range(0..len);
                                let cand =
                                    realized.nth_value(idx).expect("in range").as_int()?;
                                if cand != cur {
                                    break cand;
                                }
                            }
                        }
                        (Some(_), Some(cur)) if realized.contains_int(cur) => cur,
                        _ => {
                            let idx = self.rng.gen_range(0..len);
                            realized.nth_value(idx).expect("in range").as_int()?
                        }
                    };
                    slots[*slot as usize] = value;
                    frames.push(Frame {
                        step_idx: i,
                        slot: *slot,
                        domain: realized,
                        tries_left: TRIES_PER_LEVEL.min(len.saturating_sub(1)),
                    });
                    i += 1;
                }
                LStep::Define { slot, .. } => {
                    slots[*slot as usize] = self.progs.opaque_define(i, slots)?;
                    i += 1;
                }
                LStep::Check { .. } => {
                    if self.progs.opaque_rejects(i, slots)? {
                        if !backtrack(frames, slots, &mut i, &mut backtracks, &mut self.rng) {
                            return Ok(None);
                        }
                    } else {
                        i += 1;
                    }
                }
                LStep::Visit => {
                    return Ok(Some(Point::from_ints(Arc::clone(&self.names), &slots[..n])));
                }
            }
        }
    }

    /// Re-evaluate a *complete* assignment of iterator values: recompute
    /// derived variables and constraints, returning the full point if every
    /// constraint passes and every iterator value lies in its (re-realized)
    /// domain. An assignment missing an iterator the walk reaches is
    /// [`EvalError::Unbound`] with that iterator's name.
    pub fn evaluate_assignment(
        &mut self,
        iter_values: &[(u32, i64)],
    ) -> Result<Option<Point>, EvalError> {
        let n = self.lp.n_slots as usize;
        let mut slots = std::mem::take(&mut self.file);
        slots[..n].fill(0);
        let checked = self.check_assignment(&mut slots, iter_values);
        let point =
            checked.map(|ok| ok.then(|| Point::from_ints(Arc::clone(&self.names), &slots[..n])));
        self.file = slots;
        point
    }

    /// Walk every step of the plan over `slots` with the bind values of
    /// `iter_values`: `false` when a value leaves its domain or a check
    /// rejects.
    fn check_assignment(
        &self,
        slots: &mut [i64],
        iter_values: &[(u32, i64)],
    ) -> Result<bool, EvalError> {
        let value_of = |slot: u32| -> Result<i64, EvalError> {
            iter_values
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, v)| *v)
                .ok_or_else(|| EvalError::Unbound(self.lp.slot_names[slot as usize].to_string()))
        };
        let mut i = 0;
        loop {
            if let Some(run) = self.progs.runs().at(i) {
                match run.run(slots, 0).map_err(|f| f.error)? {
                    RunExit::Pass => i = run.end(),
                    RunExit::Reject(_) => return Ok(false),
                }
                continue;
            }
            match &self.lp.steps[i] {
                LStep::Bind { slot, .. } => {
                    let v = value_of(*slot)?;
                    if !self.progs.realize(i, slots)?.contains_int(v) {
                        return Ok(false);
                    }
                    slots[*slot as usize] = v;
                }
                LStep::Define { slot, .. } => {
                    slots[*slot as usize] = self.progs.opaque_define(i, slots)?;
                }
                LStep::Check { .. } => {
                    if self.progs.opaque_rejects(i, slots)? {
                        return Ok(false);
                    }
                }
                LStep::Visit => return Ok(true),
            }
            i += 1;
        }
    }
}

/// The slot of every bind of `lp`, in step order.
pub(crate) fn bind_slots(lp: &LoweredPlan) -> Vec<u32> {
    lp.steps
        .iter()
        .filter_map(|s| match s {
            LStep::Bind { slot, .. } => Some(*slot),
            _ => None,
        })
        .collect()
}

/// The integer value of `slot` in a neighbor move's `reference`: read from
/// its row by slot when the reference shares the sampler's name table
/// `names`, looked up by name otherwise.
pub(crate) fn reference_int(reference: &Point, names: &Arc<[Arc<str>]>, slot: u32) -> Option<i64> {
    match reference.ints() {
        Some(row) if reference.shares_names(names) => Some(row[slot as usize]),
        _ => reference.get(&names[slot as usize]).and_then(|v| v.as_int().ok()),
    }
}

/// One open loop of a randomized-DFS walk.
struct Frame {
    step_idx: usize,
    slot: u32,
    domain: Realized,
    tries_left: usize,
}

/// Retry a different value at the most recent loop with retries left; pop
/// exhausted frames. Returns `false` when the walk is out of options.
fn backtrack<R: Rng>(
    frames: &mut Vec<Frame>,
    slots: &mut [i64],
    i: &mut usize,
    backtracks: &mut usize,
    rng: &mut R,
) -> bool {
    loop {
        let Some(frame) = frames.last_mut() else {
            return false;
        };
        if frame.tries_left > 0 && *backtracks > 0 {
            *backtracks -= 1;
            frame.tries_left -= 1;
            let len = frame.domain.len();
            let idx = rng.gen_range(0..len);
            slots[frame.slot as usize] = frame
                .domain
                .nth_value(idx)
                .expect("index in range")
                .as_int()
                .expect("integer domain");
            *i = frame.step_idx + 1;
            return true;
        }
        frames.pop();
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
        Space::builder("sample_mini")
            .constant("cap", 30)
            .range("a", 1, 9)
            .range_step("b", var("a"), 33, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap()
    }

    #[test]
    fn samples_satisfy_constraints() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(1));
        for _ in 0..100 {
            let p = sampler.sample(1000).unwrap().expect("space is non-empty");
            let (a, b, ab) = (p.get_int("a"), p.get_int("b"), p.get_int("ab"));
            assert_eq!(ab, a * b);
            assert!(ab <= 30);
            assert!(b % a == 0 && (1..33).contains(&b));
        }
        assert!(sampler.stats.accepted == 100);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let space = mini();
        let lp = lowered(&space);
        let p1 = Sampler::new(&lp, StdRng::seed_from_u64(7)).sample(100).unwrap();
        let p2 = Sampler::new(&lp, StdRng::seed_from_u64(7)).sample(100).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn sampling_eventually_covers_the_space() {
        // Enumerate ground truth, then sample until everything is seen.
        use beast_engine::compiled::Compiled;
        use beast_engine::visit::CollectVisitor;
        let space = mini();
        let lp = lowered(&space);
        let compiled = Compiled::new(lp.clone());
        let all = compiled
            .run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX))
            .unwrap()
            .visitor
            .points;
        let want: std::collections::BTreeSet<(i64, i64)> =
            all.iter().map(|p| (p.get_int("a"), p.get_int("b"))).collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(3));
        for _ in 0..5000 {
            if let Some(p) = sampler.try_sample().unwrap() {
                seen.insert((p.get_int("a"), p.get_int("b")));
            }
            if seen == want {
                break;
            }
        }
        assert_eq!(seen, want, "sampler failed to reach some survivors");
    }

    #[test]
    fn evaluate_assignment_validates() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(5));
        // a=2, b=4: valid (ab=8 <= 30).
        let ok = sampler.evaluate_assignment(&[(0, 2), (1, 4)]).unwrap();
        assert!(ok.is_some());
        assert_eq!(ok.unwrap().get_int("ab"), 8);
        // a=2, b=5: 5 not a multiple of 2 → out of domain.
        assert!(sampler.evaluate_assignment(&[(0, 2), (1, 5)]).unwrap().is_none());
        // a=7, b=28: ab=196 > 30 → constraint rejects.
        assert!(sampler.evaluate_assignment(&[(0, 7), (1, 28)]).unwrap().is_none());
    }

    #[test]
    fn a_partial_assignment_names_the_missing_iterator() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(5));
        let slot = |name: &str| lp.slot_names.iter().position(|n| &**n == name).unwrap() as u32;
        let missing_b = sampler.evaluate_assignment(&[(slot("a"), 2)]);
        assert_eq!(missing_b, Err(EvalError::Unbound("b".into())));
        assert_eq!(sampler.evaluate_assignment(&[]), Err(EvalError::Unbound("a".into())));
        // A value outside its domain still answers before a later gap.
        assert_eq!(sampler.evaluate_assignment(&[(slot("a"), 20)]), Ok(None));
    }

    #[test]
    fn neighbors_are_valid_and_different() {
        let space = mini();
        let lp = lowered(&space);
        let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(9));
        let start = sampler.sample(1000).unwrap().unwrap();
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
    fn heavily_pruned_space_reports_rejections() {
        let space = Space::builder("narrow")
            .range("x", 0, 1000)
            .constraint("only_42", ConstraintClass::Generic, var("x").ne(42))
            .build()
            .unwrap();
        let lp = lowered(&space);
        let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(11));
        let p = sampler.sample(100_000).unwrap().expect("42 exists");
        assert_eq!(p.get_int("x"), 42);
        assert!(sampler.stats.rejected > 0);
    }
}
