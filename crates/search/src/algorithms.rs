//! Search algorithms over pruned spaces: random search, hill climbing and
//! simulated annealing — the "statistical search methods to address the
//! multidimensional search space growth" the paper's conclusions plan as
//! future work (Section XII).
//!
//! All algorithms are budgeted by *objective evaluations* (the expensive
//! operation in real autotuning, where each evaluation compiles and times a
//! kernel), deterministic under a seed, and return their full score history
//! so convergence can be plotted.

use beast_core::error::EvalError;
use beast_core::ir::LoweredPlan;
use beast_engine::point::Point;
use rand::Rng;

use crate::direct::DirectSampler;
use crate::sampler::Sampler;

/// Which sampler drives an algorithm's draws and neighbor moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SamplerKind {
    /// Randomized backtracking walks ([`Sampler`]): no up-front analysis,
    /// but heavily pruned spaces cost many rejected walks per point.
    #[default]
    Rejection,
    /// Count-weighted descent ([`DirectSampler`]): one exact counting pass
    /// up front, then exactly-uniform survivors with zero rejections.
    /// Fails fast (with an error) on spaces past the counting budget.
    Direct,
}

/// Budget and retry limits for a search run.
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// Maximum objective evaluations.
    pub evaluations: usize,
    /// Walk attempts per requested sample before giving up. **Rejection
    /// sampling only**: the direct sampler cannot reject a walk, so it
    /// ignores this field entirely (its `SampleStats::rejected` stays 0).
    pub attempts_per_sample: usize,
    /// Sampler driving draws and neighbor moves.
    pub sampler: SamplerKind,
}

impl Default for SearchBudget {
    fn default() -> SearchBudget {
        SearchBudget {
            evaluations: 100,
            attempts_per_sample: 10_000,
            sampler: SamplerKind::Rejection,
        }
    }
}

/// Sampler dispatch for the algorithms: both kinds expose the same
/// draw/neighbor surface, so an algorithm is generic over the trade
/// between up-front counting and per-sample rejections.
enum AnySampler<'a, R: Rng> {
    Rejection(Box<Sampler<'a, R>>),
    Direct(Box<DirectSampler<'a, R>>),
}

impl<'a, R: Rng> AnySampler<'a, R> {
    fn new(lp: &'a LoweredPlan, rng: R, kind: SamplerKind) -> Result<Self, EvalError> {
        Ok(match kind {
            SamplerKind::Rejection => AnySampler::Rejection(Box::new(Sampler::new(lp, rng))),
            SamplerKind::Direct => AnySampler::Direct(Box::new(DirectSampler::new(lp, rng)?)),
        })
    }

    fn sample(&mut self, max_attempts: usize) -> Result<Option<Point>, EvalError> {
        match self {
            AnySampler::Rejection(s) => s.sample(max_attempts),
            // Rejections are impossible: `max_attempts` has no meaning.
            AnySampler::Direct(s) => s.sample(),
        }
    }

    fn neighbor(
        &mut self,
        point: &Point,
        max_attempts: usize,
    ) -> Result<Option<Point>, EvalError> {
        match self {
            AnySampler::Rejection(s) => s.neighbor(point, max_attempts),
            AnySampler::Direct(s) => s.neighbor(point, max_attempts),
        }
    }
}

/// Result of a search run.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Best point and its score, if any valid point was found.
    pub best: Option<(f64, Point)>,
    /// Objective evaluations actually spent.
    pub evaluations: usize,
    /// Best-so-far score after each evaluation (for convergence curves).
    pub history: Vec<f64>,
}

impl SearchOutcome {
    /// The best score, or negative infinity when nothing was found.
    pub fn best_score(&self) -> f64 {
        self.best.as_ref().map(|(s, _)| *s).unwrap_or(f64::NEG_INFINITY)
    }
}

/// Pure random search: sample independently, keep the best.
pub fn random_search<R, F>(
    lp: &LoweredPlan,
    rng: R,
    budget: SearchBudget,
    mut score: F,
) -> Result<SearchOutcome, EvalError>
where
    R: Rng,
    F: FnMut(&Point) -> f64,
{
    let mut sampler = AnySampler::new(lp, rng, budget.sampler)?;
    let mut best: Option<(f64, Point)> = None;
    let mut history = Vec::with_capacity(budget.evaluations);
    let mut evaluations = 0;
    while evaluations < budget.evaluations {
        let Some(point) = sampler.sample(budget.attempts_per_sample)? else {
            break; // space (practically) exhausted or far too narrow
        };
        let s = score(&point);
        evaluations += 1;
        if best.as_ref().map(|(bs, _)| s > *bs).unwrap_or(true) {
            best = Some((s, point));
        }
        history.push(best.as_ref().map(|(bs, _)| *bs).unwrap_or(f64::NEG_INFINITY));
    }
    Ok(SearchOutcome { best, evaluations, history })
}

/// Greedy hill climbing with random restarts: move to a random neighbor
/// when it improves; after `patience` consecutive non-improving neighbors,
/// restart from a fresh sample.
pub fn hill_climb<R, F>(
    lp: &LoweredPlan,
    rng: R,
    budget: SearchBudget,
    patience: usize,
    mut score: F,
) -> Result<SearchOutcome, EvalError>
where
    R: Rng,
    F: FnMut(&Point) -> f64,
{
    let mut sampler = AnySampler::new(lp, rng, budget.sampler)?;
    let mut best: Option<(f64, Point)> = None;
    let mut history = Vec::with_capacity(budget.evaluations);
    let mut evaluations = 0;

    'outer: while evaluations < budget.evaluations {
        let Some(mut current) = sampler.sample(budget.attempts_per_sample)? else {
            break;
        };
        let mut current_score = score(&current);
        evaluations += 1;
        if best.as_ref().map(|(bs, _)| current_score > *bs).unwrap_or(true) {
            best = Some((current_score, current.clone()));
        }
        history.push(best.as_ref().map(|(bs, _)| *bs).unwrap());

        let mut stale = 0usize;
        while stale < patience && evaluations < budget.evaluations {
            let Some(candidate) = sampler.neighbor(&current, budget.attempts_per_sample)?
            else {
                continue 'outer; // no valid neighbor: restart
            };
            let s = score(&candidate);
            evaluations += 1;
            if s > current_score {
                current = candidate;
                current_score = s;
                stale = 0;
                if best.as_ref().map(|(bs, _)| s > *bs).unwrap_or(true) {
                    best = Some((s, current.clone()));
                }
            } else {
                stale += 1;
            }
            history.push(best.as_ref().map(|(bs, _)| *bs).unwrap());
        }
    }
    Ok(SearchOutcome { best, evaluations, history })
}

/// Simulated annealing: accept worsening moves with probability
/// `exp(Δ / T)`, with `T` decaying geometrically from `t0` by `cooling` per
/// evaluation. Scores are maximized.
pub fn simulated_annealing<R, F>(
    lp: &LoweredPlan,
    mut rng: R,
    budget: SearchBudget,
    t0: f64,
    cooling: f64,
    mut score: F,
) -> Result<SearchOutcome, EvalError>
where
    R: Rng,
    F: FnMut(&Point) -> f64,
{
    assert!(t0 > 0.0 && cooling > 0.0 && cooling < 1.0);
    // Split the RNG: one stream for the sampler, one for acceptance tests,
    // keeping runs reproducible regardless of internal sampling retries.
    let accept_seed: u64 = rng.gen();
    let mut accept_rng =
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(accept_seed);
    let mut sampler = AnySampler::new(lp, rng, budget.sampler)?;

    let mut history = Vec::with_capacity(budget.evaluations);
    let mut evaluations = 0;

    let Some(mut current) = sampler.sample(budget.attempts_per_sample)? else {
        return Ok(SearchOutcome { best: None, evaluations: 0, history });
    };
    let mut current_score = score(&current);
    evaluations += 1;
    let mut best: Option<(f64, Point)> = Some((current_score, current.clone()));
    history.push(current_score);

    let mut temperature = t0;
    while evaluations < budget.evaluations {
        let Some(candidate) = sampler.neighbor(&current, budget.attempts_per_sample)?
        else {
            break;
        };
        let s = score(&candidate);
        evaluations += 1;
        let delta = s - current_score;
        let accept = delta >= 0.0
            || accept_rng.gen::<f64>() < (delta / temperature.max(1e-12)).exp();
        if accept {
            current = candidate;
            current_score = s;
            if best.as_ref().map(|(bs, _)| s > *bs).unwrap_or(true) {
                best = Some((s, current.clone()));
            }
        }
        history.push(best.as_ref().map(|(bs, _)| *bs).unwrap());
        temperature *= cooling;
    }
    Ok(SearchOutcome { best, evaluations, history })
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
    use std::sync::Arc;

    /// 2-D space with a smooth unimodal objective peaking at (25, 25).
    fn hilly() -> (LoweredPlan, impl Fn(&Point) -> f64 + Clone) {
        let space: Arc<Space> = Space::builder("hilly")
            .range("x", 0, 51)
            .range("y", 0, 51)
            .constraint("hole", ConstraintClass::Generic, var("x").eq(13))
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let score = |p: &Point| {
            let (x, y) = (p.get_int("x") as f64, p.get_int("y") as f64);
            -((x - 25.0).powi(2) + (y - 25.0).powi(2))
        };
        (lp, score)
    }

    #[test]
    fn random_search_improves_monotonically() {
        let (lp, score) = hilly();
        let out = random_search(
            &lp,
            StdRng::seed_from_u64(1),
            SearchBudget { evaluations: 200, ..Default::default() },
            score,
        )
        .unwrap();
        assert_eq!(out.evaluations, 200);
        assert!(out.history.windows(2).all(|w| w[1] >= w[0]));
        let (s, p) = out.best.unwrap();
        assert!(s > -200.0, "random search should get reasonably close: {s}");
        assert_ne!(p.get_int("x"), 13, "constraint hole respected");
    }

    #[test]
    fn hill_climbing_beats_random_at_equal_budget() {
        let (lp, score) = hilly();
        let budget = SearchBudget { evaluations: 120, ..Default::default() };
        let mut hc_wins = 0;
        for seed in 0..5 {
            let r = random_search(&lp, StdRng::seed_from_u64(seed), budget, score.clone())
                .unwrap();
            let h =
                hill_climb(&lp, StdRng::seed_from_u64(seed), budget, 15, score.clone())
                    .unwrap();
            if h.best_score() >= r.best_score() {
                hc_wins += 1;
            }
        }
        assert!(hc_wins >= 3, "hill climbing should usually win ({hc_wins}/5)");
    }

    #[test]
    fn hill_climbing_finds_the_peak_with_generous_budget() {
        let (lp, score) = hilly();
        let out = hill_climb(
            &lp,
            StdRng::seed_from_u64(2),
            SearchBudget { evaluations: 2000, ..Default::default() },
            40,
            score,
        )
        .unwrap();
        let (s, p) = out.best.unwrap();
        assert!(s >= -2.0, "expected the peak neighborhood, got {s} at {p}");
    }

    #[test]
    fn annealing_runs_and_respects_budget() {
        let (lp, score) = hilly();
        let out = simulated_annealing(
            &lp,
            StdRng::seed_from_u64(3),
            SearchBudget { evaluations: 300, ..Default::default() },
            50.0,
            0.97,
            score,
        )
        .unwrap();
        assert!(out.evaluations <= 300);
        assert!(out.best_score() > -400.0);
        assert!(out.history.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn deterministic_under_seed() {
        let (lp, score) = hilly();
        let budget = SearchBudget { evaluations: 80, ..Default::default() };
        let a = hill_climb(&lp, StdRng::seed_from_u64(9), budget, 10, score.clone()).unwrap();
        let b = hill_climb(&lp, StdRng::seed_from_u64(9), budget, 10, score).unwrap();
        assert_eq!(a.best_score(), b.best_score());
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn empty_space_returns_nothing() {
        let space: Arc<Space> = Space::builder("void")
            .range("x", 0, 10)
            .constraint("always", ConstraintClass::Generic, var("x").ge(0))
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let out = random_search(
            &lp,
            StdRng::seed_from_u64(4),
            SearchBudget { evaluations: 10, attempts_per_sample: 50, ..Default::default() },
            |_| 0.0,
        )
        .unwrap();
        assert!(out.best.is_none());
        assert_eq!(out.evaluations, 0);
    }
}
