//! Statistical search on the real model problem: the methods must find
//! configurations whose modeled performance approaches the exhaustive
//! optimum at a tiny fraction of the evaluation budget.

use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_engine::point::Point;
use beast_gemm::{build_gemm_space, point_to_config, tune_gemm, GemmSpaceParams};
use beast_gpu_sim::estimate;
use beast_search::{hill_climb, random_search, simulated_annealing, SearchBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (GemmSpaceParams, LoweredPlan, f64, u64) {
    let params = GemmSpaceParams::reduced(32);
    let space = build_gemm_space(&params).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();
    // Exhaustive optimum for reference.
    let exhaustive = tune_gemm(&params, 1, 2).unwrap();
    let best = exhaustive.best[0].perf.gflops;
    (params, lp, best, exhaustive.survivors)
}

fn scorer(params: &GemmSpaceParams) -> impl Fn(&Point) -> f64 + Clone {
    let device = params.device.clone();
    let cc = params.cc();
    let precision = params.precision;
    move |p: &Point| estimate(&device, &cc, &point_to_config(p), precision).gflops
}

#[test]
fn all_methods_approach_the_exhaustive_optimum() {
    let (params, lp, exhaustive_best, survivors) = setup();
    let score = scorer(&params);
    // Budget: ~1% of the survivors (and far less than 1% of the raw space).
    let budget = SearchBudget {
        evaluations: (survivors / 100).clamp(100, 2000) as usize,
        attempts_per_sample: 200_000,
        ..Default::default()
    };

    let random = random_search(&lp, StdRng::seed_from_u64(1), budget, score.clone()).unwrap();
    let hc = hill_climb(&lp, StdRng::seed_from_u64(1), budget, 25, score.clone()).unwrap();
    let sa = simulated_annealing(
        &lp,
        StdRng::seed_from_u64(1),
        budget,
        exhaustive_best / 10.0,
        0.995,
        score,
    )
    .unwrap();

    for (name, outcome) in [("random", &random), ("hill_climb", &hc), ("annealing", &sa)] {
        let frac = outcome.best_score() / exhaustive_best;
        assert!(
            frac > 0.70,
            "{name}: found {:.1} of exhaustive best {exhaustive_best:.1} ({frac:.2}) \
             within {} evaluations",
            outcome.best_score(),
            outcome.evaluations
        );
    }
    // The local methods should not lose to pure random at equal budget by a
    // meaningful margin (they usually win).
    assert!(hc.best_score() >= 0.95 * random.best_score());
}

#[test]
fn search_points_are_valid_gemm_configurations() {
    let (params, lp, _, _) = setup();
    let score = scorer(&params);
    let out = random_search(
        &lp,
        StdRng::seed_from_u64(2),
        SearchBudget { evaluations: 50, attempts_per_sample: 200_000, ..Default::default() },
        score,
    )
    .unwrap();
    let (_, p) = out.best.expect("found something");
    // Spot-check the correctness constraints on the sampled winner.
    let threads = p.get_int("dim_m") * p.get_int("dim_n");
    assert_eq!(p.get_int("dim_m_a") * p.get_int("dim_n_a"), threads);
    assert_eq!(p.get_int("dim_m_b") * p.get_int("dim_n_b"), threads);
    assert_eq!(threads % 32, 0);
    assert_eq!(p.get_int("blk_m") % (p.get_int("dim_m_a") * p.get_int("dim_vec")), 0);
}
