//! Statistical search over the GEMM space — the paper's announced future
//! work (Section XII), implemented: compare exhaustive enumeration against
//! random search, hill climbing and simulated annealing at a fixed
//! evaluation budget.
//!
//! ```sh
//! cargo run --release --example statistical_search [max_dim] [budget] [rejection|direct]
//! ```

use beast::prelude::*;
use beast::search::{
    hill_climb, random_search, simulated_annealing, SamplerKind, SearchBudget,
};
use beast_gemm::{build_gemm_space, point_to_config, tune_gemm, GemmSpaceParams};
use beast_gpu_sim::estimate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let max_dim: i64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let evaluations: usize =
        std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(300);
    let sampler = match std::env::args().nth(3).as_deref() {
        Some("direct") => SamplerKind::Direct,
        _ => SamplerKind::Rejection,
    };

    let params = GemmSpaceParams::reduced(max_dim);
    let space = build_gemm_space(&params).expect("space builds");
    let plan = Plan::new(&space, PlanOptions::default()).expect("plan");
    let lp = LoweredPlan::new(&plan).expect("lowering");

    // Exhaustive reference (the paper's approach).
    let t0 = std::time::Instant::now();
    let exhaustive = tune_gemm(&params, 1, 4).expect("exhaustive sweep");
    let exhaustive_best = exhaustive.best[0].perf.gflops;
    println!(
        "exhaustive: {} survivors, best {exhaustive_best:.1} GFLOP/s in {:.2?}\n",
        exhaustive.survivors,
        t0.elapsed()
    );

    let device = params.device.clone();
    let cc = params.cc();
    let precision = params.precision;
    let score = move |p: &Point| estimate(&device, &cc, &point_to_config(p), precision).gflops;

    let budget = SearchBudget { evaluations, attempts_per_sample: 100_000, sampler };
    println!(
        "{:<22} {:>10} {:>14} {:>10}",
        "method", "evals", "best GFLOP/s", "vs exh."
    );
    let report = |name: &str, out: &beast::search::SearchOutcome| {
        println!(
            "{:<22} {:>10} {:>14.1} {:>9.1}%",
            name,
            out.evaluations,
            out.best_score(),
            100.0 * out.best_score() / exhaustive_best
        );
    };
    println!(
        "{:<22} {:>10} {:>14.1} {:>9.1}%",
        "exhaustive (all)", exhaustive.survivors, exhaustive_best, 100.0
    );

    let out = random_search(&lp, StdRng::seed_from_u64(1), budget, score.clone()).unwrap();
    report("random search", &out);
    let out = hill_climb(&lp, StdRng::seed_from_u64(1), budget, 25, score.clone()).unwrap();
    report("hill climbing", &out);
    let out = simulated_annealing(
        &lp,
        StdRng::seed_from_u64(1),
        budget,
        exhaustive_best / 10.0,
        0.995,
        score,
    )
    .unwrap();
    report("simulated annealing", &out);
}
